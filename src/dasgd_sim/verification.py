"""Post-hoc audits of a finished run directory.

Four checks, each recomputing its claim from the written files rather
than trusting in-memory state: model agreement and reconstruction,
staleness equivalence against the brute-force oracle, the rate ceiling
over the logged trace, and the per-event descent inequality for
deterministic runs.  Checks that do not apply to a run's mode or noise
setting report themselves as skipped with the reason.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from dasgd_sim import runio
from dasgd_sim.ledger import GradientId, summarize_applications
from dasgd_sim.oracle import check_log, replay_brute_force
from dasgd_sim.theory import (
    rate_bound_bounded_gradients,
    run_ceiling_inputs,
    running_psi,
)

REQUIRED_FILES = ("trace.csv", "staleness.csv", "manifest.txt",
                  "gradients.npz", "models.npz", "summary.txt")


class MissingRunFiles(FileNotFoundError):
    def __init__(self, run_dir, missing):
        super().__init__(
            f"run directory {run_dir} is missing: {', '.join(missing)}"
        )
        self.missing = missing


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str        # pass | fail | skip
    detail: str

    def line(self) -> str:
        return f"{self.status.upper():4s} {self.name}: {self.detail}"


def _load(run_dir):
    missing = [name for name in REQUIRED_FILES
               if not os.path.exists(os.path.join(run_dir, name))]
    if missing:
        raise MissingRunFiles(run_dir, missing)
    digest, config = runio.read_manifest(os.path.join(run_dir, "manifest.txt"))
    if digest != config.digest():
        raise ValueError("manifest.txt digest does not match its configuration")
    trace = runio.read_trace(os.path.join(run_dir, "trace.csv"))
    if not trace:
        # Every run logs each node's start point, so rows are never absent.
        raise ValueError("trace.csv has no rows")
    staleness = runio.read_staleness(os.path.join(run_dir, "staleness.csv"))
    producers, steps, vectors = runio.read_gradients(
        os.path.join(run_dir, "gradients.npz"))
    x0, finals = runio.read_models(os.path.join(run_dir, "models.npz"))
    # numpy would broadcast a mismatched archive into plausible numbers.
    if not (x0.ndim == 1 and vectors.shape[1:] == x0.shape == finals.shape[1:]
            and producers.shape == steps.shape == vectors.shape[:1]):
        raise ValueError(
            f"gradients.npz and models.npz disagree on shape: producers "
            f"{producers.shape}, steps {steps.shape}, vectors "
            f"{vectors.shape}, x0 {x0.shape}, finals {finals.shape}")
    events_path = os.path.join(run_dir, "events.log")
    events = None
    if os.path.exists(events_path):
        with open(events_path, "r", encoding="utf-8") as fh:
            events = fh.read().splitlines()
    return digest, config, trace, staleness, (producers, steps, vectors), \
        (x0, finals), events


def _check_agreement(config, trace, staleness, gradients, models):
    producers, steps, vectors = gradients
    x0, finals = models
    eta = trace[0]["eta"]
    scale = max(1.0, float(np.max(np.abs(finals))))
    spread = 0.0
    for i in range(1, finals.shape[0]):
        spread = max(spread, float(np.max(np.abs(finals[i] - finals[0]))))
    if spread > 1e-9 * scale:
        return CheckResult("final-agreement", "fail",
                           f"online models differ by {spread:.3e}")
    all_ids = {(int(p), int(s)) for p, s in zip(producers, steps)}
    if len(all_ids) != len(producers):
        return CheckResult("final-agreement", "fail",
                           "duplicate gradient identity in archive")
    appliers = sorted({row["applier"] for row in staleness})
    for applier in appliers:
        seen = {(row["producer"], row["producer_step"])
                for row in staleness if row["applier"] == applier}
        if seen != all_ids:
            return CheckResult(
                "final-agreement", "fail",
                f"applier {applier} finished with "
                f"{len(seen)}/{len(all_ids)} gradients",
            )
    order = np.lexsort((steps, producers))
    total = np.zeros_like(x0)
    for idx in order:
        total += vectors[idx]
    rebuilt = x0 - eta * total
    err = float(np.max(np.abs(rebuilt - finals[0])))
    if err > 1e-9 * scale:
        return CheckResult("final-agreement", "fail",
                           f"canonical rebuild differs by {err:.3e}")
    return CheckResult(
        "final-agreement", "pass",
        f"{finals.shape[0]} model(s) within {spread:.2e}, "
        f"rebuild within {err:.2e}",
    )


def _check_oracle(config, staleness, events, replay):
    if events is None:
        return CheckResult("staleness-oracle", "skip",
                           "no peer event log for this mode")
    report = check_log(events, replay)
    if not report.equivalent:
        return CheckResult("staleness-oracle", "fail", str(report))
    recomputed = {(rec.applier, rec.applier_step):
                  (len(rec.tight), len(rec.loose))
                  for rec in replay.records}
    for row in staleness:
        key = (row["applier"], row["applier_step"])
        if key not in recomputed:
            return CheckResult("staleness-oracle", "fail",
                               f"csv row {key} absent from event log")
        want = recomputed[key]
        got = (row["tight"], row["loose"])
        if got != want:
            return CheckResult(
                "staleness-oracle", "fail",
                f"applier {key[0]} step {key[1]}: csv says {got}, "
                f"brute force says {want}",
            )
    if len(staleness) != len(recomputed):
        return CheckResult("staleness-oracle", "fail",
                           f"csv has {len(staleness)} events, "
                           f"log has {len(recomputed)}")
    return CheckResult("staleness-oracle", "pass",
                       f"{len(staleness)} events match the brute-force replay")


def _check_rate_bound(config, trace, staleness, gradients, models):
    if config.objective_kind != "quadratic":
        return CheckResult("rate-bound", "skip",
                           "no analytic noise ceiling for logistic")
    if config.noise_sigma > 0:
        return CheckResult("rate-bound", "skip",
                           "stochastic run; ceiling holds in expectation")
    if config.metric_stride != 1:
        return CheckResult("rate-bound", "skip",
                           "metric stride thins the trace")
    summary = summarize_applications(
        (row["applier"], row["producer"], row["tight"], row["loose"])
        for row in staleness)
    if summary.tight_avg == 0.0:
        return CheckResult("rate-bound", "skip",
                           "zero measured staleness degenerates the ceiling")
    obj = config.build_objective()
    x0, _ = models
    eta = trace[0]["eta"]
    inputs, rule = run_ceiling_inputs(
        obj.lipschitz_constant(), obj.loss(x0) - obj.min_value(), eta,
        gradients[2], summary.tight_avg, summary.tight_max)
    if inputs is None:
        return CheckResult("rate-bound", "skip",
                           f"eta {eta:.6g} above the stepsize rule {rule:.6g}")
    worst_margin = np.inf
    checked = 0
    for node in sorted({row["node"] for row in trace}):
        rows = sorted((r for r in trace if r["node"] == node),
                      key=lambda r: r["t"])
        for row, psi in zip(rows, running_psi(r["grad_norm_sq"] for r in rows)):
            bound = rate_bound_bounded_gradients(inputs, row["t"])
            checked += 1
            worst_margin = min(worst_margin, bound - psi)
            if psi > bound:
                return CheckResult(
                    "rate-bound", "fail",
                    f"node {node} t={row['t']}: psi {psi:.6g} "
                    f"exceeds ceiling {bound:.6g}",
                )
    return CheckResult("rate-bound", "pass",
                       f"{checked} logged points under the ceiling "
                       f"(min margin {worst_margin:.3g})")


def _check_descent(config, trace, gradients, models, replay):
    if config.objective_kind != "quadratic":
        return CheckResult("descent-step", "skip",
                           "stochastic (row sampling); "
                           "per-event form needs exact gradients")
    if config.noise_sigma > 0:
        return CheckResult("descent-step", "skip", "skipped (stochastic)")
    if replay is None:
        return CheckResult("descent-step", "skip",
                           "no peer event log for this mode")
    obj = config.build_objective()
    lipschitz = obj.lipschitz_constant()
    eta = trace[0]["eta"]
    if eta > 1.0 / (2.0 * lipschitz) * (1 + 1e-9):
        return CheckResult("descent-step", "skip",
                           f"eta {eta:.6g} above 1/(2L) = "
                           f"{1.0 / (2.0 * lipschitz):.6g}")
    producers, steps, vectors = gradients
    row_of = {GradientId(int(p), int(s)): i
              for i, (p, s) in enumerate(zip(producers, steps))}
    magnitude = np.abs(vectors)
    x0, _ = models
    params = [x0.copy() for _ in range(replay.n_nodes)]
    # Each node's loss after a step is its loss before the next one.
    losses = [obj.loss(x0)] * replay.n_nodes
    checked = 0
    for rec in replay.records:
        node = rec.applier
        try:
            row = row_of[GradientId(rec.producer, rec.producer_step)]
            rows = [row_of[other] for other in rec.tight]
        except KeyError as exc:
            return CheckResult(
                "descent-step", "fail",
                f"applier {node} step {rec.applier_step}: "
                f"{exc.args[0]} absent from gradients.npz",
            )
        drift = eta * magnitude[rows].sum(axis=0)
        before = params[node]
        after = before - eta * vectors[row]
        grad = obj.full_gradient(before)
        lhs = obj.loss(after)
        rhs = (losses[node]
               - 0.5 * eta * float(grad @ grad)
               + 0.5 * eta * lipschitz**2 * float(drift @ drift))
        slack = 1e-9 * max(1.0, abs(rhs))
        if lhs > rhs + slack:
            return CheckResult(
                "descent-step", "fail",
                f"applier {node} step {rec.applier_step}: "
                f"f-after {lhs:.9g} exceeds allowance {rhs:.9g}",
            )
        params[node] = after
        losses[node] = lhs
        checked += 1
    return CheckResult("descent-step", "pass",
                       f"inequality held at {checked}/{checked} events")


def verify_run(run_dir: str) -> list:
    """All four checks, in a fixed order.  The event log is replayed by
    brute force once; the oracle and descent checks share that replay."""
    digest, config, trace, staleness, gradients, models, events = \
        _load(run_dir)
    replay = None if events is None else replay_brute_force(events)
    return [
        _check_agreement(config, trace, staleness, gradients, models),
        _check_oracle(config, staleness, events, replay),
        _check_rate_bound(config, trace, staleness, gradients, models),
        _check_descent(config, trace, gradients, models, replay),
    ]
