"""Post-hoc audits of a finished run directory.

Four checks, each recomputing its claim from the written files rather
than trusting in-memory state: model agreement and reconstruction,
staleness equivalence against the brute-force oracle, the rate ceiling
over the logged trace, and the per-event descent inequality for
deterministic runs.  Checks that do not apply to a run's mode or noise
setting report themselves as skipped with the reason.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from dasgd_sim import runio
from dasgd_sim.ledger import GradientId, summarize_applications
from dasgd_sim.oracle import check_log, replay_brute_force
from dasgd_sim.theory import (
    gradient_bound,
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
    _check_constant_columns(config, trace, staleness)
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


def _check_constant_columns(config, trace, staleness) -> None:
    """Every row's run_id, and in trace.csv its mode, topology, n, seed
    and eta, must be the manifest's.  Eta is the manifest's written with
    12 significant digits, or the first row's where the manifest leaves
    eta to the stepsize rule.  A mismatch is a ValueError naming the
    file, line and field."""
    eta = (trace[0]["eta"] if config.eta is None
           else float(runio.fmt(config.eta)))
    want = {"run_id": config.run_id(), "mode": config.mode,
            "topology": config.topology_kind, "n": config.n,
            "seed": config.seed, "eta": eta}
    for name, rows, fields in (("trace.csv", trace, tuple(want)),
                               ("staleness.csv", staleness, ("run_id",))):
        for field in fields:
            value = want[field]
            for line_no, row in enumerate(rows, start=2):
                if row[field] != value:
                    raise ValueError(
                        f"{name} line {line_no}: {field} is "
                        f"{row[field]!r}, the run's is {value!r}")


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
    # Who applies gradients: every node, the synchronous baseline's one
    # shared model, or the parameter server.  Each must hold every
    # gradient, whether or not staleness.csv names it.
    expected = {"dasgd": range(config.n), "sync": (0,),
                "centralized_asgd": (-1,)}[config.mode]
    seen = {applier: set() for applier in expected}
    for row in staleness:
        seen.setdefault(row["applier"], set()).add(
            (row["producer"], row["producer_step"]))
    for applier in sorted(seen):
        if seen[applier] != all_ids:
            return CheckResult(
                "final-agreement", "fail",
                f"applier {applier} finished with "
                f"{len(seen[applier])}/{len(all_ids)} gradients",
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
    recomputed = dict(zip(
        zip(replay.applier.tolist(), replay.applier_step.tolist()),
        zip(replay.tight.tolist(), replay.loose.tolist())))
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


def _check_rate_bound(config, obj, trace, staleness, gradients, models):
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
    grad_bound = gradient_bound(gradients[2])
    if not math.isfinite(grad_bound):
        return CheckResult("rate-bound", "fail",
                           "gradient bound is not finite: a gradient norm "
                           "in gradients.npz overflows")
    x0, _ = models
    eta = trace[0]["eta"]
    inputs, rule = run_ceiling_inputs(
        obj.lipschitz_constant(), obj.loss(x0) - obj.min_value(), eta,
        grad_bound, summary.tight_avg, summary.tight_max)
    if inputs is None:
        return CheckResult("rate-bound", "skip",
                           f"eta {eta:.6g} above the stepsize rule {rule:.6g}")
    worst_margin = np.inf
    checked = 0
    by_node: dict = {}
    for row in trace:
        by_node.setdefault(row["node"], []).append(row)
    for node in sorted(by_node):
        rows = sorted(by_node[node], key=lambda r: r["t"])
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


def _check_descent(config, obj, trace, gradients, models, replay):
    if config.objective_kind != "quadratic":
        return CheckResult("descent-step", "skip",
                           "stochastic (row sampling); "
                           "per-event form needs exact gradients")
    if config.noise_sigma > 0:
        return CheckResult("descent-step", "skip", "skipped (stochastic)")
    if replay is None:
        return CheckResult("descent-step", "skip",
                           "no peer event log for this mode")
    lipschitz = obj.lipschitz_constant()
    eta = trace[0]["eta"]
    if eta > 1.0 / (2.0 * lipschitz) * (1 + 1e-9):
        return CheckResult("descent-step", "skip",
                           f"eta {eta:.6g} above 1/(2L) = "
                           f"{1.0 / (2.0 * lipschitz):.6g}")
    producers, steps, vectors = gradients
    row_of = {GradientId(int(p), int(s)): i
              for i, (p, s) in enumerate(zip(producers, steps))}
    # The archive row of each replay column, -1 where the archive lacks it.
    rows = np.array([row_of.get(ident, -1) for ident in replay.ids],
                    dtype=np.intp)
    # Every member of a tight set was applied by an earlier application,
    # so the first application that needs a gradient the archive lacks
    # is the first that applies one.  It and later ones are not
    # evaluated: it is reported unless an earlier application fails.
    missing = np.flatnonzero(rows[replay.column] < 0)
    stop = int(missing[0]) if missing.size else replay.n_applications
    x0, _ = models
    lhs, rhs = _descent_sides(obj, lipschitz, eta, x0, vectors, rows,
                              replay, stop)
    slack = 1e-9 * np.maximum(1.0, np.abs(rhs))
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    failed = (lhs > rhs + slack) | ~finite
    if failed.any():
        k = int(np.argmax(failed))
        if not finite[k]:
            side = "f-after" if not np.isfinite(lhs[k]) else "allowance"
            return CheckResult(
                "descent-step", "fail",
                f"applier {replay.applier[k]} step "
                f"{replay.applier_step[k]}: {side} is not finite")
        return CheckResult(
            "descent-step", "fail",
            f"applier {replay.applier[k]} step {replay.applier_step[k]}: "
            f"f-after {float(lhs[k]):.9g} exceeds allowance "
            f"{float(rhs[k]):.9g}",
        )
    if missing.size:
        return CheckResult(
            "descent-step", "fail",
            f"applier {replay.applier[stop]} step "
            f"{replay.applier_step[stop]}: "
            f"{replay.ids[replay.column[stop]]} absent from gradients.npz",
        )
    return CheckResult("descent-step", "pass",
                       f"inequality held at {stop}/{stop} events")


def _descent_sides(obj, lipschitz, eta, x0, vectors, rows, replay, stop):
    """Both sides of the descent inequality at the first `stop`
    applications, in log order.

    Each node's parameter chain is x0 minus eta times its applied
    gradients, accumulated in the order it applied them; the drift of an
    application is eta times the summed magnitude of its tight set.
    Values past float range come out inf or nan, without a warning.
    """
    def dots(a):
        return (a[:, None, :] @ a[:, :, None])[:, 0, 0]

    applier = replay.applier[:stop]
    applied_rows = rows[replay.column[:stop]]
    lhs = np.empty(stop)
    rhs = np.empty(stop)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = eta * _tight_sums(np.abs(vectors), rows,
                                  replay.tight_ptr[:stop + 1],
                                  replay.tight_idx)
        allowance = 0.5 * eta * lipschitz**2 * dots(drift)
        for node in range(replay.n_nodes):
            mine = np.flatnonzero(applier == node)
            chain = np.empty((len(mine) + 1, x0.shape[0]))
            chain[0] = x0
            chain[1:] = eta * vectors[applied_rows[mine]]
            losses, grads = obj.losses_and_gradients(
                np.subtract.accumulate(chain, axis=0))
            lhs[mine] = losses[1:]
            rhs[mine] = (losses[:-1] - 0.5 * eta * dots(grads[:-1])
                         + allowance[mine])
    return lhs, rhs


# Member rows gathered at a time when summing tight sets.
_GATHER_ROWS = 4096


def _tight_sums(values, rows, ptr, idx):
    """Row k is the sum of values[rows[c]] over the columns c in
    idx[ptr[k]:ptr[k+1]], with the rows taken in column order."""
    out = np.zeros((len(ptr) - 1, values.shape[1]))
    nonempty = np.flatnonzero(ptr[1:] > ptr[:-1])
    starts, ends = ptr[:-1][nonempty], ptr[1:][nonempty]
    i = 0
    while i < len(nonempty):
        j = max(i + 1, int(np.searchsorted(ends, starts[i] + _GATHER_ROWS,
                                           side="right")))
        block = values[rows[idx[starts[i]:ends[j - 1]]]]
        out[nonempty[i:j]] = np.add.reduceat(block, starts[i:j] - starts[i],
                                             axis=0)
        i = j
    return out


def verify_run(run_dir: str) -> list:
    """All four checks, in a fixed order.  The event log is parsed and
    replayed by brute force once; the oracle and descent checks share
    that replay, and the oracle check's ledger replays its parsed
    events.  The rate-bound and descent checks share one objective,
    built only for the noiseless quadratic, the one case they check."""
    digest, config, trace, staleness, gradients, models, events = \
        _load(run_dir)
    replay = None if events is None else replay_brute_force(events)
    checked = config.objective_kind == "quadratic" and config.noise_sigma == 0
    obj = config.build_objective() if checked else None
    return [
        _check_agreement(config, trace, staleness, gradients, models),
        _check_oracle(config, staleness, events, replay),
        _check_rate_bound(config, obj, trace, staleness, gradients, models),
        _check_descent(config, obj, trace, gradients, models, replay),
    ]
