"""Acceptance suite: one test per shipped guarantee, one printed
PASS/FAIL line each (run with -s or -v to see them).

Tolerances here are the product's contract.  They are intentionally
wider than the unit-test bands elsewhere: these runs exercise whole
pipelines, and the printed detail is meant to be quotable in a report.
"""

import os
import time

import numpy as np
import pytest

from dasgd_sim.cli import main as cli_main
from dasgd_sim.config import ExperimentConfig
from dasgd_sim.engine import run, run_centralized_asgd, run_sync_baseline
from dasgd_sim.ledger import GradientId
from dasgd_sim.objective import QuadraticObjective, synthetic_logistic_data
from dasgd_sim.objective import LogisticObjective
from dasgd_sim.oracle import check_log
from dasgd_sim.theory import (
    BoundInputs,
    iterations_to_target,
    rate_bound_bounded_gradients,
    rate_bound_unbounded_gradients,
    stepsize_bound_loose,
    stepsize_bound_tight,
)

from oracles import (
    LiteralReplay,
    psi_series,
    random_event_log,
    reconstruct,
    server_set_differences,
)

PILOT_ETA = 1e-12  # staleness is stepsize-invariant; keeps pilots inert


def report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def constant_cfg(kind, n, budget, **kw):
    kw.setdefault("compute", "constant:1.0")
    kw.setdefault("latency", "constant:0.01")
    return ExperimentConfig(
        dim=10, condition=10.0, topology_kind=kind, n=n,
        samples_per_node=budget, **kw,
    )


def timed_run(cfg, eta):
    start = time.perf_counter()
    result = run(cfg.sim_config(eta=eta))
    return result, time.perf_counter() - start


def first_step_reaching(result, node, level):
    for t, psi in psi_series(result, node):
        if psi <= level:
            return t
    return None


@pytest.fixture(scope="module")
def staleness_runs():
    """Budget-200 constant-regime runs shared by the topology criteria."""
    out = {}
    for kind, n in (("fully_connected", 4), ("fully_connected", 8),
                    ("ring", 4)):
        out[(kind, n)] = timed_run(constant_cfg(kind, n, 200), eta=1e-3)
    return out


def test_criterion_01_fully_connected_staleness(staleness_runs):
    parts = []
    ok = True
    for n in (4, 8):
        result, wall = staleness_runs[("fully_connected", n)]
        target = (n + 1) / 2
        lo, hi = 0.75 * target, 1.25 * target
        avg = result.summary.tight_avg
        top = result.summary.tight_max
        ok &= lo <= avg <= hi and top <= n + 1 and wall <= 10.0
        parts.append(f"n={n}: S_avg {avg:.3f} in [{lo:.3f},{hi:.3f}], "
                     f"S_max {top} <= {n + 1}, {wall:.2f}s")
    report(1, ok, "; ".join(parts))


def test_criterion_02_ring_staleness(staleness_runs):
    result, wall = staleness_runs[("ring", 4)]
    fc, _ = staleness_runs[("fully_connected", 4)]
    avg = result.summary.tight_avg
    lo, hi = 0.6 * 8.5, 1.4 * 8.5
    ok = lo <= avg <= hi and avg > fc.summary.tight_avg and wall <= 10.0
    report(2, ok,
           f"ring4 S_avg {avg:.3f} in [{lo:.2f},{hi:.2f}], "
           f"> fc4 {fc.summary.tight_avg:.3f}, {wall:.2f}s")


def test_criterion_03_centralized_delay_equals_staleness():
    cfg = ExperimentConfig(
        dim=10, condition=10.0, n=4, samples_per_node=125,
        compute="uniform:0.5:1.5", latency="exponential:0.1", seed=2,
    )
    result = run_centralized_asgd(cfg.sim_config(eta=1e-3))
    # The runner's counter delay against the literal set route.
    columns = result.staleness_log.columns
    pairs = list(zip(columns[4], server_set_differences(columns)))
    matches = sum(1 for delay, diff in pairs if delay == diff)
    ok = len(pairs) == 500 and matches == len(pairs)
    report(3, ok,
           f"delay == |staleness set| at {matches}/{len(pairs)} "
           "server applications")


def test_criterion_04_final_agreement_random_configs():
    rng = np.random.default_rng(2024)
    worst = 0.0
    failures = []
    for k in range(50):
        n = int(rng.integers(2, 9))
        kind = str(rng.choice(["fully_connected", "ring"]))
        cfg = ExperimentConfig(
            dim=int(rng.integers(2, 8)),
            condition=float(rng.uniform(2, 20)),
            topology_kind=kind, n=n,
            samples_per_node=int(rng.integers(10, 41)),
            compute="uniform:0.5:1.5", latency="exponential:0.3",
            seed=int(rng.integers(0, 10**6)),
        )
        result = run(cfg.sim_config(eta=0.002))
        sets = [result.ledger.applied_set(i) for i in range(n)]
        if any(s != sets[0] for s in sets):
            failures.append(f"config {k}: divergent gradient sets")
            continue
        finals = result.final_models
        scale = max(1.0, float(np.max(np.abs(finals[0]))))
        spread = max(float(np.max(np.abs(finals[i] - finals[0])))
                     for i in range(n)) / scale
        worst = max(worst, spread)
        if spread > 1e-9:
            failures.append(f"config {k}: online spread {spread:.2e}")
        gids = list(range(len(result.table)))
        base = reconstruct(result.table, result.start, 0.002, gids)
        rng.shuffle(gids)
        if not np.array_equal(
                reconstruct(result.table, result.start, 0.002, gids), base):
            failures.append(f"config {k}: order-dependent reconstruction")
        if np.max(np.abs(base - finals[0])) > 1e-9 * scale:
            failures.append(f"config {k}: reconstruction drift")
    report(4, not failures,
           failures[0] if failures else
           f"50 configs agree; worst online spread {worst:.2e} (<= 1e-9)")


def test_criterion_05_staleness_oracle_equivalence():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        lines = random_event_log(rng, n, max_total_steps=50)
        if not check_log(lines).equivalent:
            mismatches += 1
    wall = time.perf_counter() - start
    ok = mismatches == 0 and wall <= 60.0
    report(5, ok,
           f"1000 random logs, {mismatches} mismatches, {wall:.1f}s (<= 60s)")


def _descent_violations(cfg, eta):
    """Count per-application failures of the expected-decrease step
    inequality, using the literal frozenset log replay as the schedule."""
    import io

    result = run(cfg.sim_config(eta=eta))
    objective = cfg.build_objective()
    lipschitz = objective.lipschitz_constant()
    buffer = io.StringIO()
    result.ledger.export_events(buffer)
    replay = LiteralReplay(buffer.getvalue().splitlines())
    table = result.table
    by_id = dict(zip(table.ids, table.vectors))
    params = [result.start.copy() for _ in range(cfg.n)]
    checked = 0
    bad = 0
    for rec in replay.records:
        node = rec.applier
        vector = by_id[GradientId(rec.producer, rec.producer_step)]
        before = params[node]
        after = before - eta * vector
        drift = np.zeros(cfg.dim)
        for other in rec.tight:
            drift += np.abs(by_id[other])
        drift *= eta
        grad = objective.full_gradient(before)
        lhs = objective.loss(after)
        rhs = (objective.loss(before) - 0.5 * eta * float(grad @ grad)
               + 0.5 * eta * lipschitz ** 2 * float(drift @ drift))
        checked += 1
        if lhs > rhs + 1e-9 * max(1.0, abs(rhs)):
            bad += 1
        params[node] = after
    return bad, checked


def test_criterion_06_descent_step_inequality():
    base = constant_cfg("fully_connected", 4, 60, compute="uniform:0.5:1.5")
    eta = 1.0 / (2.0 * base.build_objective().lipschitz_constant())
    bad = 0
    checked = 0
    for seed in range(10):
        b, c = _descent_violations(
            constant_cfg("fully_connected", 4, 60,
                         compute="uniform:0.5:1.5", seed=seed), eta)
        bad += b
        checked += c
    report(6, bad == 0 and checked == 10 * 4 * 4 * 60,
           f"decrease inequality held at {checked - bad}/{checked} "
           f"applications over 10 timing seeds (eta = 1/(2L))")


def test_criterion_07_deterministic_rate_containment():
    # Constant-compute regime: desynchronized boundaries (jittered
    # compute with near-zero latency) drive measured staleness toward
    # zero and the ceiling display degenerates with it.
    cfg = constant_cfg("fully_connected", 4, 200, seed=1)
    objective = cfg.build_objective()
    lipschitz = objective.lipschitz_constant()
    pilot = run(ExperimentConfig(
        **{**cfg.__dict__, "samples_per_node": 20}
    ).sim_config(eta=PILOT_ETA))
    eta = stepsize_bound_tight(lipschitz, pilot.summary.tight_avg)
    result = run(cfg.sim_config(eta=eta))
    grad_bound = max(float(np.linalg.norm(v)) for v in result.table.vectors)
    inputs = BoundInputs(
        lipschitz=lipschitz,
        init_gap=objective.loss(result.start) - objective.min_value(),
        eta=eta, noise_sigma=0.0, grad_bound=grad_bound,
        tight_avg=pilot.summary.tight_avg,
        tight_max=pilot.summary.tight_max,
    )
    worst_margin = np.inf
    violations = 0
    checked = 0
    for node in range(cfg.n):
        for t, psi in psi_series(result, node):
            ceiling = rate_bound_bounded_gradients(inputs, t)
            checked += 1
            worst_margin = min(worst_margin, ceiling - psi)
            if psi > ceiling:
                violations += 1
    report(7, violations == 0,
           f"running average under the bounded-gradient ceiling at "
           f"{checked - violations}/{checked} logged steps "
           f"(eta {eta:.4g} from pilot S_avg {pilot.summary.tight_avg:.3f}, "
           f"min margin {worst_margin:.3f})")


def test_criterion_08_stochastic_rate_containment():
    start = time.perf_counter()
    base = constant_cfg("fully_connected", 4, 200, noise_sigma=0.5)
    objective = base.build_objective()
    lipschitz = objective.lipschitz_constant()
    pilot = run(ExperimentConfig(
        **{**base.__dict__, "samples_per_node": 20}
    ).sim_config(eta=PILOT_ETA))
    eta = stepsize_bound_loose(lipschitz, pilot.summary.loose_avg,
                               pilot.summary.loose_max)
    inputs = BoundInputs(
        lipschitz=lipschitz,
        init_gap=objective.loss(objective.default_start())
        - objective.min_value(),
        eta=eta, noise_sigma=0.5,
        loose_avg=pilot.summary.loose_avg,
        loose_max=pilot.summary.loose_max,
    )
    seeds = 20
    steps = 4 * 200
    totals = np.zeros((4, steps + 1))
    for seed in range(seeds):
        cfg = constant_cfg("fully_connected", 4, 200,
                           noise_sigma=0.5, seed=seed)
        result = run(cfg.sim_config(eta=eta))
        for node in range(4):
            series = psi_series(result, node)
            assert len(series) == steps + 1
            totals[node] += [psi for _, psi in series]
    totals /= seeds
    ceilings = np.array([rate_bound_unbounded_gradients(inputs, t)
                         for t in range(steps + 1)])
    window = slice(50, steps + 1)
    gaps = ceilings[window] - totals[:, window]
    violations = int(np.sum(gaps < 0))
    wall = time.perf_counter() - start
    ok = violations == 0 and wall <= 120.0
    report(8, ok,
           f"20-seed average under the ceiling at every step >= 50 "
           f"({violations} violations, min margin {float(np.min(gaps)):.4f}, "
           f"{wall:.1f}s <= 120s)")


def test_criterion_09_topology_scaling_of_convergence():
    level = 1e-3
    measured = {}
    predicted = {}
    stats = {}
    for kind, budget in (("fully_connected", 1500), ("ring", 4500)):
        cfg = ExperimentConfig(
            dim=10, condition=1.0, topology_kind=kind, n=4,
            samples_per_node=budget, compute="constant:1.0",
            latency="constant:0.01",
        )
        objective = cfg.build_objective()
        lipschitz = objective.lipschitz_constant()
        pilot = run(ExperimentConfig(
            **{**cfg.__dict__, "samples_per_node": budget // 10}
        ).sim_config(eta=PILOT_ETA))
        s_avg = pilot.summary.tight_avg
        eta = stepsize_bound_tight(lipschitz, s_avg)
        result = run(cfg.sim_config(eta=eta))
        reached = [first_step_reaching(result, node, level)
                   for node in range(4)]
        assert all(r is not None for r in reached), f"{kind}: target missed"
        measured[kind] = max(reached)
        inputs = BoundInputs(
            lipschitz=lipschitz,
            init_gap=objective.loss(result.start) - objective.min_value(),
            eta=eta, tight_avg=s_avg, tight_max=pilot.summary.tight_max,
        )
        predicted[kind] = iterations_to_target(inputs, level, rule="bounded")
        stats[kind] = s_avg
    s_ratio = stats["ring"] / stats["fully_connected"]
    p_ratio = predicted["ring"] / predicted["fully_connected"]
    m_ratio = measured["ring"] / measured["fully_connected"]
    proportional = abs(p_ratio - s_ratio) <= 0.05 * s_ratio
    lo, hi = 1.2, 4.0 * p_ratio
    ok = proportional and lo <= m_ratio <= hi
    report(9, ok,
           f"S_avg ratio {s_ratio:.3f}, predicted iteration ratio "
           f"{p_ratio:.3f} (proportional), measured ratio {m_ratio:.3f} "
           f"in [{lo:.1f}, {hi:.1f}]")


def test_criterion_10_straggler_throughput():
    cfg = ExperimentConfig(
        dim=10, condition=10.0, topology_kind="fully_connected", n=8,
        samples_per_node=100, compute="exponential:1.0",
        latency="constant:0.01", seed=0,
    )
    asynchronous = run(cfg.sim_config(eta=1e-3))
    synchronous = run_sync_baseline(cfg.sim_config(eta=1e-3))
    ratio = asynchronous.throughput / synchronous.throughput
    report(10, ratio >= 1.5,
           f"gradients per unit time: async {asynchronous.throughput:.2f} "
           f"vs sync {synchronous.throughput:.2f} ({ratio:.2f}x >= 1.5x)")


CRITERION_11_CONFIG = """\
[run]
seed = 9
samples_per_node = 30

[objective]
dim = 6
condition = 10.0

[topology]
kind = fully_connected
n = 4

[timing]
compute = uniform:0.5:1.5
latency = exponential:0.2

[sgd]
eta = 0.005
"""


def test_criterion_11_byte_identical_reruns(tmp_path):
    mismatched = []
    for mode in ("dasgd", "sync", "centralized_asgd"):
        text = CRITERION_11_CONFIG.replace(
            "[run]", f"[run]\nmode = {mode}")
        path = tmp_path / f"{mode}.ini"
        path.write_text(text, encoding="utf-8")
        pair = []
        for attempt in ("a", "b"):
            out = str(tmp_path / f"{mode}-{attempt}")
            assert cli_main(["run", "--config", str(path),
                             "--out", out]) == 0
            with open(os.path.join(out, "trace.csv"), "rb") as fh:
                pair.append(fh.read())
        if pair[0] != pair[1]:
            mismatched.append(mode)
    report(11, not mismatched,
           "trace.csv byte-identical across reruns for "
           "dasgd, sync, centralized_asgd" if not mismatched
           else f"trace mismatch in: {', '.join(mismatched)}")


def test_criterion_12_finite_difference_gradients():
    rng = np.random.default_rng(55)
    basis, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    matrix = (basis * np.logspace(0, 1, 10)) @ basis.T
    quad = QuadraticObjective((matrix + matrix.T) / 2)
    features, labels = synthetic_logistic_data(40, 5, seed=3, separation=2.0)
    logistic = LogisticObjective(features, labels, ridge=1e-3)
    step = 1e-6
    worst = 0.0
    checked = 0
    for objective in (quad, logistic):
        for _ in range(100):
            x = rng.normal(scale=2.0, size=objective.dim)
            grad = objective.full_gradient(x)
            fd = np.empty_like(grad)
            for j in range(objective.dim):
                plus = x.copy()
                plus[j] += step
                minus = x.copy()
                minus[j] -= step
                fd[j] = (objective.loss(plus) - objective.loss(minus)) \
                    / (2 * step)
            rel = float(np.linalg.norm(fd - grad)) \
                / max(1.0, float(np.linalg.norm(grad)))
            worst = max(worst, rel)
            checked += 1
    report(12, worst <= 1e-5 and checked == 200,
           f"central differences match analytic gradients at 100 points "
           f"per objective (worst rel err {worst:.2e} <= 1e-5)")
