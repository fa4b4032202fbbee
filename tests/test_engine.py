"""Event-loop behavior: protocol ordering, staleness accounting, agreement,
determinism, and the two baselines."""

import numpy as np
import pytest

from dasgd_sim.engine import (
    TRACE_BLOCK,
    DivergenceError,
    EventLog,
    SimConfig,
    StalenessLog,
    TraceEvent,
    TraceRow,
    _Trace,
    gradient_seed,
    run,
    run_centralized_asgd,
    run_sync_baseline,
    schedule,
    schedule_centralized,
    schedule_sync,
)
from dasgd_sim.ledger import GradientId, StalenessRecord
from dasgd_sim.netsim import MessageCounts, TimeDistribution, Topology
from dasgd_sim.objective import QuadraticObjective
from dasgd_sim.oracle import check_log

from oracles import node_rows, reconstruct, server_set_differences


def small_quadratic(d=4, seed=5, sigma=0.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d))
    a = m @ m.T / d + 0.5 * np.eye(d)
    return QuadraticObjective(a, noise_sigma=sigma)


def constant_config(topology, budget=100, eta=0.01, seed=0, **kw):
    return SimConfig(
        topology=topology,
        objective=kw.pop("objective", None) or small_quadratic(),
        eta=eta,
        samples_per_node=budget,
        compute_time=TimeDistribution.constant(1.0),
        latency=TimeDistribution.constant(0.01),
        seed=seed,
        **kw,
    )


def jittered_config(topology, budget=60, eta=0.005, seed=3):
    return SimConfig(
        topology=topology,
        objective=small_quadratic(),
        eta=eta,
        samples_per_node=budget,
        compute_time=TimeDistribution.uniform(0.5, 1.5),
        latency=TimeDistribution.exponential(0.4),
        seed=seed,
    )


def test_single_node_is_sequential_sgd():
    obj = small_quadratic(sigma=0.3)
    cfg = constant_config(Topology.fully_connected(1), budget=50, eta=0.02,
                          seed=9, objective=obj)
    res = run(cfg)
    x = obj.default_start().copy()
    for t in range(50):
        x = x - 0.02 * obj.stochastic_gradient(x, gradient_seed(9, 0, t))
    assert np.array_equal(res.final_models[0], x)
    assert all(r.tight_size == 0 and r.loose_size == 0
               for _, r in res.staleness_log)


def test_two_nodes_one_gradient_each_hand_schedule():
    cfg = constant_config(Topology.fully_connected(2), budget=1)
    res = run(cfg)
    assert res.total_time == pytest.approx(1.01)
    # Each node: own gradient at staleness zero, then the peer's at one.
    by_node = {0: [], 1: []}
    for _, rec in res.staleness_log:
        by_node[rec.applier].append((rec.is_self, rec.tight_size, rec.loose_size))
    for node in (0, 1):
        assert by_node[node] == [(True, 0, 0), (False, 1, 1)]
    s = res.summary
    assert (s.tight_avg, s.tight_max, s.n_events, s.n_foreign) == (1.0, 1, 4, 2)
    kinds = [e.kind for e in res.events]
    assert kinds.count("compute") == 2
    assert kinds.count("apply") == 4
    assert kinds.count("send") == 2
    assert kinds.count("deliver") == 2
    assert kinds.count("duplicate") == 0


def test_self_gradient_always_zero_staleness():
    res = run(jittered_config(Topology.fully_connected(4)))
    for _, rec in res.staleness_log:
        if rec.is_self:
            assert rec.tight_size == 0 and rec.loose_size == 0


def test_fully_connected_average_staleness():
    for n, expect in [(4, 2.0), (8, 4.0)]:
        res = run(constant_config(Topology.fully_connected(n)))
        s = res.summary
        assert s.tight_avg == pytest.approx(expect)
        # Within the band the theory predicts around (n + 1) / 2.
        assert 0.75 * (n + 1) / 2 <= s.tight_avg <= 1.25 * (n + 1) / 2
        assert s.tight_max <= n + 1


def test_ring_average_staleness_band():
    res = run(constant_config(Topology.ring(4)))
    s = res.summary
    assert 0.6 * 8.5 <= s.tight_avg <= 1.4 * 8.5
    fc = run(constant_config(Topology.fully_connected(4))).summary
    assert s.tight_avg > fc.tight_avg
    # Steady state applies each boundary's three arrivals at hop
    # distances one, two, three.
    foreign = [r.tight_size for _, r in res.staleness_log if not r.is_self]
    steady = [v for v in foreign if v in (3, 6, 9)]
    assert len(steady) > 0.9 * len(foreign)


def test_ring_accepted_copies_and_wrap_duplicates():
    n, budget = 4, 30
    res = run(constant_config(Topology.ring(n), budget=budget))
    kinds = [e.kind for e in res.events]
    total = n * budget
    assert kinds.count("deliver") == (n - 1) * total
    # Directed circulation wraps once per gradient, back to the producer,
    # which holds the gradient: the wrap copy is elided at send time.
    assert kinds.count("duplicate") == 0
    assert res.messages == MessageCounts(
        sent=(n - 1) * total, duplicate=0, elided=total)


def test_final_agreement_and_reconstruction():
    for topo in (Topology.fully_connected(5), Topology.ring(5)):
        res = run(jittered_config(topo))
        n = topo.n
        scale = max(1.0, float(np.max(np.abs(res.final_models[0]))))
        for i in range(1, n):
            assert np.max(np.abs(res.final_models[i] - res.final_models[0])) \
                <= 1e-9 * scale
        # Same applied sets, so canonical-order resummation is the same
        # float program on every node: bit-identical models.
        sets = [res.ledger.applied_set(i) for i in range(n)]
        assert all(s == sets[0] for s in sets)
        gids = range(len(res.table))
        recon = [reconstruct(res.table, res.start, res.config.eta, gids)
                 for _ in range(n)]
        assert all(np.array_equal(r, recon[0]) for r in recon)
        assert np.max(np.abs(recon[0] - res.final_models[0])) <= 1e-9 * scale


def test_application_order_does_not_change_reconstruction():
    res = run(jittered_config(Topology.fully_connected(4), budget=25))
    gids = list(range(len(res.table)))
    base = reconstruct(res.table, res.start, res.config.eta, gids)
    rng = np.random.default_rng(0)
    for _ in range(50):
        rng.shuffle(gids)
        assert np.array_equal(
            reconstruct(res.table, res.start, res.config.eta, gids), base
        )


def test_step_accounting():
    n, budget = 3, 20
    res = run(jittered_config(Topology.ring(3), budget=budget))
    total = n * budget
    for node in range(n):
        steps = [r.applier_step for _, r in res.staleness_log
                 if r.applier == node]
        assert steps == list(range(total))
        assert res.ledger.node_step(node) == total
    produced = [(r.producer, r.producer_step)
                for _, r in res.staleness_log if r.is_self]
    assert sorted(set(produced)) == sorted(produced)
    assert len(produced) == total


def test_determinism_byte_identical():
    cfg = jittered_config(Topology.fully_connected(5))
    a, b = run(cfg), run(cfg)
    assert a.rows == b.rows
    assert a.staleness_log == b.staleness_log
    assert a.events == b.events
    assert np.array_equal(a.final_models, b.final_models)
    assert a.total_time == b.total_time


def test_staleness_log_invariant_under_eta():
    base = jittered_config(Topology.ring(4), budget=40, eta=0.01)
    small = jittered_config(Topology.ring(4), budget=40, eta=1e-5)
    ra, rb = run(base), run(small)
    assert ra.staleness_log == rb.staleness_log
    assert ra.total_time == rb.total_time


def test_loose_dominates_tight_and_separates():
    res = run(jittered_config(Topology.fully_connected(5)))
    gaps = [r.loose_size - r.tight_size for _, r in res.staleness_log]
    assert min(gaps) >= 0
    assert max(gaps) > 0


def test_exported_log_passes_oracle():
    import io

    res = run(jittered_config(Topology.ring(4), budget=25))
    buf = io.StringIO()
    res.ledger.export_events(buf)
    report = check_log(buf.getvalue().splitlines())
    assert report.equivalent, str(report)


def test_metric_stride_thins_rows_only():
    cfg = jittered_config(Topology.fully_connected(3), budget=20)
    cfg.metric_stride = 7
    res = run(cfg)
    total = 3 * 20
    for node in range(3):
        ts = [r.t for r in node_rows(res, node)]
        assert ts == sorted(set(list(range(0, total, 7)) + [total]))
    assert len(res.staleness_log) == 3 * total


def test_compute_scale_straggler_still_agrees():
    cfg = jittered_config(Topology.fully_connected(4), budget=20)
    cfg.compute_scale = (10.0, 1.0, 1.0, 1.0)
    res = run(cfg)
    scale = max(1.0, float(np.max(np.abs(res.final_models[0]))))
    for i in range(1, 4):
        assert np.max(np.abs(res.final_models[i] - res.final_models[0])) \
            <= 1e-9 * scale
    # The slow node still produces its full budget.
    own = [r for _, r in res.staleness_log if r.is_self and r.producer == 0]
    assert len(own) == 20


# runner -> (node label, step, sim time) of the first non-finite value.
DIVERGENCE_AT = {
    run: (0, 115, 39.0),
    run_sync_baseline: (0, 44, 44.0),
    run_centralized_asgd: (-1, 129, 43.43),
}


@pytest.mark.parametrize("runner", list(DIVERGENCE_AT),
                         ids=lambda fn: fn.__name__)
def test_divergence_reported_with_location(runner):
    cfg = constant_config(Topology.fully_connected(3), budget=100, eta=1e3)
    with pytest.raises(DivergenceError) as info:
        runner(cfg)
    err = info.value
    node, step, sim_time = DIVERGENCE_AT[runner]
    assert err.eta == 1e3
    assert (err.node, err.step) == (node, step)
    assert err.sim_time == pytest.approx(sim_time)
    assert f"at node {node}, step {step}," in str(err)


# The same runs with only t=0 and the last step logged: the loss is never
# evaluated on the way, so the parameter check reports the divergence.
PARAMETER_DIVERGENCE_AT = {
    run: (0, 229, 77.0),
    run_sync_baseline: (0, 88, 88.0),
    run_centralized_asgd: (-1, 260, 87.87),
}


@pytest.mark.parametrize("runner", list(PARAMETER_DIVERGENCE_AT),
                         ids=lambda fn: fn.__name__)
def test_parameter_divergence_reported_with_location(runner):
    cfg = constant_config(Topology.fully_connected(3), budget=100, eta=1e3,
                          metric_stride=1000)
    with pytest.raises(DivergenceError) as info:
        runner(cfg)
    err = info.value
    node, step, sim_time = PARAMETER_DIVERGENCE_AT[runner]
    assert (err.node, err.step) == (node, step)
    assert err.sim_time == pytest.approx(sim_time)


def two_node_schedule():
    """40 applications, 20 at each of two nodes."""
    return schedule(constant_config(Topology.fully_connected(2), budget=10))


def location(sched, key):
    """(label, step, sim time) a divergence at application `key` names."""
    return (sched.columns[0][key], sched.columns[1][key] + 1,
            sched.times[key])


def raised_at(trace):
    with pytest.raises(DivergenceError) as info:
        trace.finish()
    return info.value.node, info.value.step, info.value.sim_time


def test_pending_row_divergence_precedes_parameter_check():
    sched = two_node_schedule()
    trace = _Trace(sched, 4)
    # The loss of the middle row overflows.
    trace.log(np.array([np.zeros(4), np.full(4, 1e200), np.zeros(4)]),
              [1, 2, 3])
    trace.check(np.full((1, 4), np.inf), [4])
    assert raised_at(trace) == location(sched, 2)
    # Without a failing row logged first, the parameter check reports
    # itself.
    trace = _Trace(sched, 4)
    trace.log(np.zeros((1, 4)), [1])
    trace.check(np.full((1, 4), np.nan), [5])
    assert raised_at(trace) == location(sched, 5)


def test_first_divergence_in_logging_order_across_nodes():
    sched = two_node_schedule()
    applier = list(sched.columns[0])
    early = applier.index(0)
    late = len(applier) - 1 - applier[::-1].index(1)
    assert early < late
    # The parameter pass meets node 1's parameters first and node 0's
    # failing row later; the row comes first in logging order.
    trace = _Trace(sched, 4)
    trace.check(np.array([np.zeros(4), np.full(4, np.inf)]), [late - 1, late])
    trace.log(np.full((1, 4), 1e200), [early])
    assert raised_at(trace) == location(sched, early)
    # At the same application the parameter check comes before the row.
    trace = _Trace(sched, 4)
    trace.log(np.full((1, 4), 1e200), [late])
    trace.check(np.full((1, 4), np.nan), [late])
    trace.flush()
    assert trace._failure == (late, 0)
    # A failing t=0 row precedes every application.
    trace = _Trace(sched, 4)
    trace.check(np.full((1, 4), np.nan), [0])
    trace.start(np.full(4, 1e200), (0, 1), (0, 1))
    assert raised_at(trace) == (0, 0, 0.0)


def test_parameter_check_screens_with_the_sum():
    sched = two_node_schedule()
    trace = _Trace(sched, 4)
    trace.start(np.zeros(4), (0, 1), (0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        # Finite entries whose sum overflows are not divergence.
        trace.check(np.array([[1e308] * 4, [-1e308] * 4]), [1, 2])
        assert [row.t for row in trace.finish()] == [0, 0]
        # One non-finite entry is, at the location given; opposite
        # infinities sum to nan.
        for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf],
                    [np.inf, -np.inf]):
            trace = _Trace(sched, 4)
            trace.check(np.array([[1e308] * 4, bad + [1e308, 0.0],
                                  [np.nan] * 4]), [6, 7, 8])
            assert raised_at(trace) == location(sched, 7)


@pytest.mark.parametrize("make", [schedule, schedule_sync,
                                  schedule_centralized],
                         ids=lambda fn: fn.__name__)
def test_schedule_reads_no_parameter(make):
    def config(eta, objective):
        return SimConfig(
            topology=Topology.ring(4), objective=objective, eta=eta,
            samples_per_node=30,
            compute_time=TimeDistribution.uniform(0.8, 1.2),
            latency=TimeDistribution.exponential(0.5), seed=4)

    objectives = (small_quadratic(d=3), QuadraticObjective(
        np.diag([1e6, 2.0, 3.0]), offset=[1e3, -1e3, 5.0], noise_sigma=2.0))
    schedules = [make(config(eta, obj))
                 for eta in (1e-12, 1e-2) for obj in objectives]
    first = schedules[0]
    for other in schedules[1:]:
        assert other.times == first.times
        assert other.columns == first.columns
        assert other.gids == first.gids and other.ids == first.ids
        assert other.total_time == first.total_time
        assert other.messages == first.messages
        assert other.events == first.events
        if first.ledger is not None:
            assert other.ledger._order == first.ledger._order
    if make is schedule:
        assert first.messages.sent > 0


def test_event_log_view_matches_trace_events():
    res = run(constant_config(Topology.fully_connected(2), budget=1))
    events = res.events
    assert isinstance(events, EventLog)
    # Compute, self-apply and send at t=1; each copy lands and is applied
    # at t=1.01, node 0 first.
    want = [
        TraceEvent(1.0, "compute", 0, 0), TraceEvent(1.0, "apply", 0, 0),
        TraceEvent(1.0, "send", 0, 0), TraceEvent(1.0, "compute", 1, 1),
        TraceEvent(1.0, "apply", 1, 1), TraceEvent(1.0, "send", 1, 1),
        TraceEvent(1.01, "deliver", 0, 1), TraceEvent(1.01, "apply", 0, 1),
        TraceEvent(1.01, "deliver", 1, 0), TraceEvent(1.01, "apply", 1, 0),
    ]
    assert len(events) == len(want)
    assert list(events) == want
    assert events == want and want == events
    assert events == tuple(want)
    assert events[0] == want[0] and events[-1] == want[-1]
    assert events[2:5] == want[2:5]
    assert events != want[:-1]
    assert events != want[:-1] + [want[-1]._replace(kind="duplicate")]
    assert events == run(constant_config(Topology.fully_connected(2),
                                         budget=1)).events
    with pytest.raises(IndexError):
        events[len(want)]
    assert [e.kind for e in events].count("apply") == 4
    assert len(run_sync_baseline(constant_config(
        Topology.fully_connected(2), budget=3)).events) == 0


@pytest.mark.parametrize("runner", [run, run_sync_baseline,
                                    run_centralized_asgd],
                         ids=lambda fn: fn.__name__)
def test_staleness_log_view_matches_record_pairs(runner):
    res = runner(jittered_config(Topology.ring(3), budget=6))
    log = res.staleness_log
    assert isinstance(log, StalenessLog)
    pairs = list(log)
    assert len(log) == len(pairs) == len(log.times)
    assert all(isinstance(t, float) and type(rec) is StalenessRecord
               for t, rec in pairs)
    assert [log[k] for k in range(len(log))] == pairs
    assert log[-1] == pairs[-1] and log[1:4] == pairs[1:4]
    assert log == pairs and pairs == log
    assert log != pairs[:-1]
    assert log != pairs[:-1] + [(pairs[-1][0] + 1.0, pairs[-1][1])]
    times = [t for t, _ in pairs]
    assert times == sorted(times)
    if res.ledger is not None:
        assert [rec for _, rec in pairs] == res.ledger.records


def test_trace_blocks_match_one_point_metrics():
    obj = small_quadratic(d=7)
    sched = schedule(constant_config(Topology.fully_connected(4), budget=200,
                                     objective=obj, metric_stride=3))
    apps = len(sched.times)
    assert apps > 3 * TRACE_BLOCK
    trace = _Trace(sched, 7)
    assert trace.logged(1, 20).tolist() == [3, 6, 9, 12, 15, 18]
    assert trace.logged(4, 5).tolist() == []
    assert trace.logged(790, 800).tolist() == [792, 795, 798, 800]
    assert [t for t in range(801) if trace.logs(t)] == \
        trace.logged(0, 800).tolist()
    rng = np.random.default_rng(2)
    points = (rng.standard_normal((apps, 7))
              * 10.0 ** rng.integers(-3, 4, size=(apps, 1)))
    x0 = obj.default_start()
    trace.start(x0, (0, 1, 2, 3), (0, 1, 2, 3))
    # Rows arrive in batches of up to 1,500, in shuffled batch order;
    # keys ascend within a batch, as they do in the parameter pass.
    cuts = np.sort(rng.choice(np.arange(1501, apps), size=30, replace=False))
    batches = np.split(np.arange(apps), [1500, *cuts])
    for i in rng.permutation(len(batches)):
        trace.log(points[batches[i]], batches[i])
    applier, step, _, _, tight, loose = sched.columns

    def want(x, t, sim_time, node, tight, loose):
        g = obj.full_gradient(x)
        return TraceRow(t, sim_time, node, obj.loss(x), float(g @ g),
                        tight, loose)

    expected = [want(x0, 0, 0.0, node, 0, 0) for node in range(4)]
    expected += [want(points[k], step[k] + 1, sched.times[k], applier[k],
                      tight[k], loose[k]) for k in range(apps)]
    assert trace.finish() == expected


def test_trace_rows_start_at_zero_and_monotone_time():
    res = run(jittered_config(Topology.ring(3), budget=15))
    for node in range(3):
        rows = node_rows(res, node)
        assert rows[0].t == 0 and rows[0].sim_time == 0.0
        assert rows[0].tight == 0 and rows[0].loose == 0
        times = [r.sim_time for r in rows]
        assert times == sorted(times)


def test_sync_baseline_matches_full_batch_gd_when_noiseless():
    obj = small_quadratic()
    cfg = constant_config(Topology.fully_connected(4), budget=30, eta=0.05,
                          objective=obj)
    res = run_sync_baseline(cfg)
    x = obj.default_start().copy()
    for _ in range(30):
        x = x - 0.05 * obj.full_gradient(x)
    assert np.max(np.abs(res.final_models[0] - x)) <= 1e-12
    assert res.gradients_computed == 120
    assert all(r.tight == 0 for r in res.rows)


def test_sync_baseline_waits_for_stragglers():
    cfg = SimConfig(
        topology=Topology.fully_connected(4),
        objective=small_quadratic(),
        eta=0.01,
        samples_per_node=25,
        compute_time=TimeDistribution.uniform(0.5, 1.5),
        latency=TimeDistribution.constant(0.01),
        seed=11,
    )
    res = run_sync_baseline(cfg)
    # Each round costs the max of four draws, so strictly more than the
    # mean-rate time and at most the worst case.
    assert 25 * 1.0 < res.total_time <= 25 * 1.5


def test_centralized_delay_equals_set_difference():
    cfg = SimConfig(
        topology=Topology.fully_connected(4),
        objective=small_quadratic(sigma=0.2),
        eta=0.01,
        samples_per_node=50,
        compute_time=TimeDistribution.exponential(1.0),
        latency=TimeDistribution.exponential(0.1),
        seed=7,
    )
    res = run_centralized_asgd(cfg)
    columns = res.staleness_log.columns
    delays = list(columns[4])
    assert len(delays) == 200
    assert delays == server_set_differences(columns)
    assert list(columns[5]) == delays
    assert any(delay > 0 for delay in delays)
    # Server applications are totally ordered.
    steps = [r.applier_step for _, r in res.staleness_log]
    assert steps == list(range(200))
    produced = sorted((r.producer, r.producer_step) for _, r in res.staleness_log)
    assert produced == sorted(
        (i, k) for i in range(4) for k in range(50)
    )


def test_centralized_is_sequential_sgd_with_one_worker():
    obj = small_quadratic(sigma=0.4)
    cfg = SimConfig(
        topology=Topology.fully_connected(1),
        objective=obj,
        eta=0.02,
        samples_per_node=40,
        compute_time=TimeDistribution.constant(1.0),
        latency=TimeDistribution.constant(0.1),
        seed=13,
    )
    res = run_centralized_asgd(cfg)
    x = obj.default_start().copy()
    for t in range(40):
        x = x - 0.02 * obj.stochastic_gradient(x, gradient_seed(13, 0, t))
    assert np.array_equal(res.final_models[0], x)
    assert all(rec.tight_size == 0 for _, rec in res.staleness_log)


def test_throughput_accounts_all_gradients():
    cfg = jittered_config(Topology.fully_connected(3), budget=10)
    res = run(cfg)
    assert res.gradients_computed == 30
    assert res.throughput == pytest.approx(30 / res.total_time)
