"""Cross-route equivalence: the incremental ledger kernel, the dense
brute-force replay and the literal frozenset reference."""

import io

import numpy as np
import pytest

from dasgd_sim.ledger import (
    EventLogError,
    GradientId,
    StalenessLedger,
    parse_event_log,
)
from dasgd_sim.oracle import check_log, replay_brute_force

from oracles import (
    LiteralReplay,
    loose_staleness,
    naive_loose_staleness,
    random_event_log,
)
from test_ledger import HAND_LOG, A, B, C


def test_naive_loose_hand_case():
    snapshots = {A: frozenset(), B: frozenset(), C: frozenset([A, B])}
    got = naive_loose_staleness(snapshots, frozenset([A]), snapshots[C])
    assert got == frozenset([A, B])


@pytest.mark.parametrize("seed", range(10))
def test_naive_loose_matches_reference(seed):
    # Random snapshot structures, not tied to any protocol: ids created in
    # order, each snapshot a random subset of earlier ids.
    rng = np.random.default_rng(seed)
    ids = [GradientId(0, s) for s in range(30)]
    snapshots = {}
    for k, ident in enumerate(ids):
        earlier = ids[:k]
        mask = rng.random(k) < 0.3
        snapshots[ident] = frozenset(g for g, m in zip(earlier, mask) if m)
    for _ in range(20):
        applied = frozenset(g for g in ids if rng.random() < 0.4)
        target = ids[int(rng.integers(len(ids)))]
        assert naive_loose_staleness(snapshots, applied, snapshots[target]) == \
            loose_staleness(snapshots, applied, snapshots[target])


def test_check_log_hand_scenario():
    report = check_log(io.StringIO(HAND_LOG).read().splitlines())
    assert report.equivalent
    assert report.n_applications == 9
    assert "equivalent" in str(report)


def test_check_log_empty():
    report = check_log([])
    assert report.equivalent
    assert report.n_events == 0
    assert str(report) == "equivalent (0 application events)"


def test_check_log_rejects_duplicate_apply():
    lines = HAND_LOG.splitlines() + ["APPLY 2 3 1 0"]
    with pytest.raises(EventLogError):
        check_log(lines)


def test_check_log_accepts_precomputed_replay():
    # The same 1000 logs criterion 5 draws.
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        lines = random_event_log(rng, n, max_total_steps=50)
        report = check_log(lines)
        assert check_log(lines, replay_brute_force(lines)) == report
        assert report.n_events == sum(1 for _ in parse_event_log(lines))


def test_brute_force_validates_steps():
    with pytest.raises(EventLogError) as err:
        replay_brute_force(["COMPUTE 0 1"])
    assert err.value.line_no == 1


@pytest.mark.parametrize("lines, message", [
    (["COMPUTE 0 0", "APPLY 0 1 0 0"],
     "line 2: APPLY step 1 does not match node 0 at step 0"),
    (["COMPUTE 0 0", "COMPUTE 0 0"],
     "line 2: GradientId(producer=0, step=0) computed twice"),
    (["COMPUTE 0 0", "APPLY 0 0 1 0"],
     "line 2: GradientId(producer=1, step=0) was never computed"),
    (["APPLY 1 0 0 0", "COMPUTE 0 0"],
     "line 1: GradientId(producer=0, step=0) was never computed"),
    (["COMPUTE 0 0", "APPLY 0 0 0 0", "APPLY 0 1 0 0"],
     "line 3: GradientId(producer=0, step=0) applied twice by node 0"),
], ids=["apply_step", "computed_twice", "never_computed",
        "applied_before_computed", "applied_twice"])
def test_brute_force_rejects_protocol_violations(lines, message):
    # The messages the frozenset replay gave; `verify` prints them.
    with pytest.raises(EventLogError) as err:
        replay_brute_force(lines)
    assert str(err.value) == message


@pytest.mark.parametrize("seed, count, max_nodes, max_steps", [
    (7, 1000, 5, 50),
    # More producers and longer logs: deeper loose closures, more
    # gradients of one producer reached per closure.
    (8, 150, 8, 150),
], ids=["criterion5", "long"])
def test_three_routes_agree_on_random_logs(seed, count, max_nodes, max_steps):
    # Criterion 5's 1000 logs, then longer ones, through the kernel, the
    # dense replay and the literal frozenset reference: sizes from all
    # three, and tight membership from the two that keep it.
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_nodes + 1))
        lines = random_event_log(rng, n, max_total_steps=max_steps)
        kernel = StalenessLedger.replay(lines).records
        dense = replay_brute_force(lines)
        literal = LiteralReplay(lines).records
        assert len(kernel) == dense.n_applications == len(literal)
        for k, (rec, ref) in enumerate(zip(kernel, literal)):
            members = dense.tight_idx[dense.tight_ptr[k]:dense.tight_ptr[k + 1]]
            assert frozenset(dense.ids[j] for j in members) == ref.tight
            assert (dense.line_no[k], dense.applier[k], dense.applier_step[k],
                    dense.ids[dense.column[k]]) == \
                (ref.line_no, ref.applier, ref.applier_step,
                 GradientId(ref.producer, ref.producer_step))
            assert rec.tight_size == dense.tight[k] == len(ref.tight)
            assert rec.loose_size == dense.loose[k] == len(ref.loose)


@pytest.mark.parametrize("seed", range(12))
def test_random_logs_equivalent(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 6))
    lines = random_event_log(rng, n, max_total_steps=50)
    report = check_log(lines)
    assert report.equivalent, str(report)


def test_random_log_is_protocol_valid():
    rng = np.random.default_rng(7)
    lines = random_event_log(rng, 4, max_total_steps=50)
    replay = replay_brute_force(lines)
    # Termination means everyone applied everything.
    sets = {replay.applied_set(node) for node in range(replay.n_nodes)}
    assert len(sets) == 1
    assert len(replay.applied_set(0)) <= 50
