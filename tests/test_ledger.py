"""Ledger tests: reference set functions, incremental recording, summary
semantics, and event-log round trips.

The scenario log below was traced by hand; the starred event is the one
where the loose measure strictly exceeds the tight one."""

import io

import numpy as np
import pytest

from dasgd_sim.ledger import (
    EventLogError,
    GradientId,
    StalenessLedger,
    StalenessRecord,
    parse_event_log,
)

from oracles import loose_staleness, tight_staleness

A = GradientId(0, 0)
B = GradientId(1, 0)
C = GradientId(1, 2)

HAND_LOG = """\
COMPUTE 0 0
APPLY 0 0 0 0
COMPUTE 1 0
APPLY 1 0 1 0
APPLY 1 1 0 0
COMPUTE 1 2
APPLY 1 2 1 2
APPLY 0 1 1 2
APPLY 0 2 1 0
APPLY 2 0 1 2
APPLY 2 1 0 0
APPLY 2 2 1 0
"""

# (applier, tight, loose) per APPLY line, in order.  Hand-derived.
HAND_EXPECTED = [
    (0, 0, 0),
    (1, 0, 0),
    (1, 1, 1),
    (1, 0, 0),
    (0, 1, 2),  # * node 0 holds {A}, snapshot of C is {A,B}, snap(B) = {}
    (0, 2, 2),
    (2, 2, 2),
    (2, 1, 1),
    (2, 2, 2),
]


def test_gradient_id_semantics():
    # Set iteration order, sorted output and error texts all rest on these.
    ident = GradientId(4, 239)
    assert hash(ident) == hash((4, 239))
    assert sorted([GradientId(1, 0), GradientId(0, 5), GradientId(0, 2)]) == [
        GradientId(0, 2), GradientId(0, 5), GradientId(1, 0)]
    assert repr(ident) == "GradientId(producer=4, step=239)"
    assert str(ident) == repr(ident)
    assert (ident.producer, ident.step) == (4, 239)
    with pytest.raises(AttributeError):
        ident.step = 240


def test_staleness_record_semantics():
    rec = StalenessRecord(applier=2, applier_step=7, producer=1,
                          producer_step=3, tight_size=4, loose_size=5)
    assert rec._fields == ("applier", "applier_step", "producer",
                           "producer_step", "tight_size", "loose_size")
    assert rec.gradient == GradientId(1, 3)
    assert not rec.is_self and rec._replace(applier=1).is_self
    assert rec == StalenessRecord(2, 7, 1, 3, 4, 5)
    with pytest.raises(AttributeError):
        rec.tight_size = 0


def test_tight_staleness_set_algebra():
    abc = frozenset("abc")
    bcd = frozenset("bcd")
    assert tight_staleness(abc, bcd) == frozenset("ad")
    assert tight_staleness(abc, abc) == frozenset()
    assert tight_staleness(abc, bcd) == tight_staleness(bcd, abc)


def test_loose_staleness_hand_case():
    snapshots = {
        A: frozenset(),
        B: frozenset(),
        C: frozenset([A, B]),
    }
    applied = frozenset([A])
    assert loose_staleness(snapshots, applied, snapshots[C]) == frozenset([A, B])
    # No foreign gradients: loose collapses to tight.
    assert loose_staleness(snapshots, frozenset([A, B]), snapshots[C]) == frozenset()
    assert loose_staleness(snapshots, applied, applied) == frozenset()


def test_loose_staleness_missing_snapshot():
    with pytest.raises(ValueError, match="no snapshot"):
        loose_staleness({}, frozenset(), frozenset([A]))


def test_hand_log_records():
    ledger = StalenessLedger.replay(io.StringIO(HAND_LOG))
    got = [(r.applier, r.tight_size, r.loose_size) for r in ledger.records]
    assert got == HAND_EXPECTED
    full = frozenset([A, B, C])
    assert all(ledger.applied_set(i) == full for i in range(3))
    assert ledger.snapshot(C) == frozenset([A, B])


# Every field of every APPLY line's record, in order.
HAND_RECORDS = [
    StalenessRecord(0, 0, 0, 0, 0, 0),
    StalenessRecord(1, 0, 1, 0, 0, 0),
    StalenessRecord(1, 1, 0, 0, 1, 1),
    StalenessRecord(1, 2, 1, 2, 0, 0),
    StalenessRecord(0, 1, 1, 2, 1, 2),
    StalenessRecord(0, 2, 1, 0, 2, 2),
    StalenessRecord(2, 0, 1, 2, 2, 2),
    StalenessRecord(2, 1, 0, 0, 1, 1),
    StalenessRecord(2, 2, 1, 0, 2, 2),
]


def test_hand_log_full_records_and_columns():
    ledger = StalenessLedger.replay(io.StringIO(HAND_LOG))
    assert ledger.records == HAND_RECORDS
    assert all(type(rec) is StalenessRecord for rec in ledger.records)
    assert ledger.n_applications == len(HAND_RECORDS)
    assert [list(column) for column in ledger.columns] == [
        list(field) for field in zip(*HAND_RECORDS)]
    assert [ledger.node_step(i) for i in range(3)] == [3, 3, 3]
    out = io.StringIO()
    ledger.export_events(out)
    assert out.getvalue() == HAND_LOG
    # The list handed out is a copy.
    ledger.records.clear()
    assert ledger.records == HAND_RECORDS


def test_node_step_counts_applications():
    ledger = StalenessLedger(2)
    g = ledger.record_compute(1)
    assert [ledger.node_step(i) for i in range(2)] == [0, 0]
    ledger.record_application(1, g)
    assert [ledger.node_step(i) for i in range(2)] == [0, 1]
    ledger.record_application(0, g)
    assert [ledger.node_step(i) for i in range(2)] == [1, 1]
    assert ledger.record_compute(1) == GradientId(1, 1)
    for node in (-1, 2):
        with pytest.raises(IndexError):
            ledger.node_step(node)


def test_hand_log_summary():
    ledger = StalenessLedger.replay(io.StringIO(HAND_LOG))
    summary = ledger.summarize()
    # Worst node for tight averages is node 2: (2+1+2)/3.
    assert summary.tight_avg == pytest.approx(5 / 3)
    # Worst node for loose averages is node 0: (2+2)/2.
    assert summary.loose_avg == pytest.approx(2.0)
    assert summary.tight_max == 2
    assert summary.loose_max == 2
    assert summary.n_events == 9
    assert summary.n_foreign == 6
    assert summary.loose_avg >= summary.tight_avg
    assert summary.loose_max >= summary.tight_max


def test_export_replay_round_trip():
    ledger = StalenessLedger.replay(io.StringIO(HAND_LOG))
    out = io.StringIO()
    ledger.export_events(out)
    assert out.getvalue() == HAND_LOG
    again = StalenessLedger.replay(io.StringIO(out.getvalue()))
    assert again.records == ledger.records


def test_single_node_run_is_all_zeros():
    ledger = StalenessLedger(1)
    for _ in range(20):
        g = ledger.record_compute(0)
        rec = ledger.record_application(0, g)
        assert rec.tight_size == rec.loose_size == 0
    summary = ledger.summarize()
    assert summary.tight_avg == summary.loose_avg == 0.0
    assert summary.tight_max == summary.loose_max == 0
    assert summary.n_foreign == 0


def test_duplicate_application_raises():
    ledger = StalenessLedger(2)
    g = ledger.record_compute(0)
    ledger.record_application(0, g)
    ledger.record_application(1, g)
    with pytest.raises(ValueError):
        ledger.record_application(1, g)


def test_unknown_gradient_raises():
    ledger = StalenessLedger(2)
    with pytest.raises(ValueError, match="never computed"):
        ledger.record_application(0, GradientId(1, 3))


def test_node_out_of_range_raises():
    # Node -1 used to alias node n - 1 through negative indexing.
    ledger = StalenessLedger(3)
    with pytest.raises(IndexError):
        ledger.record_compute(-1)
    with pytest.raises(IndexError):
        ledger.record_compute(3)
    g = ledger.record_compute(0)
    with pytest.raises(IndexError):
        ledger.record_application(-1, g)
    assert ledger.n_gradients == 1
    assert [ledger.node_step(i) for i in range(3)] == [0, 0, 0]


def test_compute_before_self_apply_raises():
    ledger = StalenessLedger(2)
    ledger.record_compute(0)
    with pytest.raises(ValueError, match="already registered"):
        ledger.record_compute(0)


def test_summarize_empty_raises():
    with pytest.raises(ValueError, match="no applications"):
        StalenessLedger(3).summarize()


def test_replay_rejects_bad_step():
    log = "COMPUTE 0 0\nAPPLY 0 5 0 0\n"
    with pytest.raises(EventLogError) as err:
        StalenessLedger.replay(io.StringIO(log))
    assert err.value.line_no == 2


def test_replay_rejects_duplicate_apply():
    log = HAND_LOG + "APPLY 2 3 1 0\n"
    with pytest.raises(EventLogError) as err:
        StalenessLedger.replay(io.StringIO(log))
    assert err.value.line_no == 13


def test_parse_rejects_malformed_line():
    with pytest.raises(EventLogError) as err:
        list(parse_event_log(["COMPUTE 0 0", "APPLY 1 2 garbage 0"]))
    assert err.value.line_no == 2
    with pytest.raises(EventLogError):
        list(parse_event_log(["SYNC 0"]))


@pytest.mark.parametrize("line", ["COMPUTE -1 0", "COMPUTE 0 -2",
                                  "APPLY -1 1 0 0", "APPLY 0 0 0 -1"])
def test_parse_rejects_negative_fields(line):
    with pytest.raises(EventLogError, match="malformed line") as err:
        list(parse_event_log(["COMPUTE 0 0", line]))
    assert err.value.line_no == 2


def test_parse_skips_blanks_and_comments():
    events = list(parse_event_log(["", "# header", "COMPUTE 0 0"]))
    assert events == [(3, ("compute", 0, 0))]


def shadow_replay(lines):
    """Drive a ledger while recomputing every record through the plain
    reference functions on shadow frozensets."""
    ledger = StalenessLedger(8)
    applied = {i: frozenset() for i in range(8)}
    snapshots = {}
    for _, ev in parse_event_log(lines):
        if ev[0] == "compute":
            ident = ledger.record_compute(ev[1])
            snapshots[ident] = applied[ev[1]]
        else:
            _, node, _, producer, pstep = ev
            ident = GradientId(producer, pstep)
            rec = ledger.record_application(node, ident)
            want_tight = tight_staleness(applied[node], snapshots[ident])
            want_loose = loose_staleness(snapshots, applied[node], snapshots[ident])
            assert rec.tight_size == len(want_tight)
            assert rec.loose_size == len(want_loose)
            assert rec.loose_size >= rec.tight_size
            if rec.is_self:
                assert rec.tight_size == 0 and rec.loose_size == 0
            applied[node] = applied[node] | {ident}
    for node in range(8):
        assert ledger.applied_set(node) == applied[node]


@pytest.mark.parametrize("seed", range(6))
def test_incremental_matches_reference_on_random_logs(seed):
    from oracles import random_event_log

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    shadow_replay(random_event_log(rng, n, max_total_steps=40))
