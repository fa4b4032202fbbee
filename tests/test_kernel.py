"""Edge-case tests for the bitset staleness kernel."""

import pytest

from dasgd_sim.ledger import StalenessKernel
from oracles import naive_loose_staleness, node_contains


def test_duplicate_application_rejected():
    k = StalenessKernel(2)
    gid = k.register_gradient(0)
    k.apply_gradient(0, gid)
    with pytest.raises(ValueError):
        k.apply_gradient(0, gid)


def test_snapshot_excludes_own_gradient():
    k = StalenessKernel(1)
    g0 = k.register_gradient(0)
    k.apply_gradient(0, g0)
    g1 = k.register_gradient(0)
    assert k.snapshot_members(g1) == frozenset([g0])
    assert not node_contains(k, 0, g1)
    assert k.apply_gradient(0, g1) == (0, 0)


def test_validates_indices():
    k = StalenessKernel(2)
    with pytest.raises(IndexError):
        k.register_gradient(2)
    with pytest.raises(IndexError):
        k.register_gradient(-1)
    with pytest.raises(IndexError):
        k.apply_gradient(0, 0)
    g = k.register_gradient(0)
    with pytest.raises(IndexError):
        k.apply_gradient(5, g)
    # Negative values would otherwise index per-node state from the end.
    with pytest.raises(IndexError):
        k.apply_gradient(-1, g)
    with pytest.raises(IndexError):
        k.apply_gradient(0, -1)
    with pytest.raises(IndexError):
        k.node_size(-1)
    assert k.node_size(1) == 0


def replay_checked(n_nodes, ops):
    """Run ops on a kernel: ("c", node) registers a gradient that its
    producer applies at once, ("a", node, g) applies the g-th registered
    gradient.  Every application is compared with the literal recursion;
    the last one's (tight, loose) is returned."""
    k = StalenessKernel(n_nodes)
    gids = []
    for op in ops:
        if op[0] == "c":
            gids.append(k.register_gradient(op[1]))
            op = ("a", op[1], len(gids) - 1)
        _, node, g = op
        snapshots = {gid: k.snapshot_members(gid) for gid in gids}
        applied = k.node_members(node)
        want = (len(applied ^ snapshots[gids[g]]),
                len(naive_loose_staleness(snapshots, applied,
                                          snapshots[gids[g]])))
        got = k.apply_gradient(node, gids[g])
        assert got == want, op
    return got


# (ops, node count, (tight, loose) of the last application)
SWEEP_CASES = {
    # Node 0 makes g0, g1, g2.  Node 1 gets g2 first; node 2 gets g1
    # without g0 and makes g3 from it.  When node 1 applies g3, producer
    # 0's newest reached gradient is g1, older than the g2 node 1 holds.
    "out_of_order": (
        [("c", 0), ("c", 0), ("c", 0), ("a", 1, 2), ("a", 2, 1), ("c", 2),
         ("a", 1, 3)], 3, (2, 3)),
    # The same, with node 1 also holding g0 before it applies g3.
    "out_of_order_holds_oldest": (
        [("c", 0), ("c", 0), ("c", 0), ("a", 1, 2), ("a", 1, 0), ("a", 2, 1),
         ("c", 2), ("a", 1, 3)], 3, (3, 3)),
    # Node 3 holds only its own g0.  Node 0's g1 reaches it through node
    # 0's newer g3 and through node 1's g2, both in node 2's g4.  The
    # sweep expands g3 first; g2's snapshot then meets producer 0 again,
    # and g1 must count without a second expansion of producer 0.
    "met_again": (
        [("c", 3), ("c", 0), ("a", 1, 1), ("c", 1), ("c", 0), ("a", 2, 2),
         ("a", 2, 3), ("c", 2), ("a", 3, 4)], 4, (3, 4)),
    # Node 1's g2 holds node 0's g1, which node 2's g3 lacks: the sweep
    # must meet producer 1 at g2, its newest reached gradient, not g0.
    "newest_first": (
        [("c", 1), ("c", 0), ("a", 1, 1), ("c", 1), ("a", 2, 0), ("a", 2, 2),
         ("c", 2), ("a", 3, 3)], 4, (2, 3)),
    # The applier holds node 0's g0, so node 0's oldest reached gradient
    # is g2; g0's snapshot would drop g1 from the intersection.
    "oldest_reached": (
        [("c", 0), ("c", 1), ("a", 0, 1), ("c", 0), ("a", 3, 0), ("a", 3, 1),
         ("a", 2, 1), ("a", 2, 2), ("c", 2), ("a", 3, 3)], 4, (2, 2)),
    # Node 0's g0 and g2 are both reached; the intersection takes the
    # older one's snapshot, which lacks the g1 the applier holds.
    "oldest_not_newest": (
        [("c", 0), ("c", 1), ("a", 0, 1), ("c", 0), ("a", 3, 1), ("a", 2, 1),
         ("a", 2, 2), ("c", 2), ("a", 3, 3)], 4, (1, 3)),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_matches_literal_recursion(name):
    ops, n_nodes, want = SWEEP_CASES[name]
    assert replay_checked(n_nodes, ops) == want
