"""Edge-case tests for the bitset staleness kernel."""

import pytest

from dasgd_sim.ledger import StalenessKernel


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
    assert not k.node_contains(0, g1)
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
