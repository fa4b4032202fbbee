"""Topology construction, routing policy, and the dedup/relay layer."""

import numpy as np
import pytest

from dasgd_sim.netsim import (
    InFlightMessage,
    MessageCounts,
    Network,
    TimeDistribution,
    Topology,
    TopologyError,
    validate_topology,
)


def test_fully_connected_edge_count():
    topo = Topology.fully_connected(6)
    assert len(topo.edges) == 15
    assert topo.neighbors(2) == (0, 1, 3, 4, 5)


def test_ring_edges_wrap():
    topo = Topology.ring(5)
    assert (0, 4) in topo.edges
    assert topo.neighbors(0) == (1, 4)
    assert topo.neighbors(3) == (2, 4)


def test_single_node_topologies():
    assert Topology.fully_connected(1).edges == frozenset()
    assert Topology.ring(1).edges == frozenset()
    validate_topology(Topology.ring(1))


def test_two_node_ring_has_one_edge():
    # Forward and wrap edges coincide; must not trip the duplicate check.
    topo = Topology.ring(2)
    assert topo.edges == frozenset({(0, 1)})
    assert topo.route_targets(0) == (1,)
    assert topo.route_targets(1, arrived_from=0) == ()


def test_custom_rejects_bad_edges():
    with pytest.raises(TopologyError):
        Topology.custom(3, [(0, 3)])
    with pytest.raises(TopologyError):
        Topology.custom(3, [(1, 1)])
    with pytest.raises(TopologyError):
        Topology.custom(3, [(0, 1), (1, 0)])


def test_disconnected_custom_named_in_error():
    topo = Topology.custom(4, [(0, 1), (2, 3)])
    with pytest.raises(TopologyError, match="no path"):
        validate_topology(topo)


def test_route_targets_fully_connected():
    topo = Topology.fully_connected(4)
    assert topo.route_targets(0) == (1, 2, 3)
    # Flooding never echoes back along the arrival edge.
    assert topo.route_targets(2, arrived_from=3) == (0, 1)


def test_route_targets_directed_ring():
    topo = Topology.ring(4)
    assert topo.route_targets(0) == (1,)
    assert topo.route_targets(1, arrived_from=0) == (2,)
    # The hop that would close the cycle back onto the producer's
    # successor is where circulation stops.
    assert topo.route_targets(0, arrived_from=3) == (1,)


def test_disseminate_counts():
    rng = np.random.default_rng(0)
    lat = TimeDistribution.constant(0.1)
    fc = Network(Topology.fully_connected(4), lat)
    msgs = fc.disseminate(0, gid=0, now=1.0, rng=rng)
    assert sorted(m.to for m in msgs) == [1, 2, 3]
    assert all(m.deliver_at == pytest.approx(1.1) for m in msgs)
    assert all(m.sender == 0 for m in msgs)

    ring = Network(Topology.ring(4), lat)
    msgs = ring.disseminate(0, gid=0, now=0.0, rng=rng)
    assert [m.to for m in msgs] == [1]


def test_dedup_and_relay():
    rng = np.random.default_rng(1)
    net = Network(Topology.fully_connected(3), TimeDistribution.constant(0.5))
    (first, second) = sorted(
        net.disseminate(0, gid=7, now=0.0, rng=rng), key=lambda m: m.to
    )
    assert net.on_receive(1, first) == "accept"
    assert net.on_receive(1, first) == "duplicate"
    assert net.duplicate_count == 1
    relays = net.relay(1, gid=7, arrived_from=0, now=0.6, rng=rng)
    assert [m.to for m in relays] == [2]
    assert net.on_receive(2, second) == "accept"
    assert net.on_receive(2, relays[0]) == "duplicate"


def test_ring_relay_forwards_one_hop():
    rng = np.random.default_rng(2)
    net = Network(Topology.ring(5), TimeDistribution.constant(1.0))
    msgs = net.disseminate(2, gid=0, now=0.0, rng=rng)
    assert [m.to for m in msgs] == [3]
    hop = net.relay(3, gid=0, arrived_from=2, now=2.0, rng=rng)
    assert [m.to for m in hop] == [4]
    assert hop[0].deliver_at == pytest.approx(3.0)


def test_origin_marked_seen():
    rng = np.random.default_rng(3)
    net = Network(Topology.ring(3), TimeDistribution.constant(1.0))
    net.disseminate(0, gid=0, now=0.0, rng=rng)
    echo = InFlightMessage(gid=0, sender=2, to=0, deliver_at=5.0)
    assert net.on_receive(0, echo) == "duplicate"


def test_time_distributions():
    rng = np.random.default_rng(4)
    const = TimeDistribution.constant(2.0)
    assert const.mean == 2.0
    assert all(const.sample(rng) == 2.0 for _ in range(5))

    uni = TimeDistribution.uniform(0.5, 1.5)
    assert uni.mean == pytest.approx(1.0)
    draws = [uni.sample(rng) for _ in range(200)]
    assert all(0.5 <= d <= 1.5 for d in draws)

    expo = TimeDistribution.exponential(0.25)
    assert expo.mean == 0.25
    draws = [expo.sample(rng) for _ in range(2000)]
    assert all(d > 0 for d in draws)
    assert np.mean(draws) == pytest.approx(0.25, rel=0.1)


def test_time_distribution_validation():
    with pytest.raises(ValueError):
        TimeDistribution.constant(0.0)
    with pytest.raises(ValueError):
        TimeDistribution.uniform(-1.0, 2.0)
    with pytest.raises(ValueError):
        TimeDistribution.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        TimeDistribution.exponential(float("inf"))


def test_equal_seeds_equal_schedules():
    topo = Topology.fully_connected(3)
    lat = TimeDistribution.uniform(0.1, 0.9)
    out = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        net = Network(topo, lat)
        msgs = net.disseminate(1, gid=0, now=0.0, rng=rng)
        out.append([(m.to, m.deliver_at) for m in msgs])
    assert out[0] == out[1]


def test_copies_the_target_holds_are_elided():
    lat = TimeDistribution.uniform(0.1, 0.9)
    net = Network(Topology.fully_connected(3), lat)
    rng = np.random.default_rng(5)
    first, second = sorted(net.disseminate(0, gid=0, now=0.0, rng=rng),
                           key=lambda m: m.to)
    assert net.on_receive(1, first) == "accept"
    assert net.on_receive(2, second) == "accept"
    # Node 2 already holds gradient 0, so node 1's relay schedules nothing.
    assert net.relay(1, gid=0, arrived_from=0, now=1.0, rng=rng) == []
    assert net.counts() == MessageCounts(sent=2, duplicate=0, elided=1)
    # The elided copy still drew its latency: the stream is where it
    # would be had the copy been sent, and its arrival time is kept.
    ref = np.random.default_rng(5)
    draws = [lat.sample(ref) for _ in range(3)]
    assert net.elided_until == 1.0 + draws[2]
    assert rng.random() == ref.random()


@pytest.mark.parametrize("k", [0, 1, 2, 15, 31])
@pytest.mark.parametrize("dist", [
    TimeDistribution.constant(0.3),
    TimeDistribution.uniform(0.1, 0.9),
    TimeDistribution.exponential(0.4),
], ids=lambda d: d.kind)
def test_sample_many_equals_scalar_draws(dist, k):
    # Batched latency draws stand in for scalar ones only while numpy's
    # array draws repeat its scalar draw; a numpy that breaks that fails
    # here, not in a pinned run directory.
    batch, scalar = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        assert dist.sample_many(batch, k) == [dist.sample(scalar)
                                              for _ in range(k)]
        assert batch.bit_generator.state == scalar.bit_generator.state


class ScriptedExponential:
    """A generator whose exponential draws come from a fixed script; the
    state is the position in it."""

    def __init__(self, script):
        self.script = script
        self.pos = 0

    def exponential(self, scale, size=None):
        k = 1 if size is None else size
        values = [scale * v for v in self.script[self.pos:self.pos + k]]
        self.pos += k
        return values[0] if size is None else np.array(values)


def test_sample_many_redraws_nonpositive_exponential():
    dist = TimeDistribution.exponential(2.0)
    script = [0.5, 0.0, 0.7, 0.0, 0.0, 0.2, 0.9, 0.4]
    batch, scalar = ScriptedExponential(script), ScriptedExponential(script)
    values = dist.sample_many(batch, 4)
    assert values == [dist.sample(scalar) for _ in range(4)]
    assert values == [1.0, 1.4, 0.4, 1.8]
    assert batch.pos == scalar.pos == 7


def test_holder_masks_across_routes():
    # Flooding on a complete graph: each relay skips the copies whose
    # target already accepted the gradient, whichever route reached it.
    lat = TimeDistribution.constant(1.0)
    net = Network(Topology.fully_connected(5), lat)
    rng = np.random.default_rng(0)
    first = net.disseminate(0, gid=3, now=0.0, rng=rng)
    assert [m.to for m in first] == [1, 2, 3, 4]
    for msg in first[:2]:
        assert net.on_receive(msg.to, msg) == "accept"
    relays = net.relay(1, gid=3, arrived_from=0, now=1.0, rng=rng)
    assert [(m.to, m.deliver_at) for m in relays] == [(3, 2.0), (4, 2.0)]
    assert net.counts() == MessageCounts(sent=6, duplicate=0, elided=1)
    assert net.elided_until == 2.0
