"""Communication substrate: topology graphs, seeded delay distributions,
and gradient dissemination with receiver-side duplicate suppression.

Dissemination is flooding with store-and-forward relaying: an accepted
gradient is forwarded when the receiving node processes it, not at the
delivery instant, so propagation across multi-hop topologies costs
compute-boundary hops.  On the ring, copies travel in one direction
around the cycle; relaying a gradient both ways would make every node two
hops from every other and erase the topology's staleness signature.
Duplicate suppression is authoritative at delivery time either way: each
node accepts a given gradient exactly once.

Copies a target already holds at send time are elided: no message is
created for them.  On a complete graph that is most of the ~n^2 copies per
gradient.  Elision leaves every output byte-identical because

  * a node's accepted set only grows, so such a copy could only have
    arrived as a duplicate, and a duplicate arrival changes nothing but
    the duplicate counter;
  * the copy's latency is still drawn, so the shared timing stream feeds
    every later draw exactly as if the copy had been sent;
  * the latest delivery time an elided copy would have had is kept in
    `Network.elided_until`, from which the engine restores the run's end
    time.

Each gradient keeps one bitmask of the nodes that accepted it, and the
targets of each (node, arrival edge) pair are computed once, with their
mask, so `route_mask & holders` is the set of elided copies.  Under
constant latency nothing is drawn and an elided copy takes no step of
its own.  Random latency draws one relay's delays in one batch
(`TimeDistribution.sample_many`): the values k scalar draws give, with
the generator left in the same state.

The traffic stays visible: a dasgd run's summary.txt reports
`messages_sent` (copies scheduled), `messages_duplicate` (scheduled copies
that found the gradient already accepted) and `messages_elided` (copies
never scheduled).  sent + elided is the number of copies plain flooding
sends; sent - duplicate is the number of accepted copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class TopologyError(ValueError):
    pass


class Topology:
    """Undirected connected graph over nodes 0..n-1.

    `kind` selects the relay policy: fully connected and custom graphs
    flood to every neighbor except the arrival edge; rings forward along
    the cycle only.
    """

    def __init__(self, kind: str, n: int, edges):
        if n < 1:
            raise TopologyError("need at least one node")
        seen = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise TopologyError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise TopologyError(f"self-loop at node {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise TopologyError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
        self.kind = kind
        self.n = n
        self.edges = frozenset(seen)
        adjacency = [[] for _ in range(n)]
        for a, b in sorted(self.edges):
            adjacency[a].append(b)
            adjacency[b].append(a)
        self._adjacency = [tuple(sorted(nbrs)) for nbrs in adjacency]

    @classmethod
    def fully_connected(cls, n: int) -> "Topology":
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return cls("fully_connected", n, edges)

    @classmethod
    def ring(cls, n: int) -> "Topology":
        if n == 1:
            return cls("ring", 1, [])
        if n == 2:
            # The wrap edge coincides with the forward edge.
            return cls("ring", 2, [(0, 1)])
        edges = {(i, (i + 1) % n) for i in range(n)}
        return cls("ring", n, edges)

    @classmethod
    def custom(cls, n: int, edges) -> "Topology":
        return cls("custom", n, edges)

    def neighbors(self, node: int) -> tuple:
        return self._adjacency[node]

    def route_targets(self, node: int, arrived_from: int = None) -> tuple:
        """Where copies of a gradient leaving `node` go, in ascending
        order.  `arrived_from` is None when the node is the producer."""
        if self.kind == "ring" and self.n > 1:
            forward = (node + 1) % self.n
            return () if forward == arrived_from else (forward,)
        return tuple(m for m in self._adjacency[node] if m != arrived_from)

    def __eq__(self, other):
        return (isinstance(other, Topology)
                and (self.kind, self.n, self.edges)
                == (other.kind, other.n, other.edges))

    def __hash__(self):
        return hash((self.kind, self.n, self.edges))

    def __repr__(self):
        return f"Topology({self.kind!r}, n={self.n}, edges={len(self.edges)})"


def validate_topology(topology: Topology) -> None:
    """Raise TopologyError unless the graph is connected (self-loops and
    duplicates are already rejected at construction)."""
    n = topology.n
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for m in topology.neighbors(node):
            if m not in reached:
                reached.add(m)
                frontier.append(m)
    if len(reached) < n:
        inside = min(reached)
        outside = min(set(range(n)) - reached)
        raise TopologyError(
            f"graph is not connected: no path between node {inside} and "
            f"node {outside} (component {sorted(reached)} vs the rest)"
        )


@dataclass(frozen=True)
class TimeDistribution:
    """Positive delay distribution for latencies and compute times."""

    kind: str            # constant | uniform | exponential
    low: float = 0.0     # constant value, uniform lower, or exponential mean
    high: float = 0.0    # uniform upper; unused otherwise

    @classmethod
    def constant(cls, value: float) -> "TimeDistribution":
        if not (value > 0 and np.isfinite(value)):
            raise ValueError("constant delay must be positive and finite")
        return cls("constant", value)

    @classmethod
    def uniform(cls, low: float, high: float) -> "TimeDistribution":
        if not (0 < low <= high and np.isfinite(high)):
            raise ValueError("need 0 < low <= high")
        return cls("uniform", low, high)

    @classmethod
    def exponential(cls, mean: float) -> "TimeDistribution":
        if not (mean > 0 and np.isfinite(mean)):
            raise ValueError("exponential mean must be positive and finite")
        return cls("exponential", mean)

    @property
    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.low + self.high)
        return self.low

    def sample(self, rng) -> float:
        if self.kind == "constant":
            return self.low
        if self.kind == "uniform":
            return float(rng.uniform(self.low, self.high))
        value = float(rng.exponential(self.low))
        while value <= 0.0:  # delays are strictly positive
            value = float(rng.exponential(self.low))
        return value

    def sample_many(self, rng, k: int) -> list:
        """k delays: the values k `sample` calls return, leaving `rng` in
        the state they leave it in.  A batch draw repeats the scalar
        draw k times; one of size 1 costs more than the scalar call."""
        if self.kind == "constant":
            return [self.low] * k
        if k < 2:
            return [self.sample(rng) for _ in range(k)]
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size=k).tolist()
        values = rng.exponential(self.low, size=k).tolist()
        if min(values) > 0.0:
            return values
        # `sample` redraws a non-positive value, so k calls return the
        # first k positive values of the stream.
        values = [v for v in values if v > 0.0]
        while len(values) < k:
            values.append(self.sample(rng))
        return values


class InFlightMessage(NamedTuple):
    gid: int             # dense gradient id
    sender: int
    to: int
    deliver_at: float


@dataclass(frozen=True)
class MessageCounts:
    sent: int            # copies scheduled for delivery
    duplicate: int       # scheduled copies whose target already held the gradient
    elided: int          # copies never scheduled: target held it at send time


class Network:
    """Message creation and duplicate suppression for one run.  The event
    scheduler owns delivery timing; this class decides who gets copies and
    which arrivals are new."""

    def __init__(self, topology: Topology, latency: TimeDistribution):
        self.topology = topology
        self.latency = latency
        self._routes: dict = {}    # (node, arrived_from) -> (targets, mask)
        self._holders: dict = {}   # gid -> mask of the nodes that accepted it
        self.sent_count = 0
        self.duplicate_count = 0
        self.elided_count = 0
        self.elided_until = 0.0   # latest arrival an elided copy would have had

    def _route(self, node, arrived_from):
        route = self._routes.get((node, arrived_from))
        if route is None:
            targets = self.topology.route_targets(node, arrived_from)
            mask = 0
            for to in targets:
                mask |= 1 << to
            route = self._routes[node, arrived_from] = (targets, mask)
        return route

    def _make_messages(self, node, gid, route, now, rng):
        targets, mask = route
        held = self._holders.get(gid, 0)
        send = mask & ~held
        elided = mask & held
        latency = self.latency
        if latency.kind == "constant":
            # No draws: only the copies sent take a step.  Targets
            # ascend, so lowest bit first keeps their order.
            deliver_at = now + latency.low
            out = []
            while send:
                low = send & -send
                send ^= low
                out.append(InFlightMessage(gid, node, low.bit_length() - 1,
                                           deliver_at))
            if elided and deliver_at > self.elided_until:
                self.elided_until = deliver_at
        else:
            # Drawn for elided copies too, so later draws do not shift.
            delays = latency.sample_many(rng, len(targets))
            out = []
            for to, delay in zip(targets, delays):
                deliver_at = now + delay
                if send >> to & 1:
                    out.append(InFlightMessage(gid, node, to, deliver_at))
                elif deliver_at > self.elided_until:
                    self.elided_until = deliver_at
        self.sent_count += len(out)
        self.elided_count += elided.bit_count()
        return out

    def counts(self) -> MessageCounts:
        return MessageCounts(self.sent_count, self.duplicate_count,
                             self.elided_count)

    def disseminate(self, origin: int, gid: int, now: float, rng) -> list:
        """Messages for a gradient the origin just produced (the origin
        itself counts as having seen it)."""
        self._holders[gid] = self._holders.get(gid, 0) | 1 << origin
        return self._make_messages(origin, gid, self._route(origin, None),
                                   now, rng)

    def on_receive(self, node: int, message: InFlightMessage) -> str:
        """Mark the arrival; "accept" exactly once per (node, gradient)."""
        held = self._holders.get(message.gid, 0)
        if held >> node & 1:
            self.duplicate_count += 1
            return "duplicate"
        self._holders[message.gid] = held | 1 << node
        return "accept"

    def relay(self, node: int, gid: int, arrived_from: int, now: float, rng) -> list:
        """Forward copies of an accepted gradient; called when the node
        processes it."""
        return self._make_messages(node, gid, self._route(node, arrived_from),
                                   now, rng)
