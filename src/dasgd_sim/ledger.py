"""Gradient identity bookkeeping and staleness measurement.

Every node carries the set of gradient identities it has applied since the
shared starting point.  With a fixed stepsize that set determines the model
exactly, so set differences are a faithful measure of how far two models
have drifted apart.  This module tracks the sets incrementally through a
bitset kernel, computes the tight and loose difference sizes for every
application event, and aggregates the run-level summary.

The kernel gives gradients dense integer ids in creation order and keeps
each per-node set as a plain Python int used as a bitmask.  Snapshotting
a node's set at gradient creation is then a reference copy (ints are
immutable), and the set algebra per application event is a handful of
word operations.

Two notions of drift are recorded per event.  The tight size counts the
symmetric difference between the applier's current set and the snapshot
the incoming gradient was computed from.  The loose size enlarges that
recursively: every gradient of the snapshot the applier has not seen drags
in the difference against its own creation snapshot, chased to a fixed
point.  Loose is never smaller than tight.

The fixed point costs one snapshot per producer, not one per gradient
reached.  A producer's applied set only grows, so the snapshots of its
gradients are nested: over the gradients of one producer that the closure
reaches, their union is the newest one's snapshot and their intersection
the oldest one's.  The loose set is the applier's set minus the
intersection of the reached snapshots, together with their union minus
the applier's set, so the two ends per producer decide it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple


class GradientId(NamedTuple):
    """Identity of one computed gradient.

    `step` is the producer's local step counter at computation time, which
    equals the size of the producer's applied set at that moment.  Pairs
    are unique within a run: a node applies its own gradient before it can
    finish another one, so its set grows between computations.

    A tuple, so equality and hashing run in C.  The hash is
    hash((producer, step)), sorting is by (producer, step) and instances
    are immutable.
    """

    producer: int
    step: int


class StalenessRecord(NamedTuple):
    """One application event.  `applier_step` is the applier's step count
    before the gradient was added (the application itself advances it).
    A tuple, like `GradientId`."""

    applier: int
    applier_step: int
    producer: int
    producer_step: int
    tight_size: int
    loose_size: int

    @property
    def gradient(self) -> GradientId:
        return GradientId(self.producer, self.producer_step)

    @property
    def is_self(self) -> bool:
        return self.applier == self.producer


@dataclass(frozen=True)
class StalenessSummary:
    tight_avg: float
    tight_max: int
    loose_avg: float
    loose_max: int
    n_events: int        # all recorded applications
    n_foreign: int       # applications of gradients produced elsewhere


def summarize_applications(events: Iterable[tuple]) -> StalenessSummary:
    """Aggregate (applier, producer, tight, loose) application events.

    Averages are taken per applier over applications of gradients
    produced elsewhere, then the worst applier is reported.
    Self-applications always measure zero and say nothing about drift
    between distinct models, so they dilute the average and are left out
    of it; they still participate in the maxima and the event count.  An
    applier that only ever applied its own gradients averages zero, as
    does an empty event stream.  Appliers are keys, not indices, so a
    parameter server's applier -1 is one more applier.
    """
    sums: dict = {}      # applier -> [tight sum, loose sum, foreign count]
    tight_max = loose_max = n_events = 0
    for applier, producer, tight, loose in events:
        n_events += 1
        tight_max = max(tight_max, tight)
        loose_max = max(loose_max, loose)
        if applier != producer:
            acc = sums.setdefault(applier, [0, 0, 0])
            acc[0] += tight
            acc[1] += loose
            acc[2] += 1
    return StalenessSummary(
        tight_avg=max((t / c for t, _, c in sums.values()), default=0.0),
        tight_max=tight_max,
        loose_avg=max((s / c for _, s, c in sums.values()), default=0.0),
        loose_max=loose_max,
        n_events=n_events,
        n_foreign=sum(c for _, _, c in sums.values()),
    )


def record_columns() -> tuple:
    """Six empty `array('q')` columns, one per `StalenessRecord` field in
    field order: application i is entry i of each."""
    return tuple(array("q") for _ in StalenessRecord._fields)


def summarize_columns(columns: tuple) -> StalenessSummary:
    """`summarize_applications` over applications kept in columns."""
    applier, _, producer, _, tight, loose = columns
    return summarize_applications(zip(applier, producer, tight, loose))


class StalenessKernel:
    """Tracks which gradient ids each node has applied and measures, per
    application event, the drift between applier and producer.

    The tight measure is the size of the symmetric difference between the
    applier's current set and the snapshot the gradient was created from.
    The loose measure additionally chases every gradient of the snapshot
    that the applier has not seen into that gradient's own snapshot, to a
    fixed point, and counts the union of all the differences.

    The closure is swept in descending gid order, expanding one gradient
    per producer.  A snapshot holds only older gids, so the first gradient
    of a producer the sweep pops is the newest of that producer it will
    ever reach.  Its snapshot contains every older snapshot of the same
    producer, so expanding the older ones would reach nothing new: the
    sweep ORs in that one snapshot and drops the producer's other gids.
    The reached set, and with it the fixed point, is the one a walk over
    every reached gradient finds.  One pass over the producers met then
    ANDs in the snapshot of each one's oldest reached gradient.

    Nodes must lie in [0, n_nodes) and gradient ids in [0, n_gradients);
    anything else raises IndexError instead of indexing from the end.
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self._members = [0] * n_nodes
        self._snapshots: list[int] = []  # gid -> producer's set at creation
        self._producer: list[int] = []   # gid -> producer
        self._produced = [0] * n_nodes   # node -> mask of the gids it made

    @property
    def n_nodes(self) -> int:
        return len(self._members)

    @property
    def n_gradients(self) -> int:
        return len(self._snapshots)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._members):
            raise IndexError(f"node {node} out of range")

    def _check_gid(self, gid: int) -> None:
        if not 0 <= gid < len(self._snapshots):
            raise IndexError(f"unknown gradient id {gid}")

    def register_gradient(self, producer: int) -> int:
        """Mint the id for a gradient `producer` just finished computing.

        The producer's current set becomes the gradient's snapshot; the
        gradient itself is never part of its own snapshot.
        """
        self._check_node(producer)
        gid = len(self._snapshots)
        self._snapshots.append(self._members[producer])
        self._producer.append(producer)
        self._produced[producer] |= 1 << gid
        return gid

    def apply_gradient(self, node: int, gid: int) -> tuple[int, int]:
        """Add gid to node's set; return (tight, loose) sizes measured
        against the node's set from before the insertion."""
        self._check_node(node)
        self._check_gid(gid)
        members = self._members[node]
        bit = 1 << gid
        if members & bit:
            raise ValueError(f"gradient {gid} already applied by node {node}")
        snap = self._snapshots[gid]
        tight = (members ^ snap).bit_count()
        # With the whole snapshot already applied nothing is reached, and
        # the loose set is the tight one.
        loose = self._loose_size(members, bit) if snap & ~members else tight
        self._members[node] = members | bit
        return tight, loose

    def _loose_size(self, members: int, bit: int) -> int:
        # `reached` holds the applied gradient and every unseen gradient
        # its closure reaches; their snapshots are the terms.  `done`
        # masks the gids of the producers already expanded, so the
        # highest gid left in `todo` is its producer's newest reached one.
        snapshots = self._snapshots
        producer_of = self._producer
        produced = self._produced
        reached = todo = bit
        done = union = 0
        met = []
        while todo:
            gid = todo.bit_length() - 1
            producer = producer_of[gid]
            snap = snapshots[gid]
            union |= snap
            reached |= snap & ~members
            done |= produced[producer]
            todo = reached & ~done
            met.append(producer)
        inter = -1
        for producer in met:
            oldest = reached & produced[producer]
            inter &= snapshots[(oldest & -oldest).bit_length() - 1]
        return ((union & ~members) | (members & ~inter)).bit_count()

    def node_size(self, node: int) -> int:
        self._check_node(node)
        return self._members[node].bit_count()

    def node_members(self, node: int) -> frozenset[int]:
        self._check_node(node)
        return _bits_to_ids(self._members[node])

    def snapshot_members(self, gid: int) -> frozenset[int]:
        self._check_gid(gid)
        return _bits_to_ids(self._snapshots[gid])


def _bits_to_ids(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return frozenset(out)


class StalenessLedger:
    """Single-writer record of every computation and application event.

    The simulation loop owns the ledger and mutates it sequentially;
    summaries and records handed out are immutable.

    Each application is stored once, as one entry in each of the six
    `columns` (`record_columns`, 48 bytes), plus one entry in the event
    order column, which holds the application's index for an APPLY and
    -1 - gid for a COMPUTE.  `records` builds the record objects on
    demand.  `columns` are for reading: appending to them breaks the
    ledger.
    """

    def __init__(self, n_nodes: int):
        # Looked up by name at construction: perfbench/tracer.py rebinds
        # the module global to a timing subclass.
        self._kernel = StalenessKernel(n_nodes)
        self._ids: list[GradientId] = []          # dense gid -> identity
        self._gids: dict[GradientId, int] = {}
        self._node_steps = [0] * n_nodes          # node -> applications
        self.columns = record_columns()
        self._order = array("q")
        self._append = tuple(column.append for column in self.columns)

    @property
    def n_nodes(self) -> int:
        return self._kernel.n_nodes

    @property
    def n_gradients(self) -> int:
        return self._kernel.n_gradients

    @property
    def n_applications(self) -> int:
        return len(self.columns[0])

    @property
    def records(self) -> list[StalenessRecord]:
        return list(map(StalenessRecord, *self.columns))

    def record_compute(self, producer: int) -> GradientId:
        """Register a gradient the producer just finished computing.  Its
        snapshot is the producer's current applied set."""
        ident = GradientId(producer, self.node_step(producer))
        if ident in self._gids:
            raise ValueError(
                f"{ident} already registered; a node must apply its own "
                f"gradient before computing the next one"
            )
        gid = self._kernel.register_gradient(producer)
        self._ids.append(ident)
        self._gids[ident] = gid
        self._order.append(-1 - gid)
        return ident

    def record_application(self, applier: int, gradient: GradientId) -> StalenessRecord:
        """Apply `gradient` to `applier`'s set and record the event.

        Staleness is measured against the applier's set before insertion.
        Applying an unknown gradient or the same gradient twice is a
        protocol violation and raises.
        """
        gid = self._gids.get(gradient)
        if gid is None:
            raise ValueError(f"{gradient} was never computed")
        # The kernel checks the applier's range before anything is kept.
        tight, loose = self._kernel.apply_gradient(applier, gid)
        step = self._node_steps[applier]
        self._node_steps[applier] = step + 1
        producer, pstep = gradient
        applier_col, step_col, producer_col, pstep_col, tight_col, \
            loose_col = self._append
        self._order.append(len(self.columns[0]))
        applier_col(applier)
        step_col(step)
        producer_col(producer)
        pstep_col(pstep)
        tight_col(tight)
        loose_col(loose)
        return StalenessRecord(applier, step, producer, pstep, tight, loose)

    def applied_set(self, node: int) -> frozenset:
        return frozenset(self._ids[g] for g in self._kernel.node_members(node))

    def snapshot(self, gradient: GradientId) -> frozenset:
        gid = self._gids.get(gradient)
        if gid is None:
            raise ValueError(f"{gradient} was never computed")
        return frozenset(self._ids[g] for g in self._kernel.snapshot_members(gid))

    def node_step(self, node: int) -> int:
        """Applications so far at `node`: the size of its applied set."""
        if not 0 <= node < len(self._node_steps):
            raise IndexError(f"node {node} out of range")
        return self._node_steps[node]

    def summarize(self) -> StalenessSummary:
        """Aggregate the per-event records with `summarize_applications`."""
        if not self.n_applications:
            raise ValueError("no applications recorded")
        return summarize_columns(self.columns)

    # Event-log export/import.  Line format:
    #   COMPUTE node step
    #   APPLY node step producer pstep
    # with steps validated on replay.

    def export_events(self, stream: IO[str]) -> None:
        ids = self._ids
        applier, step, producer, pstep = self.columns[:4]
        stream.writelines(
            f"APPLY {applier[k]} {step[k]} {producer[k]} {pstep[k]}\n"
            if k >= 0 else "COMPUTE %d %d\n" % ids[-1 - k]
            for k in self._order)

    @classmethod
    def replay(cls, lines: Iterable[str], n_nodes: int = None) -> "StalenessLedger":
        """Rebuild a ledger from an exported event log, validating every
        step counter against the reconstructed state."""
        return cls.from_events(list(parse_event_log(lines)), n_nodes)

    @classmethod
    def from_events(cls, events: list, n_nodes: int = None) -> "StalenessLedger":
        """`replay` over events `parse_event_log` already produced."""
        if n_nodes is None:
            n_nodes = 1 + max((ev[1] for _, ev in events), default=0)
        ledger = cls(n_nodes)
        for line_no, ev in events:
            try:
                if ev[0] == "compute":
                    _, node, step = ev
                    if step != ledger.node_step(node):
                        raise ValueError(
                            f"COMPUTE step {step} does not match node "
                            f"{node} at step {ledger.node_step(node)}"
                        )
                    ledger.record_compute(node)
                else:
                    _, node, step, producer, pstep = ev
                    if step != ledger.node_step(node):
                        raise ValueError(
                            f"APPLY step {step} does not match node "
                            f"{node} at step {ledger.node_step(node)}"
                        )
                    ledger.record_application(node, GradientId(producer, pstep))
            except (ValueError, IndexError) as exc:
                raise EventLogError(line_no, str(exc)) from None
        return ledger


class EventLogError(ValueError):
    """Malformed or protocol-violating event log line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_event_log(lines: Iterable[str]) -> Iterator[tuple]:
    """Yield (line_no, event) pairs where event is ("compute", node, step)
    or ("apply", node, step, producer, pstep).  Blank lines and #-comments
    are skipped.  Every field is a non-negative integer; a negative node
    would otherwise index from the end of per-node state."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "COMPUTE" and len(parts) == 3:
                event = ("compute", int(parts[1]), int(parts[2]))
            elif parts[0] == "APPLY" and len(parts) == 5:
                event = (
                    "apply",
                    int(parts[1]),
                    int(parts[2]),
                    int(parts[3]),
                    int(parts[4]),
                )
            else:
                raise ValueError("unrecognized event")
            if min(event[1:]) < 0:
                raise ValueError("negative field")
        except (ValueError, IndexError):
            raise EventLogError(line_no, f"malformed line: {raw.rstrip()}") from None
        yield line_no, event
