"""Brute-force staleness recomputation for cross-checking the ledger.

Replays an event log with plain frozensets and recomputes every staleness
value from scratch.  The loose measure here is evaluated by repeatedly
substituting its defining recursion until no term set grows, deliberately
not sharing the ledger kernel's id-level frontier walk or its bitset
representation, so agreement between the two routes is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from dasgd_sim.ledger import (
    EventLogError,
    GradientId,
    StalenessLedger,
    parse_event_log,
)


def naive_loose_staleness(
    snapshots: dict[GradientId, frozenset],
    applied: frozenset,
    producer_set: frozenset,
) -> frozenset:
    """Literal expansion of the loose-staleness recursion.

    Maintains the collection of producer-side sets the definition compares
    against, substituting snapshots of unseen gradients until the
    collection stops changing, then unions all the differences in one
    final pass.
    """
    terms = {producer_set}
    unexpanded = [producer_set]
    while unexpanded:
        term = unexpanded.pop()
        for g in term - applied:
            snap = snapshots[g]
            if snap not in terms:
                terms.add(snap)
                unexpanded.append(snap)
    result = set()
    for term in terms:
        result |= applied ^ term
    return frozenset(result)


@dataclass(frozen=True)
class OracleRecord:
    line_no: int
    applier: int
    applier_step: int
    producer: int
    producer_step: int
    tight: frozenset
    loose: frozenset


class BruteForceReplay:
    """Frozenset-based replay of an event log.  No incremental staleness
    state: each application event is measured by full set operations."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.applied: list[frozenset] = [frozenset() for _ in range(n_nodes)]
        self.snapshots: dict[GradientId, frozenset] = {}
        self.records: list[OracleRecord] = []

    def compute(self, line_no: int, node: int, step: int) -> None:
        if step != len(self.applied[node]):
            raise EventLogError(
                line_no,
                f"COMPUTE step {step} does not match node {node} "
                f"at step {len(self.applied[node])}",
            )
        ident = GradientId(node, step)
        if ident in self.snapshots:
            raise EventLogError(line_no, f"{ident} computed twice")
        self.snapshots[ident] = self.applied[node]

    def apply(
        self, line_no: int, node: int, step: int, producer: int, pstep: int
    ) -> OracleRecord:
        if step != len(self.applied[node]):
            raise EventLogError(
                line_no,
                f"APPLY step {step} does not match node {node} "
                f"at step {len(self.applied[node])}",
            )
        ident = GradientId(producer, pstep)
        snap = self.snapshots.get(ident)
        if snap is None:
            raise EventLogError(line_no, f"{ident} was never computed")
        before = self.applied[node]
        if ident in before:
            raise EventLogError(line_no, f"{ident} applied twice by node {node}")
        record = OracleRecord(
            line_no=line_no,
            applier=node,
            applier_step=step,
            producer=producer,
            producer_step=pstep,
            tight=before ^ snap,
            loose=naive_loose_staleness(self.snapshots, before, snap),
        )
        self.records.append(record)
        self.applied[node] = before | {ident}
        return record


def replay_brute_force(lines: Iterable[str], n_nodes: int = None) -> BruteForceReplay:
    events = list(parse_event_log(lines))
    if n_nodes is None:
        n_nodes = 1 + max((ev[1] for _, ev in events), default=0)
    replay = BruteForceReplay(n_nodes)
    for line_no, ev in events:
        if ev[0] == "compute":
            replay.compute(line_no, ev[1], ev[2])
        else:
            replay.apply(line_no, ev[1], ev[2], ev[3], ev[4])
    return replay


@dataclass(frozen=True)
class Mismatch:
    line_no: int
    field: str
    incremental: int
    brute_force: int


@dataclass(frozen=True)
class OracleReport:
    n_events: int
    n_applications: int
    mismatches: tuple

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        if self.equivalent:
            return f"equivalent ({self.n_applications} application events)"
        first = self.mismatches[0]
        return (
            f"{len(self.mismatches)} mismatches; first at line "
            f"{first.line_no}: {first.field} incremental={first.incremental} "
            f"brute-force={first.brute_force}"
        )


def check_log(lines: Iterable[str],
              brute: Optional[BruteForceReplay] = None) -> OracleReport:
    """Replay a log through both routes and diff every staleness value.

    `brute` is this log's brute-force replay when the caller already has
    one; otherwise it is made here.  Each route parses the log once.
    """
    lines = list(lines)
    ledger = StalenessLedger.replay(lines)
    if brute is None:
        brute = replay_brute_force(lines, n_nodes=ledger.n_nodes)
    inc = ledger.records
    if len(inc) != len(brute.records):
        raise EventLogError(0, "replay routes disagree on event count")
    mismatches = []
    for rec, ref in zip(inc, brute.records):
        if rec.tight_size != len(ref.tight):
            mismatches.append(
                Mismatch(ref.line_no, "tight", rec.tight_size, len(ref.tight))
            )
        if rec.loose_size != len(ref.loose):
            mismatches.append(
                Mismatch(ref.line_no, "loose", rec.loose_size, len(ref.loose))
            )
    for node in range(ledger.n_nodes):
        if ledger.applied_set(node) != brute.applied[node]:
            mismatches.append(Mismatch(0, f"final set of node {node}", -1, -1))
    return OracleReport(
        n_events=len(brute.snapshots) + len(brute.records),
        n_applications=len(brute.records),
        mismatches=tuple(mismatches),
    )


def random_event_log(rng, n_nodes: int, max_total_steps: int = 50) -> list[str]:
    """Generate a protocol-valid random event log.

    Every computed gradient is self-applied immediately (as the protocol
    does) and becomes available to the other nodes afterwards, which apply
    it in arbitrary order.  Budgets are drawn so that no node exceeds
    `max_total_steps` applications by the end, when every gradient has
    reached every node.
    """
    total = int(rng.integers(n_nodes, max_total_steps + 1))
    budgets = [1] * n_nodes
    for _ in range(total - n_nodes):
        budgets[int(rng.integers(n_nodes))] += 1
    lines: list[str] = []
    applied_count = [0] * n_nodes
    pending: list[list[GradientId]] = [[] for _ in range(n_nodes)]
    remaining = list(budgets)
    while True:
        choices = [
            i
            for i in range(n_nodes)
            if remaining[i] > 0 or pending[i]
        ]
        if not choices:
            break
        node = choices[int(rng.integers(len(choices)))]
        can_compute = remaining[node] > 0
        if can_compute and (not pending[node] or rng.random() < 0.5):
            step = applied_count[node]
            lines.append(f"COMPUTE {node} {step}")
            lines.append(f"APPLY {node} {step} {node} {step}")
            applied_count[node] += 1
            remaining[node] -= 1
            ident = GradientId(node, step)
            for other in range(n_nodes):
                if other != node:
                    pending[other].append(ident)
        else:
            pick = int(rng.integers(len(pending[node])))
            ident = pending[node].pop(pick)
            lines.append(
                f"APPLY {node} {applied_count[node]} {ident.producer} {ident.step}"
            )
            applied_count[node] += 1
    return lines
