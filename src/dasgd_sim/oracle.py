"""Brute-force staleness recomputation for cross-checking the ledger.

Replays an event log over dense boolean rows and recomputes every
staleness value from the rows alone.  The replay deliberately shares
nothing with the ledger kernel but the event parser: the kernel keeps
Python-int bitsets in creation order and chases its loose fixed point
one id at a time, while this replay keeps one numpy bool row per
gradient in sorted (producer, step) order, expands the whole unseen
frontier of the snapshot graph per step, and forms the loose set from
the union and intersection of the snapshots it reached.  Agreement
between the two routes is therefore meaningful.

Snapshot rows take G^2 bytes for G gradients (5.8 MB at G = 2,400);
tight memberships are kept as one index array, never as sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from dasgd_sim.ledger import (
    EventLogError,
    GradientId,
    StalenessLedger,
    parse_event_log,
)


class DenseReplay:
    """Replay of a parsed event log over dense boolean rows.

    `ids` holds every computed gradient in sorted order, and column j of
    `applied` (one row per node, the final sets) and `snapshots` (one row
    per gradient, its producer's set at creation) stands for `ids[j]`.
    Per application, in log order, the int arrays `line_no`, `applier`,
    `applier_step`, `column` (the gradient applied), `tight` and `loose`
    (sizes) hold one entry each.  The tight set of application k is
    `tight_idx[tight_ptr[k]:tight_ptr[k + 1]]`, ascending columns.

    The loose set of an application by a node with set A of a gradient
    with snapshot S is the union of A ^ T over the snapshots T reached
    from S through gradients A has not applied, which is
    (A minus the intersection of all T) | (the union of all T minus A).
    When S is a subset of A nothing is reached and loose equals tight.
    """

    def __init__(self, events: list, n_nodes: int = None):
        if n_nodes is None:
            n_nodes = 1 + max((ev[1] for _, ev in events), default=0)
        self.events = events
        self.n_nodes = n_nodes
        self.ids = sorted({GradientId(ev[1], ev[2])
                           for _, ev in events if ev[0] == "compute"})
        column = {ident: j for j, ident in enumerate(self.ids)}
        self.applied = np.zeros((n_nodes, len(self.ids)), dtype=bool)
        self.snapshots = np.zeros((len(self.ids), len(self.ids)), dtype=bool)
        computed = [False] * len(self.ids)
        steps = [0] * n_nodes
        records = []     # (line_no, applier, applier_step, column, tight, loose)
        # Tight columns of every application, in the narrowest index type.
        members = np.empty(1024, np.min_scalar_type(max(len(self.ids) - 1, 0)))
        used = 0
        for line_no, ev in events:
            kind, node, step = ev[0], ev[1], ev[2]
            if step != steps[node]:
                raise EventLogError(
                    line_no,
                    f"{kind.upper()} step {step} does not match node {node} "
                    f"at step {steps[node]}",
                )
            row = self.applied[node]
            if kind == "compute":
                col = column[GradientId(node, step)]
                if computed[col]:
                    raise EventLogError(
                        line_no, f"{GradientId(node, step)} computed twice")
                computed[col] = True
                self.snapshots[col] = row
                continue
            ident = GradientId(ev[3], ev[4])
            col = column.get(ident)
            if col is None or not computed[col]:
                raise EventLogError(line_no, f"{ident} was never computed")
            if row[col]:
                raise EventLogError(
                    line_no, f"{ident} applied twice by node {node}")
            snap = self.snapshots[col]
            tight = (row ^ snap).nonzero()[0]
            # Step counters are set sizes (validated above and at the
            # gradient's COMPUTE), so |S - A| = (|A ^ S| + |S| - |A|) / 2
            # and the snapshot has unseen gradients exactly when it is
            # nonzero.
            if len(tight) + ident.step - step:
                loose = self._loose_size(row, snap)
            else:
                loose = len(tight)
            records.append((line_no, node, step, col, len(tight), loose))
            if used + len(tight) > len(members):
                members = np.resize(members, 2 * (used + len(tight)))
            members[used:used + len(tight)] = tight
            used += len(tight)
            row[col] = True
            steps[node] += 1
        (self.line_no, self.applier, self.applier_step, self.column,
         self.tight, self.loose) = np.array(
            records, dtype=np.int64).reshape(-1, 6).T
        self.tight_ptr = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(self.tight, out=self.tight_ptr[1:])
        self.tight_idx = members[:used].copy()

    def _loose_size(self, row, snap) -> int:
        """Expand the frontier of unseen gradients level by level: one
        step reaches every unseen gradient in the snapshots of the whole
        previous level, and folds those snapshots into the union and
        intersection of the reached terms."""
        union = inter = snap
        known = row | snap          # applied or already reached
        frontier = (snap > row).nonzero()[0]
        while len(frontier):
            terms = self.snapshots[frontier]
            union = union | np.logical_or.reduce(terms)
            inter = inter & np.logical_and.reduce(terms)
            fresh = union > known
            known |= fresh
            frontier = fresh.nonzero()[0]
        return int(np.count_nonzero(row > inter)
                   + np.count_nonzero(union > row))

    @property
    def n_applications(self) -> int:
        return len(self.tight)

    def applied_set(self, node: int) -> frozenset:
        return frozenset(self.ids[j]
                         for j in np.flatnonzero(self.applied[node]))


def replay_brute_force(lines: Iterable[str], n_nodes: int = None) -> DenseReplay:
    """Parse an event log and replay it with `DenseReplay`."""
    return DenseReplay(list(parse_event_log(lines)), n_nodes)


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
              brute: Optional[DenseReplay] = None) -> OracleReport:
    """Replay a log through both routes and diff every staleness value.

    `brute` is this log's brute-force replay when the caller already has
    one, and the ledger then replays the events it parsed; otherwise the
    log is parsed here and both routes replay it, the ledger first.
    """
    if brute is None:
        events = list(parse_event_log(lines))
        ledger = StalenessLedger.from_events(events)
        brute = DenseReplay(events, ledger.n_nodes)
    else:
        ledger = StalenessLedger.from_events(brute.events)
    if ledger.n_applications != brute.n_applications:
        raise EventLogError(0, "replay routes disagree on event count")
    _, _, _, _, tight, loose = ledger.columns
    inc_tight = np.frombuffer(tight, dtype=np.int64)
    inc_loose = np.frombuffer(loose, dtype=np.int64)
    mismatches = []
    for k in np.flatnonzero((inc_tight != brute.tight)
                            | (inc_loose != brute.loose)):
        for field, got, want in (("tight", inc_tight, brute.tight),
                                 ("loose", inc_loose, brute.loose)):
            if got[k] != want[k]:
                mismatches.append(Mismatch(int(brute.line_no[k]), field,
                                           int(got[k]), int(want[k])))
    for node in range(ledger.n_nodes):
        if ledger.applied_set(node) != brute.applied_set(node):
            mismatches.append(Mismatch(0, f"final set of node {node}", -1, -1))
    return OracleReport(
        n_events=len(brute.events),
        n_applications=brute.n_applications,
        mismatches=tuple(mismatches),
    )

