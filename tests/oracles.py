"""Shared independent oracles for the test suite.

Besides numeric references, this holds the literal set-based staleness
definitions: `tight_staleness`, `loose_staleness` (an id-level fixed
point), `naive_loose_staleness` (the recursion expanded term by term)
and `LiteralReplay`, which replays an event log with frozensets.  The
program's kernel and its dense brute-force replay are checked against
them, and the parameter server's counter delay against
`server_set_differences`.  `reconstruct` rebuilds a model from a run's
gradient table in a canonical order.

Besides oracles it holds generators and accessors that only tests
need: `random_event_log`, `estimate_noise_second_moment`, a run's
per-node rows and psi series (`node_rows`, `psi_series`), and
`node_contains` on a kernel.
"""

from dataclasses import dataclass

import numpy as np

from dasgd_sim.ledger import GradientId, parse_event_log
from dasgd_sim.theory import running_psi


def central_difference_gradient(loss, x, h=1e-6):
    """Gradient of `loss` at x by central differences, one coordinate at a
    time."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        out[i] = (loss(x + bump) - loss(x - bump)) / (2.0 * h)
    return out


def relative_error(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.linalg.norm(want)))
    return float(np.linalg.norm(got - want)) / scale


def canonical_order(table, gids) -> list:
    """Ids sorted by (producer, step): the shared summation order that
    makes equal sets reconstruct bit-identical models."""
    return sorted(gids, key=lambda g: table.ids[g])


def reconstruct(table, x0, eta, gids):
    """x0 minus eta times the sum of the table's vectors for `gids`,
    summed in canonical order."""
    total = np.zeros_like(x0)
    for g in canonical_order(table, gids):
        total += table.vectors[g]
    return x0 - eta * total


def server_set_differences(columns) -> list:
    """|server's applied set ^ the pushing worker's fetched set| for each
    application of a parameter-server run, from its staleness columns in
    application order, with Python sets.

    The server's set before application k holds the gradients of
    applications 0..k-1.  A worker's fetched set is the server's set just
    after that worker's previous push, and empty before its first.
    """
    _, _, producers, steps, _, _ = columns
    server: set = set()
    fetched: dict = {}
    out = []
    for worker, step in zip(producers, steps):
        out.append(len(server ^ fetched.get(worker, frozenset())))
        server.add(GradientId(worker, step))
        fetched[worker] = frozenset(server)
    return out


def tight_staleness(first: frozenset, second: frozenset) -> frozenset:
    """Symmetric difference between two applied-gradient sets."""
    return frozenset(first ^ second)


def loose_staleness(snapshots, applied: frozenset,
                    producer_set: frozenset) -> frozenset:
    """Least fixed point of the recursive enlargement.

    Beyond the plain symmetric difference, every gradient in
    `producer_set` that the applier has not seen contributes the
    difference between `applied` and that gradient's own snapshot, and the
    unseen gradients of those snapshots recurse in turn.  Each gradient is
    expanded once; snapshots only reference earlier gradients, so the walk
    terminates.
    """
    result = set(applied ^ producer_set)
    frontier = list(producer_set - applied)
    seen = set(frontier)
    while frontier:
        gid = frontier.pop()
        try:
            snap = snapshots[gid]
        except KeyError:
            raise ValueError(f"no snapshot recorded for {gid}") from None
        result |= applied ^ snap
        for g in snap - applied:
            if g not in seen:
                seen.add(g)
                frontier.append(g)
    return frozenset(result)


def naive_loose_staleness(snapshots, applied: frozenset,
                          producer_set: frozenset) -> frozenset:
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
class LiteralRecord:
    line_no: int
    applier: int
    applier_step: int
    producer: int
    producer_step: int
    tight: frozenset
    loose: frozenset


class LiteralReplay:
    """Frozenset replay of an event log: each application is measured by
    full set operations and `naive_loose_staleness`, with no incremental
    state.  Validates nothing; feed it logs that replay cleanly."""

    def __init__(self, lines):
        events = list(parse_event_log(lines))
        n_nodes = 1 + max((ev[1] for _, ev in events), default=0)
        self.applied = [frozenset() for _ in range(n_nodes)]
        self.snapshots = {}
        self.records = []
        for line_no, ev in events:
            if ev[0] == "compute":
                self.snapshots[GradientId(ev[1], ev[2])] = self.applied[ev[1]]
                continue
            _, node, step, producer, pstep = ev
            ident = GradientId(producer, pstep)
            before = self.applied[node]
            snap = self.snapshots[ident]
            self.records.append(LiteralRecord(
                line_no, node, step, producer, pstep,
                tight=tight_staleness(before, snap),
                loose=naive_loose_staleness(self.snapshots, before, snap),
            ))
            self.applied[node] = before | {ident}


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


def estimate_noise_second_moment(objective, x, n_seeds: int = 1000, seed0: int = 0) -> float:
    """Monte-Carlo estimate of E||stochastic - full||^2 at x."""
    full = objective.full_gradient(x)
    acc = 0.0
    for s in range(n_seeds):
        diff = objective.stochastic_gradient(x, seed0 + s) - full
        acc += float(diff @ diff)
    return acc / n_seeds


def node_rows(result, node: int) -> list:
    """One model's trace rows of a run, in step order."""
    return result.rows_by_node().get(node, [])


def psi_series(result, node: int) -> list:
    """(t, running average of grad_norm_sq over steps 0..t) for one
    model of a run.  Needs metric_stride=1 to cover every step."""
    rows = node_rows(result, node)
    return list(zip((r.t for r in rows),
                    running_psi(r.grad_norm_sq for r in rows)))


def node_contains(kernel, node: int, gid: int) -> bool:
    """Whether `node` of a staleness kernel has applied gradient gid."""
    return gid in kernel.node_members(node)
