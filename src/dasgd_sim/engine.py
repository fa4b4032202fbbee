"""Discrete-event execution of the per-node training protocol, plus the
two baselines used for comparisons (lock-step mini-batch SGD and a
parameter-server emulation).

Each node loops: finish computing a gradient, settle the arrivals that
queued up meanwhile, then evaluate its gradient at the settled parameters,
apply it, and send it out.  Queued updates are therefore always folded in
before a node's own gradient is finalized, which keeps the self-applied
gradient's staleness at zero and matches the protocol's rule that receives
take priority over fresh computation.  Because gradient application
commutes, processing order affects only the staleness bookkeeping, never
the final models.

Everything is deterministic in (config, seed): events are totally ordered
by (time, kind, node, sequence) with deliveries sorting before compute
completions at equal times, and every random draw flows from named
seed streams.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple, Optional

import numpy as np

from dasgd_sim.ledger import (
    GradientId,
    StalenessLedger,
    StalenessRecord,
    StalenessSummary,
    record_columns,
    summarize_columns,
)
from dasgd_sim.netsim import (
    MessageCounts,
    Network,
    TimeDistribution,
    Topology,
    validate_topology,
)
from dasgd_sim.theory import running_psi

DELIVER = 0        # sorts before COMPUTE_DONE at equal times
COMPUTE_DONE = 1
TRACE_BLOCK = 1024  # trace rows evaluated per objective call


class DivergenceError(RuntimeError):
    """Parameters left the finite range; the stepsize is too large."""

    def __init__(self, node: int, step: int, sim_time: float, eta: float):
        super().__init__(
            f"non-finite parameters at node {node}, step {step}, "
            f"sim time {sim_time:.6g} (eta={eta:.6g})"
        )
        self.node = node
        self.step = step
        self.sim_time = sim_time
        self.eta = eta


@dataclass
class SimConfig:
    topology: Topology
    objective: object
    eta: float
    samples_per_node: int
    compute_time: TimeDistribution
    latency: TimeDistribution
    seed: int
    compute_scale: Optional[tuple] = None   # per-node speed multipliers
    start: Optional[np.ndarray] = None      # objective's default when None
    metric_stride: int = 1                  # thin trace rows, not records

    @property
    def n(self) -> int:
        return self.topology.n

    def validate(self) -> None:
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be positive and finite")
        if self.samples_per_node < 1:
            raise ValueError("samples_per_node must be at least 1")
        if self.metric_stride < 1:
            raise ValueError("metric_stride must be at least 1")
        if self.compute_scale is not None:
            if len(self.compute_scale) != self.n:
                raise ValueError("compute_scale length must equal node count")
            if any(not (s > 0 and np.isfinite(s)) for s in self.compute_scale):
                raise ValueError("compute_scale entries must be positive")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        validate_topology(self.topology)


class TraceRow(NamedTuple):
    t: int
    sim_time: float
    node: int
    loss: float
    grad_norm_sq: float
    tight: int
    loose: int


class TraceEvent(NamedTuple):
    time: float
    kind: str      # compute | apply | send | deliver | duplicate
    node: int
    gid: int


EVENT_KINDS = ("compute", "apply", "send", "deliver", "duplicate")
EV_COMPUTE, EV_APPLY, EV_SEND, EV_DELIVER, EV_DUPLICATE = range(5)


class _ColumnView(Sequence):
    """A read-only sequence whose item i is `_row` applied to entry i of
    each column.  Equal to another view of its type with equal columns,
    or to a list or tuple of the same items."""

    __hash__ = None
    _columns: tuple

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._row(*(column[index] for column in self._columns))

    def __iter__(self):
        return map(self._row, *self._columns)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._columns == other._columns
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented


class EventLog(_ColumnView):
    """The protocol trace of a peer run: one entry per compute, apply,
    send, deliver and duplicate, kept as a time (`d`), a kind code (`b`,
    an index into EVENT_KINDS), a node and a gid (`q`), 25 bytes an
    event.  Items are `TraceEvent`s."""

    def __init__(self):
        self.time = array("d")
        self.kind = array("b")
        self.node = array("q")
        self.gid = array("q")
        self._columns = (self.time, self.kind, self.node, self.gid)

    @staticmethod
    def _row(time, code, node, gid):
        return TraceEvent(time, EVENT_KINDS[code], node, gid)

    def add(self, time: float, code: int, node: int, gid: int) -> None:
        self.time.append(time)
        self.kind.append(code)
        self.node.append(node)
        self.gid.append(gid)


class StalenessLog(_ColumnView):
    """(sim_time, StalenessRecord) per application, in application
    order: a view over an `array('d')` of application times and the six
    record columns of `ledger.record_columns`, which for a ledger run are
    the ledger's own."""

    def __init__(self, times: array, columns: tuple):
        self.times = times
        self.columns = columns
        self._columns = (times,) + columns

    @staticmethod
    def _row(time, *fields):
        return (time, StalenessRecord(*fields))


class GradientTable:
    """Dense store of every computed gradient's identity, vector and
    update (eta times the vector: what an application subtracts),
    indexed by the same ids the ledger kernel assigns."""

    def __init__(self, eta: float):
        self.eta = eta
        self.ids: list[GradientId] = []
        self.vectors: list[np.ndarray] = []
        self.updates: list[np.ndarray] = []

    def add(self, ident: GradientId, vector: np.ndarray) -> int:
        gid = len(self.vectors)
        self.ids.append(ident)
        self.vectors.append(vector)
        self.updates.append(self.eta * vector)
        return gid

    def __len__(self) -> int:
        return len(self.vectors)

    def canonical_order(self, gids) -> list:
        """Ids sorted by (producer, step): the shared summation order that
        makes equal sets reconstruct bit-identical models."""
        return sorted(gids, key=lambda g: self.ids[g])

    def reconstruct(self, x0: np.ndarray, eta: float, gids) -> np.ndarray:
        total = np.zeros_like(x0)
        for g in self.canonical_order(gids):
            total += self.vectors[g]
        return x0 - eta * total


@dataclass
class RunResult:
    mode: str
    config: SimConfig
    start: np.ndarray
    rows: list
    staleness_log: StalenessLog
    events: EventLog                         # empty for the baselines
    table: GradientTable
    final_models: np.ndarray                 # one row per model replica
    total_time: float
    gradients_computed: int
    summary: Optional[StalenessSummary]
    ledger: Optional[StalenessLedger] = None
    delay_pairs: Optional[list] = None       # centralized: (delay, set diff)
    messages: Optional[MessageCounts] = None  # dasgd: flooding traffic

    @property
    def throughput(self) -> float:
        return self.gradients_computed / self.total_time

    def psi_series(self, node: int) -> list:
        """(t, running average of grad_norm_sq over steps 0..t) for one
        model.  Needs metric_stride=1 to cover every step."""
        rows = self.node_rows(node)
        return list(zip((r.t for r in rows),
                        running_psi(r.grad_norm_sq for r in rows)))

    def node_rows(self, node: int) -> list:
        return self.rows_by_node().get(node, [])

    def rows_by_node(self) -> dict:
        """node -> its trace rows in step order, grouped in one pass."""
        groups: dict = {}
        for row in self.rows:
            groups.setdefault(row.node, []).append(row)
        for rows in groups.values():
            rows.sort(key=lambda r: r.t)
        return groups


def gradient_seed(master: int, producer: int, step: int) -> int:
    """Per-gradient noise seed, independent of event interleaving."""
    ss = np.random.SeedSequence([master, producer, step])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _start(config: SimConfig) -> tuple:
    """Validate the config; return the start point, the per-node compute
    speed multipliers and the timing stream every runner draws from."""
    config.validate()
    x0 = np.array(
        config.objective.default_start() if config.start is None
        else config.start,
        dtype=float,
    )
    scale = (tuple(config.compute_scale) if config.compute_scale
             else (1.0,) * config.n)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    return x0, scale, rng


class _Trace:
    """The trace rows of one run and its divergence checks.

    A logged point is copied into a block, and a full block is evaluated
    in one `losses_and_gradients` call; `rows` is complete after `flush`.
    A row whose loss or gradient norm is not finite is divergence,
    reported at its label, step and time.  The parameter check evaluates
    the pending rows before it raises its own error, so the first failure
    in logging order is the one reported.
    """

    def __init__(self, config: SimConfig, dim: int, last_t: int):
        self.rows: list[TraceRow] = []
        self._objective = config.objective
        self._stride = config.metric_stride
        self._eta = config.eta
        self._last_t = last_t
        self._points = np.empty((TRACE_BLOCK, dim))
        self._pending: list = []   # (label, t, sim_time, node, tight, loose)

    def log(self, x, label: int, t: int, now: float, node: int,
            tight: int = 0, loose: int = 0) -> None:
        """Queue the row of step t unless the metric stride thins it out;
        t=0 and the last step are always logged."""
        if t % self._stride and t != self._last_t:
            return
        pending = self._pending
        self._points[len(pending)] = x
        pending.append((label, t, now, node, tight, loose))
        if len(pending) == TRACE_BLOCK:
            self.flush()

    def check(self, x, label: int, t: int, now: float) -> None:
        """Parameters that left the finite range after step t diverged.

        A sum is not finite whenever an entry is not, so the entries are
        tested one by one only when the sum is not finite; finite entries
        whose sum overflows pass.  Callers run under an errstate that
        ignores overflow.
        """
        if not isfinite(np.add.reduce(x)) and not np.isfinite(x).all():
            self.flush()
            raise DivergenceError(label, t, now, self._eta)

    def flush(self) -> None:
        """Evaluate the pending rows."""
        pending = self._pending
        if not pending:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            losses, grads = self._objective.losses_and_gradients(
                self._points[:len(pending)])
            # One dot per row, the sum float(g @ g) makes.
            gsq = (grads[:, None, :] @ grads[:, :, None])[:, 0, 0]
        finite = np.isfinite(losses) & np.isfinite(gsq)
        if not finite.all():
            label, t, now = pending[int(finite.argmin())][:3]
            raise DivergenceError(label, t, now, self._eta)
        self.rows.extend(
            TraceRow(t, now, node, loss, g, tight, loose)
            for (_, t, now, node, tight, loose), loss, g
            in zip(pending, losses.tolist(), gsq.tolist()))
        pending.clear()


def run(config: SimConfig) -> RunResult:
    """Execute the decentralized protocol until every budget is spent and
    every gradient has reached and been applied by every node."""
    x0, scale, rng_time = _start(config)
    n = config.n
    obj = config.objective
    eta = config.eta
    total_expected = n * config.samples_per_node

    ledger = StalenessLedger(n)
    network = Network(config.topology, config.latency)
    table = GradientTable(eta)
    params = [x0.copy() for _ in range(n)]
    inbox = [deque() for _ in range(n)]
    budget = [config.samples_per_node] * n

    trace = _Trace(config, x0.shape[0], total_expected)
    times = array("d")          # sim time of each application
    events = EventLog()

    heap: list = []
    seq = 0

    def schedule(time, kind, node, payload):
        nonlocal seq
        heapq.heappush(heap, (time, kind, node, seq, payload))
        seq += 1

    record = ledger.record_application
    ids, updates = table.ids, table.updates
    add_event, add_time = events.add, times.append
    check, log = trace.check, trace.log

    def apply_one(node, gid, now, arrived_from):
        _, step, _, _, tight, loose = record(node, ids[gid])
        x = params[node]
        x -= updates[gid]
        add_time(now)
        add_event(now, EV_APPLY, node, gid)
        check(x, node, step + 1, now)
        log(x, node, step + 1, now, node, tight, loose)
        if arrived_from is not None:
            for msg in network.relay(node, gid, arrived_from, now, rng_time):
                add_event(now, EV_SEND, node, gid)
                schedule(msg.deliver_at, DELIVER, msg.to, msg)

    def on_compute_done(node, now):
        # Arrivals queued during the window are settled first; the fresh
        # gradient is then taken at the settled parameters, so its
        # snapshot matches what it was computed from.
        while inbox[node]:
            gid, sender = inbox[node].popleft()
            apply_one(node, gid, now, sender)
        ident = ledger.record_compute(node)
        vector = obj.stochastic_gradient(
            params[node], gradient_seed(config.seed, node, ident.step)
        )
        gid = table.add(ident, np.asarray(vector, dtype=float))
        add_event(now, EV_COMPUTE, node, gid)
        apply_one(node, gid, now, None)
        for msg in network.disseminate(node, gid, now, rng_time):
            add_event(now, EV_SEND, node, gid)
            schedule(msg.deliver_at, DELIVER, msg.to, msg)
        budget[node] -= 1
        if budget[node] > 0:
            duration = config.compute_time.sample(rng_time) * scale[node]
            schedule(now + duration, COMPUTE_DONE, node, None)

    def on_deliver(node, msg, now):
        if network.on_receive(node, msg) == "duplicate":
            add_event(now, EV_DUPLICATE, node, msg.gid)
            return
        add_event(now, EV_DELIVER, node, msg.gid)
        if budget[node] > 0:
            inbox[node].append((msg.gid, msg.sender))
        else:
            # Budget spent: the node is a pure relay/applier now and
            # processes arrivals the moment they land.
            apply_one(node, msg.gid, now, msg.sender)

    for node in range(n):
        trace.log(x0, node, 0, 0.0, node)
    for node in range(n):
        duration = config.compute_time.sample(rng_time) * scale[node]
        schedule(duration, COMPUTE_DONE, node, None)

    now = 0.0
    # Overflow is detected explicitly after every application; numpy's
    # own warnings on the way there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while heap:
            now, kind, node, _, payload = heapq.heappop(heap)
            if kind == DELIVER:
                on_deliver(node, payload, now)
            else:
                on_compute_done(node, now)
    trace.flush()

    if ledger.n_gradients != total_expected:
        raise RuntimeError("not every budgeted gradient was computed")
    for node in range(n):
        if ledger.node_step(node) != total_expected:
            raise RuntimeError(f"node {node} missed gradients at termination")

    return RunResult(
        mode="dasgd",
        config=config,
        start=x0,
        rows=trace.rows,
        staleness_log=StalenessLog(times, ledger.columns),
        events=events,
        table=table,
        final_models=np.stack(params),
        # Elided copies would have landed, as duplicates, until elided_until.
        total_time=max(now, network.elided_until),
        gradients_computed=total_expected,
        summary=ledger.summarize(),
        ledger=ledger,
        messages=network.counts(),
    )


def run_sync_baseline(config: SimConfig) -> RunResult:
    """Lock-step mini-batch SGD on one shared model.  Every round waits
    for the slowest of the n compute draws, then applies the averaged
    gradient once; idle time lost to stragglers is thereby priced in."""
    x0, scale, rng_time = _start(config)
    n = config.n
    obj = config.objective
    eta = config.eta
    rounds = config.samples_per_node

    ledger = StalenessLedger(1)
    table = GradientTable(eta)
    x = x0.copy()
    now = 0.0
    trace = _Trace(config, x0.shape[0], rounds)
    times = array("d")

    trace.log(x, 0, 0, 0.0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(rounds):
            durations = [
                config.compute_time.sample(rng_time) * scale[i]
                for i in range(n)
            ]
            grads = np.stack([
                obj.stochastic_gradient(x, gradient_seed(config.seed, i, r))
                for i in range(n)
            ])
            now += max(durations)
            averaged = grads.mean(axis=0)
            ident = ledger.record_compute(0)
            gid = table.add(ident, averaged)
            rec = ledger.record_application(0, ident)
            x -= table.updates[gid]
            trace.check(x, 0, r + 1, now)
            times.append(now)
            trace.log(x, 0, r + 1, now, 0, rec.tight_size, rec.loose_size)
    trace.flush()

    return RunResult(
        mode="sync",
        config=config,
        start=x0,
        rows=trace.rows,
        staleness_log=StalenessLog(times, ledger.columns),
        events=EventLog(),
        table=table,
        final_models=x[np.newaxis, :],
        total_time=now,
        gradients_computed=n * rounds,
        summary=ledger.summarize(),
        ledger=ledger,
    )


def run_centralized_asgd(config: SimConfig) -> RunResult:
    """Parameter-server emulation: workers fetch the server model, compute
    for a sampled duration, and push; the server applies pushes in arrival
    order and the worker refetches immediately after its push lands.

    Per application the classic delay (server updates since the worker's
    fetch) is recorded alongside the size of the set difference between
    the server's applied set and the worker's fetched set, through two
    independent code paths: a counter subtraction and an actual symmetric
    difference of identity sets.
    """
    x0, scale, rng_time = _start(config)
    n = config.n
    obj = config.objective
    eta = config.eta
    last_t = n * config.samples_per_node

    table = GradientTable(eta)
    server = x0.copy()
    server_set: set = set()
    update_count = 0

    fetched_params = [x0.copy() for _ in range(n)]
    fetched_set = [frozenset() for _ in range(n)]
    fetched_count = [0] * n
    pushes_done = [0] * n

    trace = _Trace(config, x0.shape[0], last_t)
    times = array("d")
    columns = record_columns()
    delay_pairs: list = []
    heap: list = []
    seq = 0

    def push_arrival(worker, start_time):
        nonlocal seq
        duration = config.compute_time.sample(rng_time) * scale[worker]
        delay = config.latency.sample(rng_time)
        heapq.heappush(heap, (start_time + duration + delay, seq, worker))
        seq += 1

    # Rows carry the pushing worker (0 at t=0); divergence is the server's.
    trace.log(server, -1, 0, 0.0, 0)
    for worker in range(n):
        push_arrival(worker, 0.0)

    now = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while heap:
            now, _, worker = heapq.heappop(heap)
            step = pushes_done[worker]
            vector = obj.stochastic_gradient(
                fetched_params[worker], gradient_seed(config.seed, worker, step)
            )
            ident = GradientId(worker, step)
            # Route one: pure counter arithmetic.
            delay = update_count - fetched_count[worker]
            # Route two: the actual sets.
            diff = len(server_set ^ fetched_set[worker])
            delay_pairs.append((delay, diff))
            gid = table.add(ident, np.asarray(vector, dtype=float))
            server -= table.updates[gid]
            trace.check(server, -1, update_count + 1, now)
            server_set.add(ident)
            times.append(now)
            for column, value in zip(columns, StalenessRecord(
                    applier=-1, applier_step=update_count, producer=worker,
                    producer_step=step, tight_size=diff, loose_size=diff)):
                column.append(value)
            update_count += 1
            trace.log(server, -1, update_count, now, worker, diff, diff)
            pushes_done[worker] = step + 1
            fetched_params[worker] = server.copy()
            fetched_set[worker] = frozenset(server_set)
            fetched_count[worker] = update_count
            if pushes_done[worker] < config.samples_per_node:
                push_arrival(worker, now)
    trace.flush()

    return RunResult(
        mode="centralized_asgd",
        config=config,
        start=x0,
        rows=trace.rows,
        staleness_log=StalenessLog(times, columns),
        events=EventLog(),
        table=table,
        final_models=server[np.newaxis, :],
        total_time=now,
        gradients_computed=update_count,
        # Every record has applier -1, so the worst-node average is the
        # global one.
        summary=summarize_columns(columns),
        delay_pairs=delay_pairs,
    )
