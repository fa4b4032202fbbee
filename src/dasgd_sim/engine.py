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

Every runner is three passes.  Event timing never reads a parameter, so
the schedule pass (`schedule`, `schedule_sync`, `schedule_centralized`)
runs the event heap, the network and the staleness ledger without any:
it fixes which gradient every application applies, when, and at what
staleness.  The gradient pass then fills the run's `GradientTable`
along that schedule.  The peer run's brings a node's parameters up to
date only when the node computes, with one `np.subtract.accumulate`
over the updates it applied since its previous compute (`_chain`): the
same bits as subtracting them one at a time.  Last, one trace pass for
every mode (`_trace`) walks each model's finished chain, x0 minus its
updates in the order it applied them, writes the trace rows in logging
order, checks for divergence and gives the final models.  A diverging
run therefore computes its whole gradient pass before it raises.

A config that leaves eta out (None) gets the stepsize rule at its own
schedule's average staleness, between the schedule and gradient passes;
the result's config carries the eta used.

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
from dataclasses import dataclass, replace
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
from dasgd_sim.theory import stepsize_bound_tight

DELIVER = 0        # sorts before COMPUTE_DONE at equal times
COMPUTE_DONE = 1
TRACE_BLOCK = 1024  # trace rows evaluated per objective call


class DivergenceError(RuntimeError):
    """Parameters left the finite range; the stepsize is too large.
    `rule` is the stepsize rule at the diverged run's own average
    staleness."""

    def __init__(self, node: int, step: int, sim_time: float, eta: float,
                 rule: float):
        super().__init__(
            f"non-finite parameters at node {node}, step {step}, "
            f"sim time {sim_time:.6g} (eta={eta:.6g})"
        )
        self.node = node
        self.step = step
        self.sim_time = sim_time
        self.eta = eta
        self.rule = rule


@dataclass
class SimConfig:
    topology: Topology
    objective: object
    eta: Optional[float]                    # None: the stepsize rule
    samples_per_node: int
    compute_time: TimeDistribution
    latency: TimeDistribution
    seed: int
    compute_scale: Optional[tuple] = None   # per-node speed multipliers
    metric_stride: int = 1                  # thin trace rows, not records

    @property
    def n(self) -> int:
        return self.topology.n

    def validate(self) -> None:
        if self.eta is not None and not (np.isfinite(self.eta)
                                         and self.eta > 0):
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
    """Every computed gradient's identity, vector and update (eta times
    the vector: what an application subtracts), indexed by the ids the
    ledger kernel assigns.  `vectors` and `updates` are `(G, dim)` arrays
    allocated up front; row gid is filled when gradient gid is computed."""

    def __init__(self, ids: list, dim: int, eta: float):
        self.eta = eta
        self.ids = ids
        self.vectors = np.zeros((len(ids), dim))
        self.updates = np.zeros((len(ids), dim))

    def set(self, gid: int, vector) -> None:
        self.vectors[gid] = vector
        np.multiply(self.eta, self.vectors[gid], out=self.updates[gid])

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class Schedule:
    """Everything a run does except its arithmetic.

    Application k is entry k of `times`, of the six staleness `columns`
    (`ledger.record_columns`) and of `gids`, the id of the gradient it
    applies; `ids` maps a gid to its identity, in the order the gradients
    were computed.  A peer run also keeps its ledger, whose order column
    interleaves the computes with the applications, its protocol event
    log and its message counts.
    """

    config: SimConfig
    ids: list
    times: array
    columns: tuple
    gids: array
    total_time: float
    summary: StalenessSummary
    events: EventLog
    ledger: Optional[StalenessLedger] = None
    messages: Optional[MessageCounts] = None


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
    messages: Optional[MessageCounts] = None  # dasgd: flooding traffic

    @property
    def throughput(self) -> float:
        return self.gradients_computed / self.total_time

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


def _gradient(config: SimConfig, x, producer: int, step: int) -> np.ndarray:
    """Gradient `producer` computes at its step `step` from parameters x.
    The noise seed is derived only for an objective that draws from it."""
    obj = config.objective
    seed = (gradient_seed(config.seed, producer, step)
            if obj.draws_from_seed else None)
    return obj.stochastic_gradient(x, seed)


def _timing(config: SimConfig) -> tuple:
    """Validate the config; return the per-node compute speed multipliers
    and the timing stream every schedule draws from."""
    config.validate()
    scale = (tuple(config.compute_scale) if config.compute_scale
             else (1.0,) * config.n)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    return scale, rng


def _rule(sched: Schedule) -> float:
    """The bounded-gradient stepsize rule at the schedule's average
    staleness."""
    return stepsize_bound_tight(sched.config.objective.lipschitz_constant(),
                                sched.summary.tight_avg)


def _with_stepsize(sched: Schedule) -> Schedule:
    """`sched` with a stepsize in its config: the config's own, or the
    stepsize rule when the config leaves eta out."""
    if sched.config.eta is None:
        sched.config = replace(sched.config, eta=_rule(sched))
    return sched


def _start_point(config: SimConfig) -> np.ndarray:
    return np.array(config.objective.default_start(), dtype=float)


APPLIER, PRODUCER = 0, 2   # record columns a trace row takes its node from


def _applications(sched: Schedule, appliers: int) -> np.ndarray:
    """Row p: the applications of the p-th applier, by label, in the
    order it made them.  Every applier makes as many."""
    return np.argsort(np.frombuffer(sched.columns[APPLIER], dtype=np.int64),
                      kind="stable").reshape(appliers, -1)


def _chain(x, updates, gids) -> np.ndarray:
    """Row 0 is x, row i is x minus the first i updates `gids` names,
    accumulated in that order.  Accumulation subtracts row by row, so
    each row has the bits of applying the updates one at a time."""
    chain = np.empty((len(gids) + 1, x.shape[0]))
    chain[0] = x
    updates.take(gids, axis=0, out=chain[1:])
    return np.subtract.accumulate(chain, axis=0, out=chain)


def _logged(sched: Schedule) -> np.ndarray:
    """The applications whose rows are logged, ascending: those at a step
    t (the application's count at its applier) that the metric stride
    divides, and those at the run's last step, its number of gradients.
    The t=0 rows are always logged."""
    stride, last_t = sched.config.metric_stride, len(sched.ids)
    step = np.frombuffer(sched.columns[1], dtype=np.int64)
    keys = []
    for first in range(0, len(step), TRACE_BLOCK):
        t = step[first:first + TRACE_BLOCK] + 1
        keys.append(np.flatnonzero((t % stride == 0) | (t == last_t))
                    + first)
    return np.concatenate(keys)


def _trace(sched: Schedule, x0, table: GradientTable, labels, nodes,
           row_node: int = APPLIER) -> tuple:
    """The trace pass: the rows of a run whose gradients are in `table`,
    in logging order, and its final models.

    Model p is the chain of the p-th applier, labelled labels[p]: x0
    minus the updates it applied, accumulated in the order it applied
    them.  Its t=0 row, at x0, names nodes[p]; a later row names its
    application's `row_node` column.  A chain is walked TRACE_BLOCK
    applications at a time.  Each block is screened for non-finite
    parameters, and its logged rows are evaluated with one
    `losses_and_gradients` call and stored at their place in logging
    order: the t=0 rows, then the logged applications in application
    order.

    Divergence is parameters with a non-finite entry after an
    application, or a row whose loss or gradient norm is not finite.
    The first failure in logging order is raised, and at the same
    application the parameter check comes before the row.  A sum is not
    finite whenever an entry is not, so a block's entries are tested only
    when their sum is not finite: finite entries whose sum overflows
    pass.
    """
    objective = sched.config.objective
    m = len(labels)
    apps = _applications(sched, m)
    gids = np.frombuffer(sched.gids, dtype=np.int64)
    logged = _logged(sched)
    losses = np.empty(m + len(logged))
    gsq = np.empty(m + len(logged))
    finals = np.empty((m, x0.shape[0]))
    # Keyed by place in logging order: application k has key k, and the
    # t=0 rows keys -m..-1.  Kind 0 is parameters, 1 a row.
    failures = []

    def evaluate(points, keys, places):
        # The rows at `points`, the parameters after applications `keys`,
        # which ascend.  One dot per row, the sum float(g @ g) makes.
        loss, grads = objective.losses_and_gradients(points)
        norm = (grads[:, None, :] @ grads[:, :, None])[:, 0, 0]
        losses[places], gsq[places] = loss, norm
        bad = ~(np.isfinite(loss) & np.isfinite(norm))
        if bad.any():
            failures.append((int(keys[bad.argmax()]), 1))

    with np.errstate(over="ignore", invalid="ignore"):
        evaluate(np.tile(x0, (m, 1)), np.arange(-m, 0), np.arange(m))
        for p in range(m):
            x = x0
            for first in range(0, apps.shape[1], TRACE_BLOCK):
                keys = apps[p, first:first + TRACE_BLOCK]
                chain = _chain(x, table.updates, gids[keys])
                points, x = chain[1:], chain[-1]
                if not isfinite(np.add.reduce(points, axis=None)):
                    finite = np.isfinite(points).all(axis=1)
                    if not finite.all():
                        failures.append((int(keys[finite.argmin()]), 0))
                places = logged.searchsorted(keys)
                sel = np.flatnonzero(logged.take(places, mode="clip") == keys)
                if sel.size:
                    evaluate(points[sel], keys[sel], m + places[sel])
            finals[p] = x
    if failures:
        raise _divergence(sched, labels, min(failures))
    del apps    # as long as the run, and the rows do not need it
    rows = [TraceRow(0, 0.0, node, loss, g, 0, 0) for node, loss, g
            in zip(nodes, losses[:m].tolist(), gsq[:m].tolist())]
    times = np.frombuffer(sched.times)
    step, node, tight, loose = (
        np.frombuffer(sched.columns[c], dtype=np.int64)
        for c in (1, row_node, 4, 5))
    # A block of rows at a time: a list of the keys would be a Python int
    # per row.
    for first in range(0, len(logged), TRACE_BLOCK):
        keys = logged[first:first + TRACE_BLOCK]
        at = slice(m + first, m + first + TRACE_BLOCK)
        rows.extend(map(
            TraceRow, (step[keys] + 1).tolist(), times[keys].tolist(),
            node[keys].tolist(), losses[at].tolist(), gsq[at].tolist(),
            tight[keys].tolist(), loose[keys].tolist()))
    return rows, finals


def _divergence(sched: Schedule, labels, failure) -> DivergenceError:
    """The error of `failure`, (key, kind) as `_trace` notes it: a t=0
    row names its label, an application its applier, step and time."""
    key = failure[0]
    config = sched.config
    if key < 0:
        return DivergenceError(labels[key], 0, 0.0, config.eta, _rule(sched))
    return DivergenceError(sched.columns[APPLIER][key],
                           sched.columns[1][key] + 1, sched.times[key],
                           config.eta, _rule(sched))


def _result(mode: str, sched: Schedule, x0, table: GradientTable, labels,
            nodes, gradients_computed: int,
            row_node: int = APPLIER) -> RunResult:
    """The run after its gradient pass: the trace pass, then the result."""
    rows, finals = _trace(sched, x0, table, labels, nodes, row_node)
    return RunResult(
        mode=mode,
        config=sched.config,
        start=x0,
        rows=rows,
        staleness_log=StalenessLog(sched.times, sched.columns),
        events=sched.events,
        table=table,
        final_models=finals,
        total_time=sched.total_time,
        gradients_computed=gradients_computed,
        summary=sched.summary,
        ledger=sched.ledger,
        messages=sched.messages,
    )


def schedule(config: SimConfig) -> Schedule:
    """The decentralized protocol's events, until every budget is spent
    and every gradient has reached and been applied by every node."""
    scale, rng_time = _timing(config)
    n = config.n
    total_expected = n * config.samples_per_node

    ledger = StalenessLedger(n)
    network = Network(config.topology, config.latency)
    inbox = [deque() for _ in range(n)]
    budget = [config.samples_per_node] * n
    ids: list[GradientId] = []
    times = array("d")          # sim time of each application
    gids = array("q")           # gid each application applies
    events = EventLog()

    heap: list = []
    seq = 0

    def push(time, kind, node, payload):
        nonlocal seq
        heapq.heappush(heap, (time, kind, node, seq, payload))
        seq += 1

    record = ledger.record_application
    add_event, add_time, add_gid = events.add, times.append, gids.append

    def apply_one(node, gid, now, arrived_from):
        record(node, ids[gid])
        add_time(now)
        add_gid(gid)
        add_event(now, EV_APPLY, node, gid)
        if arrived_from is not None:
            for msg in network.relay(node, gid, arrived_from, now, rng_time):
                add_event(now, EV_SEND, node, gid)
                push(msg.deliver_at, DELIVER, msg.to, msg)

    def on_compute_done(node, now):
        # Arrivals queued during the window are settled first; the fresh
        # gradient is then taken at the settled parameters, so its
        # snapshot matches what it was computed from.
        while inbox[node]:
            gid, sender = inbox[node].popleft()
            apply_one(node, gid, now, sender)
        gid = len(ids)
        ids.append(ledger.record_compute(node))
        add_event(now, EV_COMPUTE, node, gid)
        apply_one(node, gid, now, None)
        for msg in network.disseminate(node, gid, now, rng_time):
            add_event(now, EV_SEND, node, gid)
            push(msg.deliver_at, DELIVER, msg.to, msg)
        budget[node] -= 1
        if budget[node] > 0:
            duration = config.compute_time.sample(rng_time) * scale[node]
            push(now + duration, COMPUTE_DONE, node, None)

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
        duration = config.compute_time.sample(rng_time) * scale[node]
        push(duration, COMPUTE_DONE, node, None)

    now = 0.0
    while heap:
        now, kind, node, _, payload = heapq.heappop(heap)
        if kind == DELIVER:
            on_deliver(node, payload, now)
        else:
            on_compute_done(node, now)

    if ledger.n_gradients != total_expected:
        raise RuntimeError("not every budgeted gradient was computed")
    for node in range(n):
        if ledger.node_step(node) != total_expected:
            raise RuntimeError(f"node {node} missed gradients at termination")

    return Schedule(
        config=config,
        ids=ids,
        times=times,
        columns=ledger.columns,
        gids=gids,
        # Elided copies would have landed, as duplicates, until elided_until.
        total_time=max(now, network.elided_until),
        summary=ledger.summarize(),
        events=events,
        ledger=ledger,
        messages=network.counts(),
    )


def run(config: SimConfig) -> RunResult:
    """Execute the decentralized protocol: its schedule, then the
    gradients and parameters along it."""
    sched = _with_stepsize(schedule(config))
    config = sched.config
    x0 = _start_point(config)
    table = GradientTable(sched.ids, x0.shape[0], config.eta)
    # Divergence is looked for in the trace pass; numpy's own warnings on
    # the way there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        _descend(sched, x0, table)
    return _result("dasgd", sched, x0, table, range(config.n),
                   range(config.n), len(sched.ids))


def _descend(sched: Schedule, x0, table: GradientTable) -> None:
    """The peer run's gradient pass: fill `table`.

    Gradients are computed in gid order, the order of the computes in
    the ledger's order column, so every update a node applies before a
    compute already exists.  At a compute the producer's parameters are
    brought up to date with the updates it applied since its previous
    compute: its chain, continued.
    """
    config = sched.config
    updates = table.updates
    apps = _applications(sched, config.n)
    gids = np.frombuffer(sched.gids, dtype=np.int64)
    params = [x0] * config.n
    folded = [0] * config.n     # applications already in params, per node
    for gid, (node, step) in enumerate(sched.ids):
        done = folded[node]
        if step > done:
            params[node] = _chain(params[node], updates,
                                  gids[apps[node, done:step]])[-1].copy()
            folded[node] = step
        table.set(gid, _gradient(config, params[node], node, step))


def schedule_sync(config: SimConfig) -> Schedule:
    """Lock-step rounds: each waits for the slowest of the n compute
    draws, then applies one averaged gradient."""
    scale, rng_time = _timing(config)
    ledger = StalenessLedger(1)
    ids: list[GradientId] = []
    times = array("d")
    now = 0.0
    for _ in range(config.samples_per_node):
        now += max([config.compute_time.sample(rng_time) * scale[i]
                    for i in range(config.n)])
        ids.append(ledger.record_compute(0))
        ledger.record_application(0, ids[-1])
        times.append(now)
    return Schedule(
        config=config,
        ids=ids,
        times=times,
        columns=ledger.columns,
        gids=array("q", range(len(times))),
        total_time=now,
        summary=ledger.summarize(),
        events=EventLog(),
        ledger=ledger,
    )


def run_sync_baseline(config: SimConfig) -> RunResult:
    """Lock-step mini-batch SGD on one shared model.  Every round waits
    for the slowest of the n compute draws, then applies the averaged
    gradient once; idle time lost to stragglers is thereby priced in."""
    sched = _with_stepsize(schedule_sync(config))
    config = sched.config
    x0 = _start_point(config)
    rounds = len(sched.ids)
    table = GradientTable(sched.ids, x0.shape[0], config.eta)
    x = x0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(rounds):
            grads = np.stack([_gradient(config, x, i, r)
                              for i in range(config.n)])
            table.set(r, grads.mean(axis=0))
            x -= table.updates[r]
    return _result("sync", sched, x0, table, (0,), (0,), config.n * rounds)


def schedule_centralized(config: SimConfig) -> Schedule:
    """Parameter-server pushes in arrival order.  A push's staleness is
    the classic delay: the server updates since the worker's fetch, which
    is the size of the difference between the server's applied set and
    the set the worker fetched."""
    scale, rng_time = _timing(config)
    n = config.n
    columns = record_columns()
    times = array("d")
    fetched_count = [0] * n
    pushes_done = [0] * n
    update_count = 0
    heap: list = []
    seq = 0

    def push_arrival(worker, start_time):
        nonlocal seq
        duration = config.compute_time.sample(rng_time) * scale[worker]
        delay = config.latency.sample(rng_time)
        heapq.heappush(heap, (start_time + duration + delay, seq, worker))
        seq += 1

    for worker in range(n):
        push_arrival(worker, 0.0)

    now = 0.0
    while heap:
        now, _, worker = heapq.heappop(heap)
        step = pushes_done[worker]
        delay = update_count - fetched_count[worker]
        times.append(now)
        for column, value in zip(columns, StalenessRecord(
                applier=-1, applier_step=update_count, producer=worker,
                producer_step=step, tight_size=delay, loose_size=delay)):
            column.append(value)
        update_count += 1
        pushes_done[worker] = step + 1
        fetched_count[worker] = update_count
        if pushes_done[worker] < config.samples_per_node:
            push_arrival(worker, now)

    return Schedule(
        config=config,
        ids=list(map(GradientId, columns[2], columns[3])),
        times=times,
        columns=columns,
        gids=array("q", range(update_count)),
        total_time=now,
        # Every record has applier -1, so the worst-node average is the
        # global one.
        summary=summarize_columns(columns),
        events=EventLog(),
    )


def run_centralized_asgd(config: SimConfig) -> RunResult:
    """Parameter-server emulation: workers fetch the server model, compute
    for a sampled duration, and push; the server applies pushes in arrival
    order and the worker refetches immediately after its push lands."""
    sched = _with_stepsize(schedule_centralized(config))
    config = sched.config
    x0 = _start_point(config)
    table = GradientTable(sched.ids, x0.shape[0], config.eta)
    server = x0.copy()
    fetched_params = [x0] * config.n
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (worker, step) in enumerate(sched.ids):
            table.set(k, _gradient(config, fetched_params[worker], worker,
                                   step))
            server -= table.updates[k]
            fetched_params[worker] = server.copy()
    # Rows carry the pushing worker (0 at t=0); divergence is the server's.
    return _result("centralized_asgd", sched, x0, table, (-1,), (0,),
                   len(sched.ids), row_node=PRODUCER)
