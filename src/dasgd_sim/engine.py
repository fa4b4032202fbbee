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

Every runner is two passes.  Event timing never reads a parameter, so the
schedule pass (`schedule`, `schedule_sync`, `schedule_centralized`) runs
the event heap, the network and the staleness ledger without any: it
fixes which gradient every application applies, when, and at what
staleness.  The parameter pass then computes the gradients and the
parameters along that schedule, writes the trace rows and checks for
divergence.  The peer run's parameter pass brings a node's parameters up
to date only when the node computes, with one `np.subtract.accumulate`
over the updates it applied since its previous compute: the same bits as
subtracting them one at a time.  A diverging run therefore simulates its
whole schedule before it raises.

A config that leaves eta out (None) gets the stepsize rule at its own
schedule's average staleness, between the two passes; the result's
config carries the eta used.

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
    start: Optional[np.ndarray] = None      # objective's default when None
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
    return np.array(
        config.objective.default_start() if config.start is None
        else config.start,
        dtype=float,
    )


APPLIER, PRODUCER = 0, 2   # record columns a trace row takes its node from


class _Trace:
    """The trace rows of one run and its divergence checks.

    Rows are keyed by their place in logging order: application k of the
    schedule has key k, and the m rows at t=0, logged before any
    application, have keys -m..-1.  A logged point is copied into a block,
    and a full block is evaluated in one `losses_and_gradients` call.  The
    parameter pass may log in another order than the keys'; `finish`
    returns the rows sorted by key.  The run's last step, always logged,
    is its number of gradients.

    Divergence is parameters with a non-finite entry after an application
    (`check`), or a row whose loss or gradient norm is not finite.  It is
    reported at its label, step and time.  Every failure is noted, and
    `finish` raises the first in logging order; at the same application
    the parameter check comes before the row.  A row's label is the
    applier of its application, so a parameter server's is -1.
    """

    def __init__(self, sched: Schedule, dim: int, row_node: int = APPLIER):
        self._sched = sched
        config = sched.config
        self._objective = config.objective
        self._stride = config.metric_stride
        self._eta = config.eta
        self._last_t = len(sched.ids)
        self._times = np.frombuffer(sched.times)
        columns = [np.frombuffer(c, dtype=np.int64) for c in sched.columns]
        self._label, self._step, self._tight, self._loose = (
            columns[APPLIER], columns[1], columns[4], columns[5])
        self._node = columns[row_node]
        self._points = np.empty((TRACE_BLOCK, dim))
        self._keys = np.empty(TRACE_BLOCK, dtype=np.int64)
        self._fill = 0
        self._start_labels: list = []
        self._rows: list = []
        self._row_keys: list = []
        self._failure = None      # (key, 0 for parameters or 1 for a row)

    def start(self, x0, labels, nodes) -> None:
        """The t=0 rows: one at x0 per (label, node), evaluated now."""
        m = len(labels)
        self._start_labels = list(labels)
        losses, gsq = self._evaluate(np.tile(x0, (m, 1)))
        bad = np.flatnonzero(~(np.isfinite(losses) & np.isfinite(gsq)))
        if bad.size:
            self._fail(int(bad[0]) - m, 1)
        self._row_keys.append(np.arange(-m, 0))
        self._rows.extend(
            TraceRow(0, 0.0, node, loss, g, 0, 0)
            for node, loss, g in zip(nodes, losses.tolist(), gsq.tolist()))

    def logs(self, t: int) -> bool:
        """Whether the row of step t is logged: t=0 and the last step
        always are, the others unless the metric stride thins them out."""
        return not t % self._stride or t == self._last_t

    def logged(self, first: int, last: int) -> np.ndarray:
        """The steps in first..last whose rows are logged, ascending;
        last is at most the run's last step."""
        stride = self._stride
        steps = np.arange(-(-first // stride) * stride, last + 1, stride)
        if first <= self._last_t <= last and self._last_t % stride:
            steps = np.append(steps, self._last_t)
        return steps

    def check(self, points, keys) -> None:
        """Note divergence at the first row of `points` with a non-finite
        entry; row i holds the parameters just after application keys[i],
        and keys ascend.

        A sum is not finite whenever an entry is not, so the entries are
        tested only when the sum of all of them is not finite; finite
        entries whose sum overflows pass.  Callers run under an errstate
        that ignores overflow.
        """
        if isfinite(np.add.reduce(points, axis=None)):
            return
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            self._fail(int(keys[finite.argmin()]), 0)

    def log(self, points, keys) -> None:
        """Queue row i of `points` as the row of application keys[i]."""
        done, total = 0, len(keys)
        while done < total:
            fill = self._fill
            take = min(TRACE_BLOCK - fill, total - done)
            self._points[fill:fill + take] = points[done:done + take]
            self._keys[fill:fill + take] = keys[done:done + take]
            self._fill = fill + take
            done += take
            if self._fill == TRACE_BLOCK:
                self.flush()

    def flush(self) -> None:
        """Evaluate the queued rows."""
        fill = self._fill
        if not fill:
            return
        self._fill = 0
        keys = self._keys[:fill].copy()
        losses, gsq = self._evaluate(self._points[:fill])
        bad = np.flatnonzero(~(np.isfinite(losses) & np.isfinite(gsq)))
        if bad.size:
            self._fail(int(keys[bad].min()), 1)
        if self._failure is not None:
            return      # a diverged run returns no rows
        self._row_keys.append(keys)
        self._rows.extend(map(
            TraceRow, (self._step[keys] + 1).tolist(),
            self._times[keys].tolist(), self._node[keys].tolist(),
            losses.tolist(), gsq.tolist(), self._tight[keys].tolist(),
            self._loose[keys].tolist()))

    def finish(self) -> list:
        """Evaluate what is queued; raise the first divergence in logging
        order, or return the rows in that order."""
        self.flush()
        if self._failure is not None:
            key = self._failure[0]
            rule = _rule(self._sched)
            if key < 0:
                raise DivergenceError(self._start_labels[key], 0, 0.0,
                                      self._eta, rule)
            raise DivergenceError(int(self._label[key]),
                                  int(self._step[key]) + 1,
                                  float(self._times[key]), self._eta, rule)
        rows, out = self._rows, []
        order = np.argsort(np.concatenate(self._row_keys), kind="stable")
        # A block of indices at a time: a list of them all would be a
        # Python int per row.
        for first in range(0, len(order), TRACE_BLOCK):
            out.extend(map(rows.__getitem__,
                           order[first:first + TRACE_BLOCK].tolist()))
        return out

    def _evaluate(self, points) -> tuple:
        with np.errstate(over="ignore", invalid="ignore"):
            losses, grads = self._objective.losses_and_gradients(points)
            # One dot per row, the sum float(g @ g) makes.
            gsq = (grads[:, None, :] @ grads[:, :, None])[:, 0, 0]
        return losses, gsq

    def _fail(self, key: int, kind: int) -> None:
        if self._failure is None or (key, kind) < self._failure:
            self._failure = (key, kind)


def _result(mode: str, sched: Schedule, start, rows, table, final_models,
            gradients_computed: int) -> RunResult:
    return RunResult(
        mode=mode,
        config=sched.config,
        start=start,
        rows=rows,
        staleness_log=StalenessLog(sched.times, sched.columns),
        events=sched.events,
        table=table,
        final_models=final_models,
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
    trace = _Trace(sched, x0.shape[0])
    trace.start(x0, range(config.n), range(config.n))
    # Overflow is detected explicitly after every application; numpy's
    # own warnings on the way there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        params = _descend(sched, x0, table, trace)
    return _result("dasgd", sched, x0, trace.finish(), table,
                   np.stack(params), len(sched.ids))


def _descend(sched: Schedule, x0, table: GradientTable,
             trace: _Trace) -> list:
    """The peer run's parameter pass: fill `table`, check and log every
    application, and return each node's final parameters.

    Gradients are computed in gid order, the order of the computes in
    the ledger's order column, so every update a node applies before a
    compute already exists.  Every node applies every gradient: row p of
    `apps` lists node p's applications in the order it made them.
    """
    n, dim = sched.config.n, x0.shape[0]
    updates = table.updates
    apps = np.argsort(np.frombuffer(sched.columns[APPLIER], dtype=np.int64),
                      kind="stable").reshape(n, -1)
    gids = np.frombuffer(sched.gids, dtype=np.int64)
    params = [x0.copy() for _ in range(n)]
    folded = [0] * n            # applications already in params, per node
    every_step = sched.config.metric_stride == 1    # every row is logged

    def fold(node, upto):
        # Applies the node's applications folded[node]..upto-1: block[0]
        # holds its parameters before them, block[i] those after the i-th.
        done = folded[node]
        if upto == done:
            return
        keys = apps[node, done:upto]
        block = np.empty((upto - done + 1, dim))
        block[0] = params[node]
        updates.take(gids[keys], axis=0, out=block[1:])
        np.subtract.accumulate(block, axis=0, out=block)
        params[node] = block[-1].copy()
        folded[node] = upto
        trace.check(block[1:], keys)
        if every_step:
            trace.log(block[1:], keys)
        else:
            # Application i of the node is its step i + 1.
            steps = trace.logged(done + 1, upto)
            trace.log(block[steps - done], apps[node, steps - 1])

    for gid, (node, step) in enumerate(sched.ids):
        fold(node, step)
        table.set(gid, _gradient(sched.config, params[node], node, step))
    for node in range(n):
        fold(node, apps.shape[1])
    return params


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
    trace = _Trace(sched, x0.shape[0])
    trace.start(x0, (0,), (0,))
    x = x0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(rounds):
            grads = np.stack([_gradient(config, x, i, r)
                              for i in range(config.n)])
            table.set(r, grads.mean(axis=0))
            x -= table.updates[r]
            trace.check(x[np.newaxis], (r,))
            if trace.logs(r + 1):
                trace.log(x[np.newaxis], (r,))
    rows = trace.finish()
    return _result("sync", sched, x0, rows, table, x[np.newaxis, :],
                   config.n * rounds)


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
    n_updates = len(sched.ids)
    table = GradientTable(sched.ids, x0.shape[0], config.eta)
    # Rows carry the pushing worker (0 at t=0); divergence is the server's.
    trace = _Trace(sched, x0.shape[0], row_node=PRODUCER)
    trace.start(x0, (-1,), (0,))
    server = x0.copy()
    fetched_params = [x0.copy() for _ in range(config.n)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (worker, step) in enumerate(sched.ids):
            table.set(k, _gradient(config, fetched_params[worker], worker,
                                   step))
            server -= table.updates[k]
            trace.check(server[np.newaxis], (k,))
            if trace.logs(k + 1):
                trace.log(server[np.newaxis], (k,))
            fetched_params[worker] = server.copy()
    rows = trace.finish()
    return _result("centralized_asgd", sched, x0, rows, table,
                   server[np.newaxis, :], n_updates)
