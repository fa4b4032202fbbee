"""Outside-in tracing of dasgd-sim's layers from the benchmark's process.

`Tracer.install()` replaces the public entry points of each module with
timing wrappers, at the place where the program looks each one up, and
`Tracer.uninstall()` puts the originals back.  Nothing inside `src/`
is edited.

Coarse layer boundaries (config loading, engine runner calls, the pilot,
run-directory I/O, each verify check, brute-force replays) record one
span each: (name, start, end, parent, workload, iteration).  Hot
boundaries that run hundreds of thousands of times per run (netsim,
ledger, kernel, objective) only add to per-name totals, so tracing does
not hold one object per call.  Both kinds feed the same stack, so a
span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import time

# Layers whose calls are too many to record one span each.
HOT_LAYERS = ("netsim", "ledger", "kernel", "objective")


class Tracer:
    """Traces one pass of a workload; install, run the pass, uninstall."""

    def __init__(self, workload: str, iteration: int):
        self.workload = workload
        self.iteration = iteration
        self.spans: list = []      # (name, start, end, parent, workload, iteration)
        self.totals: dict = {}     # name -> [calls, total_s, self_s]
        self.networks: list = []   # every netsim.Network built while installed
        self.trace_events = 0      # len(RunResult.events), summed over runs
        self.gradients = 0         # RunResult.gradients_computed, summed
        # Frames: [layer, time covered by children, span index or -1].
        self._stack = [["", 0.0, -1]]
        self._undo: list = []

    # -- wrapping -----------------------------------------------------

    def wrap(self, name: str, fn):
        """Time every call of `fn` under `name` ("layer.function").  A call
        made from inside the same layer is passed straight through, so a
        layer's call count counts entries into it."""
        layer = name.split(".", 1)[0]
        record = layer not in HOT_LAYERS
        tally = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            index = len(spans) if record else parent[2]
            if record:
                spans.append(None)
            frame = [layer, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tally[0] += 1
                tally[1] += duration
                tally[2] += duration - frame[1]
                stack[-1][1] += duration
                if record:
                    spans[index] = (name, start, end, parent[2],
                                    self.workload, self.iteration)

        return traced

    def call(self, name: str, fn, *args):
        """Run `fn(*args)` inside a span the benchmark opens itself."""
        return self.wrap(name, fn)(*args)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr, name):
        self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def install(self) -> None:
        from dasgd_sim import config, ledger, netsim, objective, oracle, \
            runio, verification

        fn = config.ExperimentConfig.__dict__["from_file"].__func__
        self._patch(config.ExperimentConfig, "from_file",
                    classmethod(self.wrap("config.load", fn)))

        self._patch(runio, "_RUNNERS", {mode: self._runner(run)
                                        for mode, run in runio._RUNNERS.items()})
        self._patch(runio, "resolve_eta",
                    self.wrap("runio.pilot", runio.resolve_eta))
        self._patch(runio, "write_run_dir",
                    self.wrap("runio.write", runio.write_run_dir))
        for attr in ("read_summary", "read_manifest", "read_trace",
                     "read_staleness", "read_gradients", "read_models"):
            self._patch(runio, attr, self.wrap(
                "runio.read." + attr[len("read_"):], getattr(runio, attr)))

        network_init = netsim.Network.__init__
        networks = self.networks

        def init(net, *args, **kwargs):
            network_init(net, *args, **kwargs)
            networks.append(net)

        self._patch(netsim.Network, "__init__", init)
        for attr in ("disseminate", "relay", "on_receive"):
            self._patch_method(netsim.Network, attr, f"netsim.{attr}")

        for attr in ("record_compute", "record_application"):
            self._patch_method(ledger.StalenessLedger, attr, f"ledger.{attr}")
        # The kernel may be a compiled type whose methods cannot be
        # replaced, so the ledger is handed a Python subclass instead.
        kernel = ledger.StalenessKernel
        self._patch(ledger, "StalenessKernel", type(
            "StalenessKernel", (kernel,),
            {"apply_gradient": self.wrap("kernel.apply_gradient",
                                         kernel.apply_gradient)}))

        for cls in (objective.QuadraticObjective,
                    objective.LogisticObjective):
            for attr in ("loss", "full_gradient", "stochastic_gradient"):
                self._patch_method(cls, attr, f"objective.{attr}")

        for attr, name in (("_load", "verification.load"),
                           ("_check_agreement", "verification.agreement"),
                           ("_check_oracle", "verification.oracle"),
                           ("_check_rate_bound", "verification.rate_bound"),
                           ("_check_descent", "verification.descent")):
            self._patch(verification, attr,
                        self.wrap(name, getattr(verification, attr)))
        # `verification` imported replay_brute_force by name, and
        # check_log finds it through oracle's own globals: wrap both.
        brute = self.wrap("oracle.brute", oracle.replay_brute_force)
        self._patch(verification, "replay_brute_force", brute)
        self._patch(oracle, "replay_brute_force", brute)

    def _runner(self, run):
        traced = self.wrap("engine.run", run)

        def runner(sim):
            result = traced(sim)
            self.trace_events += len(result.events)
            self.gradients += result.gradients_computed
            return result

        return runner

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------

    def total(self, prefix: str, column: int) -> float:
        """Sum of one totals column over names starting with `prefix`."""
        return sum(t[column] for name, t in self.totals.items()
                   if name == prefix or name.startswith(prefix + "."))

    def calls(self, prefix: str) -> int:
        return int(self.total(prefix, 0))

    def inclusive_s(self, prefix: str) -> float:
        return self.total(prefix, 1)

    def self_s(self, prefix: str) -> float:
        return self.total(prefix, 2)

