#!/usr/bin/env python3
"""Layered benchmark of the dasgd-sim command line.

    python3 perfbench/run.py --workload fc-flood --seed 1 --seconds 36 --trace 0

Run from a source checkout; the package is imported from `src/`, not
installed.  Each workload is a closed loop with one client: every
iteration runs the real CLI commands (`python -m dasgd_sim.cli run`,
then `verify`) one after another in fresh child processes, one child at
a time, pinned to at most two cores.  The seed fixes the generated INI
files; the program sees only those files.

--trace 0 times the commands from outside and prints the end-to-end
metrics.  --trace 1 runs the same commands inside this process, once
untraced and once with every layer's entry points wrapped (see
tracer.py), and prints per-layer self time and counts.  Either way the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Outputs are checked on
every iteration; any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Fresh interpreter, CLI import, config load, objective and topology:
# what every CLI call pays before it does its own work.
SETUP_PROBE = (
    "import sys, dasgd_sim.cli\n"
    "from dasgd_sim.config import ExperimentConfig\n"
    "config = ExperimentConfig.from_file(sys.argv[1])\n"
    "config.build_objective()\n"
    "config.build_topology()\n"
)
ENV_PROBE = (
    "import platform, numpy, dasgd_sim\n"
    "print(platform.python_version(), numpy.__version__, dasgd_sim.KERNEL_IMPL)\n"
)
MIN_ITERATIONS = 2      # byte-identical reruns need two run directories
VERIFY_CHECKS = 4
# On some seeds the pilot's 10% budget measures less staleness than the
# full run, so the pilot's eta sits just above the stepsize rule for the
# run and `verify` rightly declines to apply the rate ceiling (audit run
# seed 12, for one).  That skip is the only non-PASS line accepted.
RATE_SKIP = "SKIP rate-bound: eta "


@dataclass(frozen=True)
class Workload:
    """One scenario.  Every workload is dasgd mode with the quadratic
    objective, dim 20 and sigma 0; the seed comes from the command line."""

    topology: str
    n: int
    samples_per_node: int
    compute: str
    latency: str
    eta: Optional[float]            # None: the CLI picks eta from a pilot
    metric_stride: int = 1
    replicas: int = 1
    # `verify` at this run size takes minutes, so these workloads verify
    # a run of the same scenario at this budget (metric stride 1, which
    # the rate-bound check needs).  None: verify the run's own output.
    verify_samples: Optional[int] = None

    def ini(self, seed: int, samples: int, stride: int) -> str:
        eta = "" if self.eta is None else repr(self.eta)
        return (
            "[run]\nmode = dasgd\n"
            f"seed = {seed}\nsamples_per_node = {samples}\n"
            f"replicas = {self.replicas}\nmetric_stride = {stride}\n\n"
            "[objective]\nkind = quadratic\ndim = 20\nsigma = 0.0\n"
            f"curvature_seed = {seed}\n\n"
            f"[topology]\nkind = {self.topology}\nn = {self.n}\n\n"
            f"[timing]\ncompute = {self.compute}\nlatency = {self.latency}\n\n"
            f"[sgd]\neta = {eta}\n"
        )


WORKLOADS = {
    # Flooding on a complete graph sends ~n^2 copies per gradient and
    # 93% of deliveries are duplicates: the engine heap and netsim carry
    # the run.  Stride 1 evaluates loss and gradient at every application.
    "fc-flood": Workload("fully_connected", 16, 40, "constant:1.0",
                         "constant:0.01", 1e-4, verify_samples=16),
    # One-way ring, random latency: almost no duplicates, many
    # out-of-order applications, and G = 2,400 gradients make the
    # staleness kernel's loose fixed point the largest layer.
    "ring-async": Workload("ring", 16, 150, "uniform:0.8:1.2",
                           "exponential:1.0", 1e-5, metric_stride=16,
                           verify_samples=8),
    # Small replicated run with a pilot, written and read back by
    # `verify` on every replica: the brute-force oracle replays lead.
    "audit": Workload("fully_connected", 6, 40, "uniform:0.8:1.2",
                      "exponential:0.2", None, replicas=4),
}


class Failures:
    """Counts attempted operations and failed ones.  An operation fails
    when its command exits non-zero or any of its output checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)
        return not problems


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("DASGD_SIM_THREADS", "DASGD_SIM_PURE")}
    env["PYTHONPATH"] = "src"
    return env


def spawn(argv: list, env: dict, log: Path) -> Child:
    """Run one child to completion; peak RSS comes from wait4 on it."""
    with open(log.with_suffix(".out"), "w+b") as out, \
            open(log.with_suffix(".err"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out.read().decode(errors="replace"),
                     err.read().decode(errors="replace"))


def cli(*args) -> list:
    return [sys.executable, "-m", "dasgd_sim.cli", *args]


def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value.strip()
    return out


def run_dirs(out: Path, replicas: int) -> list:
    if replicas == 1:
        return [out]
    return [out / f"replica{r:03d}" for r in range(replicas)]


def tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Session:
    """State shared by the iterations of one benchmark invocation."""

    def __init__(self, name: str, workload: Workload, seed: int, scale: float):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.samples = max(1, round(workload.samples_per_node * scale))
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "workload.ini"
        self.config.write_text(
            workload.ini(seed, self.samples, workload.metric_stride))
        self.out = self.work / "run"
        self.verify_out = self.out
        self.verify_samples = None
        if workload.verify_samples is not None:
            self.verify_out = self.work / "verify-input"
            self.verify_samples = max(2, round(workload.verify_samples
                                               * scale))
        self.failures = Failures()
        self.digest: Optional[str] = None
        self.kernel: Optional[str] = None
        self.env = child_env()
        self._logs = 0

    def spawn(self, argv: list, label: str) -> Child:
        self._logs += 1
        return spawn(argv, self.env, self.work / f"{self._logs:04d}-{label}")

    def check_run(self, out: Path, samples: int, compare: bool) -> tuple:
        """Summary counts per replica and, with `compare`, byte identity
        with the first run directory of this invocation.  Returns
        (applications, problems)."""
        n = self.workload.n
        applications = 0
        problems = []
        for run_dir in run_dirs(out, self.workload.replicas):
            summary = read_summary(run_dir / "summary.txt")
            computed = int(summary["gradients_computed"])
            applied = int(summary["applications"])
            applications += applied
            if computed != n * samples:
                problems.append(f"{run_dir.name}: gradients_computed "
                                f"{computed} != {n * samples}")
            if applied != n * computed:
                problems.append(f"{run_dir.name}: applications {applied} "
                                f"!= {n * computed}")
            if summary["kernel"] != self.kernel:
                problems.append(f"{run_dir.name}: kernel {summary['kernel']}"
                                f" != {self.kernel}")
        if compare:
            digest = tree_digest(out)
            self.digest = self.digest or digest
            if digest != self.digest:
                problems.append("rerun with the same seed wrote other bytes")
        return applications, problems

    def record_run(self, code: int, stderr: str, out: Path, samples: int,
                   compare: bool) -> Optional[int]:
        """Record one `run`; returns its applications, None if it failed."""
        if code != 0:
            self.failures.record("run", [f"exit {code}: {stderr[-300:]}"])
            return None
        applications, problems = self.check_run(out, samples, compare)
        return applications if self.failures.record("run", problems) else None

    def record_verify(self, code: int, stdout: str, stderr: str,
                      run_dir: Path) -> bool:
        lines = [line for line in stdout.splitlines() if line.strip()]
        if code != 0:
            problems = [f"exit {code}: {lines} {stderr[-300:]}"]
        elif len(lines) != VERIFY_CHECKS or not all(
                line.startswith("PASS ") or line.startswith(RATE_SKIP)
                for line in lines):
            problems = [f"not every check passed: {lines}"]
        else:
            problems = []
        return self.failures.record(f"verify {run_dir.name}", problems)

    def setup_probe(self) -> Optional[float]:
        probe = self.spawn([sys.executable, "-c", SETUP_PROBE,
                            str(self.config)], "setup")
        ok = self.failures.record("setup", [] if probe.code == 0 else
                                  [f"exit {probe.code}: {probe.stderr[-300:]}"])
        return probe.wall_s if ok else None

    def prepare(self) -> dict:
        """Environment probe, bytecode warm-up, and the verify input for
        workloads that do not verify their own run.  Returns the stamp."""
        env = self.spawn([sys.executable, "-c", ENV_PROBE], "env")
        self.failures.record("environment probe", [] if env.code == 0 else
                             [f"exit {env.code}: {env.stderr[-300:]}"])
        python, numpy, self.kernel = (env.stdout.split() + ["?"] * 3)[:3]
        self.setup_probe()
        w = self.workload
        if self.verify_samples is not None:
            ini = self.work / "verify-input.ini"
            ini.write_text(w.ini(self.seed, self.verify_samples, 1))
            child = self.spawn(cli("run", "--config", str(ini), "--out",
                                   str(self.verify_out)), "verify-input")
            self.record_run(child.code, child.stderr, self.verify_out,
                            self.verify_samples, compare=False)
        return {"git": git_revision(), "python": python, "numpy": numpy,
                "nproc": os.cpu_count(),
                "cores": len(os.sched_getaffinity(0)), "kernel": self.kernel}


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- end-to-end: fresh child processes --------------------------------

def measure_end_to_end(session: Session, seconds: float) -> tuple:
    w = session.workload
    verify_dirs = run_dirs(session.verify_out, w.replicas)
    setup, runs, verifies = [], [], []
    start = time.perf_counter()
    iteration = 0
    cores = sorted(os.sched_getaffinity(0))
    while iteration < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        # Interference from other tenants differs between the host's
        # cores, so iterations alternate cores and a run samples both.
        os.sched_setaffinity(0, {cores[iteration % len(cores)]})
        iteration += 1
        wall = session.setup_probe()
        if wall is not None:
            setup.append(wall)
        shutil.rmtree(session.out, ignore_errors=True)
        child = session.spawn(cli("run", "--config", str(session.config),
                                  "--out", str(session.out)), "run")
        applications = session.record_run(child.code, child.stderr,
                                          session.out, session.samples,
                                          compare=True)
        if applications is None:
            continue
        runs.append((child.wall_s, child.rss_mb, applications))
        wall, rss = 0.0, 0.0
        for run_dir in verify_dirs:
            child = session.spawn(cli("verify", str(run_dir)), "verify")
            session.record_verify(child.code, child.stdout, child.stderr,
                                  run_dir)
            wall += child.wall_s
            rss = max(rss, child.rss_mb)
        verifies.append((wall, rss))
    elapsed = time.perf_counter() - start
    os.sched_setaffinity(0, cores)

    # Other tenants slow this host in phases of seconds to minutes, so a
    # run's samples mix a fast and a slow mode in changing proportion.  A
    # median jumps between the modes; a mean moves with the proportion,
    # so the work of `run` and `verify` is reported as a mean.  Every
    # child pays the set-up once; run_s and verify_s leave it out.
    setup_s = statistics.median(setup)
    run_s = [wall - setup_s for wall, _, _ in runs]
    verify_s = [wall - len(verify_dirs) * setup_s for wall, _ in verifies]
    applications = runs[0][2]
    samples = {
        "setup_s": (setup, setup_s, "s"),
        "run_s": (run_s, statistics.mean(run_s), "s"),
        "apps_per_s": ([applications / s for s in run_s],
                       applications / statistics.mean(run_s), "1/s"),
        "run_rss_mb": ([rss for _, rss, _ in runs],
                       statistics.median(rss for _, rss, _ in runs), "MB"),
        "verify_s": (verify_s, statistics.mean(verify_s), "s"),
        "verify_rss_mb": ([rss for _, rss in verifies],
                          statistics.median(rss for _, rss in verifies), "MB"),
    }
    return samples, iteration, elapsed


# -- per layer: traced passes inside this process ----------------------

def in_process(argv: list, tracer) -> tuple:
    """(exit code, stdout) of one CLI command run in this process, traced
    when `tracer` is given."""
    from dasgd_sim import cli as dasgd_cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            if tracer is None:
                code = dasgd_cli.main(argv)
            else:
                tracer.install()
                try:
                    code = tracer.call(f"cli.{argv[0]}", dasgd_cli.main, argv)
                finally:
                    tracer.uninstall()
        except SystemExit as exc:
            code = exc.code
    return code, buffer.getvalue()


def one_pass(session: Session, run_tracer=None, verify_tracer=None) -> float:
    """The iteration's commands in this process; returns their wall time.
    Output checks run after the clock stops."""
    w = session.workload
    shutil.rmtree(session.out, ignore_errors=True)
    start = time.perf_counter()
    code, _ = in_process(["run", "--config", str(session.config),
                          "--out", str(session.out)], run_tracer)
    verified = [(run_dir, in_process(["verify", str(run_dir)], verify_tracer))
                for run_dir in run_dirs(session.verify_out, w.replicas)]
    wall = time.perf_counter() - start
    session.record_run(code, "", session.out, session.samples, compare=True)
    for run_dir, (code, stdout) in verified:
        session.record_verify(code, stdout, "", run_dir)
    return wall


def layer_metrics(run, verify, bytes_written: int, overhead: float) -> dict:
    """Per-layer figures of one pass: simulation layers from the `run`
    command's tracer, audit layers from the `verify` commands' tracer."""
    sent = sum(net.sent_count for net in run.networks)
    duplicates = sum(net.duplicate_count for net in run.networks)
    kernel_calls = run.calls("kernel")
    return {
        "config.load_s": (run.inclusive_s("config.load"), "s"),
        "engine.self_s": (run.self_s("engine"), "s"),
        "engine.events": (sent + run.gradients, "count"),
        "engine.trace_events": (run.trace_events, "count"),
        "engine.runs": (run.calls("engine.run"), "count"),
        "netsim.self_s": (run.self_s("netsim"), "s"),
        "netsim.sent": (sent, "count"),
        "netsim.duplicates": (duplicates, "count"),
        "netsim.accept_ratio": ((sent - duplicates) / sent, "ratio"),
        "ledger.self_s": (run.self_s("ledger"), "s"),
        "ledger.applications":
            (run.calls("ledger.record_application"), "count"),
        "kernel.self_s": (run.self_s("kernel"), "s"),
        "kernel.apply_calls": (kernel_calls, "count"),
        "kernel.apply_us": (1e6 * run.self_s("kernel") / kernel_calls, "us"),
        # The objective serves both: metrics in `run`, the descent check
        # in `verify`.
        "objective.self_s":
            (run.self_s("objective") + verify.self_s("objective"), "s"),
        "objective.calls":
            (run.calls("objective") + verify.calls("objective"), "count"),
        "runio.pilot_s": (run.inclusive_s("runio.pilot"), "s"),
        "runio.write_s": (run.inclusive_s("runio.write"), "s"),
        "runio.read_s": (verify.inclusive_s("runio.read"), "s"),
        "runio.bytes_written": (bytes_written, "bytes"),
        "verification.load_s": (verify.inclusive_s("verification.load"), "s"),
        "verification.agreement_s":
            (verify.inclusive_s("verification.agreement"), "s"),
        "verification.oracle_s":
            (verify.inclusive_s("verification.oracle"), "s"),
        "verification.rate_bound_s":
            (verify.inclusive_s("verification.rate_bound"), "s"),
        "verification.descent_s":
            (verify.inclusive_s("verification.descent"), "s"),
        "oracle.brute_s": (verify.inclusive_s("oracle.brute"), "s"),
        "oracle.brute_replays": (verify.calls("oracle.brute"), "count"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def self_time_split(tracer) -> dict:
    """Self seconds per layer over everything `tracer` saw."""
    layers: dict = {}
    for name, (_, _, self_s) in tracer.totals.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return layers


def measure_layers(session: Session, seconds: float) -> tuple:
    sys.path.insert(0, str(SRC))
    import dasgd_sim.cli  # noqa: F401  (import cost stays out of the passes)
    from tracer import Tracer

    untraced, passes = [], []
    start = time.perf_counter()
    iteration = 0
    while iteration < 1 or time.perf_counter() - start < seconds:
        iteration += 1
        untraced.append(one_pass(session))
        tracers = {command: Tracer(session.name, iteration)
                   for command in ("run", "verify")}
        wall = one_pass(session, tracers["run"], tracers["verify"])
        passes.append((wall, tracers, tree_bytes(session.out)))
    elapsed = time.perf_counter() - start

    # All layer figures come from the median traced pass, so they add up.
    wall, tracers, bytes_written = sorted(
        passes, key=lambda p: p[0])[(len(passes) - 1) // 2]
    metrics = layer_metrics(tracers["run"], tracers["verify"], bytes_written,
                            wall / statistics.median(untraced) - 1)
    samples = {name: ([value], value, unit)
               for name, (value, unit) in metrics.items()}
    dump = {
        "workload": session.name,
        "untraced_s": untraced,
        "traced_s": [p[0] for p in passes],
        "span_fields": ["name", "start", "end", "parent", "workload",
                        "iteration"],
        "passes": [{command: {"spans": t.spans, "totals": t.totals}
                    for command, t in traced.items()}
                   for _, traced, _ in passes],
    }
    splits = {command: self_time_split(t) for command, t in tracers.items()}
    return samples, iteration, elapsed, dump, splits


# -- report ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every samples_per_node (self-test)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not (SRC / "dasgd_sim" / "cli.py").is_file():
        print(f"error: no dasgd-sim sources under {SRC}", file=sys.stderr)
        return 2

    for var in ("DASGD_SIM_THREADS", "DASGD_SIM_PURE"):
        os.environ.pop(var, None)
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])

    session = Session(args.workload, WORKLOADS[args.workload], args.seed,
                      args.scale)
    stamp = session.prepare()
    split = None
    if args.trace:
        samples, iterations, elapsed, dump, split = measure_layers(
            session, args.seconds)
    else:
        samples, iterations, elapsed = measure_end_to_end(session,
                                                          args.seconds)
        dump = {"workload": args.workload}
    dump.update(env=stamp, seed=args.seed,
                samples={name: values for name, (values, _, _)
                         in samples.items()})
    kind = "trace" if args.trace else "samples"
    (WORK / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(dump))

    mode = "traced passes in-process" if args.trace else "child processes"
    print(f"dasgd-sim benchmark: workload {args.workload}, seed {args.seed}, "
          f"closed loop, 1 client, {iterations} iteration(s) of {mode} "
          f"in {elapsed:.1f} s")
    print("env: " + ", ".join(f"{k} {v}" for k, v in stamp.items()))
    metrics = {}
    for name, (values, value, unit) in samples.items():
        metrics[name] = {"value": value, "unit": unit}
        spread = "" if len(values) == 1 else (
            f" from {len(values)} samples: min {min(values):.6g}, median "
            f"{statistics.median(values):.6g}, mean "
            f"{statistics.mean(values):.6g}, max {max(values):.6g}")
        print(f"  {name:26s} {value:14.6g} {unit:6s}{spread}".rstrip())
    for command, layers in (split or {}).items():
        total = sum(layers.values())
        print(f"  {command} self-time split: " + ", ".join(
            f"{layer} {100 * s / total:.1f}%"
            for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])
            if s > 0))
    failures = session.failures
    print(f"  error_rate {failures.failed / failures.attempted:g} "
          f"({failures.failed} failed of {failures.attempted} attempted)")
    print(json.dumps({"correct": failures.failed == 0,
                      "attempted": failures.attempted,
                      "failed": failures.failed, "metrics": metrics}))
    return 0 if failures.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
