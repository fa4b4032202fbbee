"""The names the benchmark's tracer patches still exist and are the ones
the run path calls.

`perfbench/tracer.py` replaces entry points through their owners'
`__dict__`, so a renamed or bypassed name makes `--trace 1` raise or
count nothing.  The tracer is loaded from its file, unedited, and run
around an in-process `run`.
"""

import importlib.util
import os

from dasgd_sim import runio
from dasgd_sim.cli import main

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")

# Eta left out, so each replica names its stepsize through resolve_eta.
TINY = """\
[run]
seed = 2
samples_per_node = 5
replicas = 2

[objective]
dim = 2

[topology]
kind = fully_connected
n = 3

[timing]
compute = uniform:0.8:1.2
latency = exponential:0.2
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_see_every_replica(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(TINY, encoding="utf-8")
    runners, resolve = runio._RUNNERS, runio.resolve_eta
    tracer = load_tracer().Tracer("hooks", 0)
    tracer.install()
    try:
        code = main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls("engine.run") == 2
    assert tracer.calls("runio.pilot") == 2
    assert tracer.trace_events > 0
    assert tracer.gradients == 2 * 3 * 5
    assert runio._RUNNERS is runners and runio.resolve_eta is resolve
