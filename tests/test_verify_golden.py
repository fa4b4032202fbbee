"""`verify` output pinned byte for byte, and the work one `verify` does.

The expected stdout below was taken from `verify` when each check still
made its own brute-force replay of the event log, the centralized and
empty-staleness cases before the staleness summary and psi had one
definition each, and the dim-20, missing-gradient and scaled-gradient
cases while the replay still kept frozensets; sharing or rewriting that
code must not change a character.  The other objectives are
one-dimensional so that no LAPACK routine feeds the pinned bytes.
"""

import os

import numpy as np
import pytest

from dasgd_sim import ledger, oracle, runio, verification
from dasgd_sim.cli import main

# Random latency reorders deliveries, so foreign applications carry
# staleness; eta sits below both the stepsize rule and 1/(2L), so all
# four checks apply and pass.
FC_EXPONENTIAL = """\
[run]
seed = 4
samples_per_node = 25

[objective]
dim = 1
condition = 4.0

[topology]
kind = fully_connected
n = 5

[timing]
compute = uniform:0.8:1.2
latency = exponential:0.3

[sgd]
eta = 0.02
"""

# The healthy fixture of test_cli.py at dim 1.
SMALL = """\
[run]
seed = 3
samples_per_node = 30

[objective]
dim = 1
condition = 8.0

[topology]
kind = fully_connected
n = 3

[sgd]
eta = 0.01
"""

# A parameter server: no event log, so only the agreement and rate-bound
# checks apply, and the rate bound reads the worst-node staleness average
# and the running psi of every worker's trace rows.
CENTRALIZED = """\
[run]
mode = centralized_asgd
seed = 4
samples_per_node = 25

[objective]
dim = 1
condition = 4.0

[topology]
kind = fully_connected
n = 5

[timing]
compute = uniform:0.8:1.2
latency = exponential:0.3

[sgd]
eta = 0.01
"""


def bump_first_foreign_tight(out):
    """Add one to the tight size of the first foreign application."""
    path = os.path.join(out, "staleness.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if parts[2] != parts[4]:
            parts[6] = str(int(parts[6]) + 1)
            lines[i] = ",".join(parts)
            break
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def empty_staleness(out):
    """Keep only the header of staleness.csv."""
    path = os.path.join(out, "staleness.csv")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)


def rewrite_gradients(out, edit):
    path = os.path.join(out, "gradients.npz")
    producers, steps, vectors = runio.read_gradients(path)
    producers, steps, vectors = edit(producers, steps, vectors.copy())
    np.savez(path, producers=producers, steps=steps, vectors=vectors)


def scale_one_gradient(out):
    """Make one gradient 50 times longer: every application of it then
    overshoots, and the first one in log order fails the descent check."""
    def edit(producers, steps, vectors):
        vectors[5] *= 50.0
        return producers, steps, vectors
    rewrite_gradients(out, edit)


def drop_last_gradient(out):
    """Remove the last gradient from the archive."""
    rewrite_gradients(out, lambda p, s, v: (p[:-1], s[:-1], v[:-1]))


# The FC case at dim 20: the descent check's loss, gradient and drift
# numerics run over full vectors.
FC_EXPONENTIAL_DIM20 = FC_EXPONENTIAL.replace("dim = 1\n", "dim = 20\n")

GOLDEN = {
    "centralized": (CENTRALIZED, None, 0, (
        "PASS final-agreement: 1 model(s) within 0.00e+00, "
        "rebuild within 3.77e-17\n"
        "SKIP staleness-oracle: no peer event log for this mode\n"
        "PASS rate-bound: 126 logged points under the ceiling "
        "(min margin 2.71)\n"
        "SKIP descent-step: no peer event log for this mode\n"
    )),
    "fc_exponential": (FC_EXPONENTIAL, None, 0, (
        "PASS final-agreement: 5 model(s) within 7.03e-18, "
        "rebuild within 4.80e-16\n"
        "PASS staleness-oracle: 625 events match the brute-force replay\n"
        "PASS rate-bound: 630 logged points under the ceiling "
        "(min margin 1.75)\n"
        "PASS descent-step: inequality held at 625/625 events\n"
    )),
    "fc_exponential_dim20": (FC_EXPONENTIAL_DIM20, None, 0, (
        "PASS final-agreement: 5 model(s) within 8.59e-17, "
        "rebuild within 1.85e-16\n"
        "PASS staleness-oracle: 625 events match the brute-force replay\n"
        "PASS rate-bound: 630 logged points under the ceiling "
        "(min margin 0.991)\n"
        "PASS descent-step: inequality held at 625/625 events\n"
    )),
    "small": (SMALL, None, 0, (
        "PASS final-agreement: 3 model(s) within 0.00e+00, "
        "rebuild within 7.22e-16\n"
        "PASS staleness-oracle: 270 events match the brute-force replay\n"
        "PASS rate-bound: 273 logged points under the ceiling "
        "(min margin 8.67)\n"
        "PASS descent-step: inequality held at 270/270 events\n"
    )),
    # final-agreement used to PASS here: it only checked the appliers
    # staleness.csv names, and an emptied file names none.
    "small_empty_staleness": (SMALL, empty_staleness, 1, (
        "FAIL final-agreement: applier 0 finished with 0/90 gradients\n"
        "FAIL staleness-oracle: csv has 0 events, log has 270\n"
        "SKIP rate-bound: zero measured staleness degenerates the ceiling\n"
        "PASS descent-step: inequality held at 270/270 events\n"
    )),
    "small_missing_gradient": (SMALL, drop_last_gradient, 1, (
        "FAIL final-agreement: applier 0 finished with 90/89 gradients\n"
        "PASS staleness-oracle: 270 events match the brute-force replay\n"
        "PASS rate-bound: 273 logged points under the ceiling "
        "(min margin 8.67)\n"
        "FAIL descent-step: applier 2 step 87: "
        "GradientId(producer=2, step=87) absent from gradients.npz\n"
    )),
    "small_scaled_gradient": (SMALL, scale_one_gradient, 1, (
        "FAIL final-agreement: canonical rebuild differs by 2.979e+00\n"
        "PASS staleness-oracle: 270 events match the brute-force replay\n"
        "PASS rate-bound: 273 logged points under the ceiling "
        "(min margin 96.4)\n"
        "FAIL descent-step: applier 2 step 3: f-after 20.7936 exceeds "
        "allowance 2.125568\n"
    )),
    "small_tampered_staleness": (SMALL, bump_first_foreign_tight, 1, (
        "PASS final-agreement: 3 model(s) within 0.00e+00, "
        "rebuild within 7.22e-16\n"
        "FAIL staleness-oracle: applier 0 step 1: csv says (2, 1), "
        "brute force says (1, 1)\n"
        "PASS rate-bound: 273 logged points under the ceiling "
        "(min margin 8.67)\n"
        "PASS descent-step: inequality held at 270/270 events\n"
    )),
}


def make_run(tmp_path, capsys, text):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text, encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_stdout_is_pinned(tmp_path, capsys, name):
    text, tamper, code, expected = GOLDEN[name]
    out = make_run(tmp_path, capsys, text)
    if tamper is not None:
        tamper(out)
    assert main(["verify", out]) == code
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_verify_replays_the_log_once(tmp_path, capsys, monkeypatch):
    out = make_run(tmp_path, capsys, FC_EXPONENTIAL)
    calls = {"replay": 0, "parse": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    replay = counting("replay", oracle.replay_brute_force)
    monkeypatch.setattr(verification, "replay_brute_force", replay)
    monkeypatch.setattr(oracle, "replay_brute_force", replay)
    parse = counting("parse", ledger.parse_event_log)
    monkeypatch.setattr(ledger, "parse_event_log", parse)
    monkeypatch.setattr(oracle, "parse_event_log", parse)

    checks = verification.verify_run(out)
    assert [c.status for c in checks] == ["pass"] * 4
    # One brute-force replay, shared by the oracle and descent checks;
    # the log is parsed once, and the ledger replays the parsed events.
    assert calls == {"replay": 1, "parse": 1}


# perfbench's ring-async scenario at its run size, with metric stride 1
# so every check applies: G = 2,400 gradients, 38,400 applications.  A
# replay that keeps a set per event took about four minutes and 2.7 GB
# on a 2-vCPU host; no time is bounded, but such a route makes this
# test crawl.
RING_ASYNC_RUN_SIZE = """\
[run]
seed = 1
samples_per_node = 150

[objective]
dim = 20
curvature_seed = 1

[topology]
kind = ring
n = 16

[timing]
compute = uniform:0.8:1.2
latency = exponential:1.0

[sgd]
eta = 1e-05
"""


def test_verify_at_ring_async_run_size(tmp_path, capsys):
    out = make_run(tmp_path, capsys, RING_ASYNC_RUN_SIZE)
    assert main(["verify", out]) == 0
    assert capsys.readouterr().out == (
        "PASS final-agreement: 16 model(s) within 2.78e-17, "
        "rebuild within 8.60e-16\n"
        "PASS staleness-oracle: 38400 events match the brute-force replay\n"
        "PASS rate-bound: 38416 logged points under the ceiling "
        "(min margin 94.6)\n"
        "PASS descent-step: inequality held at 38400/38400 events\n"
    )


def test_tight_sums_follow_block_boundaries(monkeypatch):
    # A gather budget of 3 rows splits the members into blocks: empty
    # sets, sets larger than a block and sets that end a block all occur.
    # numpy may group the additions of one set differently from a
    # running sum, so agreement is to rounding.
    rng = np.random.default_rng(0)
    values = rng.standard_normal((12, 4))
    rows = rng.permutation(12)
    sets = [[], [0, 3], [1, 2, 5, 7, 9], [], [4], [], [2, 3, 11], [6, 8]]
    ptr = np.cumsum([0] + [len(m) for m in sets])
    idx = np.array([c for m in sets for c in m], dtype=np.uint8)
    monkeypatch.setattr(verification, "_GATHER_ROWS", 3)
    got = verification._tight_sums(values, rows, ptr, idx)
    for k, members in enumerate(sets):
        want = sum((values[rows[c]] for c in members), np.zeros(4))
        np.testing.assert_allclose(got[k], want, rtol=1e-14, atol=1e-14)
