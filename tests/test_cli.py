"""End-to-end command-line behavior: run directories, re-run determinism,
verification audits, sweeps, and the documented exit codes."""

import os
import re
import warnings

import numpy as np
import pytest

from dasgd_sim import engine, objective, runio
from dasgd_sim.cli import main
from dasgd_sim.config import ExperimentConfig
from dasgd_sim.theory import stepsize_bound_tight

SMALL = """\
[run]
seed = 3
samples_per_node = 30

[objective]
dim = 4
condition = 8.0

[topology]
kind = fully_connected
n = 3

[sgd]
eta = 0.01
"""

# Curvature ceiling 1000 makes the stepsize rule tiny; eta far above it
# drives the iterates past float range within the budget.
STIFF = """\
[run]
seed = 0
samples_per_node = 200

[objective]
dim = 6
condition = 1000.0

[topology]
kind = fully_connected
n = 4
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_dir_files(run_dir):
    return sorted(os.listdir(run_dir))


def test_run_writes_complete_directory(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert run_dir_files(out) == [
        "events.log", "gradients.npz", "manifest.txt", "models.npz",
        "staleness.csv", "summary.txt", "trace.csv",
    ]
    summary = runio.read_summary(os.path.join(out, "summary.txt"))
    assert summary["mode"] == "dasgd"
    assert summary["eta"] == "0.01"
    assert summary["eta_source"] == "config"
    assert summary["bound_satisfied"] == "yes"

    digest, parsed = runio.read_manifest(os.path.join(out, "manifest.txt"))
    assert digest == parsed.digest()
    assert parsed.seed == 3

    trace = runio.read_trace(os.path.join(out, "trace.csv"))
    stal = runio.read_staleness(os.path.join(out, "staleness.csv"))
    # one metrics row per application plus one start-of-run row per node
    assert len(trace) == len(stal) + 3
    assert len(stal) == 3 * 3 * 30
    assert all(row["run_id"] == summary["run_id"] for row in trace[:5])

    producers, steps, vectors = runio.read_gradients(
        os.path.join(out, "gradients.npz"))
    assert len(producers) == 3 * 30
    assert vectors.shape == (90, 4)
    x0, finals = runio.read_models(os.path.join(out, "models.npz"))
    assert finals.shape == (3, 4)

    shown = capsys.readouterr().out
    assert summary["run_id"] in shown


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", a]) == 0
    assert main(["run", "--config", cfg, "--out", b]) == 0
    for name in ("trace.csv", "staleness.csv", "events.log",
                 "summary.txt", "manifest.txt"):
        with open(os.path.join(a, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(b, name), "rb") as fh:
            second = fh.read()
        assert first == second, name


def test_seed_override_changes_run_identity(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", a]) == 0
    assert main(["run", "--config", cfg, "--out", b, "--seed", "4"]) == 0
    sa = runio.read_summary(os.path.join(a, "summary.txt"))
    sb = runio.read_summary(os.path.join(b, "summary.txt"))
    assert sa["run_id"] != sb["run_id"]
    assert sa["seed"] == "3" and sb["seed"] == "4"


MODES = ("dasgd", "sync", "centralized_asgd")

# Random timing, so that every mode's staleness is its own.
RANDOM_TIMING = ("\n[timing]\ncompute = uniform:0.8:1.2\n"
                 "latency = exponential:0.3\n")


def eta_less(mode):
    return (SMALL.replace("eta = 0.01", "")
            .replace("[run]\n", f"[run]\nmode = {mode}\n") + RANDOM_TIMING)


@pytest.mark.parametrize("mode", MODES)
def test_missing_eta_resolved_from_run_schedule(tmp_path, mode):
    cfg = write_config(tmp_path, eta_less(mode))
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    summary = runio.read_summary(os.path.join(out, "summary.txt"))
    assert summary["eta_source"] == (
        f"stepsize rule (measured tight_avg {summary['tight_avg']})")
    result, _, source = runio.execute(ExperimentConfig.from_file(cfg))
    assert source == summary["eta_source"]
    # The rule at the same run's own staleness, to the last bit.
    rule = stepsize_bound_tight(result.config.objective.lipschitz_constant(),
                                result.summary.tight_avg)
    assert result.config.eta == rule
    assert summary["eta"] == runio.fmt(rule)
    assert summary["tight_avg"] == runio.fmt(result.summary.tight_avg)


def count_calls(monkeypatch, owner, name, counts):
    """Count the calls of `owner.name` in `counts[name]`."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def count_passes(monkeypatch) -> dict:
    """Counts of each schedule pass, of the timing set-up every schedule
    pass starts with, and of the Lipschitz power iteration."""
    counts: dict = {}
    for name in ("schedule", "schedule_sync", "schedule_centralized",
                 "_timing"):
        count_calls(monkeypatch, engine, name, counts)
    count_calls(monkeypatch, objective, "power_iteration_top_eigenvalue",
                counts)
    return counts


SCHEDULE_OF = {"dasgd": "schedule", "sync": "schedule_sync",
               "centralized_asgd": "schedule_centralized"}


@pytest.mark.parametrize("mode", MODES)
def test_eta_less_replica_simulates_one_schedule(tmp_path, monkeypatch, mode):
    cfg = write_config(tmp_path, eta_less(mode))
    counts = count_passes(monkeypatch)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--replicas", "2"]) == 0
    assert counts == {SCHEDULE_OF[mode]: 2, "_timing": 2,
                      "power_iteration_top_eigenvalue": 2}


def test_replicas_get_subdirectories(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out,
                 "--replicas", "2"]) == 0
    assert sorted(os.listdir(out)) == ["replica000", "replica001"]
    s0 = runio.read_summary(os.path.join(out, "replica000", "summary.txt"))
    s1 = runio.read_summary(os.path.join(out, "replica001", "summary.txt"))
    assert s0["seed"] == "3" and s1["seed"] == "4"


def test_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["run", "--config", missing,
                 "--out", str(tmp_path / "o")]) == 2
    bad = write_config(tmp_path, "[run]\nmode = turbo\n", name="bad.ini")
    assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "turbo" in err


# Config inputs refused where the config is loaded: configparser syntax
# errors, a `%` in a value, and a logistic `data` file that is missing,
# whose labels are not 0/1, or that holds a NaN.  {dir} is the test's
# directory.
BAD_CONFIGS = {
    "not_ini": ("[run]\nseed = 1\nthis is not ini\n",
                "[file] syntax: line 3: 'this is not ini' is neither"),
    "no_section": ("seed = 1\n[run]\n",
                   "[file] syntax: line 1: 'seed = 1' comes before"),
    "duplicate_option": ("[run]\nseed = 1\nseed = 2\n",
                         "[file] syntax: line 3: 'seed = 2' repeats"),
    "percent_reference": ("[run]\nseed = %(x)s\n",
                          "[run] seed: '%(x)s' is not an integer"),
    "missing_data": ("[objective]\nkind = logistic\ndata = {dir}/a%b.csv\n",
                     "[objective] data: [Errno 2] No such file"),
    "bad_labels": ("[objective]\nkind = logistic\ndata = {dir}/labels.csv\n",
                   "[objective] data: {dir}/labels.csv: labels must be 0 or 1"),
    "nan_feature": ("[objective]\nkind = logistic\ndata = {dir}/nan.csv\n",
                    "[objective] data: {dir}/nan.csv:2: non-finite field"),
}


def assert_one_line_exit_2(code, err, prefix):
    assert code == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: " + prefix), err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, command, case):
    text, prefix = (part.format(dir=tmp_path) for part in BAD_CONFIGS[case])
    (tmp_path / "labels.csv").write_text("f0,label\n1.0,0\n2.0,2\n")
    (tmp_path / "nan.csv").write_text("f0,label\nnan,0\n2.0,1\n")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "eta", "--values", "0.01"]
    code = main(argv)
    assert_one_line_exit_2(code, capsys.readouterr().err, prefix)
    assert not out.exists()


# Edits of a manifest's configuration text that make it unparsable.
MANIFEST_EDITS = {
    "not_ini": lambda body: body.replace("[topology]\n",
                                         "[topology]\nthis is not ini\n"),
    "no_section": lambda body: "seed = 3\n" + body,
    "duplicate_option": lambda body: body.replace("seed = 3\n",
                                                  "seed = 3\nseed = 3\n"),
    "percent_reference": lambda body: body.replace("seed = 3\n",
                                                   "seed = %(x)s\n"),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_EDITS))
def test_verify_bad_manifest_exits_2_with_one_line(tmp_path, capsys, case):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    path = os.path.join(out, "manifest.txt")
    with open(path, "r", encoding="utf-8") as fh:
        head, _, body = fh.read().partition("\n\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + "\n\n" + MANIFEST_EDITS[case](body))
    capsys.readouterr()
    code = main(["verify", out])
    assert_one_line_exit_2(code, capsys.readouterr().err,
                           "unreadable run directory: [")


@pytest.mark.parametrize("text, flags", [
    ("[run]\nsamples_per_node = 3\n", ["--seed", "-1"]),
    ("[run]\nseed = 18446744073709551615\nreplicas = 2\n", []),
    ("[run]\nsamples_per_node = 3\n",
     ["--seed", "18446744073709551615", "--replicas", "2"]),
])
def test_seed_out_of_range_exits_2(tmp_path, capsys, text, flags):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [run] seed:")
    assert "Traceback" not in err
    assert not out.exists()


def test_zero_replicas_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--replicas", "0"]) == 2
    assert "[run] replicas" in capsys.readouterr().err
    assert not out.exists()


def test_divergence_exits_3_with_recommendation(tmp_path, capsys,
                                                monkeypatch):
    # eta about 200x the stepsize rule for this curvature
    cfg = write_config(tmp_path, STIFF + "\n[sgd]\neta = 0.025\n")
    counts = count_passes(monkeypatch)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("divergence: non-finite parameters at ")
    # The recommendation is the rule at the diverged run's own staleness:
    # no second schedule is simulated for it.
    assert counts == {"schedule": 1, "_timing": 1,
                      "power_iteration_top_eigenvalue": 1}
    sim = ExperimentConfig.from_file(cfg).sim_config(eta=None)
    rule = stepsize_bound_tight(sim.objective.lipschitz_constant(),
                                engine.schedule(sim).summary.tight_avg)
    assert err.endswith(f"; stepsize rule recommends eta <= "
                        f"{runio.fmt(rule)}\n")


def test_verify_passes_on_healthy_run(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    capsys.readouterr()
    assert main(["verify", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert [l.split()[1] for l in lines] == [
        "final-agreement:", "staleness-oracle:", "rate-bound:",
        "descent-step:",
    ]
    assert all(l.startswith("PASS") for l in lines)


# The benchmark's audit scenario at seed 12 with one replica: eta left
# out, random timing, dim 20.  An eta taken from a shorter run's
# staleness sat above the stepsize rule at this run's own staleness, so
# `verify` skipped the rate ceiling on a healthy run.
AUDIT_SEED12 = """\
[run]
seed = 12
samples_per_node = 40

[objective]
dim = 20
curvature_seed = 12

[topology]
kind = fully_connected
n = 6

[timing]
compute = uniform:0.8:1.2
latency = exponential:0.2
"""


def test_eta_less_run_passes_every_check(tmp_path, capsys):
    cfg = write_config(tmp_path, AUDIT_SEED12)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines), lines


def test_verify_builds_the_objective_once(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    counts: dict = {}
    count_calls(monkeypatch, ExperimentConfig, "build_objective", counts)
    count_calls(monkeypatch, objective, "power_iteration_top_eigenvalue",
                counts)
    capsys.readouterr()
    assert main(["verify", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["PASS"] * 4
    assert counts == {"build_objective": 1,
                      "power_iteration_top_eigenvalue": 1}


def test_verify_catches_tampered_staleness(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    path = os.path.join(out, "staleness.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # bump one recorded tight size on a foreign application
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if parts[2] != parts[4]:
            parts[6] = str(int(parts[6]) + 1)
            lines[i] = ",".join(parts)
            break
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", out]) == 1
    shown = capsys.readouterr().out
    assert "FAIL staleness-oracle" in shown


def test_verify_catches_tampered_models(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    path = os.path.join(out, "models.npz")
    x0, finals = runio.read_models(path)
    finals = finals.copy()
    finals[0, 0] += 1.0
    np.savez(path, x0=x0, finals=finals)
    capsys.readouterr()
    assert main(["verify", out]) == 1
    assert "FAIL final-agreement" in capsys.readouterr().out


def test_verify_missing_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    os.remove(os.path.join(out, "trace.csv"))
    capsys.readouterr()
    assert main(["verify", out]) == 2
    assert "trace.csv" in capsys.readouterr().err


def test_verify_reports_gradient_missing_from_archive(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    path = os.path.join(out, "gradients.npz")
    producers, steps, vectors = runio.read_gradients(path)
    np.savez(path, producers=producers[:-1], steps=steps[:-1],
             vectors=vectors[:-1])
    missing = f"GradientId(producer={producers[-1]}, step={steps[-1]})"
    capsys.readouterr()
    assert main(["verify", out]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[:2] for l in lines] == [
        ["FAIL", "final-agreement:"], ["PASS", "staleness-oracle:"],
        ["PASS", "rate-bound:"], ["FAIL", "descent-step:"],
    ]
    assert lines[3].endswith(f"{missing} absent from gradients.npz")


def test_verify_fails_overflowing_gradient(tmp_path, capsys):
    # The archive is readable, but the gradient's norm and the losses
    # along its appliers' chains leave float range.
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    path = os.path.join(out, "gradients.npz")
    producers, steps, vectors = runio.read_gradients(path)
    vectors = vectors.copy()
    vectors[5] *= 1e200
    np.savez(path, producers=producers, steps=steps, vectors=vectors)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", out]) == 1
    shown = capsys.readouterr()
    assert shown.err == ""
    lines = shown.out.splitlines()
    assert [l.split()[:2] for l in lines] == [
        ["FAIL", "final-agreement:"], ["PASS", "staleness-oracle:"],
        ["FAIL", "rate-bound:"], ["FAIL", "descent-step:"],
    ]
    assert lines[2] == ("FAIL rate-bound: gradient bound is not finite: "
                        "a gradient norm in gradients.npz overflows")
    # The producer applies its own gradient first.
    assert lines[3] == (f"FAIL descent-step: applier {producers[5]} step "
                        f"{steps[5]}: f-after is not finite")


def keep_header(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)


def drop_last_fields(line_no, count):
    def damage(path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[line_no - 1] = ",".join(lines[line_no - 1].split(",")[:-count])
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return damage


def drop_vectors(path):
    producers, steps, _ = runio.read_gradients(path)
    np.savez(path, producers=producers, steps=steps)


def cut_to(size):
    def damage(path):
        with open(path, "r+b") as fh:
            fh.truncate(size)
    return damage


def one_column_vectors(path):
    producers, steps, vectors = runio.read_gradients(path)
    np.savez(path, producers=producers, steps=steps, vectors=vectors[:, :1])


def edit_manifest_n(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text.replace("\nn = 3\n", "\nn = 4\n"))


# case -> (file, damage, message after "unreadable run directory: ")
DAMAGED_FILES = {
    "header_only_trace": ("trace.csv", keep_header, "trace.csv has no rows"),
    "short_trace_row": ("trace.csv", drop_last_fields(3, 1),
                        "trace.csv line 3: 12 fields, header has 13"),
    "short_staleness_row": ("staleness.csv", drop_last_fields(2, 2),
                            "staleness.csv line 2: 6 fields, header has 8"),
    "no_vectors_array": ("gradients.npz", drop_vectors,
                         "gradients.npz has no vectors array"),
    "truncated_gradients": ("gradients.npz", cut_to(100),
                            "gradients.npz is not a readable archive "
                            "(File is not a zip file)"),
    "empty_gradients": ("gradients.npz", cut_to(0),
                        "gradients.npz is not a readable archive "
                        "(No data left in file)"),
    "one_column_vectors": ("gradients.npz", one_column_vectors,
                           "gradients.npz and models.npz disagree on shape: "
                           "producers (90,), steps (90,), vectors (90, 1), "
                           "x0 (4,), finals (3, 4)"),
    "edited_manifest": ("manifest.txt", edit_manifest_n,
                        "manifest.txt digest does not match its "
                        "configuration"),
}


@pytest.mark.parametrize("case", list(DAMAGED_FILES))
def test_verify_damaged_file_exits_2(tmp_path, capsys, case):
    fname, damage, message = DAMAGED_FILES[case]
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    damage(os.path.join(out, fname))
    capsys.readouterr()
    assert main(["verify", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unreadable run directory: {message}\n"


# case -> (eta, file, line, {column: value}, message after "line N: ").
# The manifest of a run that leaves eta out gives none, so the first
# row's eta stands for it.
FOREIGN_ROWS = {
    "staleness_run_id": ("0.01", "staleness.csv", 5, {"run_id": "x"},
                         "run_id is 'x', the run's is '{run_id}'"),
    "trace_run_id": ("0.01", "trace.csv", 4, {"run_id": "zzz"},
                     "run_id is 'zzz', the run's is '{run_id}'"),
    "trace_mode": ("0.01", "trace.csv", 6, {"mode": "sync"},
                   "mode is 'sync', the run's is 'dasgd'"),
    "trace_topology": ("0.01", "trace.csv", 6, {"topology": "ring"},
                       "topology is 'ring', the run's is 'fully_connected'"),
    "trace_n": ("0.01", "trace.csv", 7, {"n": "7"},
                "n is 7, the run's is 3"),
    "trace_seed": ("0.01", "trace.csv", 8, {"seed": "99"},
                   "seed is 99, the run's is 4"),
    "trace_eta": ("0.01", "trace.csv", 9, {"eta": "0.5"},
                  "eta is 0.5, the run's is 0.01"),
    "trace_foreign_row": ("0.01", "trace.csv", 3,
                          {"mode": "sync", "n": "7", "eta": "0.5",
                           "seed": "99"},
                          "mode is 'sync', the run's is 'dasgd'"),
    "trace_eta_without_manifest_eta": ("", "trace.csv", 9, {"eta": "0.5"},
                                       "eta is 0.5, the run's is {eta}"),
}


@pytest.mark.parametrize("case", list(FOREIGN_ROWS))
def test_verify_rejects_rows_of_another_run(tmp_path, capsys, case):
    eta, fname, line_no, edits, message = FOREIGN_ROWS[case]
    cfg = write_config(tmp_path, "[run]\nseed = 4\nsamples_per_node = 10\n"
                       "[topology]\nkind = fully_connected\nn = 3\n"
                       f"[sgd]\neta = {eta}\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    summary = runio.read_summary(os.path.join(out, "summary.txt"))
    path = os.path.join(out, fname)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    parts = lines[line_no - 1].split(",")
    for column, value in edits.items():
        parts[header.index(column)] = value
    lines[line_no - 1] = ",".join(parts)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = message.format(run_id=summary["run_id"],
                             eta=float(summary["eta"]))
    assert captured.err == ("error: unreadable run directory: "
                            f"{fname} line {line_no}: {message}\n")


@pytest.mark.parametrize("mode, applier", [
    ("dasgd", 0), ("sync", 0), ("centralized_asgd", -1)])
def test_verify_fails_header_only_staleness(tmp_path, capsys, mode, applier):
    # Every applier the mode has must have applied every archived
    # gradient, even when staleness.csv names no applier at all.
    text = SMALL.replace("[run]\n", f"[run]\nmode = {mode}\n")
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    keep_header(os.path.join(out, "staleness.csv"))
    producers, _, _ = runio.read_gradients(os.path.join(out, "gradients.npz"))
    capsys.readouterr()
    assert main(["verify", out]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"FAIL final-agreement: applier {applier} finished "
                        f"with 0/{len(producers)} gradients")


def test_verify_protocol_violation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    path = os.path.join(out, "events.log")
    with open(path, "r", encoding="utf-8") as fh:
        line_no = len(fh.read().splitlines()) + 1
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("APPLY 0 90 0 0\n")
    capsys.readouterr()
    assert main(["verify", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: unreadable run directory: line {line_no}: "
        f"GradientId(producer=0, step=0) applied twice by node 0\n")


def test_oracle_command_on_real_log(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    log = os.path.join(out, "events.log")
    capsys.readouterr()
    assert main(["oracle", log]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_oracle_command_rejects_protocol_violation(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    log = os.path.join(out, "events.log")
    with open(log, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # dropping an application breaks that node's step continuity
    victim = next(i for i, l in enumerate(lines)
                  if l.startswith("APPLY") and i > len(lines) // 3)
    del lines[victim]
    with open(log, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["oracle", log]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: line \d+: APPLY step \d+ does not match", err)
    assert err.count("line ") == 1


def test_oracle_command_accepts_reordered_valid_log(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out])
    log = os.path.join(out, "events.log")
    with open(log, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # swapping applications by different nodes keeps the log well formed;
    # the check recomputes staleness for whatever schedule it is handed
    idx = next(i for i in range(len(lines) - 1)
               if lines[i].startswith("APPLY")
               and lines[i + 1].startswith("APPLY")
               and lines[i].split()[1] != lines[i + 1].split()[1])
    lines[idx], lines[idx + 1] = lines[idx + 1], lines[idx]
    with open(log, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["oracle", log]) == 0


def test_oracle_command_syntax_error_exits_2(tmp_path, capsys):
    log = tmp_path / "bad.log"
    log.write_text("COMPUTE 0 0\nGIBBERISH\n", encoding="utf-8")
    assert main(["oracle", str(log)]) == 2
    assert capsys.readouterr().err == "error: line 2: malformed line: GIBBERISH\n"


def test_oracle_command_rejects_negative_node(tmp_path, capsys):
    # With n = 2, node -1 would alias node 1 and the log would replay as
    # a valid four-application schedule.
    log = tmp_path / "neg.log"
    log.write_text("COMPUTE 0 0\nAPPLY 0 0 0 0\nCOMPUTE 1 0\nAPPLY 1 0 1 0\n"
                   "APPLY -1 1 0 0\nAPPLY 0 1 1 0\n", encoding="utf-8")
    assert main(["oracle", str(log)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 5: malformed line: APPLY -1 1 0 0\n"


def test_sweep_topology_axis(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL.replace("n = 3", "n = 6"))
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out,
                 "--axis", "topology",
                 "--values", "fully_connected,ring"]) == 0
    csv_path = os.path.join(out, "sweep.csv")
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [line.strip().split(",") for line in fh]
    assert header == ("axis,value,replicas,psi_final_mean,psi_final_std,"
                      "tight_avg_mean,tight_avg_std")
    by_value = {row[1]: row for row in rows}
    assert set(by_value) == {"fully_connected", "ring"}
    # sparser connectivity means staler applications
    assert (float(by_value["ring"][5])
            > float(by_value["fully_connected"][5]))
    assert os.path.isdir(os.path.join(out, "topology=ring"))


def test_sweep_n_axis_staleness_grows(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out,
                 "--axis", "n", "--values", "2,4,8"]) == 0
    with open(os.path.join(out, "sweep.csv"), "r", encoding="utf-8") as fh:
        fh.readline()
        tights = [float(line.strip().split(",")[5]) for line in fh]
    assert tights[0] < tights[1] < tights[2]


def test_sweep_eta_axis_divergent_point_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, STIFF)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out,
                 "--axis", "eta", "--values", "1.25e-4,0.025"]) == 3
    err = capsys.readouterr().err
    assert "eta=0.025 diverged" in err


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--axis", "latency", "--values", "1,2"]) == 2
    assert "latency" in capsys.readouterr().err
