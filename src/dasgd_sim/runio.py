"""Run execution and the on-disk run directory.

A finished run is a directory holding:

  trace.csv       per-step metric rows (fixed 13-column schema)
  staleness.csv   one row per application event
  events.log      the protocol event log (replayable by the oracle)
  gradients.npz   every gradient vector with its producer and step
  models.npz      the start point and each node's final parameters
  summary.txt     headline statistics and the rate-ceiling comparison
  manifest.txt    digest plus the full canonical configuration

All numbers are written with 12 significant digits; runs with the same
configuration and seed produce byte-identical files.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

from dasgd_sim import KERNEL_IMPL
from dasgd_sim.config import ConfigError, ExperimentConfig
from dasgd_sim.engine import (
    RunResult,
    run,
    run_centralized_asgd,
    run_sync_baseline,
)
from dasgd_sim.theory import (
    gradient_bound,
    rate_bound_bounded_gradients,
    run_ceiling_inputs,
    running_psi,
)

TRACE_COLUMNS = (
    "run_id", "mode", "topology", "n", "eta", "seed", "t", "sim_time",
    "node", "loss", "grad_norm_sq", "tight_staleness", "loose_staleness",
)
STALENESS_COLUMNS = (
    "run_id", "sim_time", "applier", "applier_step", "producer",
    "producer_step", "tight", "loose",
)

_RUNNERS = {
    "dasgd": run,
    "sync": run_sync_baseline,
    "centralized_asgd": run_centralized_asgd,
}


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def resolve_eta(config: ExperimentConfig, result: RunResult) -> tuple:
    """(eta, source) of a finished run: the config's eta, or the one the
    runner took from the stepsize rule at the run's own average
    staleness when the config leaves eta out."""
    eta = result.config.eta
    if config.eta is not None:
        return eta, "config"
    return eta, (f"stepsize rule (measured tight_avg "
                 f"{fmt(result.summary.tight_avg)})")


def execute(config: ExperimentConfig, replica: int = 0):
    """Run one replica.  Returns (result, effective config, eta source)."""
    effective = config.for_replica(replica)
    result = _RUNNERS[effective.mode](effective.sim_config(eta=effective.eta))
    _, source = resolve_eta(effective, result)
    return result, effective, source


def write_run_dir(out_dir: str, effective: ExperimentConfig,
                  result: RunResult, eta_source: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    run_id = effective.run_id()
    _write_trace(os.path.join(out_dir, "trace.csv"), run_id, effective, result)
    _write_staleness(os.path.join(out_dir, "staleness.csv"), run_id, result)
    if result.ledger is not None:
        with open(os.path.join(out_dir, "events.log"), "w",
                  encoding="utf-8") as fh:
            result.ledger.export_events(fh)
    _write_gradients(os.path.join(out_dir, "gradients.npz"), result)
    np.savez(os.path.join(out_dir, "models.npz"),
             x0=result.start, finals=result.final_models)
    _write_summary(os.path.join(out_dir, "summary.txt"), run_id, effective,
                   result, eta_source)
    with open(os.path.join(out_dir, "manifest.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"digest: {effective.digest()}\n")
        fh.write(f"run_id: {run_id}\n")
        fh.write("\n")
        fh.write(effective.canonical())


# Rows are formatted with one f-string each; a float field's `.12g` is
# what `fmt` writes for it.

def _write_trace(path, run_id, effective, result):
    head = (f"{run_id},{result.mode},{effective.topology_kind},"
            f"{effective.n},{fmt(result.config.eta)},{effective.seed}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(
            f"{head},{t},{sim_time:.12g},{node},{loss:.12g},{gsq:.12g},"
            f"{tight},{loose}\n"
            for t, sim_time, node, loss, gsq, tight, loose in result.rows)


def _write_staleness(path, run_id, result):
    log = result.staleness_log
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(STALENESS_COLUMNS) + "\n")
        fh.writelines(
            f"{run_id},{sim_time:.12g},{applier},{step},{producer},"
            f"{pstep},{tight},{loose}\n"
            for sim_time, applier, step, producer, pstep, tight, loose
            in zip(log.times, *log.columns))


def _write_gradients(path, result):
    table = result.table
    np.savez(path,
             producers=np.array([i.producer for i in table.ids], dtype=np.int64),
             steps=np.array([i.step for i in table.ids], dtype=np.int64),
             vectors=table.vectors)


def psi_final(result: RunResult) -> float:
    """Worst model's running average of squared gradient norms at its
    last logged step.  Exact when metric_stride is 1, otherwise an
    average over the logged subset."""
    worst = 0.0
    for rows in result.rows_by_node().values():
        worst = max(worst, running_psi(r.grad_norm_sq for r in rows)[-1])
    return worst


def _bound_comparison(effective, result, psi):
    """(bound_text, satisfied_text) for the summary, or skip reasons."""
    if effective.objective_kind != "quadratic":
        return ("n/a", "skipped (no analytic noise ceiling for logistic)")
    if effective.noise_sigma > 0:
        return ("n/a", "skipped (stochastic; ceiling holds in expectation, "
                       "compare seed-averaged traces)")
    summary = result.summary
    if summary is None or summary.tight_avg == 0.0:
        return ("n/a", "skipped (zero measured staleness degenerates "
                       "the ceiling)")
    obj = result.config.objective
    inputs, rule = run_ceiling_inputs(
        obj.lipschitz_constant(), obj.loss(result.start) - obj.min_value(),
        result.config.eta, gradient_bound(result.table.vectors),
        summary.tight_avg, summary.tight_max)
    if inputs is None:
        return ("n/a", f"skipped (eta {fmt(result.config.eta)} above the "
                       f"stepsize rule {fmt(rule)})")
    horizon = max(row.t for row in result.rows)
    bound = rate_bound_bounded_gradients(inputs, horizon)
    verdict = "yes" if psi <= bound else "no"
    return (fmt(bound), verdict)


def _write_summary(path, run_id, effective, result, eta_source):
    summary = result.summary
    psi = psi_final(result)
    bound_text, satisfied = _bound_comparison(effective, result, psi)
    lines = [
        ("run_id", run_id),
        ("mode", result.mode),
        ("topology", effective.topology_kind),
        ("n", effective.n),
        ("seed", effective.seed),
        ("eta", fmt(result.config.eta)),
        ("eta_source", eta_source),
        ("kernel", KERNEL_IMPL),
        ("gradients_computed", result.gradients_computed),
        ("sim_time_end", fmt(result.total_time)),
        ("throughput", fmt(result.throughput)),
        ("applications", len(result.staleness_log)),
        ("tight_avg", fmt(summary.tight_avg)),
        ("tight_max", summary.tight_max),
        ("loose_avg", fmt(summary.loose_avg)),
        ("loose_max", summary.loose_max),
        ("psi_final", fmt(psi)),
        ("rate_bound_final", bound_text),
        ("bound_satisfied", satisfied),
    ]
    if result.messages is not None:
        lines += [
            ("messages_sent", result.messages.sent),
            ("messages_duplicate", result.messages.duplicate),
            ("messages_elided", result.messages.elided),
        ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in lines:
            fh.write(f"{key}: {value}\n")


def read_summary(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if ": " in line:
                key, value = line.split(": ", 1)
                out[key] = value.strip()
    return out


def read_manifest(path: str):
    """(digest, ExperimentConfig) parsed back from a manifest file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head, _, body = text.partition("\n\n")
    digest = None
    for line in head.splitlines():
        if line.startswith("digest: "):
            digest = line[len("digest: "):].strip()
    if digest is None:
        raise ConfigError("manifest", "digest", "missing digest line")
    config = ExperimentConfig.parse(body)
    return digest, config


def _read_csv(path: str, columns: tuple, kind: str) -> list:
    """Rows of a CSV file written with `columns`, as dicts of strings.
    A row whose field count differs from the header's is rejected with
    the file and line, instead of surfacing later as a missing key."""
    name = os.path.basename(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != columns:
            raise ValueError(f"unexpected {kind} header {header}")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(columns):
                raise ValueError(f"{name} line {line_no}: {len(parts)} "
                                 f"fields, header has {len(columns)}")
            rows.append(dict(zip(columns, parts)))
    return rows


def read_trace(path: str) -> list:
    """Trace rows as dicts with numeric fields converted."""
    rows = _read_csv(path, TRACE_COLUMNS, "trace")
    for row in rows:
        for key in ("n", "seed", "t", "node",
                    "tight_staleness", "loose_staleness"):
            row[key] = int(row[key])
        for key in ("eta", "sim_time", "loss", "grad_norm_sq"):
            row[key] = float(row[key])
    return rows


def read_staleness(path: str) -> list:
    rows = _read_csv(path, STALENESS_COLUMNS, "staleness")
    for row in rows:
        for key in ("applier", "applier_step", "producer",
                    "producer_step", "tight", "loose"):
            row[key] = int(row[key])
        row["sim_time"] = float(row["sim_time"])
    return rows


def _read_arrays(path: str, names: tuple) -> tuple:
    """The named arrays of an .npz archive.  A missing array, or a file
    numpy cannot read as an archive (truncated, empty, not a zip), is a
    ValueError that names the file."""
    name = os.path.basename(path)
    try:
        with np.load(path) as data:
            arrays = {key: data[key] for key in names if key in data.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise ValueError(f"{name} is not a readable archive ({exc})") from None
    missing = [key for key in names if key not in arrays]
    if missing:
        raise ValueError(f"{name} has no {', '.join(missing)} array")
    return tuple(arrays[key] for key in names)


def read_gradients(path: str):
    return _read_arrays(path, ("producers", "steps", "vectors"))


def read_models(path: str):
    return _read_arrays(path, ("x0", "finals"))
