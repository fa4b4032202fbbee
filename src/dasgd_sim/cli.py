"""Command-line front end: run experiments, sweep a parameter axis,
verify a finished run directory, and cross-check event logs.

Exit codes: 0 success, 1 failed verification or oracle mismatch,
2 unusable input (config, files, flags), 3 divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from dasgd_sim import runio
from dasgd_sim.config import ConfigError, ExperimentConfig
from dasgd_sim.engine import DivergenceError
from dasgd_sim.ledger import EventLogError
from dasgd_sim.oracle import check_log
from dasgd_sim.verification import MissingRunFiles, verify_run

SWEEP_AXES = ("n", "topology", "eta", "sigma")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_config(path: str, seed, replicas) -> ExperimentConfig:
    config = ExperimentConfig.from_file(path)
    if seed is not None:
        config = replace(config, seed=seed)
    if replicas is not None:
        config = replace(config, replicas=replicas)
    config.validate()
    if config.objective_kind == "logistic" and config.data_path:
        config.load_data()
    return config


def _divergence_exit(exc: DivergenceError) -> int:
    print(f"divergence: {exc}; stepsize rule recommends eta <= "
          f"{runio.fmt(exc.rule)}", file=sys.stderr)
    return 3


def _run_replicas(config: ExperimentConfig, out_dir: str) -> list:
    """Execute the replicas one after another and write one directory per
    replica.  Returns the run directories."""
    dirs = []
    for replica in range(config.replicas):
        result, effective, eta_source = runio.execute(config, replica)
        if config.replicas == 1:
            target = out_dir
        else:
            target = os.path.join(out_dir, f"replica{replica:03d}")
        runio.write_run_dir(target, effective, result, eta_source)
        dirs.append(target)
    return dirs


def cmd_run(args) -> int:
    try:
        config = _load_config(args.config, args.seed, args.replicas)
    except (ConfigError, OSError) as exc:
        return _usage_error(str(exc))
    try:
        dirs = _run_replicas(config, args.out)
    except DivergenceError as exc:
        return _divergence_exit(exc)
    for run_dir in dirs:
        summary = runio.read_summary(os.path.join(run_dir, "summary.txt"))
        print(f"{run_dir}: run_id {summary['run_id']} "
              f"tight_avg {summary['tight_avg']} "
              f"psi_final {summary['psi_final']}")
    return 0


def _axis_values(axis: str, raw: str):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty value list")
    if axis == "n":
        return [int(p) for p in parts]
    if axis in ("eta", "sigma"):
        return [float(p) for p in parts]
    return parts


def _apply_axis(config: ExperimentConfig, axis: str, value):
    if axis == "n":
        derived = replace(config, n=value)
    elif axis == "topology":
        derived = replace(config, topology_kind=value, edges=())
    elif axis == "eta":
        derived = replace(config, eta=value)
    else:
        derived = replace(config, noise_sigma=value)
    derived.validate()
    return derived


def cmd_sweep(args) -> int:
    try:
        config = _load_config(args.config, args.seed, args.replicas)
        if args.axis not in SWEEP_AXES:
            raise ConfigError("sweep", "axis",
                              f"{args.axis!r} not one of {'|'.join(SWEEP_AXES)}")
        values = _axis_values(args.axis, args.values)
        points = [(v, _apply_axis(config, args.axis, v)) for v in values]
    except (ConfigError, OSError, ValueError) as exc:
        return _usage_error(str(exc))

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for value, derived in points:
        point_dir = os.path.join(args.out, f"{args.axis}={value}")
        try:
            dirs = _run_replicas(derived, point_dir)
        except DivergenceError as exc:
            print(f"sweep point {args.axis}={value} diverged", file=sys.stderr)
            return _divergence_exit(exc)
        psis, tights = [], []
        for run_dir in dirs:
            summary = runio.read_summary(os.path.join(run_dir, "summary.txt"))
            psis.append(float(summary["psi_final"]))
            tights.append(float(summary["tight_avg"]))
        rows.append((
            value, len(dirs),
            np.mean(psis), np.std(psis), np.mean(tights), np.std(tights),
        ))
        print(f"{args.axis}={value}: psi_final {runio.fmt(float(np.mean(psis)))} "
              f"tight_avg {runio.fmt(float(np.mean(tights)))} "
              f"({len(dirs)} replica(s))")
    sweep_csv = os.path.join(args.out, "sweep.csv")
    with open(sweep_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("axis,value,replicas,psi_final_mean,psi_final_std,"
                 "tight_avg_mean,tight_avg_std\n")
        for value, count, pm, ps, tm, ts in rows:
            fh.write(",".join((
                args.axis, str(value), str(count), runio.fmt(float(pm)),
                runio.fmt(float(ps)), runio.fmt(float(tm)),
                runio.fmt(float(ts)),
            )) + "\n")
    print(f"wrote {sweep_csv}")
    return 0


def cmd_verify(args) -> int:
    try:
        checks = verify_run(args.run_dir)
    except MissingRunFiles as exc:
        return _usage_error(str(exc))
    except (ConfigError, ValueError, OSError) as exc:
        return _usage_error(f"unreadable run directory: {exc}")
    for check in checks:
        print(check.line())
    return 0 if all(c.status != "fail" for c in checks) else 1


def cmd_oracle(args) -> int:
    try:
        with open(args.log, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return _usage_error(str(exc))
    try:
        report = check_log(lines)
    except EventLogError as exc:
        return _usage_error(str(exc))
    print(str(report))
    return 0 if report.equivalent else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dasgd-sim",
        description="Deterministic decentralized-asynchronous-SGD simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--replicas", type=int, default=None,
                       help="override the replica count")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a config across axis values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--axis", required=True,
                         help="|".join(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--replicas", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="audit a finished run directory")
    p_verify.add_argument("run_dir", help="directory written by `run`")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle",
                              help="brute-force check an event log")
    p_oracle.add_argument("log", help="events.log path")
    p_oracle.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
