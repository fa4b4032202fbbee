"""Experiment configuration: INI-style files with sections, documented
defaults, canonical serialization, and a content digest that names runs.

The defaults describe a quick fully-connected quadratic demo.  Every
field can be omitted; `eta` omitted means each run applies the stepsize
rule to the average staleness of its own schedule (see engine.run).
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from dasgd_sim.engine import SimConfig
from dasgd_sim.netsim import TimeDistribution, Topology, TopologyError, validate_topology
from dasgd_sim.objective import (
    LogisticObjective,
    QuadraticObjective,
    load_logistic_csv,
    synthetic_logistic_data,
)

MODES = ("dasgd", "sync", "centralized_asgd")
OBJECTIVES = ("quadratic", "logistic")
TOPOLOGY_KINDS = ("fully_connected", "ring", "custom")


class ConfigError(ValueError):
    """Bad or missing configuration value, with its location."""

    def __init__(self, section: str, option: str, message: str):
        super().__init__(f"[{section}] {option}: {message}")
        self.section = section
        self.option = option


@dataclass
class ExperimentConfig:
    # [run]
    mode: str = "dasgd"
    seed: int = 0
    samples_per_node: int = 200
    replicas: int = 1
    metric_stride: int = 1
    # [objective]
    objective_kind: str = "quadratic"
    dim: int = 10
    condition: float = 10.0
    curvature_seed: int = 0
    noise_sigma: float = 0.0
    rows: int = 80
    separation: float = 2.0
    ridge: float = 1e-3
    data_path: str = ""
    # [topology]
    topology_kind: str = "fully_connected"
    n: int = 4
    edges: tuple = ()
    # [timing]
    compute: str = "constant:1.0"
    latency: str = "constant:0.01"
    compute_scale: tuple = ()
    # [sgd]
    eta: Optional[float] = None

    def build_topology(self) -> Topology:
        if self.topology_kind == "fully_connected":
            return Topology.fully_connected(self.n)
        if self.topology_kind == "ring":
            return Topology.ring(self.n)
        return Topology.custom(self.n, list(self.edges))

    def build_objective(self):
        if self.objective_kind == "quadratic":
            return _make_quadratic(self.dim, self.condition,
                                   self.curvature_seed, self.noise_sigma)
        if self.data_path:
            features, labels = self.load_data()
        else:
            features, labels = synthetic_logistic_data(
                self.rows, self.dim, self.curvature_seed, self.separation
            )
        return LogisticObjective(features, labels, ridge=self.ridge)

    def load_data(self) -> tuple:
        """(features, labels) of the logistic objective's `data` file.  A
        file that cannot be read, or whose rows or labels are malformed,
        is a ConfigError."""
        try:
            return load_logistic_csv(self.data_path)
        except (OSError, ValueError, csv.Error) as exc:
            raise ConfigError("objective", "data", str(exc)) from None

    def sim_config(self, eta: Optional[float]) -> SimConfig:
        return SimConfig(
            topology=self.build_topology(),
            objective=self.build_objective(),
            eta=eta,
            samples_per_node=self.samples_per_node,
            compute_time=_parse_distribution("timing", "compute", self.compute),
            latency=_parse_distribution("timing", "latency", self.latency),
            seed=self.seed,
            compute_scale=self.compute_scale or None,
            metric_stride=self.metric_stride,
        )

    def for_replica(self, replica: int) -> "ExperimentConfig":
        return replace(self, seed=self.seed + replica, replicas=1)

    def canonical(self) -> str:
        """Fixed-order serialization with every default materialized;
        the digest of this text identifies the experiment."""
        edges = ",".join(f"{a}-{b}" for a, b in self.edges)
        scale = ",".join(repr(float(s)) for s in self.compute_scale)
        eta = "" if self.eta is None else repr(float(self.eta))
        lines = [
            "[run]",
            f"mode = {self.mode}",
            f"seed = {self.seed}",
            f"samples_per_node = {self.samples_per_node}",
            f"replicas = {self.replicas}",
            f"metric_stride = {self.metric_stride}",
            "",
            "[objective]",
            f"kind = {self.objective_kind}",
            f"dim = {self.dim}",
            f"condition = {repr(float(self.condition))}",
            f"curvature_seed = {self.curvature_seed}",
            f"sigma = {repr(float(self.noise_sigma))}",
            f"rows = {self.rows}",
            f"separation = {repr(float(self.separation))}",
            f"ridge = {repr(float(self.ridge))}",
            f"data = {self.data_path}",
            "",
            "[topology]",
            f"kind = {self.topology_kind}",
            f"n = {self.n}",
            f"edges = {edges}",
            "",
            "[timing]",
            f"compute = {self.compute}",
            f"latency = {self.latency}",
            f"compute_scale = {scale}",
            "",
            "[sgd]",
            f"eta = {eta}",
            "",
        ]
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def run_id(self) -> str:
        return self.digest()[:12]

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise _syntax_error(exc, text) from None
        known = {"run", "objective", "topology", "timing", "sgd"}
        for section in parser.sections():
            if section not in known:
                raise ConfigError(section, "-", "unknown section")
        get = _Getter(parser)
        cfg = cls(
            mode=get.choice("run", "mode", MODES, "dasgd"),
            seed=get.integer("run", "seed", 0, low=0, high=2**64 - 1),
            samples_per_node=get.integer("run", "samples_per_node", 200, low=1),
            replicas=get.integer("run", "replicas", 1, low=1),
            metric_stride=get.integer("run", "metric_stride", 1, low=1),
            objective_kind=get.choice("objective", "kind", OBJECTIVES,
                                      "quadratic"),
            dim=get.integer("objective", "dim", 10, low=1),
            condition=get.number("objective", "condition", 10.0, low=1.0),
            curvature_seed=get.integer("objective", "curvature_seed", 0, low=0),
            noise_sigma=get.number("objective", "sigma", 0.0, low=0.0),
            rows=get.integer("objective", "rows", 80, low=1),
            separation=get.number("objective", "separation", 2.0, low=0.0),
            ridge=get.number("objective", "ridge", 1e-3, low=0.0),
            data_path=get.text("objective", "data", ""),
            topology_kind=get.choice("topology", "kind", TOPOLOGY_KINDS,
                                     "fully_connected"),
            n=get.integer("topology", "n", 4, low=1),
            edges=get.edges("topology", "edges"),
            compute=get.text("timing", "compute", "constant:1.0"),
            latency=get.text("timing", "latency", "constant:0.01"),
            compute_scale=get.floats("timing", "compute_scale"),
            eta=get.optional_number("sgd", "eta", low_exclusive=0.0),
        )
        get.reject_unknown()
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def validate(self) -> None:
        if self.replicas < 1:
            raise ConfigError("run", "replicas",
                              f"must be >= 1, got {self.replicas}")
        if self.seed < 0:
            raise ConfigError("run", "seed", f"must be >= 0, got {self.seed}")
        if self.seed + self.replicas - 1 >= 2**64:
            raise ConfigError("run", "seed",
                              f"seed {self.seed} with {self.replicas} replicas "
                              f"runs past the largest seed 2**64 - 1")
        if self.objective_kind == "logistic" and self.noise_sigma != 0.0:
            raise ConfigError("objective", "sigma",
                              "only the quadratic objective takes injected "
                              "noise; logistic noise comes from row sampling")
        if self.topology_kind != "custom" and self.edges:
            raise ConfigError("topology", "edges",
                              "edges are only for kind = custom")
        if self.topology_kind == "custom" and self.n > 1 and not self.edges:
            raise ConfigError("topology", "edges",
                              "custom topology needs an edge list")
        if self.compute_scale and len(self.compute_scale) != self.n:
            raise ConfigError("timing", "compute_scale",
                              f"expected {self.n} entries, "
                              f"got {len(self.compute_scale)}")
        _parse_distribution("timing", "compute", self.compute)
        _parse_distribution("timing", "latency", self.latency)
        try:
            validate_topology(self.build_topology())
        except TopologyError as exc:
            raise ConfigError("topology", "edges", str(exc)) from None


def _syntax_error(exc: configparser.Error, text: str) -> ConfigError:
    """A configparser error as one line: the first offending line's
    number and text, and what is wrong with it."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        lineno, reason = exc.lineno, "comes before any [section] header"
    elif isinstance(exc, configparser.ParsingError):
        lineno = exc.errors[0][0]
        reason = "is neither a [section] header nor 'key = value'"
    elif isinstance(exc, configparser.DuplicateSectionError):
        lineno, reason = exc.lineno, f"repeats section [{exc.section}]"
    elif isinstance(exc, configparser.DuplicateOptionError):
        lineno = exc.lineno
        reason = f"repeats option {exc.option!r} of [{exc.section}]"
    else:
        return ConfigError("file", "syntax", " ".join(str(exc).split()))
    line = text.split("\n")[lineno - 1].strip()
    return ConfigError("file", "syntax", f"line {lineno}: {line!r} {reason}")


def _make_quadratic(dim, condition, curvature_seed, sigma):
    """Rotated diagonal spectrum from 1 up to `condition`, so the
    curvature ceiling is the condition number itself."""
    rng = np.random.default_rng(curvature_seed)
    if dim == 1:
        matrix = np.array([[condition]])
    else:
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        spectrum = np.logspace(0.0, np.log10(condition), dim) \
            if condition > 1 else np.ones(dim)
        matrix = (basis * spectrum) @ basis.T
        matrix = (matrix + matrix.T) / 2.0
    return QuadraticObjective(matrix, noise_sigma=sigma)


def _parse_distribution(section, option, text) -> TimeDistribution:
    parts = text.split(":")
    try:
        if parts[0] == "constant" and len(parts) == 2:
            return TimeDistribution.constant(float(parts[1]))
        if parts[0] == "uniform" and len(parts) == 3:
            return TimeDistribution.uniform(float(parts[1]), float(parts[2]))
        if parts[0] == "exponential" and len(parts) == 2:
            return TimeDistribution.exponential(float(parts[1]))
    except ValueError as exc:
        raise ConfigError(section, option, f"{text!r}: {exc}") from None
    raise ConfigError(
        section, option,
        f"{text!r} is not constant:V, uniform:LO:HI, or exponential:MEAN",
    )


class _Getter:
    """Typed option access that tracks consumption so unknown keys can
    be rejected with their location."""

    def __init__(self, parser):
        self.parser = parser
        self.seen = set()

    def _raw(self, section, option):
        self.seen.add((section, option))
        if self.parser.has_option(section, option):
            return self.parser.get(section, option).strip()
        return None

    def text(self, section, option, default):
        raw = self._raw(section, option)
        return default if raw is None else raw

    def choice(self, section, option, allowed, default):
        value = self.text(section, option, default)
        if value not in allowed:
            raise ConfigError(section, option,
                              f"{value!r} not one of {'|'.join(allowed)}")
        return value

    def integer(self, section, option, default, low=None, high=None):
        raw = self._raw(section, option)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(section, option,
                              f"{raw!r} is not an integer") from None
        if low is not None and value < low:
            raise ConfigError(section, option, f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ConfigError(section, option, f"must be <= {high}, got {value}")
        return value

    def number(self, section, option, default, low=None):
        raw = self._raw(section, option)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(section, option,
                              f"{raw!r} is not a number") from None
        if not np.isfinite(value):
            raise ConfigError(section, option, "must be finite")
        if low is not None and value < low:
            raise ConfigError(section, option, f"must be >= {low}, got {value}")
        return value

    def optional_number(self, section, option, low_exclusive=None):
        raw = self._raw(section, option)
        if raw is None or raw == "":
            return None
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(section, option,
                              f"{raw!r} is not a number") from None
        if not np.isfinite(value):
            raise ConfigError(section, option, "must be finite")
        if low_exclusive is not None and value <= low_exclusive:
            raise ConfigError(section, option,
                              f"must be > {low_exclusive}, got {value}")
        return value

    def floats(self, section, option) -> tuple:
        raw = self._raw(section, option)
        if not raw:
            return ()
        try:
            return tuple(float(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(section, option,
                              f"{raw!r} is not a comma-separated "
                              "list of numbers") from None

    def edges(self, section, option) -> tuple:
        raw = self._raw(section, option)
        if not raw:
            return ()
        out = []
        for part in raw.split(","):
            ends = part.strip().split("-")
            if len(ends) != 2:
                raise ConfigError(section, option,
                                  f"{part.strip()!r} is not A-B")
            try:
                out.append((int(ends[0]), int(ends[1])))
            except ValueError:
                raise ConfigError(section, option,
                                  f"{part.strip()!r} is not A-B") from None
        return tuple(out)

    def reject_unknown(self):
        for section in self.parser.sections():
            for option in self.parser.options(section):
                if (section, option) not in self.seen:
                    raise ConfigError(section, option, "unknown option")
