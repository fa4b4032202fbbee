"""Configuration parsing, canonical serialization, and run digests."""

import dataclasses

import numpy as np
import pytest

from dasgd_sim.config import (
    ConfigError,
    ExperimentConfig,
    _make_quadratic,
    _parse_distribution,
)
from dasgd_sim.objective import LogisticObjective, QuadraticObjective

FULL_TEXT = """\
[run]
mode = dasgd
seed = 11
samples_per_node = 40
replicas = 3
metric_stride = 2

[objective]
kind = quadratic
dim = 6
condition = 25.0
curvature_seed = 4
sigma = 0.5

[topology]
kind = ring
n = 5

[timing]
compute = uniform:0.5:1.5
latency = exponential:0.2

[sgd]
eta = 0.01
"""


def test_defaults_parse_from_empty_text():
    cfg = ExperimentConfig.parse("")
    assert cfg == ExperimentConfig()
    assert cfg.mode == "dasgd"
    assert cfg.eta is None


def test_full_file_round_trip_identity():
    cfg = ExperimentConfig.parse(FULL_TEXT)
    assert cfg.seed == 11
    assert cfg.replicas == 3
    assert cfg.topology_kind == "ring"
    assert cfg.noise_sigma == 0.5
    assert cfg.eta == 0.01
    # canonical() materializes every default; reparsing it is a fixed point
    assert ExperimentConfig.parse(cfg.canonical()) == cfg
    assert ExperimentConfig.parse(cfg.canonical()).canonical() == cfg.canonical()


def test_digest_stable_and_sensitive():
    cfg = ExperimentConfig.parse(FULL_TEXT)
    assert cfg.digest() == ExperimentConfig.parse(FULL_TEXT).digest()
    assert len(cfg.run_id()) == 12
    # every field participates in the digest
    for field, bumped in [
        ("seed", 12),
        ("samples_per_node", 41),
        ("condition", 26.0),
        ("noise_sigma", 0.25),
        ("latency", "exponential:0.3"),
        ("eta", 0.02),
        ("eta", None),
    ]:
        other = dataclasses.replace(cfg, **{field: bumped})
        assert other.digest() != cfg.digest(), field


def test_comments_and_whitespace_do_not_change_meaning():
    noisy = "# demo\n" + FULL_TEXT.replace("seed = 11", "seed =   11  ")
    assert ExperimentConfig.parse(noisy) == ExperimentConfig.parse(FULL_TEXT)


def test_unknown_section_and_option_rejected():
    with pytest.raises(ConfigError, match=r"\[extras\]"):
        ExperimentConfig.parse("[extras]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"\[run\] typo: unknown option"):
        ExperimentConfig.parse("[run]\ntypo = 1\n")


def test_value_errors_carry_location():
    with pytest.raises(ConfigError, match=r"\[run\] seed"):
        ExperimentConfig.parse("[run]\nseed = ten\n")
    with pytest.raises(ConfigError, match=r"\[run\] samples_per_node"):
        ExperimentConfig.parse("[run]\nsamples_per_node = 0\n")
    with pytest.raises(ConfigError, match=r"\[objective\] condition"):
        ExperimentConfig.parse("[objective]\ncondition = 0.5\n")
    with pytest.raises(ConfigError, match=r"\[sgd\] eta"):
        ExperimentConfig.parse("[sgd]\neta = -1\n")
    with pytest.raises(ConfigError, match="not one of"):
        ExperimentConfig.parse("[run]\nmode = turbo\n")


def test_seed_range_checked_with_replicas():
    top = 2**64 - 1
    assert ExperimentConfig.parse(f"[run]\nseed = {top}\n").seed == top
    with pytest.raises(ConfigError, match=r"\[run\] seed"):
        ExperimentConfig.parse(f"[run]\nseed = {top}\nreplicas = 2\n")
    cfg = ExperimentConfig.parse("[run]\nseed = 1\n")
    for seed, replicas in ((-1, 1), (top - 1, 3)):
        with pytest.raises(ConfigError, match=r"\[run\] seed"):
            dataclasses.replace(cfg, seed=seed, replicas=replicas).validate()
    dataclasses.replace(cfg, seed=top - 1, replicas=2).validate()
    with pytest.raises(ConfigError, match=r"\[run\] replicas"):
        dataclasses.replace(cfg, replicas=0).validate()


def test_logistic_rejects_injected_noise():
    with pytest.raises(ConfigError, match=r"\[objective\] sigma"):
        ExperimentConfig.parse(
            "[objective]\nkind = logistic\nsigma = 0.1\n"
        )


def test_edge_list_rules():
    with pytest.raises(ConfigError, match="only for kind = custom"):
        ExperimentConfig.parse("[topology]\nkind = ring\nedges = 0-1\n")
    with pytest.raises(ConfigError, match="needs an edge list"):
        ExperimentConfig.parse("[topology]\nkind = custom\nn = 3\n")
    with pytest.raises(ConfigError, match="not A-B"):
        ExperimentConfig.parse(
            "[topology]\nkind = custom\nn = 3\nedges = 0:1\n"
        )
    # disconnected graph is caught at validation, reported on the edges key
    with pytest.raises(ConfigError, match=r"\[topology\] edges"):
        ExperimentConfig.parse(
            "[topology]\nkind = custom\nn = 4\nedges = 0-1,2-3\n"
        )
    cfg = ExperimentConfig.parse(
        "[topology]\nkind = custom\nn = 4\nedges = 0-1,1-2,2-3\n"
    )
    assert cfg.edges == ((0, 1), (1, 2), (2, 3))
    assert cfg.build_topology().kind == "custom"


def test_distribution_strings():
    dist = _parse_distribution("timing", "compute", "constant:2.0")
    assert dist.mean == 2.0
    assert _parse_distribution("timing", "compute", "uniform:1:3").mean == 2.0
    assert _parse_distribution("timing", "compute",
                               "exponential:0.5").mean == 0.5
    for bad in ("normal:1:2", "constant", "uniform:3:1", "exponential:-1",
                "constant:zero"):
        with pytest.raises(ConfigError):
            _parse_distribution("timing", "compute", bad)


def test_compute_scale_length_checked():
    with pytest.raises(ConfigError, match="expected 4 entries"):
        ExperimentConfig.parse(
            "[timing]\ncompute_scale = 1.0,2.0\n"
        )
    cfg = ExperimentConfig.parse(
        "[timing]\ncompute_scale = 1.0,1.0,1.0,3.0\n"
    )
    assert cfg.compute_scale == (1.0, 1.0, 1.0, 3.0)


def test_for_replica_offsets_seed():
    cfg = ExperimentConfig.parse(FULL_TEXT)
    rep = cfg.for_replica(2)
    assert rep.seed == 13
    assert rep.replicas == 1
    assert dataclasses.replace(rep, seed=11, replicas=3) == cfg


def test_quadratic_spectrum_matches_condition():
    obj = _make_quadratic(8, 50.0, curvature_seed=3, sigma=0.0)
    assert isinstance(obj, QuadraticObjective)
    eigs = np.linalg.eigvalsh(obj.matrix)
    assert eigs[0] == pytest.approx(1.0, rel=1e-9)
    assert eigs[-1] == pytest.approx(50.0, rel=1e-9)
    assert _make_quadratic(1, 7.0, 0, 0.0).matrix[0, 0] == 7.0


def test_build_objective_logistic_synthetic():
    cfg = ExperimentConfig.parse(
        "[objective]\nkind = logistic\ndim = 3\nrows = 40\n"
    )
    obj = cfg.build_objective()
    assert isinstance(obj, LogisticObjective)
    assert obj.dim == 3


def test_sim_config_carries_fields_through():
    cfg = ExperimentConfig.parse(FULL_TEXT)
    sim = cfg.for_replica(1).sim_config(eta=0.005)
    assert sim.eta == 0.005
    assert sim.seed == 12
    assert sim.samples_per_node == 40
    assert sim.metric_stride == 2
    assert sim.topology.kind == "ring"
    assert sim.compute_time.mean == 1.0
