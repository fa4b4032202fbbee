"""Objective-function tests: losses, gradients against the
finite-difference oracle, constants against dense eigensolves, and the
noise model's variance contract."""

import math

import numpy as np
import pytest

from dasgd_sim.objective import (
    LogisticObjective,
    QuadraticObjective,
    load_logistic_csv,
    power_iteration_top_eigenvalue,
    synthetic_logistic_data,
)

from oracles import (
    central_difference_gradient,
    estimate_noise_second_moment,
    relative_error,
)


def random_quadratic(rng, dim=6, noise_sigma=0.0):
    root = rng.standard_normal((dim, dim))
    matrix = root.T @ root / dim
    offset = rng.standard_normal(dim)
    return QuadraticObjective(matrix, offset, noise_sigma=noise_sigma)


def random_logistic(rng, rows=40, dim=5, ridge=0.1):
    features, labels = synthetic_logistic_data(rows, dim, seed=int(rng.integers(1 << 31)))
    return LogisticObjective(features, labels, ridge=ridge)


def test_quadratic_loss_identity_matrix():
    obj = QuadraticObjective(np.eye(2))
    assert obj.loss(np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert obj.loss(np.zeros(2)) == 0.0


def test_quadratic_loss_zero_at_offset():
    rng = np.random.default_rng(0)
    obj = random_quadratic(rng)
    assert obj.loss(obj.offset) == 0.0
    assert obj.min_value() == 0.0


def test_logistic_loss_at_origin_is_ln2():
    features, labels = synthetic_logistic_data(8, 2, seed=0)
    obj = LogisticObjective(features, labels)
    assert obj.loss(np.zeros(2)) == pytest.approx(math.log(2.0))


def test_quadratic_gradient_deterministic_case():
    obj = QuadraticObjective(np.eye(2))
    g = obj.stochastic_gradient(np.array([2.0, 0.0]), seed=123)
    assert np.array_equal(g, np.array([2.0, 0.0]))


def test_dimension_mismatch_rejected():
    obj = QuadraticObjective(np.eye(3))
    with pytest.raises(ValueError, match="dimension"):
        obj.loss(np.zeros(2))
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticObjective(np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize("dim", [1, 2, 6, 20])
def test_losses_and_gradients_match_one_point_methods(dim):
    # Bit for bit: `verify`'s descent check evaluates every event with
    # the batched form, and its pinned FAIL lines print losses to nine
    # digits.
    rng = np.random.default_rng(dim)
    obj = random_quadratic(rng, dim=dim)
    points = rng.standard_normal((50, dim))
    losses, grads = obj.losses_and_gradients(points)
    assert np.array_equal(losses, [obj.loss(x) for x in points])
    assert np.array_equal(grads, [obj.full_gradient(x) for x in points])
    with pytest.raises(ValueError, match="dimension"):
        obj.losses_and_gradients(points[:, :-1] if dim > 1 else points[0])
    # The logistic form loops over the one-point methods; the run's trace
    # rows use it too.  Its last row overflows the ridge term, where
    # `loss` raises and the batched form returns the non-finite value.
    logi = random_logistic(rng, dim=dim)
    points[-1] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        losses, grads = logi.losses_and_gradients(points)
        assert np.array_equal(losses[:-1], [logi.loss(x) for x in points[:-1]])
        assert not np.isfinite(losses[-1])
        with pytest.raises(FloatingPointError):
            logi.loss(points[-1])
        assert np.array_equal(grads, [logi.full_gradient(x) for x in points])
    with pytest.raises(ValueError, match="dimension"):
        logi.losses_and_gradients(points[:, :-1] if dim > 1 else points[0])


@pytest.mark.parametrize("seed", range(5))
def test_full_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    quad = random_quadratic(rng)
    logi = random_logistic(rng)
    for obj in (quad, logi):
        for _ in range(20):
            x = rng.standard_normal(obj.dim)
            fd = central_difference_gradient(obj.loss, x)
            assert relative_error(obj.full_gradient(x), fd) <= 1e-5


def test_logistic_single_row_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    features, labels = synthetic_logistic_data(12, 4, seed=9)
    full = LogisticObjective(features, labels, ridge=0.05)
    for seed in range(12):
        x = rng.standard_normal(4)
        g = full.stochastic_gradient(x, seed=seed)
        # Recover which row the seed drew, then difference that row's loss.
        row = int(np.random.default_rng(seed).integers(full.n_rows))
        single = LogisticObjective(features[row:row + 1], labels[row:row + 1],
                                   ridge=0.05)
        fd = central_difference_gradient(single.loss, x)
        assert relative_error(g, fd) <= 1e-5


def test_power_iteration_against_dense_eigensolve():
    rng = np.random.default_rng(11)
    for _ in range(10):
        root = rng.standard_normal((7, 7))
        matrix = root.T @ root
        want = float(np.linalg.eigvalsh(matrix)[-1])
        got = power_iteration_top_eigenvalue(matrix)
        assert got == pytest.approx(want, rel=1e-6)
    assert power_iteration_top_eigenvalue(np.zeros((3, 3))) == 0.0


def test_lipschitz_constant_quadratic():
    assert QuadraticObjective(np.diag([1.0, 3.0])).lipschitz_constant() == pytest.approx(3.0)
    # Flat objectives are floored at one rather than rejected.
    assert QuadraticObjective(0.25 * np.eye(2)).lipschitz_constant() == 1.0


def test_lipschitz_constant_logistic_floor():
    obj = LogisticObjective(np.eye(2), np.array([0.0, 1.0]))
    # Raw curvature bound is 1/8 here; the floor applies.
    assert obj.lipschitz_constant() == 1.0


def test_smoothness_witness():
    rng = np.random.default_rng(21)
    quad = random_quadratic(rng)
    logi = random_logistic(rng)
    for obj in (quad, logi):
        L = obj.lipschitz_constant()
        for _ in range(1000):
            x = rng.standard_normal(obj.dim)
            y = rng.standard_normal(obj.dim)
            lhs = np.linalg.norm(obj.full_gradient(x) - obj.full_gradient(y))
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-12)


def test_gradient_norm_bound_quadratic():
    assert QuadraticObjective(np.eye(2)).gradient_norm_bound(2.0) == pytest.approx(2.0)
    assert QuadraticObjective(np.diag([1.0, 3.0])).gradient_norm_bound(1.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        QuadraticObjective(np.eye(2)).gradient_norm_bound(0.0)


def test_gradient_norm_bound_covers_trajectory():
    rng = np.random.default_rng(5)
    obj = random_quadratic(rng, dim=4)
    x = obj.default_start()
    radius = float(np.linalg.norm(x - obj.minimizer())) * 1.01
    bound = obj.gradient_norm_bound(radius)
    for _ in range(200):
        g = obj.full_gradient(x)
        assert np.linalg.norm(g) <= bound * (1 + 1e-12)
        x = x - 0.1 * g  # descent keeps the iterate inside the radius


def test_noise_second_moment_matches_sigma():
    obj = QuadraticObjective(np.eye(2), noise_sigma=1.0)
    x = np.array([0.3, -0.7])
    got = estimate_noise_second_moment(obj, x, n_seeds=100_000)
    assert got == pytest.approx(1.0, rel=0.05)


def test_noise_bounded_by_sigma_at_random_points():
    rng = np.random.default_rng(8)
    obj = random_quadratic(rng, dim=3, noise_sigma=0.5)
    for _ in range(20):
        x = rng.standard_normal(3)
        got = estimate_noise_second_moment(obj, x, n_seeds=4000,
                                           seed0=int(rng.integers(1 << 31)))
        assert got <= 0.25 * 1.05


def test_stochastic_gradient_unbiased():
    rng = np.random.default_rng(13)
    quad = random_quadratic(rng, dim=3, noise_sigma=0.8)
    logi = random_logistic(rng, rows=16, dim=3)
    for obj in (quad, logi):
        x = rng.standard_normal(obj.dim)
        acc = np.zeros(obj.dim)
        n = 100_000
        for s in range(n):
            acc += obj.stochastic_gradient(x, seed=s)
        assert relative_error(acc / n, obj.full_gradient(x)) <= 1e-2


def test_objectives_state_whether_they_draw_from_the_seed():
    rng = np.random.default_rng(21)
    quiet = random_quadratic(rng, dim=3)
    noisy = random_quadratic(rng, dim=3, noise_sigma=0.1)
    logi = random_logistic(rng, rows=16, dim=3)
    assert not quiet.draws_from_seed
    assert noisy.draws_from_seed and logi.draws_from_seed
    x = rng.standard_normal(3)
    # Without noise the seed is ignored, so none is needed.
    for seed in (None, 0, 12345):
        assert np.array_equal(quiet.stochastic_gradient(x, seed),
                              quiet.full_gradient(x))
    for obj in (noisy, logi):
        assert not np.array_equal(obj.stochastic_gradient(x, 1),
                                  obj.stochastic_gradient(x, 2))


def test_synthetic_data_shape_and_determinism():
    f1, l1 = synthetic_logistic_data(30, 4, seed=5)
    f2, l2 = synthetic_logistic_data(30, 4, seed=5)
    assert f1.shape == (30, 4) and l1.shape == (30,)
    assert np.array_equal(f1, f2) and np.array_equal(l1, l2)
    assert set(np.unique(l1)) == {0.0, 1.0}


def test_logistic_minimizer_stationary():
    features, labels = synthetic_logistic_data(40, 3, seed=2)
    obj = LogisticObjective(features, labels, ridge=0.1)
    x_star = obj.minimizer()
    assert np.linalg.norm(obj.full_gradient(x_star)) <= 1e-10
    assert obj.min_value() <= obj.loss(np.zeros(3))


def test_csv_round_trip(tmp_path):
    features, labels = synthetic_logistic_data(10, 3, seed=4)
    path = tmp_path / "data.csv"
    header = ",".join([f"f{i}" for i in range(3)] + ["label"])
    rows = [",".join(repr(float(v)) for v in row) + f",{int(y)}"
            for row, y in zip(features, labels)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    got_f, got_l = load_logistic_csv(path)
    assert np.allclose(got_f, features, atol=0, rtol=0)
    assert np.array_equal(got_l, labels)


def test_csv_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("x,y\n1,0\n")
    with pytest.raises(ValueError, match="header"):
        load_logistic_csv(bad_header)
    bad_label = tmp_path / "b.csv"
    bad_label.write_text("f0,label\n1.0,2\n")
    with pytest.raises(ValueError, match="labels"):
        load_logistic_csv(bad_label)
