"""Objective functions, their gradients, and the smoothness constants the
stepsize rules need.

Two families are provided: a quadratic with controllable Gaussian gradient
noise (noise variance is then exact, which the bound checks rely on), and
a ridge-regularized logistic regression whose stochastic gradient draws
one data row per call.  Every node in a simulation shares one objective
instance and one sample distribution, so homogeneity across nodes holds by
construction.

All randomness flows through explicit integer seeds; instances are
immutable after construction and safe to share.
"""

from __future__ import annotations

import csv

import numpy as np

# The theory bounds assume a smoothness constant of at least one, so
# estimated constants are floored rather than rejecting flat objectives.
L_FLOOR = 1.0


class QuadraticObjective:
    """f(x) = 1/2 (x-b)^T A (x-b) with A symmetric positive semidefinite.

    The stochastic gradient adds isotropic Gaussian noise with
    E||noise||^2 = noise_sigma^2, making the variance bound exact.
    """

    kind = "quadratic"

    def __init__(self, matrix, offset=None, noise_sigma: float = 0.0):
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(matrix - matrix.T)) > 1e-12:
            raise ValueError("matrix must be symmetric (within 1e-12)")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        self.matrix = matrix
        self.matrix.setflags(write=False)
        d = matrix.shape[0]
        self.offset = np.zeros(d) if offset is None else np.array(offset, dtype=float)
        if self.offset.shape != (d,):
            raise ValueError("offset dimension mismatch")
        self.offset.setflags(write=False)
        self.noise_sigma = float(noise_sigma)
        self._top_eigenvalue = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected dimension {self.dim}, got {x.shape}")
        return x

    def loss(self, x) -> float:
        r = self._check(x) - self.offset
        with np.errstate(over="ignore", invalid="ignore"):
            value = 0.5 * float(r @ (self.matrix @ r))
        if not np.isfinite(value):
            raise FloatingPointError("non-finite loss")
        return value

    def full_gradient(self, x):
        return self.matrix @ (self._check(x) - self.offset)

    def losses_and_gradients(self, points):
        """`loss` and `full_gradient` at every row of `points`, bit for bit
        what the one-point methods give.  A non-finite loss is returned
        rather than raised, so the caller decides which one counts."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(
                f"expected rows of dimension {self.dim}, got {points.shape}")
        r = points - self.offset
        # Stacked products make one BLAS matrix-vector and one dot call
        # per row, the calls the one-point methods make; a single matrix
        # product would sum in another order.
        grads = (self.matrix @ r[:, :, None])[:, :, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            losses = 0.5 * (r[:, None, :] @ grads[:, :, None])[:, 0, 0]
        return losses, grads

    @property
    def draws_from_seed(self) -> bool:
        """Whether `stochastic_gradient` reads its seed: only with noise."""
        return self.noise_sigma > 0.0

    def stochastic_gradient(self, x, seed: int | None):
        g = self.full_gradient(x)
        if self.noise_sigma == 0.0:
            return g
        rng = np.random.default_rng(seed)
        scale = self.noise_sigma / np.sqrt(self.dim)
        return g + rng.normal(0.0, scale, size=self.dim)

    def top_curvature(self) -> float:
        """Largest eigenvalue of the quadratic's matrix (no floor)."""
        if self._top_eigenvalue is None:
            self._top_eigenvalue = power_iteration_top_eigenvalue(self.matrix)
        return self._top_eigenvalue

    def lipschitz_constant(self) -> float:
        return max(L_FLOOR, self.top_curvature())

    def gradient_norm_bound(self, radius: float) -> float:
        """Bound on ||grad f|| within `radius` of the minimizer."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        return self.top_curvature() * radius

    def minimizer(self):
        return self.offset.copy()

    def min_value(self) -> float:
        return 0.0

    def default_start(self):
        # Unit displacement from the minimizer, split evenly across
        # coordinates, so the initial suboptimality is nonzero.
        return self.offset + np.ones(self.dim) / np.sqrt(self.dim)


class LogisticObjective:
    """Mean cross-entropy over a fixed dataset plus an optional ridge
    term; labels are 0/1.  The stochastic gradient evaluates one uniformly
    drawn row."""

    kind = "logistic"
    draws_from_seed = True      # every stochastic gradient draws a row

    def __init__(self, features, labels, ridge: float = 0.0):
        features = np.array(features, dtype=float)
        labels = np.array(labels, dtype=float)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("need a nonempty feature matrix")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must match feature rows")
        if not set(np.unique(labels)) <= {0.0, 1.0}:
            raise ValueError("labels must be 0 or 1")
        if ridge < 0:
            raise ValueError("ridge must be nonnegative")
        self.features = features
        self.labels = labels
        self.features.setflags(write=False)
        self.labels.setflags(write=False)
        self.ridge = float(ridge)
        self._top_gram_eigenvalue = None
        self._minimizer = None

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected dimension {self.dim}, got {x.shape}")
        return x

    def loss(self, x) -> float:
        value = self._loss(self._check(x))
        if not np.isfinite(value):
            raise FloatingPointError("non-finite loss")
        return value

    def _loss(self, x) -> float:
        z = self.features @ x
        # log(1 + e^z) - y z, computed stably for large |z|.
        value = float(np.mean(np.logaddexp(0.0, z) - self.labels * z))
        return value + 0.5 * self.ridge * float(x @ x)

    def full_gradient(self, x):
        x = self._check(x)
        z = self.features @ x
        p = _sigmoid(z)
        return self.features.T @ (p - self.labels) / self.n_rows + self.ridge * x

    def losses_and_gradients(self, points):
        """`loss` and `full_gradient` at every row of `points`, one row at
        a time.  A non-finite loss is returned rather than raised, as in
        the quadratic's batched form."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(
                f"expected rows of dimension {self.dim}, got {points.shape}")
        losses = np.array([self._loss(x) for x in points])
        grads = np.array([self.full_gradient(x) for x in points])
        return losses, grads.reshape(points.shape)

    def stochastic_gradient(self, x, seed: int):
        x = self._check(x)
        rng = np.random.default_rng(seed)
        row = int(rng.integers(self.n_rows))
        z = float(self.features[row] @ x)
        residual = _sigmoid(np.array([z]))[0] - self.labels[row]
        return self.features[row] * residual + self.ridge * x

    def lipschitz_constant(self) -> float:
        if self._top_gram_eigenvalue is None:
            gram = self.features.T @ self.features
            self._top_gram_eigenvalue = power_iteration_top_eigenvalue(gram)
        return max(L_FLOOR, self._top_gram_eigenvalue / (4.0 * self.n_rows) + self.ridge)

    def gradient_norm_bound(self, radius: float) -> float:
        if radius <= 0:
            raise ValueError("radius must be positive")
        row_norms = np.sqrt(np.sum(self.features**2, axis=1))
        anchor = np.linalg.norm(self.minimizer())
        return float(np.max(row_norms)) + self.ridge * (anchor + radius)

    def minimizer(self):
        """Full-batch descent to ||grad|| <= 1e-10, computed once."""
        if self._minimizer is None:
            self._minimizer = self._solve()
        return self._minimizer.copy()

    def min_value(self) -> float:
        return self.loss(self.minimizer())

    def _solve(self, tol: float = 1e-10, max_steps: int = 2_000_000):
        x = np.zeros(self.dim)
        step = 1.0 / self.lipschitz_constant()
        for _ in range(max_steps):
            g = self.full_gradient(x)
            if np.linalg.norm(g) <= tol:
                return x
            x = x - step * g
        raise RuntimeError(
            "full-batch solve did not reach the gradient tolerance; "
            "the minimum may be unbounded (try a positive ridge)"
        )

    def default_start(self):
        return np.zeros(self.dim)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def power_iteration_top_eigenvalue(
    matrix, tol: float = 1e-9, max_steps: int = 10_000, seed: int = 0
) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration
    with a Rayleigh-quotient stopping rule."""
    matrix = np.array(matrix, dtype=float)
    d = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    previous = 0.0
    for _ in range(max_steps):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        value = float(v @ (matrix @ v))
        if abs(value - previous) <= tol * max(1.0, abs(value)):
            return value
        previous = value
    raise RuntimeError(f"power iteration did not converge in {max_steps} steps")


def synthetic_logistic_data(n_rows: int = 80, dim: int = 2, seed: int = 0,
                            separation: float = 2.0):
    """Two overlapping Gaussian blobs with 0/1 labels, seeded."""
    if n_rows < 2:
        raise ValueError("need at least two rows")
    rng = np.random.default_rng(seed)
    labels = np.zeros(n_rows)
    labels[n_rows // 2:] = 1.0
    center = np.zeros(dim)
    center[0] = separation / 2.0
    features = rng.standard_normal((n_rows, dim))
    features[labels == 0] -= center
    features[labels == 1] += center
    return features, labels


def load_logistic_csv(path):
    """Read `f0..f{d-1},label` rows of finite numbers; label must be 0
    or 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: expected header ending in 'label'")
        expected = [f"f{i}" for i in range(len(header) - 1)] + ["label"]
        if header != expected:
            raise ValueError(f"{path}: expected columns {','.join(expected)}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: wrong field count")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric field") from None
            if not np.isfinite(rows[-1]).all():
                raise ValueError(f"{path}:{line_no}: non-finite field")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows)
    features, labels = data[:, :-1], data[:, -1]
    if not set(np.unique(labels)) <= {0.0, 1.0}:
        raise ValueError(f"{path}: labels must be 0 or 1")
    return features, labels
