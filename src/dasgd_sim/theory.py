"""Closed-form stepsize rules, convergence-rate ceilings, and topology
staleness predictions.

Two regimes are covered.  When individual gradient norms admit a known
ceiling, the rate depends on the average staleness alone and the stepsize
rule is 1/(4 L S_avg).  Without a norm ceiling the recursive (loose)
staleness takes over and both the stepsize and the rate pick up the
geometric mean of its average and maximum.  All formulas are the
pre-asymptotic closed forms with explicit constants, so measured traces
can be compared against concrete numbers rather than big-O shapes.

Everything here is a pure function of numbers and gradient vectors;
nothing touches the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def stepsize_bound_tight(lipschitz: float, avg_staleness: float) -> float:
    """Largest stepsize with guarantees in the bounded-gradient regime:
    1/(4 L max(S_avg, 1)).

    The measured average is floored at one whole gradient.  The rate
    analysis rests on a per-step decrease inequality that needs
    eta <= 1/(2 L) regardless of staleness, and a schedule whose average
    staleness sits below one gradient (near-sequential timing) gives the
    formula no license to exceed that; the floor also makes the
    zero-staleness sequential case come out as 1/(4 L)."""
    _require(math.isfinite(lipschitz) and lipschitz >= 1.0,
             f"lipschitz must be >= 1, got {lipschitz}")
    _require(math.isfinite(avg_staleness) and avg_staleness >= 0.0,
             f"avg_staleness must be >= 0, got {avg_staleness}")
    return 1.0 / (4.0 * lipschitz * max(avg_staleness, 1.0))


def stepsize_bound_loose(lipschitz: float, loose_avg: float,
                         loose_max: float) -> float:
    """Stepsize rule for the unbounded-gradient regime:
    1/(4 L max(sqrt(loose_avg * loose_max), 1)), floored for the same
    reason as the tight rule."""
    _require(math.isfinite(lipschitz) and lipschitz >= 1.0,
             f"lipschitz must be >= 1, got {lipschitz}")
    _require(math.isfinite(loose_avg) and loose_avg >= 0.0,
             f"loose_avg must be >= 0, got {loose_avg}")
    _require(math.isfinite(loose_max) and loose_max >= loose_avg,
             f"loose_max must be >= loose_avg, got "
             f"loose_max={loose_max} < loose_avg={loose_avg}")
    return 1.0 / (4.0 * lipschitz
                  * max(math.sqrt(loose_avg * loose_max), 1.0))


@dataclass(frozen=True)
class BoundInputs:
    """Measured quantities a rate ceiling is evaluated from.

    init_gap is f(x0) minus the analytic or high-precision minimum value,
    always computed from the objective rather than guessed.  grad_bound
    is the per-gradient norm ceiling; zero means no ceiling is claimed
    and only the loose-staleness rate applies meaningfully.
    """

    lipschitz: float
    init_gap: float
    eta: float
    noise_sigma: float = 0.0
    grad_bound: float = 0.0
    tight_avg: float = 0.0
    tight_max: float = 0.0
    loose_avg: float = 0.0
    loose_max: float = 0.0

    def __post_init__(self):
        values = (self.lipschitz, self.init_gap, self.eta, self.noise_sigma,
                  self.grad_bound, self.tight_avg, self.tight_max,
                  self.loose_avg, self.loose_max)
        _require(all(math.isfinite(v) for v in values),
                 "all bound inputs must be finite")
        _require(self.lipschitz >= 1.0,
                 f"lipschitz must be >= 1, got {self.lipschitz}")
        _require(self.init_gap >= 0.0,
                 f"init_gap must be >= 0, got {self.init_gap}")
        _require(self.eta > 0.0, f"eta must be > 0, got {self.eta}")
        _require(self.noise_sigma >= 0.0, "noise_sigma must be >= 0")
        _require(self.grad_bound >= 0.0, "grad_bound must be >= 0")
        _require(self.tight_avg >= 0.0, "tight_avg must be >= 0")
        _require(self.tight_max >= self.tight_avg,
                 f"tight_max must be >= tight_avg, got "
                 f"tight_max={self.tight_max} < tight_avg={self.tight_avg}")
        _require(self.loose_avg >= 0.0, "loose_avg must be >= 0")
        _require(self.loose_max >= self.loose_avg,
                 f"loose_max must be >= loose_avg, got "
                 f"loose_max={self.loose_max} < loose_avg={self.loose_avg}")


def running_psi(grad_norm_sq: Iterable[float]) -> list:
    """psi at every logged step: the running average of the squared
    gradient norms up to and including it, the quantity the rate
    ceilings bound."""
    out = []
    acc = 0.0
    for k, value in enumerate(grad_norm_sq, start=1):
        acc += value
        out.append(acc / k)
    return out


# Slack for stepsizes set exactly at the rule via float arithmetic.
_ETA_SLACK = 1.0 + 1e-9


def rate_bound_bounded_gradients(inputs: BoundInputs, horizon: int) -> float:
    """Ceiling on the running average of squared gradient norms through
    step `horizon`, assuming per-gradient norms stay within grad_bound.

    2*(3 L sigma^2 r0 / (T+1))^(1/2)
      + 2*(L^2 S_avg^2 Q^2)^(1/3) * (r0/(T+1))^(2/3)
      + 4 L r0 S_avg / (T+1)
    """
    _require(horizon >= 0, f"horizon must be >= 0, got {horizon}")
    limit = stepsize_bound_tight(inputs.lipschitz, inputs.tight_avg)
    _require(inputs.eta <= limit * _ETA_SLACK,
             f"eta {inputs.eta:.6g} violates eta <= "
             f"1/(4*lipschitz*tight_avg) = {limit:.6g}")
    span = horizon + 1.0
    l, r0 = inputs.lipschitz, inputs.init_gap
    noise = 2.0 * math.sqrt(3.0 * l * inputs.noise_sigma**2 * r0 / span)
    mixed = 2.0 * (l**2 * inputs.tight_avg**2 * inputs.grad_bound**2) ** (1 / 3) \
        * (r0 / span) ** (2 / 3)
    drift = 4.0 * l * r0 * inputs.tight_avg / span
    return noise + mixed + drift


def gradient_bound(gradients) -> float:
    """Largest norm among `gradients`, or 0 for none.  A norm past float
    range is inf, without a warning; the caller decides what it means."""
    with np.errstate(over="ignore"):
        return max((float(np.linalg.norm(v)) for v in gradients),
                   default=0.0)


def run_ceiling_inputs(lipschitz: float, init_gap: float, eta: float,
                       grad_bound: float, tight_avg: float,
                       tight_max: float) -> tuple:
    """(inputs, rule) for holding a finished deterministic run against the
    bounded-gradient ceiling.

    `rule` is the tight stepsize rule at the measured average staleness;
    `inputs` is None when eta is above it and the ceiling claims nothing.
    `grad_bound` is the run's `gradient_bound`.  The ceiling is stated at
    the rule's equality, so a smaller eta is compared as if staleness sat
    at the level whose rule picks exactly this eta; measured drift is
    below that level, keeping the comparison an upper bound.  Zero
    measured staleness degenerates the ceiling: callers skip such runs
    before asking.
    """
    rule = stepsize_bound_tight(lipschitz, tight_avg)
    if eta > rule * _ETA_SLACK:
        return None, rule
    display_avg = max(tight_avg, 1.0 / (4.0 * lipschitz * eta))
    inputs = BoundInputs(lipschitz=lipschitz, init_gap=init_gap, eta=eta,
                         grad_bound=grad_bound, tight_avg=display_avg,
                         tight_max=max(float(tight_max), display_avg))
    return inputs, rule


def rate_bound_unbounded_gradients(inputs: BoundInputs, horizon: int) -> float:
    """Ceiling in the regime without a gradient-norm ceiling, driven by
    loose staleness:

    2*(14 L sigma^2 r0 / (3 (T+1)))^(1/2)
      + 4 L r0 sqrt(loose_avg * loose_max) / (T+1)
    """
    _require(horizon >= 0, f"horizon must be >= 0, got {horizon}")
    limit = stepsize_bound_loose(inputs.lipschitz, inputs.loose_avg,
                                 inputs.loose_max)
    _require(inputs.eta <= limit * _ETA_SLACK,
             f"eta {inputs.eta:.6g} violates eta <= "
             f"1/(4*lipschitz*sqrt(loose_avg*loose_max)) = {limit:.6g}")
    span = horizon + 1.0
    l, r0 = inputs.lipschitz, inputs.init_gap
    noise = 2.0 * math.sqrt(14.0 * l * inputs.noise_sigma**2 * r0 / (3.0 * span))
    drift = 4.0 * l * r0 * math.sqrt(inputs.loose_avg * inputs.loose_max) / span
    return noise + drift


def iterations_to_target(inputs: BoundInputs, target: float,
                         rule: str = "bounded") -> int:
    """Smallest step count whose rate ceiling drops to `target`, by
    doubling then bisection (both ceilings decrease monotonically)."""
    _require(target > 0.0, f"target must be > 0, got {target}")
    if rule == "bounded":
        bound = lambda t: rate_bound_bounded_gradients(inputs, t)
    elif rule == "unbounded":
        bound = lambda t: rate_bound_unbounded_gradients(inputs, t)
    else:
        raise ValueError(f"unknown rule {rule!r}, expected bounded|unbounded")
    if bound(0) <= target:
        return 0
    hi = 1
    while bound(hi) > target:
        hi *= 2
        if hi > 2**62:
            raise RuntimeError("target unreachable within 2^62 steps")
    lo = hi // 2          # bound(lo) > target, bound(hi) <= target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def predict_topology_staleness(kind: str, n: int) -> Optional[tuple]:
    """(average, max) staleness expected under equal compute times and
    negligible latency.  Custom graphs have no closed form: None."""
    _require(n >= 1, f"n must be >= 1, got {n}")
    if kind == "fully_connected":
        return ((n + 1) / 2.0, float(n))
    if kind == "ring":
        return ((n * n + 1) / 2.0, float(n * n))
    if kind == "custom":
        return None
    raise ValueError(f"unknown topology kind {kind!r}")
