"""Budget-allocation rules across start nodes.

CBAS divides its total budget ``T`` into ``r`` stages; at each stage the
per-start-node share is proportional to the probability that the start
node's best sample could still overtake the incumbent best start node
``v_b``:

* **Uniform model** (paper §3.2, Theorem 3): sample willingness from start
  node ``v_i`` is treated as uniform on ``[c_i, d_i]`` (its observed worst /
  best), giving ``P(J*_i ≥ J*_b) ≤ ½·((d_i − c_b)/(d_b − c_b))^{N_b}`` and
  the allocation ratio ``N_i/N_j = ((d_i − c_b)/(d_j − c_b))^{N_b}``.
  Start nodes with ``d_i ≤ c_b`` are pruned (the probability is zero).
* **Gaussian model** (paper Appendix A, used by CBAS-ND-G): willingness is
  fitted as ``N(μ_i, σ_i²)`` and the overtake probability
  ``P(J*_b ≤ J*_i) = 1 − ∫ N_b Φ_b^{N_b−1} φ_b Φ_i^{N_i} dx`` is evaluated
  numerically (no closed form exists — the paper makes the same point).

All computations run in log space so large exponents ``N_b`` do not
underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "StartNodeStats",
    "uniform_weights",
    "gaussian_weights",
    "gaussian_overtake_probability",
    "apportion",
]


@dataclass
class StartNodeStats:
    """Running sample statistics for one start node.

    ``c``/``d`` are the worst/best sampled willingness (the uniform model's
    support), ``n`` the budget consumed so far.  Mean and variance are
    maintained with Welford's algorithm for the Gaussian model.
    """

    node: object
    c: float = math.inf
    d: float = -math.inf
    n: int = 0
    pruned: bool = False
    _mean: float = 0.0
    _m2: float = 0.0

    def record(self, willingness: float) -> None:
        """Fold one sampled willingness into the statistics."""
        self.n += 1
        self.c = min(self.c, willingness)
        self.d = max(self.d, willingness)
        delta = willingness - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (willingness - self._mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.n - 1))

    @property
    def has_samples(self) -> bool:
        return self.n > 0


def _best_index(stats: list[StartNodeStats]) -> Optional[int]:
    """Index of the incumbent best start node ``v_b`` (highest ``d``)."""
    best: Optional[int] = None
    for index, stat in enumerate(stats):
        if stat.pruned or not stat.has_samples:
            continue
        if best is None or stat.d > stats[best].d:
            best = index
    return best


def uniform_weights(
    stats: list[StartNodeStats], exponent_cap: float = 500.0
) -> list[float]:
    """Relative budget weights under the uniform model (Theorem 3).

    Returns one non-negative weight per start node (zero = prune).  The
    incumbent best node gets weight 1; every other node gets
    ``½·((d_i − c_b)/(d_b − c_b))^{N_b}``, computed in log space and with
    the exponent capped at ``exponent_cap`` to avoid total collapse in
    pathological runs.
    """
    best = _best_index(stats)
    if best is None:
        return [0.0 if s.pruned else 1.0 for s in stats]
    c_b = stats[best].c
    d_b = stats[best].d
    spread = d_b - c_b
    n_b = min(float(max(1, stats[best].n)), exponent_cap)

    weights: list[float] = []
    for index, stat in enumerate(stats):
        if stat.pruned or not stat.has_samples:
            weights.append(0.0)
            continue
        if index == best:
            weights.append(1.0)
            continue
        if spread <= 0.0:
            # Degenerate incumbent (all samples equal): fall back to
            # comparing bests directly.
            weights.append(1.0 if stat.d >= d_b else 0.0)
            continue
        ratio = (stat.d - c_b) / spread
        if ratio <= 0.0:
            weights.append(0.0)  # Theorem 3: overtake probability is zero.
            continue
        ratio = min(ratio, 1.0)
        weights.append(0.5 * math.exp(n_b * math.log(ratio)))
    return weights


def gaussian_overtake_probability(
    mu_b: float,
    sigma_b: float,
    n_b: int,
    mu_i: float,
    sigma_i: float,
    n_i: int,
    grid_points: int = 400,
) -> float:
    """``P(J*_b ≤ J*_i)`` for Gaussian per-sample willingness.

    Evaluates ``1 − ∫ N_b Φ_b^{N_b−1} φ_b Φ_i^{N_i} dx`` on a trapezoid
    grid spanning ±8σ of the incumbent (Appendix A).  Degenerate standard
    deviations fall back to point-mass comparisons.
    """
    n_b = max(1, n_b)
    n_i = max(1, n_i)
    if sigma_b <= 0.0 and sigma_i <= 0.0:
        return 1.0 if mu_i >= mu_b else 0.0
    sigma_b = max(sigma_b, 1e-12)
    sigma_i = max(sigma_i, 1e-12)

    from scipy.stats import norm

    low = mu_b - 8.0 * sigma_b
    high = mu_b + 8.0 * sigma_b
    xs = np.linspace(low, high, grid_points)
    phi_b = norm.pdf(xs, loc=mu_b, scale=sigma_b)
    cdf_b = norm.cdf(xs, loc=mu_b, scale=sigma_b)
    cdf_i = norm.cdf(xs, loc=mu_i, scale=sigma_i)
    # Log-space power to survive large N.
    with np.errstate(divide="ignore"):
        log_term = (n_b - 1) * np.log(np.clip(cdf_b, 1e-300, 1.0)) + (
            n_i
        ) * np.log(np.clip(cdf_i, 1e-300, 1.0))
    integrand = n_b * phi_b * np.exp(log_term)
    prob_b_wins = float(np.trapezoid(integrand, xs))
    return float(min(1.0, max(0.0, 1.0 - prob_b_wins)))


def gaussian_weights(stats: list[StartNodeStats]) -> list[float]:
    """Relative budget weights under the Gaussian model (Appendix A)."""
    best = _best_index(stats)
    if best is None:
        return [0.0 if s.pruned else 1.0 for s in stats]
    incumbent = stats[best]
    weights: list[float] = []
    for index, stat in enumerate(stats):
        if stat.pruned or not stat.has_samples:
            weights.append(0.0)
        elif index == best:
            weights.append(1.0)
        else:
            weights.append(
                gaussian_overtake_probability(
                    incumbent.mean,
                    incumbent.std,
                    incumbent.n,
                    stat.mean,
                    stat.std,
                    stat.n,
                )
            )
    return weights


def apportion(weights: list[float], total: int) -> list[int]:
    """Split ``total`` integer budget units proportionally to ``weights``.

    Largest-remainder apportionment; guarantees the result sums to
    ``total`` and that any strictly-positive weight receives at least one
    unit when enough units exist (so no live start node starves outright).
    All-zero weights split the budget evenly.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    count = len(weights)
    if count == 0:
        return []
    mass = sum(w for w in weights if w > 0.0)
    if mass <= 0.0:
        base = total // count
        shares = [base] * count
        for index in range(total - base * count):
            shares[index] += 1
        return shares

    raw = [max(0.0, w) / mass * total for w in weights]
    shares = [int(math.floor(value)) for value in raw]
    remainders = [value - share for value, share in zip(raw, shares)]
    leftover = total - sum(shares)
    order = sorted(range(count), key=lambda i: remainders[i], reverse=True)
    for index in order[:leftover]:
        shares[index] += 1

    # Keep every live start node minimally funded when budget allows.
    if total >= sum(1 for w in weights if w > 0.0):
        starving = [i for i, w in enumerate(weights) if w > 0.0 and shares[i] == 0]
        for needy in starving:
            donor = max(range(count), key=lambda i: shares[i])
            if shares[donor] > 1:
                shares[donor] -= 1
                shares[needy] += 1
    return shares
