"""Synthetic multi-objective environments, Pareto oracles, and regret metrics.

Environments are immutable: a finite candidate grid, the noiseless
objective values on it, and a noise scale.  Observation noise is drawn
from the caller's rng stream, so environments can be shared across
concurrent runs.

Regret accounting works on weight stacks: the T round weights of a run,
or the n_mc Monte-Carlo draws of the Bayes regret, score the grid in one
``Scalarization.value_stack`` call, a (k, N) array, with the same bits
as one call per weight.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import ICMKernel
from .scalarize import Scalarization, WeightDistribution

__all__ = [
    "Environment",
    "make_rkhs_objective",
    "make_perturbed_sine",
    "make_shifted_branin",
    "pareto_front",
    "scalarized_optimum",
    "instantaneous_regrets",
    "cumulative_regret",
    "bayes_regret",
    "branin",
    "PERTURBED_SINE_WEIGHTS",
]


# Environments ================================================================
@dataclass(frozen=True)
class Environment:
    """A finite-candidate multi-objective problem.

    Attributes
    ----------
    name : str
    grid : (N, d) ndarray of candidate points.
    values : (N, n) ndarray, noiseless objective values on the grid.
    noise_sigma : float
        Standard deviation of the i.i.d. Gaussian noise per coordinate.
    """

    name: str
    grid: np.ndarray
    values: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        if self.grid.shape[0] == 0:
            raise ValueError("candidate grid is empty")
        if self.grid.shape[0] != self.values.shape[0]:
            raise ValueError("grid and values disagree on the candidate count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("objective values contain non-finite entries")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def observe(self, index: int, rng: np.random.Generator) -> np.ndarray:
        """Noisy output at a grid point; always consumes n normal draws."""
        return self.values[index] + self.noise_sigma * rng.standard_normal(self.n)


def _unit_grid(step: float = 0.01) -> np.ndarray:
    """The step-net of [0, 1] as a column of points."""
    count = int(round(1.0 / step)) + 1
    return np.linspace(0.0, 1.0, count)[:, None]


def make_rkhs_objective(
    kernel: ICMKernel,
    n_anchors: int = 50,
    rng: np.random.Generator | None = None,
    noise_sigma: float = 0.1,
    grid_step: float = 0.01,
):
    """Random RKHS member of a separable kernel on [0, 1].

    f(x) = sum_{i <= n_anchors} Gamma(x, a_i) c_i with anchors a_i uniform
    in [0, 1] and coefficients c_i uniform in [-1, 1]^n.  Returns the
    environment over the grid_step-net of [0, 1] together with the norm
    bound b = max_x ||f(x)||_2 / kappa.
    """
    if not isinstance(kernel, ICMKernel):
        raise TypeError("the RKHS objective is generated from a separable (ICM) kernel")
    if rng is None:
        rng = np.random.default_rng()
    grid = _unit_grid(grid_step)
    anchors = rng.random((n_anchors, 1))
    coeffs = rng.uniform(-1.0, 1.0, (n_anchors, kernel.n))
    # f(x) = B sum_i k(x, a_i) c_i, row per grid point.
    values = kernel.scalar.pairwise(grid, anchors) @ coeffs @ kernel.coupling
    b = float(np.max(np.linalg.norm(values, axis=1))) / kernel.kappa
    env = Environment("rkhs", grid, values, float(noise_sigma))
    return env, b


PERTURBED_SINE_WEIGHTS = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.5, 0.5, 0.5],
    ]
)
_BUMP_CENTERS = np.array([0.05, 0.4, 0.7])
_BUMP_WIDTH = 0.1
_BUMP_AMPLITUDE = 0.6


def make_perturbed_sine(
    weights=None, noise_sigma: float = 0.1, grid_step: float = 0.01
) -> Environment:
    """Four tasks sharing a sine backbone with weighted Gaussian bumps.

    f_i(x) = sin(2 pi x) + 0.6 * sum_b W[i, b] exp(-(x - c_b)^2 / (2 w^2))
    with peak-1 bumps of width w = 0.1 at centers 0.05, 0.4, 0.7.  The
    default weight rows give each of three tasks its own bump and the
    fourth an even blend.  Noise variance is 0.01 (sigma = 0.1).
    """
    W = PERTURBED_SINE_WEIGHTS if weights is None else np.asarray(weights, dtype=float)
    if W.shape[1] != _BUMP_CENTERS.shape[0]:
        raise ValueError(f"weight rows must have {_BUMP_CENTERS.shape[0]} bump entries")
    grid = _unit_grid(grid_step)
    x = grid[:, 0]
    bumps = np.exp(-((x[:, None] - _BUMP_CENTERS) ** 2) / (2.0 * _BUMP_WIDTH**2))
    values = np.sin(2.0 * np.pi * x)[:, None] + _BUMP_AMPLITUDE * bumps @ W.T
    return Environment("perturbed_sine", grid, values, float(noise_sigma))


_BRANIN_LOW = np.array([-5.0, 0.0])
_BRANIN_HIGH = np.array([10.0, 15.0])


def branin(X) -> np.ndarray:
    """Standard Branin-Hoo function on [-5, 10] x [0, 15].

    a (x2 - b x1^2 + c x1 - r)^2 + s (1 - t) cos(x1) + s with the usual
    constants; three global minima of value 0.397887.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    x1, x2 = X[:, 0], X[:, 1]
    a = 1.0
    b = 5.1 / (4.0 * np.pi**2)
    c = 5.0 / np.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * np.pi)
    return a * (x2 - b * x1**2 + c * x1 - r) ** 2 + s * (1.0 - t) * np.cos(x1) + s


def make_shifted_branin(
    n_tasks: int = 9, noise_sigma: float = 0.1, grid_side: int = 25
) -> Environment:
    """Branin variants shifted by i% of each axis range, i = 0..n_tasks-1.

    Task i evaluates the standard function at x + i% * (range, range) with
    the shifted input clamped to the domain, then negates and divides by
    100 so the tasks are maximized at O(1) scale.  Task 0 is the
    unshifted function.  The grid is grid_side^2 points over the domain.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    axes = [np.linspace(lo, hi, grid_side) for lo, hi in zip(_BRANIN_LOW, _BRANIN_HIGH)]
    g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    grid = np.column_stack([g1.ravel(), g2.ravel()])
    ranges = _BRANIN_HIGH - _BRANIN_LOW
    values = np.empty((grid.shape[0], n_tasks))
    for i in range(n_tasks):
        shifted = np.clip(grid + 0.01 * i * ranges, _BRANIN_LOW, _BRANIN_HIGH)
        values[:, i] = -branin(shifted) / 100.0
    return Environment("shifted_branin", grid, values, float(noise_sigma))


# Oracles =====================================================================
def pareto_front(env: Environment) -> np.ndarray:
    """Indices of non-dominated grid points, ascending.

    A point is dominated if some other point is >= in every objective and
    > in at least one.  Brute-force O(N^2 n) scan over the noiseless
    values.
    """
    V = env.values
    N = V.shape[0]
    keep = np.ones(N, dtype=bool)
    for j in range(N):
        geq = np.all(V >= V[j], axis=1)
        gt = np.any(V > V[j], axis=1)
        if np.any(geq & gt):
            keep[j] = False
    return np.flatnonzero(keep)


def scalarized_optimum(env: Environment, scalarization: Scalarization, lam):
    """(max value, argmax index) of s_lambda(f(x)) over the grid.

    Ties break toward the lowest index, matching the selection rule.
    """
    vals = scalarization.value_batch(lam, env.values)
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx


# Regret metrics ==============================================================
def instantaneous_regrets(result, env: Environment, scalarization: Scalarization) -> np.ndarray:
    """Per-round gaps s_{lambda_t}(f(x*_{lambda_t})) - s_{lambda_t}(f(x_t)).

    The T round weights score the grid as one (T, N) stack.
    """
    vals = scalarization.value_stack(result.lambdas, env.values)
    return vals.max(axis=1) - vals[np.arange(result.horizon), result.x_indices]


def cumulative_regret(result, env: Environment, scalarization: Scalarization) -> np.ndarray:
    """Running sum R_C(t) of the instantaneous regrets; non-decreasing."""
    return np.cumsum(instantaneous_regrets(result, env, scalarization))


def bayes_regret(
    result,
    env: Environment,
    scalarization: Scalarization,
    weight_dist: WeightDistribution,
    checkpoints,
    n_mc: int = 256,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Monte-Carlo Bayes regret at checkpoint rounds.

    Draws one set of n_mc weights, and for each checkpoint T' reports the
    mean over draws of s_lambda(f(x*_lambda)) - max_{t <= T'}
    s_lambda(f(x_t)).  Evaluating a fixed weight set over growing
    prefixes makes the series non-increasing in T'.  The weights are one
    stack, scoring the grid (n_mc, N) and the queried points (n_mc, T)
    in one call each.
    """
    if rng is None:
        rng = np.random.default_rng()
    checkpoints = [int(c) for c in checkpoints]
    if any(c < 1 or c > result.horizon for c in checkpoints):
        raise ValueError("checkpoints must lie in [1, horizon]")
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")
    lams = weight_dist.sample_stack(rng, n_mc)
    opt = scalarization.value_stack(lams, env.values).max(axis=1)
    best = np.maximum.accumulate(scalarization.value_stack(lams, env.values[result.x_indices]),
                                 axis=1)
    # np.take keeps the gaps C-ordered: mean(axis=0) then sums the draws one
    # row after another, as over the rows of a per-draw loop; an F-ordered
    # array would be summed pairwise, with other last bits.
    gaps = opt[:, None] - np.take(best, np.array(checkpoints, dtype=int) - 1, axis=1)
    return gaps.mean(axis=0)
