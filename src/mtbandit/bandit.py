"""Round loops for multi-task kernelized bandits.

Each round samples a weight lambda_t, scores every candidate x with the
optimism rule

    u_t(x) = s_{lambda_t}(mu_{t-1}(x))
             + L_{lambda_t} * beta_{t-1} * ||Gamma_{t-1}(x, x)||^{1/2},

queries the argmax, and updates the posterior.  ``MTKB`` uses the exact
posterior with radius

    beta_t = b + (sigma/sqrt(eta)) sqrt(2 log(1/delta) + logdet_sum_t),

``MTBKB`` the budgeted posterior with

    beta~_t = b (1 + 1/sqrt(1-eps))
              + (sigma/sqrt(eta)) sqrt(2 log(2/delta) + rho * logdet_sum~_t),

where each logdet_sum is the accumulated per-round
log det(I_n + eta^{-1} cov_{s-1}(x_s, x_s)) of the algorithm's own model,
rho = (1+eps)/(1-eps), and the dictionary multiplier is
q = 6 rho log(4T/delta) / eps^2.

A run is strictly sequential and fully determined by its seed: the seed
splits into three child streams (weight sampling, observation noise,
dictionary resampling), so two algorithms given the same seed see
identical weight and noise sequences.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import MultiTaskKernel
from .nystrom import NystromState
from .posterior import PosteriorState
from .scalarize import Scalarization, WeightDistribution

__all__ = [
    "AlgorithmConfig",
    "RunResult",
    "rho_factor",
    "epsilon_inflation",
    "dictionary_multiplier",
    "beta_t",
    "beta_tilde_t",
    "acquisition",
    "select_point",
    "run",
]


# Configuration ===============================================================
@dataclass(frozen=True)
class AlgorithmConfig:
    """Parameters of one bandit run.

    Attributes
    ----------
    algorithm : {"MTKB", "MTBKB"}
    eta : float
        Ridge regularizer, > 0.
    delta : float
        Confidence level, in (0, 1].
    horizon : int
        Number of rounds T >= 1.
    rkhs_bound : float
        Norm bound b on the objective, >= 0.
    noise_sigma : float
        Sub-Gaussian noise scale assumed by the radii, >= 0.
    kappa : float
        Uniform bound on ||Gamma(x, x)||, > 0.
    lipschitz_bound : float
        Bound L on the scalarization constants, > 0.
    seed : int
        Master seed of the run.
    epsilon : float or None
        Approximation level in (0, 1); required by MTBKB, ignored by MTKB.
    """

    algorithm: str
    eta: float
    delta: float
    horizon: int
    rkhs_bound: float
    noise_sigma: float
    kappa: float
    lipschitz_bound: float
    seed: int
    epsilon: float | None = None

    def __post_init__(self):
        if self.algorithm not in ("MTKB", "MTBKB"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0 < self.delta <= 1:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not self.rkhs_bound >= 0:
            raise ValueError(f"rkhs_bound must be >= 0, got {self.rkhs_bound}")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.lipschitz_bound > 0:
            raise ValueError(f"lipschitz_bound must be positive, got {self.lipschitz_bound}")
        if self.algorithm == "MTBKB":
            if self.epsilon is None or not 0 < self.epsilon < 1:
                raise ValueError(
                    f"MTBKB needs epsilon in (0, 1), got {self.epsilon}"
                )
            if rho_factor(self.epsilon) <= 1:
                raise ValueError("rho = (1+eps)/(1-eps) must exceed 1")
            q = dictionary_multiplier(self.epsilon, self.horizon, self.delta)
            if q < 1:
                raise ValueError(f"dictionary multiplier q = {q:.3g} must be >= 1")


def rho_factor(epsilon: float) -> float:
    """rho = (1 + eps) / (1 - eps), the variance inflation factor."""
    return (1.0 + epsilon) / (1.0 - epsilon)


def epsilon_inflation(epsilon: float) -> float:
    """c_eps = 1 + 1/sqrt(1 - eps), the norm-bound inflation factor."""
    return 1.0 + 1.0 / np.sqrt(1.0 - epsilon)


def dictionary_multiplier(epsilon: float, horizon: int, delta: float) -> float:
    """q = 6 rho log(4T/delta) / eps^2."""
    return 6.0 * rho_factor(epsilon) * np.log(4.0 * horizon / delta) / epsilon**2


# Confidence radii ============================================================
def beta_t(config: AlgorithmConfig, logdet_sum):
    """Exact-posterior radius from the accumulated per-round log-dets; an
    array of sums gives an array of radii."""
    if np.any(logdet_sum < 0):
        raise ValueError(f"logdet_sum must be >= 0, got {logdet_sum}")
    return config.rkhs_bound + (config.noise_sigma / np.sqrt(config.eta)) * np.sqrt(
        2.0 * np.log(1.0 / config.delta) + logdet_sum
    )


def beta_tilde_t(config: AlgorithmConfig, approx_logdet_sum: float) -> float:
    """Budgeted-posterior radius; uses log(2/delta) and the rho-inflated sum."""
    if approx_logdet_sum < 0:
        raise ValueError(f"approx_logdet_sum must be >= 0, got {approx_logdet_sum}")
    eps = config.epsilon
    return config.rkhs_bound * epsilon_inflation(eps) + (
        config.noise_sigma / np.sqrt(config.eta)
    ) * np.sqrt(
        2.0 * np.log(2.0 / config.delta) + rho_factor(eps) * approx_logdet_sum
    )


# Acquisition =================================================================
def acquisition(model, scalarization: Scalarization, lam, beta: float, x) -> float:
    """u(x) = s_lambda(mu(x)) + L_lambda * beta * ||cov(x, x)||^{1/2}."""
    return float(_scores(scalarization, lam, beta, model.mean(x)[None], [model.cov_norm(x)])[0])


def select_point(model, scalarization: Scalarization, lam, beta: float, candidates):
    """Argmax of the acquisition over a finite candidate stack.

    Returns (index, point); ties break toward the lowest index.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if candidates.shape[0] == 0:
        raise ValueError("candidate list is empty")
    means, norms = model.mean_batch(candidates), model.cov_norm_batch(candidates)
    scores = _scores(scalarization, lam, beta, means, norms)
    idx = int(np.argmax(scores))
    return idx, candidates[idx]


def _scores(scalarization, lam, beta, means, norms) -> np.ndarray:
    """Acquisition values from the posterior means and covariance norms;
    beta must be >= 0 (a NaN is refused too)."""
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    widths = np.sqrt(np.clip(norms, 0.0, None))
    return (
        scalarization.value_batch(lam, means)
        + scalarization.lipschitz(lam) * beta * widths
    )


# Run loop ====================================================================
@dataclass
class RunResult:
    """Per-round records of one run, in arrays indexed by round.

    ``betas[t]`` is the radius used to *select* round t's point (computed
    from the log-det accumulator before the round's update);
    ``logdet_sums[t]`` and ``variance_norms[t]`` are the accumulator value
    and ||cov_t(x_t, x_t)|| after the update.
    """

    config: AlgorithmConfig
    lambdas: np.ndarray      # (T, n)
    x_indices: np.ndarray    # (T,) candidate-grid positions
    X: np.ndarray            # (T, d)
    Y: np.ndarray            # (T, n)
    u_values: np.ndarray     # (T,)
    betas: np.ndarray        # (T,)
    m_sizes: np.ndarray      # (T,) dictionary arms |D_t|; 0 for MTKB
    logdet_sums: np.ndarray  # (T,)
    variance_norms: np.ndarray  # (T,)
    micros: np.ndarray = field(default=None)  # (T,) wall-clock per round

    @property
    def horizon(self) -> int:
        return self.x_indices.shape[0]

    @property
    def variance_sum(self) -> float:
        """sum_t ||cov_t(x_t, x_t)||, the width term of the regret bound."""
        return float(np.sum(self.variance_norms))


def run(
    config: AlgorithmConfig,
    environment,
    kernel: MultiTaskKernel,
    scalarization: Scalarization,
    weight_dist: WeightDistribution,
    *,
    round_hook=None,
    timing: bool = False,
) -> RunResult:
    """Execute one MTKB or MTBKB run over the environment's candidate grid.

    Parameters
    ----------
    environment
        Provides ``grid`` (N, d), ``values`` (N, n) noiseless truth, and
        ``observe(index, rng)`` returning a noisy output.
    round_hook : callable or None
        Called as ``fn(t, model)`` after each round's update.
    timing : bool
        Record wall-clock microseconds per round; leaves zeros when off so
        that traces stay byte-reproducible.
    """
    grid = np.atleast_2d(np.asarray(environment.grid, dtype=float))
    T, n = config.horizon, kernel.n
    if weight_dist.n != n:
        raise ValueError(
            f"weight distribution has dimension {weight_dist.n}, kernel has {n} tasks"
        )

    lam_ss, noise_ss, dict_ss = np.random.SeedSequence(config.seed).spawn(3)
    rng_lam = np.random.default_rng(lam_ss)
    rng_noise = np.random.default_rng(noise_ss)

    if config.algorithm == "MTKB":
        model = PosteriorState(kernel, config.eta, grid=grid)
        radius = beta_t
    else:
        q = dictionary_multiplier(config.epsilon, T, config.delta)
        model = NystromState(kernel, config.eta, q, np.random.default_rng(dict_ss), grid=grid)
        radius = beta_tilde_t

    # The round weights are one stack: the stream serves nothing else.
    lambdas = weight_dist.sample_stack(rng_lam, T)
    x_indices = np.empty(T, dtype=int)
    Y = np.empty((T, n))
    u_values = np.empty(T)
    betas = np.empty(T)
    m_sizes = np.zeros(T, dtype=int)
    logdet_sums = np.empty(T)
    variance_norms = np.empty(T)
    micros = np.zeros(T, dtype=int)

    # The grid is read once before the first round and once after each
    # update: those reads score the next round and give this round's norm.
    means, norms = model.mean_batch(grid), model.cov_norm_batch(grid)
    for t in range(T):
        tic = time.perf_counter_ns() if timing else 0
        lam = lambdas[t]
        beta = float(radius(config, model.logdet_sum))
        scores = _scores(scalarization, lam, beta, means, norms)
        idx = int(np.argmax(scores))
        y = environment.observe(idx, rng_noise)

        model.update(grid[idx], y)
        means, norms = model.mean_batch(grid), model.cov_norm_batch(grid)

        x_indices[t] = idx
        Y[t] = y
        u_values[t] = scores[idx]
        betas[t] = beta
        if config.algorithm == "MTBKB":
            m_sizes[t] = model.m
        logdet_sums[t] = model.logdet_sum
        variance_norms[t] = norms[idx]
        if timing:
            micros[t] = (time.perf_counter_ns() - tic) // 1000
        if round_hook is not None:
            round_hook(t + 1, model)

    return RunResult(
        config=config,
        lambdas=lambdas,
        x_indices=x_indices,
        X=grid[x_indices],
        Y=Y,
        u_values=u_values,
        betas=betas,
        m_sizes=m_sizes,
        logdet_sums=logdet_sums,
        variance_norms=variance_norms,
        micros=micros,
    )
