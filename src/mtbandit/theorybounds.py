"""Information-gain and regret-bound calculators on executed runs.

All gamma quantities here are *realized* on the actual point sequence,
never the max over candidate subsets: on the executed sequence the
identities below are exact, which is what the reporting and the
inter-task-structure checks rely on.

* realized gain       (1/2) log det(I_nt + eta^{-1} G_t), accumulated as
                      half the per-round log-det sum.
* eigen-split          for a separable kernel the joint gain decomposes
                      exactly into per-eigendirection scalar gains
                      (1/2) log det(I_t + (xi_i / eta) K_t).
* closed-form bound    2 L beta_T sqrt((1 + kappa/eta) T sum_t ||Gamma_t(x_t, x_t)||)
                      with beta_T = b + (sigma/sqrt(eta)) sqrt(2 log(1/delta) + 2 gain),
                      the run's own exact radius (bandit.beta_t) at the
                      log-det sum 2 gain.  Budgeted runs are bounded by the
                      same MTKB form.
"""

import numpy as np

from .bandit import beta_t
from .kernels import CouplingSpectrum, ScalarKernel, coupling_spectrum

__all__ = [
    "realized_gain",
    "scalar_realized_gain",
    "icm_gain_split",
    "regret_bound_value",
]


def realized_gain(state_or_logdet_sum) -> float:
    """Half the accumulated log-det sum of a posterior state (or raw sum).

    By the Schur telescoping identity this equals
    (1/2) log det(I_nt + eta^{-1} G_t); zero before the first observation
    and non-decreasing over a run.
    """
    s = getattr(state_or_logdet_sum, "logdet_sum", state_or_logdet_sum)
    s = float(s)
    if s < 0:
        raise ValueError(f"logdet sum must be >= 0, got {s}")
    return 0.5 * s


def scalar_realized_gain(points, kernel: ScalarKernel, alpha: float) -> float:
    """(1/2) log det(I_t + alpha^{-1} K_t) for a scalar kernel Gram matrix."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[0] == 0:
        return 0.0
    K = kernel.pairwise(X, X)
    sign, logdet = np.linalg.slogdet(np.eye(X.shape[0]) + K / alpha)
    if sign <= 0:
        raise ArithmeticError("ridge-shifted Gram matrix lost positive definiteness")
    return 0.5 * float(logdet)


def icm_gain_split(points, scalar_kernel: ScalarKernel, coupling, eta: float) -> np.ndarray:
    """Per-eigendirection realized gains of a separable kernel.

    Entry i is (1/2) log det(I_t + (xi_i / eta) K_t) for eigenvalue xi_i
    of the coupling; exactly 0.0 for xi_i = 0.  The entries sum to the
    joint realized gain of the block matrix (Kronecker eigenvalue
    identity on the executed sequence).
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    spectrum = (
        coupling if isinstance(coupling, CouplingSpectrum) else coupling_spectrum(coupling)
    )
    gains = np.zeros(spectrum.n)
    for i, xi in enumerate(spectrum.eigenvalues):
        if xi > 0.0:
            gains[i] = scalar_realized_gain(points, scalar_kernel, eta / xi)
    return gains


def regret_bound_value(config, gain, variance_sum, t=None):
    """Closed-form cumulative-regret bound evaluated on realized quantities.

    Parameters
    ----------
    config : AlgorithmConfig
        Supplies L, b, sigma, eta, delta, kappa, and the default horizon.
    gain : float or array
        Realized information gain (1/2) log-det sum at round t.
    variance_sum : float or array
        sum_{s <= t} ||Gamma_s(x_s, x_s)|| accumulated after each update.
    t : int, int array or None
        Round count; defaults to the config horizon.

    The radius is ``bandit.beta_t(config, 2 gain)``, the radius MTKB
    selects with after t rounds.  The arguments broadcast against each
    other; scalar arguments give a float, and an array gives an array
    whose entries are bitwise the scalar calls.  Zero rounds give a zero
    width, hence a zero bound.
    """
    gain, variance_sum = np.asarray(gain, dtype=float), np.asarray(variance_sum, dtype=float)
    t = np.asarray(config.horizon if t is None else t, dtype=int)
    if np.any(gain < 0) or np.any(variance_sum < 0):
        raise ValueError("gain and variance_sum must be >= 0")
    if np.any(t < 0):
        raise ValueError(f"t must be >= 0, got {t}")
    radius = beta_t(config, 2.0 * gain)
    width = np.sqrt((1.0 + config.kappa / config.eta) * t * variance_sum)
    value = 2.0 * config.lipschitz_bound * radius * width
    return float(value) if value.ndim == 0 else value
