"""Budgeted posteriors over a resampled Nystrom dictionary.

Every round the dictionary is rebuilt from scratch: each past point x_i
enters independently with probability

    p_{t,i} = min{ q * ||approx_cov_{t-1}(x_i, x_i)||, 1 }

so that high-variance (poorly explained) points are more likely to be
kept.  The retained points, reweighted by 1/sqrt(p), define embeddings

    Phi_t(x) = (Gd_t^{1/2})^+ Gd_t(x)

through the pseudo-inverse square root of the reweighted support matrix
Gd_t.  Means and covariances then use ridge statistics accumulated over
the full history:

    mu_t(x)       = Phi_t(x)^T (V_t + eta I)^{-1} sum_s Phi_t(x_s) y_s
    Gamma~_t(x,x') = Gamma(x,x') - Phi_t(x)^T Phi_t(x')
                     + eta Phi_t(x)^T (V_t + eta I)^{-1} Phi_t(x')

with V_t = sum_s Phi_t(x_s) Phi_t(x_s)^T.  With a full dictionary and all
probabilities 1 this reproduces the exact posterior.

The computation splits over the same task-basis systems as the exact
engine (posterior._task_systems, one rule for both): one embedding per
kernel of the basis and one ridge factor per system.  An ICM kernel
embeds its scalar kernel once and a diagonal kernel each distinct scalar
once; any other kernel embeds its n x n blocks as a single system.  The
observation checks, the history, the log-det accumulator and the
covariance clamp are the exact posterior's front-end (posterior._Posterior).
"""

import numpy as np
import scipy.linalg as la

from .kernels import MultiTaskKernel, _as_points
from .posterior import _block_gram, _clamp_spectrum, _logdet_ratio, _Posterior, _TaskBasis

__all__ = [
    "Dictionary",
    "resample_dictionary",
    "NystromState",
    "PINV_RTOL",
]

# Relative truncation threshold for pseudo-inverse square roots; reweighted
# support matrices with duplicate points are numerically rank-deficient.
PINV_RTOL = 1e-10


class Dictionary:
    """Retained history indices with their inclusion probabilities.

    Attributes
    ----------
    indices : (m,) int ndarray, strictly increasing positions in the history.
    probs : (m,) float ndarray, inclusion probabilities in (0, 1].
    """

    def __init__(self, indices, probs):
        self.indices = np.asarray(indices, dtype=int)
        self.probs = np.asarray(probs, dtype=float)
        if self.indices.ndim != 1 or self.indices.shape != self.probs.shape:
            raise ValueError("indices and probs must be 1-D and aligned")
        if self.indices.size and np.any(np.diff(self.indices) <= 0):
            raise ValueError("dictionary indices must be strictly increasing")
        if np.any(self.probs <= 0) or np.any(self.probs > 1):
            raise ValueError("inclusion probabilities must lie in (0, 1]")

    @property
    def m(self) -> int:
        return self.indices.shape[0]

    def __repr__(self):
        return f"Dictionary(m={self.m})"


def resample_dictionary(variance_norms, q: float, rng: np.random.Generator) -> Dictionary:
    """Bernoulli-sample a fresh dictionary over the t history points.

    Inclusion probability per point is min{q * variance_norm, 1}.  One
    uniform draw is consumed per point regardless of its probability, so
    the rng stream advances identically across configurations.  If no
    point survives at t >= 1, the most recent point is included with
    probability 1 (the approximation is undefined on an empty support and
    the newest point carries the freshest variance).
    """
    norms = np.asarray(variance_norms, dtype=float)
    if norms.ndim != 1:
        raise ValueError("variance_norms must be a 1-D sequence")
    if np.any(norms < 0) or not np.all(np.isfinite(norms)):
        raise ValueError("variance_norms must be finite and nonnegative")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    t = norms.shape[0]
    probs = np.minimum(q * norms, 1.0)
    draws = rng.random(t)
    included = np.flatnonzero(draws < probs)
    if included.size == 0 and t >= 1:
        return Dictionary([t - 1], [1.0])
    return Dictionary(included, probs[included])


def _truncated_inv_sqrt(M: np.ndarray):
    """Rows of (M^{1/2})^+ in its eigenbasis, for symmetric PSD M.

    Returns an (r, p) matrix E with E^T E = M^+ (eigenvalues below
    PINV_RTOL times the largest are truncated), so E @ v gives coordinates
    of (M^{1/2})^+ v in an orthonormal basis of range(M).
    """
    evals, evecs = la.eigh(0.5 * (M + M.T))
    lam_max = max(float(evals[-1]), 0.0)
    keep = evals > PINV_RTOL * max(lam_max, 1e-300)
    return (evecs[:, keep] / np.sqrt(evals[keep])).T


# Support =====================================================================
class _Support:
    """Nystrom embeddings over the task-basis systems (posterior._task_systems).

    One embedding per kernel k_i of the basis, through the truncated
    inverse square root of its reweighted support matrix, and one ridge
    factor of (xi_g V_i + eta I) per system, with V_i the embedded
    history's Gram matrix.  The residual blocks of system g are

        R~_g(x) = k_i(x, x) - phi(x)^T phi(x) + eta phi(x)^T (xi_g V_i + eta I)^{-1} phi(x)

    and the basis assembles them, and the per-system mean coordinates,
    as the exact engine does.
    """

    def __init__(self, basis: _TaskBasis, eta, dictionary, X_hist, Yrows):
        self.basis = basis
        self.eta = eta
        self._Xd = X_hist[dictionary.indices]
        self._w = np.repeat(1.0 / np.sqrt(dictionary.probs), basis.b)
        W = np.outer(self._w, self._w)
        self._emb = [
            _truncated_inv_sqrt(k._cross(self._Xd, self._Xd) * W) for k in basis.kernels
        ]  # (r_i, m b) each
        phis = self._embed(X_hist)  # (r_i, t b) each
        grams = [P @ P.T for P in phis]
        Yp = basis.project(Yrows)
        self._chols = []
        self._zs = []
        for i, xi, cols in basis.systems:
            P = phis[i]
            cf = la.cho_factor(xi * grams[i] + eta * np.eye(P.shape[0]), lower=True)
            self._chols.append(cf)
            self._zs.append(la.cho_solve(cf, P @ Yp[:, cols].reshape(P.shape[1], -1)))

    def _embed(self, Xq) -> list:
        """Embeddings of a stack of queries, one (r_i, N b) array per kernel."""
        Xq = _as_points(Xq)
        w = self._w[:, None]
        return [E @ (k._cross(self._Xd, Xq) * w) for E, k in zip(self._emb, self.basis.kernels)]

    def mean_batch(self, Xq):
        phis = self._embed(Xq)
        parts = [phis[i].T @ z for (i, _, _), z in zip(self.basis.systems, self._zs)]
        return self.basis.assemble_mean(parts, Xq.shape[0])

    def residuals_batch(self, Xq) -> list:
        """Per-system blocks R~_g(x), each of shape (N, b, b)."""
        Xq = _as_points(Xq)
        phis = self._embed(Xq)
        b = self.basis.b
        base = [k.diag_blocks(Xq) - _block_gram(P, P, b) for k, P in zip(self.basis.kernels, phis)]
        return [
            base[i] + self.eta * _block_gram(phis[i], la.cho_solve(cf, phis[i]), b)
            for (i, _, _), cf in zip(self.basis.systems, self._chols)
        ]

    def cov_norm_batch(self, Xq):
        return self.basis.assemble_cov_norm(self.residuals_batch(Xq), None)

    def cov(self, x):
        return self.basis.assemble_cov([R[0] for R in self.residuals_batch(x)], None)


# Public state ================================================================
class NystromState(_Posterior):
    """Budgeted posterior with a per-round resampled dictionary.

    Parameters
    ----------
    kernel : MultiTaskKernel
    eta : float
        Positive regularizer.
    q : float
        Inclusion-probability multiplier, q >= 1.
    rng : numpy.random.Generator
        Owns the Bernoulli dictionary draws; advancing it is the only
        source of randomness in this state.

    The support is built over the kernel's task-basis systems
    (posterior._task_systems); no option selects another path.

    Updates mutate in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, q: float,
                 rng: np.random.Generator):
        super().__init__(kernel, eta)
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = float(q)
        self.rng = rng
        self._basis = _TaskBasis(kernel, self.eta)
        self.dictionary = Dictionary([], [])
        self._support = None

    @property
    def m(self) -> int:
        return self.dictionary.m

    def _absorb(self) -> float:
        """Resample the dictionary and rebuild the support.

        Inclusion probabilities for all points (the new one included) come
        from the previous round's covariance, and so does the log-det
        increment.
        """
        increment = _logdet_ratio(self.cov(self.X[-1]), self.eta, None)
        norms = self.cov_norm_batch(self.X)  # still the previous support
        self.dictionary = resample_dictionary(norms, self.q, self.rng)
        self._support = _Support(self._basis, self.eta, self.dictionary, self.X, self.Y)
        return increment

    # -- reads ----------------------------------------------------------
    def mean_batch(self, Xq) -> np.ndarray:
        Xq = _as_points(Xq)
        if self._support is None:
            return np.zeros((Xq.shape[0], self.kernel.n))
        return self._support.mean_batch(Xq)

    def cov(self, x) -> np.ndarray:
        """Approximate covariance Gamma~_t(x, x), symmetric PSD-clamped."""
        if self._support is None:
            return _clamp_spectrum(self.kernel.diag_block(x), None, matrix=True)
        return self._support.cov(x)

    def cov_norm_batch(self, Xq) -> np.ndarray:
        Xq = _as_points(Xq)
        if self._support is None:
            return _clamp_spectrum(self.kernel.diag_blocks(Xq), None)[:, -1]
        return self._support.cov_norm_batch(Xq)
