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
probabilities 1 this reproduces the exact posterior.  For separable (ICM)
kernels the computation splits over the task-basis systems of the exact
fast path (posterior._TaskBasis) through one scalar embedding.  The
observation checks, the history, the log-det accumulator and the
covariance clamp are the exact posterior's front-end (posterior._Posterior).
"""

import numpy as np
import scipy.linalg as la

from .kernels import ICMKernel, MultiTaskKernel, _as_points
from .posterior import _clamp_spectrum, _logdet_ratio, _Posterior, _prior_blocks, _TaskBasis

__all__ = [
    "Dictionary",
    "resample_dictionary",
    "NystromState",
    "icm_fast_embeddings",
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


# Support representations =====================================================
class _GeneralSupport:
    """Reweighted block-path embeddings and accumulated ridge statistics."""

    def __init__(self, kernel, eta, dictionary, X_hist, Yrows):
        self.kernel = kernel
        self.dictionary = dictionary
        n = kernel.n
        Xd = X_hist[dictionary.indices]
        w = np.repeat(1.0 / np.sqrt(dictionary.probs), n)
        Gd = kernel._cross(Xd, Xd) * np.outer(w, w)
        self._emb = _truncated_inv_sqrt(Gd)  # (r, n m)
        self._Xd, self._w = Xd, w
        t = X_hist.shape[0]
        P = self._embed(X_hist).reshape(-1, t, n)  # (r, t, n)
        V = np.einsum("ati,bti->ab", P, P)
        self._cholV = la.cho_factor(V + eta * np.eye(V.shape[0]), lower=True)
        self._z = la.cho_solve(self._cholV, np.einsum("ati,ti->a", P, Yrows))
        self.eta = eta

    def _embed(self, Xq) -> np.ndarray:
        """Embeddings for a stack of queries, shape (r, n * N)."""
        Gx = self.kernel._cross(self._Xd, _as_points(Xq)) * self._w[:, None]
        return self._emb @ Gx

    def mean_batch(self, Xq):
        Xq = _as_points(Xq)
        return (self._embed(Xq).T @ self._z).reshape(Xq.shape[0], self.kernel.n)

    def _cov_stack(self, Xq) -> np.ndarray:
        """Unclamped Gamma~(x, x) for each query, shape (N, n, n)."""
        Xq = _as_points(Xq)
        N, n = Xq.shape[0], self.kernel.n
        P = self._embed(Xq)
        H = la.cho_solve(self._cholV, P)
        P3 = P.reshape(P.shape[0], N, n)
        H3 = H.reshape(H.shape[0], N, n)
        PP = np.einsum("kja,kjb->jab", P3, P3)
        PH = np.einsum("kja,kjb->jab", P3, H3)
        return _prior_blocks(self.kernel, Xq) - PP + self.eta * PH

    def cov(self, x):
        return _clamp_spectrum(self._cov_stack(x)[0], None, matrix=True)

    def cov_norm_batch(self, Xq):
        return _clamp_spectrum(self._cov_stack(Xq), None)[:, -1]


class _ICMSupport:
    """Scalar Nystrom embedding shared across the task-basis systems of an ICM kernel."""

    def __init__(self, basis: _TaskBasis, eta, dictionary, X_hist, Yrows):
        self.basis = basis
        self.dictionary = dictionary
        self.eta = eta
        self._scalar = basis.scalars[0]
        Xd = X_hist[dictionary.indices]
        w = 1.0 / np.sqrt(dictionary.probs)
        Kd = self._scalar.pairwise(Xd, Xd) * np.outer(w, w)
        self._emb = _truncated_inv_sqrt(Kd)  # (r, m)
        self._Xd, self._w = Xd, w
        phi_all = self._embed(X_hist)  # (r, t)
        vt = phi_all @ phi_all.T
        C = phi_all @ basis.project(Yrows)  # (r, n) projected ridge statistics
        self._chols = []
        self._zs = []
        for _, xi, cols in basis.systems:
            cf = la.cho_factor(xi * vt + eta * np.eye(vt.shape[0]), lower=True)
            self._chols.append(cf)
            self._zs.append(la.cho_solve(cf, C[:, cols]))

    def _embed(self, Xq) -> np.ndarray:
        kq = self._scalar.pairwise(self._Xd, _as_points(Xq))
        return self._emb @ (kq * self._w[:, None])

    def mean_batch(self, Xq):
        phi = self._embed(Xq)
        return self.basis.assemble_mean([phi.T @ z for z in self._zs], phi.shape[1])

    def residuals_batch(self, Xq) -> np.ndarray:
        """Per-system r~_g(x) = k(x,x) - phi^T phi + eta phi^T (xi v + eta I)^{-1} phi."""
        Xq = _as_points(Xq)
        kxx = self._scalar.diag(Xq)
        phi = self._embed(Xq)
        pp = np.einsum("kj,kj->j", phi, phi)
        res = np.empty((len(self._chols), Xq.shape[0]))
        for g, cf in enumerate(self._chols):
            S = la.cho_solve(cf, phi)
            res[g] = kxx - pp + self.eta * np.einsum("kj,kj->j", phi, S)
        return res

    def cov_norm_batch(self, Xq):
        return self.basis.assemble_cov_norm(self.residuals_batch(Xq), None)

    def cov(self, x):
        return self.basis.assemble_cov(self.residuals_batch(x)[:, 0], None)


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
    fast_path : {"auto", True, False}
        "auto" uses the scalar-embedding path for ICM kernels.

    Updates mutate in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, q: float,
                 rng: np.random.Generator, fast_path="auto"):
        super().__init__(kernel, eta)
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = float(q)
        self.rng = rng
        fast = self._use_fast_path(fast_path, ICMKernel)
        self._basis = _TaskBasis(kernel, self.eta) if fast else None
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
        if self._basis is not None:
            self._support = _ICMSupport(self._basis, self.eta, self.dictionary, self.X, self.Y)
        else:
            self._support = _GeneralSupport(
                self.kernel, self.eta, self.dictionary, self.X, self.Y
            )
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
            return _clamp_spectrum(_prior_blocks(self.kernel, Xq), None)[:, -1]
        return self._support.cov_norm_batch(Xq)


# ICM fast-path entry points ==================================================
def icm_fast_embeddings(state: NystromState, x) -> np.ndarray:
    """Scalar Nystrom embedding phi_t(x) of the current ICM support.

    The multi-task embedding is sum_i sqrt(xi_i) phi_t(x) (x) u_i u_i^T;
    returns phi_t(x) with one row per query, shape (N, r).  Raises
    TypeError for non-ICM kernels and ValueError before the first update.
    """
    if state._basis is None:
        raise TypeError(
            "fast embeddings need a NystromState over an ICMKernel with its "
            "scalar-embedding path enabled"
        )
    if state._support is None:
        raise ValueError("no support yet: update the state first")
    return state._support._embed(x).T
