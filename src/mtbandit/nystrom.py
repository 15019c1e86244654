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

The state works over the arm universe that the observation front-end
(posterior._Posterior) keeps for both posteriors: the rows of the
candidate grid, when one is given, then each distinct off-grid history
point, with the arm index of every history point and per-arm visit counts
and output sums.  The history thus enters compressed per arm,

    V_t = Phi_U diag(c) Phi_U^T,    sum_s Phi_t(x_s) y_s = Phi_U S_U,

with c the visit counts and S_U the output sums of the observed arms U.
A rebuild evaluates k(X_dict, arms) once per kernel: the support matrix
is read from its dictionary columns and the history from its observed
columns.  One eigh of the history Gram, V = Q diag(lambda) Q^T, rotates
each kernel's embedding, so every system's ridge solve is the diagonal
scaling 1 / (xi_g lambda + eta) and the residual blocks are

    R~_g(x) = k(x, x) - Phi(x)^T diag(xi_g lambda / (xi_g lambda + eta)) Phi(x)

in rotated coordinates.  Means, residual blocks and covariance norms at
every arm are computed once per rebuild, with the prior blocks k(a, a)
computed once per arm.  Grid reads (the grid matched by identity, as in
the exact engine), the resample's history norms and the round's log-det
increment are gathers from these arm arrays; only other queries and a
never-seen off-grid point are embedded afresh.  A rebuild thus costs
O(m A) kernel entries for m dictionary points and A arms, whatever t.

The computation splits over the same task-basis systems as the exact
engine (posterior._task_systems, one rule for both): one embedding per
kernel of the basis and one diagonal solve per system.  An ICM kernel
embeds its scalar kernel once and a diagonal kernel each distinct scalar
once; any other kernel embeds its n x n blocks as a single system.  The
observation checks, the history, the arm universe, the log-det
accumulator and the covariance clamp are the exact posterior's.
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
def _block_cols(idx, b: int) -> np.ndarray:
    """Point-major column positions of the b x b blocks of the points idx."""
    return (np.asarray(idx)[:, None] * b + np.arange(b)).ravel()


class _Support:
    """Nystrom statistics over the task-basis systems, resident on the arms.

    Built from the dictionary (positions in the history), the arms, their
    prior blocks (one (A, b, b) array per kernel of the basis), the arm
    index of every history point and the per-arm visit counts and output
    sums.  Per kernel it keeps the rotated embedding Q^T (Gd^{1/2})^+ and
    per system the shrink factors xi_g lambda / (xi_g lambda + eta) and the
    mean coordinates, for reads away from the arms.  ``means``, ``res``
    (per-system residual blocks) and ``norms`` hold the model at every arm.
    """

    def __init__(self, basis: _TaskBasis, eta, dictionary, arms, prior, hist_arm, counts, sums):
        self.basis = basis
        b = basis.b
        dict_arms = hist_arm[dictionary.indices]
        self._Xd = arms[dict_arms]
        self._w = np.repeat(1.0 / np.sqrt(dictionary.probs), b)
        seen = np.flatnonzero(counts)
        counts = counts[seen]
        Yp = basis.project(sums[seen])  # per-arm output sums in basis coordinates
        dcols, ucols = _block_cols(dict_arms, b), _block_cols(seen, b)
        c = np.repeat(counts, b).astype(float)
        self._emb, phis, lams = [], [], []
        for k in basis.kernels:
            Kw = k._cross(self._Xd, arms) * self._w[:, None]  # (m b, A b)
            E = _truncated_inv_sqrt(Kw[:, dcols] * self._w)
            PU = E @ Kw[:, ucols]
            lam, Q = la.eigh((PU * c) @ PU.T)  # the history Gram V = Phi_U diag(c) Phi_U^T
            self._emb.append(Q.T @ E)
            phis.append(self._emb[-1] @ Kw)  # (r, A b), rotated
            lams.append(lam)
        self._shrink, self._z = [], []
        for i, xi, cols in basis.systems:
            inv = 1.0 / (xi * lams[i] + eta)
            rhs = phis[i][:, ucols] @ Yp[:, cols].reshape(ucols.size, -1)
            self._shrink.append(xi * lams[i] * inv)
            self._z.append(inv[:, None] * rhs)
        self.means = self.mean_at(phis, arms.shape[0])
        self.res = self.residuals_at(phis, prior)
        self.norms = basis.assemble_cov_norm(self.res, None)

    def embed(self, Xq) -> list:
        """Rotated embeddings of a stack of queries, one (r_i, N b) array per kernel."""
        w = self._w[:, None]
        return [E @ (k._cross(self._Xd, Xq) * w) for E, k in zip(self._emb, self.basis.kernels)]

    def mean_at(self, phis, N) -> np.ndarray:
        """Means (N, n) from rotated embeddings."""
        parts = [phis[i].T @ z for (i, _, _), z in zip(self.basis.systems, self._z)]
        return self.basis.assemble_mean(parts, N)

    def residuals_at(self, phis, prior) -> list:
        """Per-system blocks R~_g = k_i(x, x) - phi^T diag(shrink_g) phi, each (N, b, b)."""
        b = self.basis.b
        return [
            prior[i] - _block_gram(phis[i] * s[:, None], phis[i], b)
            for (i, _, _), s in zip(self.basis.systems, self._shrink)
        ]

    def residuals(self, Xq) -> list:
        """Per-system residual blocks at a stack of queries, embedded afresh."""
        return self.residuals_at(self.embed(Xq), [k.diag_blocks(Xq) for k in self.basis.kernels])


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
    grid : (N, d) float ndarray or None
        Fixed candidate stack that will be queried every round, as for
        ``PosteriorState``.  Its rows are the first N arms, so every
        rebuild computes the means and covariance norms over the grid
        and ``mean_batch(grid)`` or ``cov_norm_batch(grid)`` is a copy.
        Only a query that *is* this array object is served from the arm
        arrays; every other query (copies included) is embedded afresh.
        The caller must not mutate the grid afterwards.  Inputs must have
        the grid's dimension.

    The state's distinct inputs are the arms of the shared front-end: the
    grid rows, then each off-grid history point when it is first observed;
    their prior blocks are computed once, at the first update that sees
    them.  Every rebuild
    compresses the history per arm, rotates each kernel's embedding so
    that the ridge solves are diagonal, and evaluates the model at every
    arm once.  The support is built over the kernel's task-basis systems
    (posterior._task_systems); no option selects another path.

    Updates mutate in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, q: float,
                 rng: np.random.Generator, grid=None):
        super().__init__(kernel, eta, grid)
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = float(q)
        self.rng = rng
        self._basis = _TaskBasis(kernel)
        self.dictionary = Dictionary([], [])
        self._support = None
        b = self._basis.b
        self._prior = [np.zeros((0, b, b)) for _ in self._basis.kernels]  # k(a, a) per arm

    @property
    def m(self) -> int:
        return self.dictionary.m

    def _absorb(self, a, y) -> float:
        """Record the observation, resample the dictionary and rebuild the support.

        Inclusion probabilities for all points (the new one included) come
        from the previous round's covariance, and so does the log-det
        increment.  Both are gathered from the previous support's arm
        arrays; only a point that was not an arm then is embedded afresh.
        """
        self._record(a, y)
        P = self._prior[0].shape[0]
        if P < self._arms.shape[0]:
            new = self._arms[P:]
            self._prior = [
                np.concatenate([R, k.diag_blocks(new)])
                for R, k in zip(self._prior, self._basis.kernels)
            ]
        if self._support is None:
            res = [self._prior[i] for i, _, _ in self._basis.systems]
            norms = self._basis.assemble_cov_norm(res, None)
        else:
            res, norms = self._support.res, self._support.norms
            if a == norms.shape[0]:
                new = self._support.residuals(self._arms[a:a + 1])
                res = [np.concatenate(pair) for pair in zip(res, new)]
                norms = np.append(norms, self._basis.assemble_cov_norm(new, None))
        increment = _logdet_ratio(
            self._basis.assemble_cov([R[a] for R in res], None), self.eta, None
        )
        self.dictionary = resample_dictionary(norms[self._hist_arm], self.q, self.rng)
        self._support = _Support(
            self._basis, self.eta, self.dictionary, self._arms, self._prior, self._hist_arm,
            self._counts, self._sums,
        )
        return increment

    # -- reads ----------------------------------------------------------
    def mean_batch(self, Xq) -> np.ndarray:
        Xq = _as_points(Xq)
        if self._support is None:
            return np.zeros((Xq.shape[0], self.kernel.n))
        if Xq is self._grid:
            return self._support.means[: Xq.shape[0]].copy()
        return self._support.mean_at(self._support.embed(Xq), Xq.shape[0])

    def cov(self, x) -> np.ndarray:
        """Approximate covariance Gamma~_t(x, x), symmetric PSD-clamped."""
        if self._support is None:
            return _clamp_spectrum(self.kernel.diag_block(x), None, matrix=True)
        res = self._support.residuals(_as_points(x))
        return self._basis.assemble_cov([R[0] for R in res], None)

    def cov_norm_batch(self, Xq) -> np.ndarray:
        Xq = _as_points(Xq)
        if self._support is None:
            return _clamp_spectrum(self.kernel.diag_blocks(Xq), None)[:, -1]
        if Xq is self._grid:
            return self._support.norms[: Xq.shape[0]].copy()
        return self._basis.assemble_cov_norm(self._support.residuals(Xq), None)
