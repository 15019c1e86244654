"""Budgeted posteriors over a resampled Nystrom dictionary.

Every round the dictionary is rebuilt from scratch: each past point x_i
enters independently with probability

    p_{t,i} = min{ q * ||approx_cov_{t-1}(x_i, x_i)||, 1 }

so that high-variance (poorly explained) points are more likely to be
kept.  The distinct arms D_t of the retained points define embeddings

    Phi_t(x) = (K_DD^{1/2})^+ k(D_t, x)

through the pseudo-inverse square root of the support matrix K_DD.
The BKB dictionary of Calandriello et al. (COLT 2019) also reweights each
retained point by 1/sqrt(p) and keeps a point once per visit, but neither
changes the model: Phi_t(x)^T Phi_t(x') = k(x, D) K_DD^+ k(D, x') is the
projection of the features onto their span over D, and a positive
reweighting or a repeated point leaves that span unchanged.  So the
support is built from each sampled arm once, unweighted, and m_t (the
number of sampled history points) can exceed the number of its columns.
Means and covariances then use ridge statistics accumulated over the
full history:

    mu_t(x)       = Phi_t(x)^T (V_t + eta I)^{-1} sum_s Phi_t(x_s) y_s
    Gamma~_t(x,x') = Gamma(x,x') - Phi_t(x)^T Phi_t(x')
                     + eta Phi_t(x)^T (V_t + eta I)^{-1} Phi_t(x')

with V_t = sum_s Phi_t(x_s) Phi_t(x_s)^T.  With a full dictionary and all
probabilities 1 this reproduces the exact posterior.

The state works over the arm universe that the observation front-end
(posterior._Posterior) keeps for both posteriors: the rows of the
candidate grid, when one is given, then each distinct off-grid history
point, with the arm index of every history point and per-arm visit counts
and output sums.  Where the exact engine keeps one row per observation
over these arms, here the history enters compressed per arm,

    V_t = Phi_U diag(c) Phi_U^T,    sum_s Phi_t(x_s) y_s = Phi_U S_U,

with c the visit counts and S_U the output sums of the observed arms U.
A rebuild holds k(D_t, arms) once per kernel: the support matrix is
read from its dictionary columns and the history from its observed
columns.  The rows of arms that the previous support's dictionary held
are carried over, so a rebuild evaluates only the rows of the arms new
to the dictionary and the columns of the arms new to the universe; an
unchanged dictionary (the same arms in the same order) also keeps its
embedding.  One eigh of the history Gram, V = Q diag(lambda) Q^T, rotates
each kernel's embedding, so every system's ridge solve is the diagonal
scaling 1 / (xi_g lambda + eta) and the residual blocks are

    R~_g(x) = k(x, x) - Phi(x)^T diag(xi_g lambda / (xi_g lambda + eta)) Phi(x)

in rotated coordinates.  Means, residual blocks and covariance norms at
every arm are computed once per rebuild, from the prior blocks k(a, a)
evaluated at every arm.  Grid reads (the grid matched by identity, as in
the exact engine), the resample's history norms and the round's log-det
increment are gathers from these arm arrays; only other queries and a
never-seen off-grid point are embedded afresh.  A rebuild thus holds
|D_t| A kernel entries for A arms, whatever t, with |D_t| <= A (the
exact engine's rows take t A b^2 floats), and evaluates O(A) of them per
arm that is new to the dictionary.  Both
eigendecompositions of a rebuild, of K_DD and of V, use LAPACK's
divide-and-conquer driver (evd).  On the near-identity matrices of arms
many lengthscales apart, whose eigenvalues cluster near 1, it ran 2-3
times as fast as scipy's default MRRR driver (evr) at 30-120 arms, and
no slower on dense ones.

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

# Relative truncation threshold for pseudo-inverse square roots; support
# matrices over nearby arms are numerically rank-deficient.
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
        """Sampled history points in the dictionary, repeats of an arm included."""
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
    evals, evecs = la.eigh(0.5 * (M + M.T), driver="evd")
    lam_max = max(float(evals[-1]), 0.0)
    keep = evals > PINV_RTOL * max(lam_max, 1e-300)
    return (evecs[:, keep] / np.sqrt(evals[keep])).T


# Support =====================================================================
def _block_cols(idx, b: int) -> np.ndarray:
    """Point-major column positions of the b x b blocks of the points idx."""
    return (np.asarray(idx)[:, None] * b + np.arange(b)).ravel()


def _dict_rows(k, dict_arms, arms, prev, i) -> np.ndarray:
    """k(D, arms), (m b, A b), for the dictionary arms D and basis kernel k = k_i.

    ``prev`` is the previous support or None.  The arms only grow, so the
    rows of arms in its dictionary D' are copied from its k_i(D', arms')
    and only their columns at the arms added since are evaluated, with
    the rows of the other dictionary arms.  A kernel entry depends only
    on its two points, so the result is bitwise the fresh k(D, arms).
    """
    if prev is None:
        return k._cross(arms[dict_arms], arms)
    prev_dict, prev_K = prev._dict, prev._K[i]
    b, A, Ap = k.n, arms.shape[0], prev_K.shape[1] // k.n
    pos = np.full(A, -1)  # row of each arm in the previous dictionary
    pos[prev_dict] = np.arange(prev_dict.size)
    old = pos[dict_arms]
    held, new = np.flatnonzero(old >= 0), np.flatnonzero(old < 0)
    K = np.empty((dict_arms.size * b, A * b))
    if held.size:
        rows = _block_cols(held, b)
        K[rows, :Ap * b] = prev_K[_block_cols(old[held], b)]
        if A > Ap:
            K[rows, Ap * b:] = k._cross(arms[dict_arms[held]], arms[Ap:])
    if new.size:
        K[_block_cols(new, b)] = k._cross(arms[dict_arms[new]], arms)
    return K


class _Support:
    """Nystrom statistics over the task-basis systems, resident on the arms.

    Built from the distinct dictionary arms (indices into the arms, each
    once and unweighted), the arms and their visit counts and output sums;
    the prior blocks k(a, a) are evaluated at every arm.  Per kernel it
    keeps k(D, arms), the embedding (K_DD^{1/2})^+ and its rotation
    Q^T (K_DD^{1/2})^+, and per system the shrink factors
    xi_g lambda / (xi_g lambda + eta) and the mean coordinates, for reads
    away from the arms.  ``means``, ``res`` (per-system residual blocks)
    and ``norms`` hold the model at every arm.

    ``prev``, the previous round's support, lends its kernel rows
    (``_dict_rows``) and, when the dictionary lists the same arms in the
    same order, its embedding; the support is bitwise the one built
    without it.
    """

    def __init__(self, basis: _TaskBasis, eta, dict_arms, arms, counts, sums, prev=None):
        self.basis = basis
        b = basis.b
        self._dict, self._Xd = dict_arms, arms[dict_arms]
        seen = np.flatnonzero(counts)
        Yp = basis.project(sums[seen])  # per-arm output sums in basis coordinates
        dcols, ucols = _block_cols(dict_arms, b), _block_cols(seen, b)
        c = np.repeat(counts[seen], b).astype(float)
        same = prev is not None and np.array_equal(prev._dict, dict_arms)
        self._K, self._E, self._emb, phis, lams = [], [], [], [], []
        for i, k in enumerate(basis.kernels):
            K = _dict_rows(k, dict_arms, arms, prev, i)
            E = prev._E[i] if same else _truncated_inv_sqrt(K[:, dcols])
            PU = E @ K[:, ucols]
            # The history Gram V = Phi_U diag(c) Phi_U^T.
            lam, Q = la.eigh((PU * c) @ PU.T, driver="evd")
            self._K.append(K)
            self._E.append(E)
            self._emb.append(Q.T @ E)
            phis.append(self._emb[-1] @ K)  # (r, A b), rotated
            lams.append(lam)
        self._shrink, self._z = [], []
        for i, xi, cols in basis.systems:
            inv = 1.0 / (xi * lams[i] + eta)
            rhs = phis[i][:, ucols] @ Yp[:, cols].reshape(ucols.size, -1)
            self._shrink.append(xi * lams[i] * inv)
            self._z.append(inv[:, None] * rhs)
        self.means = self.mean_at(phis, arms.shape[0])
        self.res = self.residuals_at(phis, [k.diag_blocks(arms) for k in basis.kernels])
        self.norms = basis.assemble_cov_norm(self.res, None)

    def embed(self, Xq) -> list:
        """Rotated embeddings of a stack of queries, one (r_i, N b) array per kernel."""
        return [E @ k._cross(self._Xd, Xq) for E, k in zip(self._emb, self.basis.kernels)]

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
    grid rows, then each off-grid history point when it is first observed.
    ``dictionary`` lists the sampled history points with their inclusion
    probabilities, and ``m`` counts them; the support is built from the
    distinct arms among them, each once and unweighted (module docstring).
    Every rebuild compresses the history per arm, rotates each kernel's
    embedding so that the ridge solves are diagonal, and evaluates the
    model at every arm once.  The support is built over the kernel's
    task-basis systems (posterior._task_systems); no option selects
    another path.

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

    @property
    def m(self) -> int:
        """Sampled history points in the dictionary, repeats of an arm included."""
        return self.dictionary.m

    def _absorb(self, a, y) -> float:
        """Record the observation, resample the dictionary and rebuild the support.

        Inclusion probabilities for all points (the new one included) come
        from the previous round's covariance, and so does the log-det
        increment.  Both are gathered from the previous support's arm
        arrays; only a point that was not an arm then is embedded afresh.
        """
        self._record(a, y)
        basis = self._basis
        if self._support is None:
            res = [basis.kernels[i].diag_blocks(self._arms) for i, _, _ in basis.systems]
            norms = basis.assemble_cov_norm(res, None)
        else:
            res, norms = self._support.res, self._support.norms
            if a == norms.shape[0]:
                new = self._support.residuals(self._arms[a:a + 1])
                res = [np.concatenate(pair) for pair in zip(res, new)]
                norms = np.append(norms, basis.assemble_cov_norm(new, None))
        increment = _logdet_ratio(basis.assemble_cov([R[a] for R in res], None), self.eta, None)
        self.dictionary = resample_dictionary(norms[self._hist_arm], self.q, self.rng)
        # Distinct sampled arms in first-sampled order: repeats and weights
        # leave the span of the support features, hence Phi^T Phi, unchanged.
        sampled = self._hist_arm[self.dictionary.indices]
        _, first = np.unique(sampled, return_index=True)
        self._support = _Support(
            basis, self.eta, sampled[np.sort(first)], self._arms, self._counts, self._sums,
            prev=self._support,
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
