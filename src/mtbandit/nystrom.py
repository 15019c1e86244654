"""Budgeted posteriors over a resampled Nystrom dictionary.

Every round the dictionary is rebuilt from scratch: each past point x_i
enters independently with probability

    p_{t,i} = min{ q * ||approx_cov_{t-1}(x_i, x_i)||, 1 }

so that high-variance (poorly explained) points are more likely to be
kept.  The distinct arms D_t of the retained points define embeddings
Phi_t(x) with

    Phi_t(x)^T Phi_t(x') = k(x, D_t) K_DD^+ k(D_t, x'),

the projection of the features onto their span over D_t.  The BKB
dictionary of Calandriello et al. (COLT 2019) also reweights each
retained point by 1/sqrt(p) and keeps a point once per visit, but a
positive reweighting or a repeated point leaves that span unchanged.  So
the support is built from each sampled arm once, unweighted, and m_t (the
number of sampled history points) can exceed the number of its columns.
Means and covariances then use ridge statistics accumulated over the
full history:

    mu_t(x)       = Phi_t(x)^T (V_t + eta I)^{-1} sum_s Phi_t(x_s) y_s
    Gamma~_t(x,x') = Gamma(x,x') - Phi_t(x)^T Phi_t(x')
                     + eta Phi_t(x)^T (V_t + eta I)^{-1} Phi_t(x')

with V_t = sum_s Phi_t(x_s) Phi_t(x_s)^T.  With a full dictionary and all
probabilities 1 this reproduces the exact posterior.

The state works over the arm universe of the observation front-end
(posterior._Posterior): the rows of the candidate grid, when one is
given, then each distinct off-grid history point, with the arm index of
every history point.  The state adds the visit count and the output sum
of every arm, and the history enters compressed per arm,

    V_t = Phi_U diag(c) Phi_U^T,    sum_s Phi_t(x_s) y_s = Phi_U S_U,

with c the visit counts and S_U the output sums of the observed arms U.

The features are an incomplete Cholesky factor F over the arms, one per
kernel of the basis, built by appending the dictionary arms in dictionary
order.  For arm a, with l = F[:, a] the features it already has, the
pivot is the residual k(a, a) - l^T l.  An arm whose pivot is at most
PINV_RTOL times the largest prior diagonal adds nothing; otherwise it
appends the row (k(a, arms) - l^T F) / sqrt(pivot).  A b x b pivot of the
general system keeps its eigen-directions above that cut, one row each.
A dictionary spanning K_DD exactly gives F^T F = k(arms, D) K_DD^+
k(D, arms); a pivot at the cut leaves a residual of at most the cut at
its arm.  Every feature entry below sqrt(tiny) = 1.5e-154 in magnitude
is 0.0, so no product of two features is subnormal (the kernels module
docstring gives the cost of subnormals).  Far from the dictionary,
features and thus means are exactly 0.0.  A point that is not an arm is
embedded by forward substitution through the pivot triangle, the same
recurrence restricted to the pivot arms.

A rebuild keeps the rows of the longest common prefix of the previous
and the new dictionary and appends the rest.  The dictionary lists its
arms in the order of their first visit in the history, so the same arm
set always gives the same factor and an arm visited for the first time
comes last: a rebuild evaluates no kernel row for an unchanged arm set
and one row k(a, arms) for a newly visited arm.  When every point is
kept, this is also the order in which the arms were first sampled.  A
new arm in the universe voids the prefix, and with no common prefix the
factor is appended from scratch through the same code; the carried
factor is bitwise the one built afresh.

One eigh of the history Gram, V = Q diag(lambda) Q^T, rotates each
kernel's features, so every system's ridge solve is the diagonal scaling
1 / (xi_g lambda + eta) and the residual blocks are

    R~_g(x) = k(x, x) - Phi(x)^T diag(xi_g lambda / (xi_g lambda + eta)) Phi(x)

in rotated coordinates.  Means, residual blocks and covariance norms at
every arm are computed once per rebuild, from the prior blocks k(a, a)
evaluated at every arm.  Grid reads (the grid matched by identity, as in
the exact engine), the resample's history norms and the round's log-det
increment are gathers from these arm arrays; only other queries and a
never-seen off-grid point are embedded afresh.  A rebuild thus holds at
most |D_t| A b^2 feature entries for A arms, whatever t (the exact
engine's rows take t A b^2 floats).  The eigendecomposition of V uses
LAPACK's divide-and-conquer driver (evd).  On the near-identity matrices
of arms many lengthscales apart, whose eigenvalues cluster near 1, it ran
2-3 times as fast as scipy's default MRRR driver (evr) at 30-120 arms,
and no slower on dense ones.

The computation splits over the same task-basis systems as the exact
engine (posterior._task_systems, one rule for both): one factor per
kernel of the basis and one diagonal solve per system.  An ICM kernel
factors its scalar kernel once and a diagonal kernel each distinct scalar
once; any other kernel factors its n x n blocks as a single system.  The
observation checks, the history, the arm universe, the log-det
accumulator and the covariance clamp are the exact posterior's.
"""

import numpy as np
import scipy.linalg as la

from .kernels import MultiTaskKernel, _as_points
from .posterior import _clamp_spectrum, _logdet_ratio, _Posterior, _TaskBasis

__all__ = [
    "Dictionary",
    "resample_dictionary",
    "NystromState",
    "PINV_RTOL",
]

# Relative cut for the pivots of the incomplete Cholesky features; support
# matrices over nearby arms are numerically rank-deficient.
PINV_RTOL = 1e-10
# Feature entries below this magnitude are 0.0: the product of two larger
# ones is a normal float.
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


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


# Support =====================================================================
def _block_cols(idx, b: int) -> np.ndarray:
    """Point-major column positions of the b x b blocks of the points idx."""
    return (np.asarray(idx)[:, None] * b + np.arange(b)).ravel()


def _flush(M) -> np.ndarray:
    """M with every entry below sqrt(tiny) in magnitude set to 0.0, in place."""
    M *= np.abs(M) >= _SQRT_TINY
    return M


def _pivot_rows(P, cut) -> np.ndarray:
    """Rows C, (k, b), with C P C^T = I over the k eigen-directions of the
    b x b pivot P above cut."""
    if P.shape[0] == 1:
        return 1.0 / np.sqrt(P) if P[0, 0] > cut else np.zeros((0, 1))
    w, W = np.linalg.eigh(0.5 * (P + P.T))
    keep = w > cut
    return (W[:, keep] / np.sqrt(w[keep])).T


def _common_prefix(u, v) -> int:
    """Length of the longest common prefix of two 1-D arrays."""
    n = min(u.size, v.size)
    diff = np.flatnonzero(u[:n] != v[:n])
    return int(diff[0]) if diff.size else n


class _Features:
    """Incomplete Cholesky features of one basis kernel k over the arms.

    Appends the dictionary arms from position ``keep`` on to the rows that
    ``prev`` holds for the first ``keep`` (module docstring).  ``F`` (r, A b)
    holds the feature rows; ``C`` (r, b) the pivot direction and ``piv``
    (r,) the arm that made each row; ``ends[j]`` the row count after
    dictionary arm j.
    """

    def __init__(self, k, arms, dict_arms, cut, prev=None, keep=0):
        b, m = k.n, dict_arms.size
        F, C = np.empty((m * b, arms.shape[0] * b)), np.empty((m * b, b))
        piv, ends = np.empty(m * b, dtype=int), np.empty(m, dtype=int)
        n = prev.ends[keep - 1] if keep else 0
        if keep:
            F[:n], C[:n], piv[:n] = prev.F[:n], prev.C[:n], prev.piv[:n]
            ends[:keep] = prev.ends[:keep]
        new = dict_arms[keep:]
        rows = k._cross(arms[new], arms) if new.size else None
        for j, a in enumerate(new):
            krow, cols = rows[j * b:(j + 1) * b], slice(a * b, (a + 1) * b)
            l = F[:n, cols]
            Cj = _pivot_rows(krow[:, cols] - l.T @ l, cut)
            if Cj.size:
                e = n + Cj.shape[0]
                F[n:e] = _flush(Cj @ (krow - l.T @ F[:n]))
                C[n:e], piv[n:e], n = Cj, a, e
            ends[keep + j] = n
        self.F, self.C, self.piv, self.ends = F[:n], C[:n], piv[:n], ends

    def embed(self, k, arms, Xq) -> np.ndarray:
        """Features (r, q b) of the points Xq, by forward substitution through
        the pivot triangle: row i of the pivot arm a_i solves
        C_i (k(a_i, x) - F[:i, a_i]^T phi[:i](x)) = phi_i(x)."""
        b, r, piv = k.n, self.piv.size, self.piv
        rhs = np.einsum("ic,icq->iq", self.C, k._cross(arms[piv], Xq).reshape(r, b, len(Xq) * b))
        T = np.einsum("ic,sic->is", self.C, self.F[:, _block_cols(piv, b)].reshape(r, r, b))
        T *= piv[:, None] != piv[None, :]  # the rows of one pivot are independent
        return _flush(la.solve_triangular(T, rhs, lower=True, unit_diagonal=True,
                                          check_finite=False))


class _Support:
    """Nystrom statistics over the task-basis systems, resident on the arms.

    Built from the distinct dictionary arms (indices into the arms, each
    once and unweighted), the arms and their visit counts and output sums;
    the prior blocks k(a, a) are evaluated at every arm.  Per kernel it
    keeps the features over the arms (``_Features``), the rotation Q^T of
    the history Gram, the shrink factors xi_g lambda / (xi_g lambda + eta)
    of its G_i systems as one (G_i, r) array, and the mean coordinates of
    all their right-hand sides side by side (``_TaskBasis.by_kernel``), for
    reads away from the arms.  ``means``, ``res`` (residual blocks, one
    (N, b, b) stack per system) and ``norms`` hold the model at every arm.

    Each kernel takes one pass over all of its systems, whatever the block
    size b: the right-hand sides of every system come from one product
    with phi_U, and the residual blocks of every system from one product
    of the shrink factors with the entry products of the b x b blocks.

    ``prev``, the previous round's support, lends the feature rows of the
    longest common prefix of the two dictionaries when the arms are the
    same; the support is bitwise the one built without it.
    """

    def __init__(self, basis: _TaskBasis, eta, dict_arms, arms, counts, sums, prev=None):
        self.basis, self._dict, self._arms = basis, dict_arms, arms
        b = basis.b
        keep = 0
        if prev is not None and prev._arms.shape[0] == arms.shape[0]:
            keep = _common_prefix(prev._dict, dict_arms)
        seen = np.flatnonzero(counts)
        Yp = basis.project(sums[seen])  # per-arm output sums in basis coordinates
        ucols = _block_cols(seen, b)
        c = np.repeat(counts[seen], b).astype(float)
        prior = [k.diag_blocks(arms) for k in basis.kernels]
        self._feats, self._rot, self._shrink, self._z, phis = [], [], [], [], []
        for i, (k, (g, pos, owner)) in enumerate(zip(basis.kernels, basis.by_kernel)):
            cut = PINV_RTOL * np.max(np.diagonal(prior[i], axis1=1, axis2=2))
            f = _Features(k, arms, dict_arms, cut, prev._feats[i] if keep else None, keep)
            FU = f.F[:, ucols]
            # The history Gram V = Phi_U diag(c) Phi_U^T.
            lam, Q = la.eigh((FU * c) @ FU.T, driver="evd", check_finite=False)
            phi = Q.T @ f.F  # (r, A b), rotated
            xi = basis._xi[g, None]
            inv = 1.0 / (xi * lam + eta)
            rhs = phi[:, ucols] @ Yp[:, pos.ravel()].reshape(ucols.size, -1)
            self._feats.append(f)
            self._rot.append(Q.T)
            self._shrink.append(xi * lam * inv)
            self._z.append(inv[owner].T * rhs)
            phis.append(phi)
        self.means = self.mean_at(phis, arms.shape[0])
        self.res = self.residuals_at(phis, prior)
        self.norms = basis.assemble_cov_norm(self.res, None)

    def embed(self, Xq) -> list:
        """Rotated embeddings of a stack of queries, one (r_i, N b) array per kernel."""
        return [R @ f.embed(k, self._arms, Xq)
                for R, f, k in zip(self._rot, self._feats, self.basis.kernels)]

    def mean_at(self, phis, N) -> np.ndarray:
        """Means (N, n) from rotated embeddings, one product per kernel."""
        return self.basis.assemble_mean([phi.T @ z for phi, z in zip(phis, self._z)], N)

    def residuals_at(self, phis, prior) -> np.ndarray:
        """Residual blocks R~_g = k_i(x, x) - phi^T diag(shrink_g) phi, (G, N, b, b).

        Per kernel the entry products of every row's b x b blocks are formed
        once and weighed by the shrink factors of all its systems in one
        product.
        """
        b, N = self.basis.b, prior[0].shape[0]
        res = np.empty((len(self.basis.systems), N, b, b))
        for phi, s, P, (g, _, _) in zip(phis, self._shrink, prior, self.basis.by_kernel):
            p = phi.reshape(phi.shape[0], N, b)
            outer = (p[..., :, None] * p[..., None, :]).reshape(phi.shape[0], -1)
            res[g] = P - (s @ outer).reshape(g.size, N, b, b)
        return res

    def residuals(self, Xq) -> np.ndarray:
        """Residual blocks (G, N, b, b) at a stack of queries, embedded afresh."""
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
        arrays, without checking the grid again; every other query (copies
        included) is checked and embedded afresh.
        The caller must not mutate the grid afterwards.  Inputs must have
        the grid's dimension.

    The state's distinct inputs are the arms of the shared front-end: the
    grid rows, then each off-grid history point when it is first observed.
    ``dictionary`` lists the sampled history points with their inclusion
    probabilities, and ``m`` counts them; the support is built from the
    distinct arms among them, each once and unweighted (module docstring).
    Every rebuild appends the dictionary arms after the common prefix with
    the previous dictionary to each kernel's features, compresses the
    history per arm with the visit counts and output sums kept here,
    rotates the features so that the ridge solves are diagonal, and
    evaluates the model at every arm once.  The support is built over the
    kernel's task-basis systems (posterior._task_systems); no option selects
    another path.

    Updates mutate in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, q: float,
                 rng: np.random.Generator, grid=None):
        # Visit count and output sum of every arm, grown with the arms (so
        # set before the front-end adds the grid), and the visited arms in
        # first-visit order.
        self._counts = np.zeros(0, dtype=int)
        self._sums = np.zeros((0, kernel.n))
        self._visited = []
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

    def _add_arms(self, X):
        super()._add_arms(X)
        self._counts = np.concatenate([self._counts, np.zeros(X.shape[0], dtype=int)])
        self._sums = np.vstack([self._sums, np.zeros((X.shape[0], self.kernel.n))])

    def _record(self, a: int, y):
        if not self._counts[a]:
            self._visited.append(a)
        super()._record(a, y)
        self._counts[a] += 1
        self._sums[a] += y

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
            res = np.stack([basis.kernels[i].diag_blocks(self._arms) for i, _, _ in basis.systems])
            norms = basis.assemble_cov_norm(res, None)
        else:
            res, norms = self._support.res, self._support.norms
            if a == norms.shape[0]:
                new = self._support.residuals(self._arms[a:a + 1])
                res = np.concatenate([res, new], axis=1)
                norms = np.append(norms, basis.assemble_cov_norm(new, None))
        increment = _logdet_ratio(basis.assemble_cov(res[:, a], None), self.eta, None)
        self.dictionary = resample_dictionary(norms[self._hist_arm], self.q, self.rng)
        # Distinct sampled arms in first-visit order: repeats and weights
        # leave the span of the support features, hence Phi^T Phi, unchanged.
        sampled = np.zeros(self._arms.shape[0], dtype=bool)
        sampled[self._hist_arm[self.dictionary.indices]] = True
        visited = np.array(self._visited)
        self._support = _Support(
            basis, self.eta, visited[sampled[visited]],
            self._arms, self._counts, self._sums, prev=self._support,
        )
        return increment

    # -- reads ----------------------------------------------------------
    def mean_batch(self, Xq) -> np.ndarray:
        Xq = Xq if Xq is self._grid else _as_points(Xq)  # the grid was checked once
        if self._support is None:
            return np.zeros((Xq.shape[0], self.kernel.n))
        if Xq is self._grid:
            return self._support.means[: Xq.shape[0]].copy()
        return self._support.mean_at(self._support.embed(Xq), Xq.shape[0])

    def cov(self, x) -> np.ndarray:
        """Approximate covariance Gamma~_t(x, x), symmetric PSD-clamped."""
        if self._support is None:
            return _clamp_spectrum(self.kernel.diag_block(x), None, matrix=True)
        return self._basis.assemble_cov(self._support.residuals(_as_points(x))[:, 0], None)

    def cov_norm_batch(self, Xq) -> np.ndarray:
        Xq = Xq if Xq is self._grid else _as_points(Xq)  # the grid was checked once
        if self._support is None:
            return _clamp_spectrum(self.kernel.diag_blocks(Xq), None)[:, -1]
        if Xq is self._grid:
            return self._support.norms[: Xq.shape[0]].copy()
        return self._basis.assemble_cov_norm(self._support.residuals(Xq), None)
