"""Budgeted posteriors over a resampled Nystrom dictionary.

Every round the dictionary is resampled: each past point x_i enters
independently with probability

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

The features are an incomplete Cholesky factor F over the arms of the
basis kernel, which every task-basis system shares, built by appending
the dictionary arms in dictionary order.  For arm a, with l = F[:, a]
the features it already has, the pivot is the residual
k(a, a) - l^T l.  An arm whose pivot is at most PINV_RTOL times the
largest prior diagonal adds nothing; otherwise it appends the row
(k(a, arms) - l^T F) / sqrt(pivot).  A b x b pivot of the general system
is orthonormalised coordinate by coordinate, in order (Gram-Schmidt in
its inner product), and a coordinate whose residual given the earlier
ones is above the cut adds one row.  (Rows along eigenvectors would not
be reproducible: those of tied eigenvalues are fixed only up to a
rotation that rounding picks.)
A dictionary spanning K_DD exactly gives F^T F = k(arms, D) K_DD^+
k(D, arms); a pivot at the cut leaves a residual of at most the cut at
its arm.  Every feature entry below sqrt(tiny) = 1.5e-154 in magnitude
is 0.0, so no product of two features is subnormal (the kernels module
docstring gives the cost of subnormals).  Far from the dictionary,
features and thus means are exactly 0.0.  A point that is not an arm is
embedded by forward substitution through the pivot triangle, the same
recurrence restricted to the pivot arms.

The dictionary lists its arms in the order of their first visit in the
history, so the same arm set always gives the same factor and an arm
visited for the first time comes last.  When every point is kept, this
is also the order in which the arms were first sampled.  Between two
dictionaries the rows of their longest common prefix carry over, so on a
fixed arm universe the factor is bitwise the one built afresh.  The
kernel rows k(a, arms) are evaluated when the arms are appended, one per
appended arm.  A new arm in the universe gets its feature columns by the
embedding recurrence from its kernel blocks with the pivot arms; those
columns agree with a fresh factor to rounding.

Between dictionary losses the model is a ridge regression in a fixed
feature space, as in BKB, so it is updated rather than rebuilt.  Per
task-basis system g it keeps the inverse X_g of A_g = xi_g V + eta I
and, at every arm, the residual blocks

    R~_g(a) = k(a, a) - F_a^T F_a + eta F_a^T X_g F_a,

the covariance above restricted to system g.  A round does one of three
things to them:

* an observation at arm a adds xi_g F_a F_a^T to A_g: a rank-b Woodbury
  update of X_g and of the residual blocks, O(r^2 b + r A b^2) per
  system for r feature rows and A arms;
* dictionary arms appended after the previous ones append feature rows,
  so A_g gains a border: X_g becomes its block inverse through the Schur
  complement, and the residual blocks gain the Schur-complement term,
  O(r A b k) per system for k new rows;
* a dictionary that loses an arm keeps the feature rows of the common
  prefix, appends the rest and solves the model from scratch: one
  Cholesky factor of A_g and its inverse per system, O(r^3 + r^2 A b).
  ``NystromState.rebuilds`` counts these rounds.

The means are recomputed every round from X_g and the compressed
history, O(r^2 + r A) per right-hand side, so they carry only the error
of X_g; the ``budgeted-update-vs-rebuild`` suite of ``mtbandit validate``
checks the updated model against one solved from scratch.  Grid reads
(the grid matched by identity, as in the exact engine), the resample's
history norms and the round's log-det increment are gathers from these
arm arrays; only other queries are embedded afresh.  The model holds at
most |D_t| A b^2 feature entries for A arms, whatever t (the exact
engine's rows take t A b^2 floats).

The computation splits over the same task-basis systems as the exact
engine (posterior._task_systems, one rule for both): one factor of the
basis kernel and one inverse per system.  An ICM kernel, and a diagonal
kernel whose tasks share one scalar-kernel object, factor that scalar
once; any other kernel, a diagonal kernel with distinct scalars
included, factors its n x n blocks as a single system.  The
observation checks, the history, the arm universe, the log-det
accumulator and increment, the Cholesky helpers and the covariance clamp
to [0, kappa] are the exact posterior's.  Before the first observation
the support holds no feature row, and every read is the prior.
"""

import numpy as np
import scipy.linalg as la

from .kernels import MultiTaskKernel, _as_points
from .posterior import (_block_gram, _chol, _inv_lower, _Posterior, _solve_pivot,
                        _TaskBasis)

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
    if not q >= 1:
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
    """Rows C, (k, b), with C P C^T = I for the b x b pivot P: Gram-Schmidt
    in the inner product of P over the coordinates in order, where a
    coordinate whose residual given the earlier ones is at most cut adds
    no row.  So the rows, unlike eigenvectors, depend continuously on P."""
    if P.shape[0] == 1:
        return 1.0 / np.sqrt(P) if P[0, 0] > cut else np.zeros((0, 1))
    P, k = 0.5 * (P + P.T), 0
    C = np.zeros_like(P)
    for j in range(P.shape[0]):
        w = C[:k] @ P[:, j]  # the P inner products of e_j with the rows so far
        d = P[j, j] - w @ w
        if d > cut:
            C[k] = -(w @ C[:k])
            C[k, j] += 1.0
            C[k] /= np.sqrt(d)
            k += 1
    return C[:k]


def _common_prefix(u, v) -> int:
    """Length of the longest common prefix of two 1-D arrays."""
    n = min(u.size, v.size)
    diff = np.flatnonzero(u[:n] != v[:n])
    return int(diff[0]) if diff.size else n


def _observed(counts, b):
    """The observed arms, their block columns and the visit count of each column."""
    seen = np.flatnonzero(counts)
    return seen, _block_cols(seen, b), np.repeat(counts[seen], b).astype(float)


class _Features:
    """Incomplete Cholesky features of one basis kernel k over the arms.

    Built by appending the dictionary arms ``dict_arms`` (module
    docstring); ``append`` adds further arms, evaluating their kernel rows,
    and ``truncate`` keeps the rows of a prefix of them.  ``F`` (r, A b)
    holds the feature rows; ``C`` (r, b) the pivot direction and ``piv``
    (r,) the arm that made each row; ``ends[j]`` the row count after
    dictionary arm j.
    """

    def __init__(self, k, arms, dict_arms, cut):
        b = k.n
        self.F, self.C = np.zeros((0, arms.shape[0] * b)), np.zeros((0, b))
        self.piv, self.ends = np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        self._buf = self.F  # F is its leading rows; appends fill the rest
        self.append(k, arms, dict_arms, cut)

    def append(self, k, arms, new, cut):
        """Append the arms ``new``, evaluating their kernel rows k(new, arms)."""
        if not new.size:
            return
        rows = k._cross(arms[new], arms)
        b, n, m = self.C.shape[1], self.piv.size, new.size
        F = self._buf
        if n + m * b > F.shape[0]:
            F = self._buf = np.empty((max(n + m * b, n + n // 2), F.shape[1]))
            F[:n] = self.F
        C, piv, ends = [self.C], [self.piv], np.empty(m, dtype=int)
        for j, a in enumerate(new):
            krow, cols = rows[j * b:(j + 1) * b], slice(a * b, (a + 1) * b)
            l = F[:n, cols]
            Cj = _pivot_rows(krow[:, cols] - l.T @ l, cut)
            if Cj.size:
                e = n + Cj.shape[0]
                F[n:e] = _flush(Cj @ (krow - l.T @ F[:n]))
                C.append(Cj), piv.append(np.full(e - n, a))
                n = e
            ends[j] = n
        self.F, self.C, self.piv = F[:n], np.concatenate(C), np.concatenate(piv)
        self.ends = np.concatenate([self.ends, ends])

    def add_columns(self, phi):
        """Append the feature columns phi (r, q b) of q new arms."""
        self.F = self._buf = np.hstack([self.F, phi])

    def truncate(self, keep: int):
        """Keep the rows of the first ``keep`` dictionary arms."""
        n = self.ends[keep - 1] if keep else 0
        self.F, self.C, self.piv, self.ends = self.F[:n], self.C[:n], self.piv[:n], self.ends[:keep]

    def embed(self, K) -> np.ndarray:
        """Features (r, q b) of the points whose kernel blocks with the pivot
        arms are K = k(arms[piv], Xq), (r b, q b), by forward substitution
        through the pivot triangle: row i of the pivot arm a_i solves
        C_i (k(a_i, x) - F[:i, a_i]^T phi[:i](x)) = phi_i(x)."""
        b, r, piv = self.C.shape[1], self.piv.size, self.piv
        rhs = np.einsum("ic,icq->iq", self.C, K.reshape(r, b, -1))
        T = np.einsum("ic,sic->is", self.C, self.F[:, _block_cols(piv, b)].reshape(r, r, b))
        T *= piv[:, None] != piv[None, :]  # the rows of one pivot are independent
        return _flush(la.solve_triangular(T, rhs, lower=True, unit_diagonal=True,
                                          check_finite=False))


class _Support:
    """Nystrom model over the task-basis systems, resident on the arms and
    updated in place (module docstring).

    Every system shares the basis kernel, so the model keeps one set of
    features over the arms (``_Features``, which evaluate the kernel rows
    of the arms they append) and the prior blocks k(a, a) at every arm;
    and, stacked over the systems so that every step updates all of them
    at once, the inverses X_g of xi_g V + eta I as one (G, r, r) stack and
    the mean coordinates, for reads away from the arms, as one
    (G, r, r_max) stack in ``_TaskBasis``'s per-system layout.  ``means``,
    ``res`` (residual blocks, (G, A, b, b)) and ``norms`` hold the model at
    every arm, and ``rebuilds`` counts the updates that solved it from
    scratch.  Built empty, it holds no feature row and reads the prior
    everywhere.
    """

    def __init__(self, basis: _TaskBasis, eta, arms):
        none = np.zeros(0, dtype=int)
        G, _, r = basis.ypos.shape
        self.basis, self.eta, self._arms = basis, eta, arms
        self._prior = basis.kernel.diag_blocks(arms)
        self._features = _Features(basis.kernel, arms, none, 0.0)
        self._xi = basis._xi[:, None, None]
        self._inv = np.zeros((G, 0, 0))
        self._z = np.zeros((G, 0, r))
        self._dict = none
        self.res = np.repeat(self._prior[None], G, axis=0)
        self.norms = basis.assemble_cov_norm(self.res)
        self.means = np.zeros((arms.shape[0], basis.U.shape[0]))
        self.rebuilds = 0

    @classmethod
    def solved(cls, basis, eta, dict_arms, arms, counts, sums):
        """The model of the dictionary arms ``dict_arms`` built and solved from scratch."""
        support = cls(basis, eta, arms)
        support._rebuild(0, dict_arms, counts, sums)
        return support

    def add_arm(self, arms):
        """Take in the newest of the arms: its feature columns, embedded from
        its kernel blocks with the pivot arms, and the model's residual
        blocks there."""
        self._arms, x = arms, arms[-1:]
        phi = self.embed(x)
        self._features.add_columns(phi)
        self._prior = np.concatenate([self._prior, self.basis.kernel.diag_blocks(x)])
        new = self.residuals_at(phi, self._prior[-1:])
        self.res = np.concatenate([self.res, new], axis=1)
        self.norms = np.append(self.norms, self.basis.assemble_cov_norm(new))

    def update(self, a, dict_arms, counts, sums):
        """Fold in the observation at arm a, already counted in ``counts`` and
        ``sums``, and move the model to the dictionary arms ``dict_arms``.

        While the dictionary only gains arms the model is updated in place;
        when it loses one, the features keep the rows of the common prefix
        and the model is solved from scratch.
        """
        keep = _common_prefix(self._dict, dict_arms)
        if keep < self._dict.size:
            self.rebuilds += 1
            self._rebuild(keep, dict_arms, counts, sums)
            return
        self._observe(a)
        seen, ucols, c = _observed(counts, self.basis.b)
        f, n0 = self._features, self._features.piv.size
        f.append(self.basis.kernel, self._arms, dict_arms[keep:], self._cut())
        if f.piv.size > n0:
            self._border(n0, ucols, c)
        self._dict = dict_arms
        self._solve_means(seen, ucols, sums)

    def _rebuild(self, keep, dict_arms, counts, sums):
        """Truncate the features to the first ``keep`` dictionary arms, append
        the rest and solve the model from scratch."""
        f = self._features
        f.truncate(keep)
        f.append(self.basis.kernel, self._arms, dict_arms[keep:], self._cut())
        seen, ucols, c = _observed(counts, self.basis.b)
        FU = f.F[:, ucols]
        V = (FU * c) @ FU.T  # the history Gram
        Li = _inv_lower(_chol(self._xi * V + self.eta * np.eye(V.shape[0])))
        self._inv = Li.transpose(0, 2, 1) @ Li
        self.res = self.residuals_at(f.F, self._prior)
        self._dict = dict_arms
        self._solve_means(seen, ucols, sums)

    def _cut(self) -> float:
        """Pivot cut: PINV_RTOL times the largest prior diagonal."""
        return PINV_RTOL * np.max(np.diagonal(self._prior, axis1=1, axis2=2))

    def _observe(self, a):
        """Rank-b update of every system by one visit of arm a (Woodbury).

        A_g gains v v^T, v = sqrt(xi_g) F_a.  With u = X_g v and
        M = I + v^T u = L_M L_M^T, the inverse X_g loses W^T W and the
        residual blocks lose eta times the blocks of (W F)^T (W F), where
        W = L_M^{-1} u^T.
        """
        b, F, X = self.basis.b, self._features.F, self._inv
        v = np.sqrt(self._xi) * F[:, a * b:(a + 1) * b]
        u = X @ v
        W = _solve_pivot(_chol(np.eye(b) + v.transpose(0, 2, 1) @ u), u.transpose(0, 2, 1))
        H = W @ F
        self.res -= self.eta * _block_gram(H, H, b)
        X -= W.transpose(0, 2, 1) @ W

    def _border(self, n0, ucols, c):
        """Grow every system by the feature rows from n0 on.

        With f the k new rows, B = xi_g f_U diag(c) F_U^T their border with
        the old rows, P = X_g B^T and S = xi_g f_U diag(c) f_U^T + eta I
        - B P = L_S L_S^T, the inverse becomes the block inverse
        [[X_g + P S^{-1} P^T, -P S^{-1}], [-S^{-1} P^T, S^{-1}]] and the
        residual blocks gain -f^T f + eta h^T h, h = L_S^{-1} (f - P^T F)
        (the Schur-complement term).
        """
        b, F, X, xi = self.basis.b, self._features.F, self._inv, self._xi
        Fo, Fn = F[:n0], F[n0:]
        Nc = Fn[:, ucols] * c
        Vno, Vnn = Nc @ Fo[:, ucols].T, Nc @ Fn[:, ucols].T
        P = X @ (xi * Vno.T)
        Li = _inv_lower(_chol(xi * (Vnn - Vno @ P) + self.eta * np.eye(Vnn.shape[0])))
        Pt = P.transpose(0, 2, 1)
        Pl, h = Li @ Pt, Li @ (Fn - Pt @ Fo)
        self.res += self.eta * _block_gram(h, h, b) - _block_gram(Fn, Fn, b)
        Lt = Li.transpose(0, 2, 1)
        grown = np.empty((X.shape[0], F.shape[0], F.shape[0]))
        grown[:, :n0, :n0] = X + Pl.transpose(0, 2, 1) @ Pl
        grown[:, n0:, :n0] = -(Lt @ Pl)  # -S^{-1} P^T
        grown[:, :n0, n0:] = grown[:, n0:, :n0].transpose(0, 2, 1)
        grown[:, n0:, n0:] = Lt @ Li
        self._inv = grown

    def _solve_means(self, seen, ucols, sums):
        """Mean coordinates X_g F_U S_U of every system, from the output sums
        of the observed arms ``seen``, and the model at every arm; the
        covariance norms from the residual blocks."""
        F = self._features.F
        self._z = self._inv @ (F[:, ucols] @ self.basis.outputs(sums[seen]))
        self.means = self.mean_at(F, self._arms.shape[0])
        self.norms = self.basis.assemble_cov_norm(self.res)

    def embed(self, Xq) -> np.ndarray:
        """Embeddings (r, N b) of a stack of queries; without feature rows
        every query embeds as no row."""
        f = self._features
        if not f.piv.size:
            return np.zeros((0, Xq.shape[0] * self.basis.b))
        return f.embed(self.basis.kernel._cross(self._arms[f.piv], Xq))

    def mean_at(self, phi, N) -> np.ndarray:
        """Means (N, n) from embeddings (r, N b)."""
        return self.basis.assemble_mean(phi.T @ self._z, N)

    def residuals_at(self, phi, prior) -> np.ndarray:
        """Residual blocks R~_g = k(x, x) - phi^T phi + eta phi^T X_g phi, (G, N, b, b)."""
        b = self.basis.b
        return prior - _block_gram(phi, phi, b) + self.eta * _block_gram(phi, self._inv @ phi, b)

    def residuals(self, Xq) -> np.ndarray:
        """Residual blocks (G, N, b, b) at a stack of queries, embedded afresh."""
        return self.residuals_at(self.embed(Xq), self.basis.kernel.diag_blocks(Xq))


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
        update keeps the means and covariance norms over the grid and
        ``mean_batch(grid)`` or ``cov_norm_batch(grid)`` is a copy.
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
    The history enters compressed per arm, with the visit counts and output
    sums kept here.  While the dictionary only gains arms, every update
    folds the observation into the model and appends the new dictionary
    arms in place; ``rebuilds`` counts the updates whose dictionary lost an
    arm, which keep the features of the common prefix and solve the model
    from scratch.  The support is built over the kernel's task-basis
    systems (posterior._task_systems); no option selects another path.

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
        if not q >= 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = float(q)
        self.rng = rng
        self._basis = _TaskBasis(kernel)
        self.dictionary = Dictionary([], [])
        self._support = _Support(self._basis, self.eta, self._arms)

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

    @property
    def rebuilds(self) -> int:
        """Updates that solved the model from scratch: the rounds whose
        dictionary lost an arm."""
        return self._support.rebuilds

    def _absorb(self, a, y) -> float:
        """Record the observation, resample the dictionary and update the support.

        Inclusion probabilities for all points (the new one included) come
        from the previous round's covariance, and so does the log-det
        increment.  Both are gathered from the support's arm arrays; a
        point new to the arm universe first joins them by its embedding.
        """
        support = self._support
        if a == support.norms.shape[0]:
            support.add_arm(self._arms)
        increment = self._basis.logdet(support.res[:, a], self.eta)
        self._record(a, y)
        self.dictionary = resample_dictionary(support.norms[self._hist_arm], self.q, self.rng)
        # Distinct sampled arms in first-visit order: repeats and weights
        # leave the span of the support features, hence Phi^T Phi, unchanged.
        sampled = np.zeros(self._arms.shape[0], dtype=bool)
        sampled[self._hist_arm[self.dictionary.indices]] = True
        visited = np.array(self._visited)
        support.update(a, visited[sampled[visited]], self._counts, self._sums)
        return increment

    # -- reads ----------------------------------------------------------
    def mean_batch(self, Xq) -> np.ndarray:
        Xq = Xq if Xq is self._grid else _as_points(Xq)  # the grid was checked once
        if Xq is self._grid:
            return self._support.means[: Xq.shape[0]].copy()
        return self._support.mean_at(self._support.embed(Xq), Xq.shape[0])

    def cov(self, x) -> np.ndarray:
        """Approximate covariance Gamma~_t(x, x), symmetric with eigenvalues
        clamped to [0, kappa]."""
        return self._basis.assemble_cov(self._support.residuals(_as_points(x))[:, 0])

    def cov_norm_batch(self, Xq) -> np.ndarray:
        """Approximate covariance norms over a stack of queries, shape (N,),
        clamped to [0, kappa]."""
        Xq = Xq if Xq is self._grid else _as_points(Xq)  # the grid was checked once
        if Xq is self._grid:
            return self._support.norms[: Xq.shape[0]].copy()
        return self._basis.assemble_cov_norm(self._support.residuals(Xq))
