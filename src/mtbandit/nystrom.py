"""Budgeted posteriors over a resampled Nystrom dictionary.

Every round the dictionary is resampled.  Each arm a visited so far
enters independently with probability

    1 - (1 - p_{t,a})^{c_a},    p_{t,a} = min{ q * ||approx_cov_{t-1}(a, a)||, 1 },

with c_a its visit count, so that high-variance (poorly explained) arms
are more likely to be kept.  The dictionary D_t of the sampled arms
defines embeddings Phi_t(x) with

    Phi_t(x)^T Phi_t(x') = k(x, D_t) K_DD^+ k(D_t, x'),

the projection of the features onto their span over D_t.  The BKB
dictionary of Calandriello et al. (COLT 2019) samples every past point
with its probability p_{t,i}, reweights it by 1/sqrt(p) and keeps it once
per visit.  A positive reweighting or a repeated point leaves that span
unchanged, and every visit to arm a has the same p_{t,a}, so BKB's
support holds arm a with the probability above, independently of the
other arms: sampling one uniform per visited arm draws the same
distribution over supports.  The support holds each sampled arm once,
unweighted, and m_t = |D_t| is the number of its arms.  A draw that keeps
no arm keeps the newest point's arm.  Means and covariances then use
ridge statistics accumulated over the full history:

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
recurrence restricted to the pivot arms, in ``posterior._solve_lower``, the
one triangle solve of both posteriors; only these reads load SciPy.

The dictionary lists its arms in the order of their first visit in the
history, so the same arm set always gives the same factor and an arm
visited for the first time comes last.  Between two dictionaries the
rows of their longest common prefix carry over, so on a fixed arm
universe the factor is bitwise the one built afresh.  The kernel rows
k(a, arms) are evaluated when the arms are appended, one per appended
arm.  A new arm in the universe gets its feature columns by the
embedding recurrence from its kernel blocks with the pivot arms; those
columns agree with a fresh factor to rounding.

Between dictionary losses the model is a ridge regression in a fixed
feature space, as in BKB, so it is updated rather than rebuilt.  Per
task-basis system g it keeps the inverse X_g of A_g = xi_g V + eta I
and, at every arm, the residual blocks

    R~_g(a) = k(a, a) - F_a^T F_a + eta F_a^T X_g F_a,

the covariance above restricted to system g.  A round updates them in
one step (``_Support._step``), in which the round's observation and the
k feature rows of the dictionary arms it appends enter together:

* an observation at arm a adds xi_g F_a F_a^T to A_g, a rank-b Woodbury
  update of X_g and of the residual blocks;
* the appended rows border A_g: X_g becomes its block inverse through the
  Schur complement, taken against the observed inverse without forming
  it, and the residual blocks gain the Schur-complement term.

One product over the old feature rows gives both residual terms, and one
rank-(b + k) product updates the old block of X_g in place; X_g lives in
a buffer that then only takes the border.  That is O(r^2 (b + k) +
r A b (b + k)) per system for r feature rows and A arms, and a round that
appends no row is the Woodbury update alone, O(r^2 b + r A b^2).  A
dictionary that loses an arm resets the model: the features keep the
rows of the common prefix, X_g covers no row and the residual blocks are
the prior.  The same step with no observation then takes in every row,
which solves the model from scratch, O(r^3 + r^2 A b) per system.
``NystromState.rebuilds`` counts these rounds.  A support solved from
scratch is an empty one grown this way.

The model keeps no coefficient.  Per system it keeps the moments
m_g = F_U S_g, S_g the output sums of the observed arms projected on the
system's basis columns, and at every arm the task-space means and the
covariance norms; z_g = X_g m_g is solved only for a point off the arms.
The step moves the means by the rows it has already formed: an
observation adds F_a Y_a to m_g, and the means gain
sum_g (W F)^T e_W U_g^T with e_W from W, L_M and the moment; the
appended rows append f_U S_g to m_g, and the means gain the same product
of the Schur-complement rows h and e_h (``_Support._step``).  A reset
zeroes the means and empties the moments.  After every step the norms
are assembled once from the residual blocks; the next round's resample
gathers them at the visited arms.  The ``budgeted-update-vs-rebuild``
suite of ``mtbandit validate`` checks the kept means, norms and residual
blocks against one model solved from scratch.  The reads are the
front-end's (posterior module docstring): a grid read (the grid matched
by identity) returns views of the kept means and norms, and the round's
log-det increment gathers the residual blocks at its arm; only other
queries are embedded afresh.  The model holds at most |D_t| A b^2
feature entries for A arms, whatever t (the exact engine's rows take
t A b^2 floats).

The computation splits over the same task-basis systems as the exact
engine (posterior._task_systems, one rule for both): one factor of the
basis kernel and one inverse per system.  An ICM kernel, and a diagonal
kernel whose tasks share one scalar-kernel object, factor that scalar
once; any other kernel, a diagonal kernel with distinct scalars
included, factors its n x n blocks as a single system.  The
observation and query checks, the reads, the history, the arm universe,
the log-det accumulator and increment, the Cholesky helpers and the
covariance clamp to [0, kappa] are the exact posterior's.  Before the
first observation the support holds no feature row, and every read is
the prior.
"""

import numpy as np

from .kernels import MultiTaskKernel
from .posterior import (_block_gram, _chol, _inv_lower, _Posterior, _put, _solve_lower,
                        _solve_pivot, _TaskBasis)

__all__ = [
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


def resample_dictionary(norms, counts, q: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli-sample a fresh dictionary over the visited arms.

    ``norms`` and ``counts`` give each visited arm's covariance norm and
    visit count c.  With p = min{q * norm, 1}, an arm is kept with
    probability 1 - (1 - p)^c, the chance that one of its c visits is kept
    when each is kept with p (module docstring).  One uniform is drawn per
    arm regardless of its probability, so the rng stream advances
    identically across configurations.  Returns the positions of the kept
    arms, increasing; it may be empty.
    """
    norms = np.asarray(norms, dtype=float)
    counts = np.asarray(counts)
    # One reduction per check; a NaN fails the comparisons it reaches.
    if norms.ndim != 1 or counts.shape != norms.shape or not counts.min(initial=1) >= 1:
        raise ValueError("norms and positive counts must be 1-D and aligned")
    if not (norms.min(initial=0.0) >= 0 and norms.max(initial=0.0) < np.inf):
        raise ValueError("variance norms must be finite and nonnegative")
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    p = np.minimum(q * norms, 1.0)
    # log(1 - p), with -inf where p = 1: an arm of probability 1 is kept.
    log_miss = np.log1p(-p, out=np.full_like(p, -np.inf), where=p < 1)
    keep = -np.expm1(counts * log_miss)
    return (rng.random(norms.shape[0]) < keep).nonzero()[0]


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
    diff = (u[:n] != v[:n]).nonzero()[0]
    return int(diff[0]) if diff.size else n


def _observed(counts, b):
    """The observed arms, their block columns and the visit count of each column."""
    seen = counts.nonzero()[0]
    return seen, _block_cols(seen, b), counts[seen].repeat(b).astype(float)


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
        return _flush(_solve_lower(T, rhs, unit_diagonal=True))


class _Support:
    """Nystrom model over the task-basis systems, resident on the arms and
    updated in place (module docstring).

    Every system shares the basis kernel, so the model keeps one set of
    features over the arms (``_Features``, which evaluate the kernel rows
    of the arms they append), the prior blocks k(a, a) at every arm and
    their largest diagonal ``_top``, which scales the pivot cut; and,
    stacked over the systems so that every step updates all of them at
    once, the inverses X_g of xi_g V + eta I as the leading (G, r, r) view
    ``_inv`` of a ``_put`` buffer, which a round that gains rows grows by
    writing only their border, the moments ``moments`` m_g = F_U S_g as
    the leading (G, r, r_max) view of another, in ``_TaskBasis``'s
    per-system layout, and the residual blocks ``res`` (G, A, b, b) at
    every arm.  At every arm it also keeps the task-space means ``mean``
    (A, n) and the covariance norms ``norms`` (A,), which every update
    replaces.  ``rebuilds`` counts the updates whose dictionary lost an
    arm.  Built empty, it holds no feature row and reads the prior
    everywhere.
    """

    def __init__(self, basis: _TaskBasis, eta, arms):
        self.basis, self.eta, self._arms = basis, eta, arms
        self._prior = basis.kernel.diag_blocks(arms)
        self._top = np.max(np.diagonal(self._prior, axis1=1, axis2=2), initial=0.0)
        self._features = _Features(basis.kernel, arms, np.zeros(0, dtype=int), 0.0)
        self._xi = basis._xi[:, None, None]
        self._sqrt_xi = np.sqrt(self._xi)
        self._eye = np.eye(basis.b)
        self._ridge = np.zeros((0, 0))  # eta I_k for the largest k of a border so far
        self._dict = np.zeros(0, dtype=int)
        G, _, r = basis.ypos.shape
        self._buf = np.zeros((G, 0, 0))
        self._mbuf = np.zeros((G, 0, r))
        self._reset(0)
        self.norms = basis.assemble_cov_norm(self.res)
        self.rebuilds = 0

    @classmethod
    def solved(cls, basis, eta, dict_arms, arms, counts, sums):
        """The model of the dictionary arms ``dict_arms`` solved from scratch:
        an empty support grown by them."""
        support = cls(basis, eta, arms)
        support._grow(None, None, dict_arms, counts, sums)
        return support

    def add_arm(self, arms):
        """Take in the newest of the arms: its feature columns, embedded from
        its kernel blocks with the pivot arms, and the model's residual
        blocks, mean and covariance norm there."""
        self._arms, x, basis = arms, arms[-1:], self.basis
        phi = self.embed(x)
        self._features.add_columns(phi)
        prior = basis.kernel.diag_blocks(x)
        self._prior = np.concatenate([self._prior, prior])
        self._top = max(self._top, np.max(np.diagonal(prior, axis1=1, axis2=2)))
        res = self.residuals_at(phi, prior)
        self.res = np.concatenate([self.res, res], axis=1)
        self.mean = np.concatenate([self.mean, basis.assemble_mean(self.coords(phi))])
        self.norms = np.concatenate([self.norms, basis.assemble_cov_norm(res)])

    def update(self, a, y, dict_arms, counts, sums):
        """Fold in the observation y at arm a, already counted in ``counts``
        and ``sums``, and move the model to the dictionary arms ``dict_arms``.

        While the dictionary only gains arms, the observation and the rows
        of the appended arms enter the model in place, in one step.  When it
        loses one, the model is reset to the features of the common prefix,
        which then enter as new rows by the same step with no observation.
        """
        keep = _common_prefix(self._dict, dict_arms)
        if keep < self._dict.size:
            self.rebuilds += 1
            self._reset(keep)
            a = None
        self._grow(a, y, dict_arms, counts, sums)

    def _reset(self, keep):
        """Keep the feature rows of the first ``keep`` dictionary arms and drop
        the model over them: no inverse, no moment, prior residual blocks
        and zero means."""
        self._features.truncate(keep)
        self._inv = self._buf[:, :0, :0]
        self.moments = self._mbuf[:, :0]
        self.res = np.repeat(self._prior[None], self._xi.shape[0], axis=0)
        self.mean = np.zeros((self._arms.shape[0], self.basis.U.shape[0]))

    def _grow(self, a, y, dict_arms, counts, sums):
        """Append the dictionary arms past those of the features, step every
        system by the observation y at arm a (none if a is None) and the
        feature rows its inverse does not cover, and assemble the covariance
        norms at the arms."""
        f, n0 = self._features, self._inv.shape[1]
        f.append(self.basis.kernel, self._arms, dict_arms[f.ends.size:], PINV_RTOL * self._top)
        if a is not None or f.piv.size > n0:
            self._step(a, y, n0, counts, sums)
        self._dict = dict_arms
        self.norms = self.basis.assemble_cov_norm(self.res)

    def _step(self, a, y, n0, counts, sums):
        """Fold the observation y at arm a (none if a is None) and the feature
        rows from n0 on into every system, given the visit counts and output
        sums of the arms.

        The observation adds v v^T, v = sqrt(xi_g) F_a, to A_g and F_a Y_a
        to the moment m_g, Y_a the projected output (``_TaskBasis.outputs``).
        With u = X_g v, M = I + v^T u = L_M L_M^T and W = L_M^{-1} u^T, the
        observed inverse is X_g - W^T W (Woodbury), the residual blocks lose
        eta times the blocks of (W F)^T (W F), and the mean coordinates
        gain (W F)^T e_W / xi_g, e_W = sqrt(xi_g) L_M^T Y_a - xi_g W m_g.
        A round that gains no row stops there.  Otherwise, with f the k new
        rows and Y = xi_g F_U diag(c) f_U^T, the border P = X_g Y - W^T (W Y)
        is taken against the observed inverse without forming it, and
        S = xi_g f_U diag(c) f_U^T + eta I - Y^T P = L_S L_S^T.  The inverse
        becomes the block inverse
        [[X_g - W^T W + P S^{-1} P^T, -P S^{-1}], [-S^{-1} P^T, S^{-1}]]:
        one rank-(b + k) product of [W; L_S^{-1} P^T], its entries below
        sqrt(tiny) set to 0.0 so that no product is subnormal, updates the
        old block in place, and only the border is written.  The moments
        gain the rows f_U S_g.  With h = L_S^{-1} (f - P^T F) the residual
        blocks gain -f^T f + eta h^T h (the Schur-complement term) and the
        mean coordinates h^T e_h / xi_g, e_h = xi_g L_S^{-1} (f_U S_g -
        P^T m_g).  One product [W; P^T] F gives both residual terms, and one
        ``_TaskBasis.mean_step`` of [W F; h] and [e_W; e_h] the means.
        """
        basis, eta, xi, X = self.basis, self.eta, self._xi, self._inv
        b, F, m = basis.b, self._features.F, self.moments
        Fo, r = F[:n0], F.shape[0]
        if a is not None:
            Fa, Ya = Fo[:, a * b:(a + 1) * b], basis.outputs(y[None])
            m += Fa @ Ya
            v = self._sqrt_xi * Fa
            u = X @ v
            L = _chol(self._eye + v.transpose(0, 2, 1) @ u)
            W = _solve_pivot(L, u.transpose(0, 2, 1))
            e = self._sqrt_xi * (L.transpose(0, 2, 1) @ Ya) - xi * (W @ m)
            if r == n0:
                H = W @ Fo
                self.res -= eta * _block_gram(H, H, b)
                self.mean = self.mean + basis.mean_step(H, e)
                X -= W.transpose(0, 2, 1) @ W
                return
        else:
            W, e = np.zeros((X.shape[0], 0, n0)), np.zeros((X.shape[0], 0, m.shape[2]))
        seen, ucols, c = _observed(counts, b)
        FU = F[:, ucols]  # the features at the observed arms
        Nc, w, Fn = FU[n0:] * c, W.shape[1], F[n0:]
        Vno, Vnn = Nc @ FU[:n0].T, Nc @ FU[n0:].T
        Y = xi * Vno.T
        P = X @ Y - W.transpose(0, 2, 1) @ (W @ Y)
        if r - n0 > self._ridge.shape[0]:
            self._ridge = eta * np.eye(r - n0)
        Li = _inv_lower(_chol(xi * (Vnn - Vno @ P) + self._ridge[:r - n0, :r - n0]))
        Pt = P.transpose(0, 2, 1)
        H = np.concatenate([W, Pt], axis=1) @ Fo  # [W F; P^T F]
        h, WF = Li @ (Fn - H[:, w:]), H[:, :w]
        self.res += eta * (_block_gram(h, h, b) - _block_gram(WF, WF, b)) - _block_gram(Fn, Fn, b)
        mn = FU[n0:] @ basis.outputs(sums[seen])  # the moment rows f_U S_g
        e = np.concatenate([e, xi * (Li @ (mn - Pt @ m))], axis=1)
        self.mean = self.mean + basis.mean_step(np.concatenate([WF, h], axis=1), e)
        R = _flush(np.concatenate([W, Li @ Pt], axis=1))
        Pl = R[:, w:]
        X += np.concatenate([-R[:, :w], Pl], axis=1).transpose(0, 2, 1) @ R
        Lt = Li.transpose(0, 2, 1)
        buf = self._buf = _put(self._buf, n0, n0, Lt @ Li)  # S^{-1}
        buf[:, n0:r, :n0] = -(Lt @ Pl)  # -S^{-1} P^T
        buf[:, :n0, n0:r] = buf[:, n0:r, :n0].transpose(0, 2, 1)
        self._inv = buf[:, :r, :r]
        self._mbuf = _put(self._mbuf, n0, 0, mn)
        self.moments = self._mbuf[:, :r]

    def coords(self, phi) -> np.ndarray:
        """Mean coordinates phi^T z_g (G, N b, r_max) of the embeddings phi
        (r, N b), with the coefficients z_g = X_g m_g solved here."""
        return phi.T @ (self._inv @ self.moments)

    def embed(self, Xq) -> np.ndarray:
        """Embeddings (r, N b) of a stack of queries; without feature rows
        every query embeds as no row."""
        f = self._features
        if not f.piv.size:
            return np.zeros((0, Xq.shape[0] * self.basis.b))
        return f.embed(self.basis.kernel._cross(self._arms[f.piv], Xq))

    def residuals_at(self, phi, prior) -> np.ndarray:
        """Residual blocks R~_g = k(x, x) - phi^T phi + eta phi^T X_g phi, (G, N, b, b)."""
        b = self.basis.b
        return prior - _block_gram(phi, phi, b) + self.eta * _block_gram(phi, self._inv @ phi, b)


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
        Owns the Bernoulli dictionary draws, one uniform per visited arm and
        round; advancing it is the only source of randomness in this state.
    grid : (N, d) float ndarray or None
        Fixed candidate stack that will be queried every round, as for
        ``PosteriorState``.  Its rows are the first N arms, so
        ``mean_batch(grid)`` and ``cov_norm_batch(grid)`` return read-only
        views of the means and covariance norms kept at every arm, without
        checking the grid again.  Only a query that *is* this array object
        is served from the arm arrays; every other query (copies included)
        is checked and embedded afresh.
        The caller must not mutate the grid afterwards.  Inputs must have
        the grid's dimension.

    The state's distinct inputs are the arms of the shared front-end: the
    grid rows, then each off-grid history point when it is first observed.
    Every round draws the dictionary over the visited arms, one Bernoulli
    per arm (module docstring).  ``dictionary`` is the (m,) int array of the
    sampled arms in first-visit order, on which the support is built, each
    once and unweighted, and ``m`` is its size.  The history enters
    compressed per arm, with the visit counts and output sums kept here.
    While the dictionary only gains arms, every update folds the
    observation and the new dictionary arms into the model in place, in
    one step; ``rebuilds`` counts the updates whose dictionary lost an
    arm, which reset the model to the features of the common prefix and
    solve it from scratch by the same step.  The support is built over
    the kernel's task-basis systems (posterior._task_systems); no option
    selects another path.

    Updates mutate in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, q: float,
                 rng: np.random.Generator, grid=None):
        # Visit count and output sum of every arm, grown with the arms (so
        # set before the front-end adds the grid), and the visited arms in
        # first-visit order, in a _put buffer valid in its first rows.
        self._counts = np.zeros(0, dtype=int)
        self._sums = np.zeros((0, kernel.n))
        self._order, self._nvisited = np.zeros((0, 1), dtype=int), 0
        super().__init__(kernel, eta, grid)
        if not q >= 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = float(q)
        self.rng = rng
        self._basis = _TaskBasis(kernel)
        self._support = _Support(self._basis, self.eta, self._arms)

    @property
    def dictionary(self) -> np.ndarray:
        """The dictionary arms, (m,) in first-visit order."""
        return self._support._dict

    @property
    def m(self) -> int:
        """Arms in the dictionary."""
        return self.dictionary.size

    @property
    def _visited(self) -> np.ndarray:
        """The visited arms in first-visit order, (|U|,)."""
        return self._order[:self._nvisited, 0]

    @property
    def _mean(self) -> np.ndarray:
        return self._support.mean

    @property
    def _norms(self) -> np.ndarray:
        return self._support.norms

    def _add_arms(self, X):
        super()._add_arms(X)
        self._counts = np.concatenate([self._counts, np.zeros(X.shape[0], dtype=int)])
        self._sums = np.vstack([self._sums, np.zeros((X.shape[0], self.kernel.n))])

    def _record(self, a: int, y):
        if not self._counts[a]:
            self._order = _put(self._order, self._nvisited, 0, np.array([[a]]))
            self._nvisited += 1
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

        Inclusion probabilities for the visited arms (the new one included)
        come from the previous round's covariance, and so does the log-det
        increment: the norms kept at the arms and the residual blocks at a.
        A point new to the arm universe first joins the arm arrays by its
        embedding.  A draw that keeps no arm keeps arm a, the newest point's.
        """
        support = self._support
        if a == support.res.shape[1]:
            support.add_arm(self._arms)
        increment = self._basis.logdet(support.res[:, a], self.eta)
        self._record(a, y)
        visited = self._visited
        drawn = resample_dictionary(support.norms[visited], self._counts[visited], self.q, self.rng)
        kept = visited[drawn] if drawn.size else np.array([a])
        support.update(a, y, kept, self._counts, self._sums)
        return increment

    def _coords_at(self, Xq) -> np.ndarray:
        """Mean coordinates (G, N b, r) at the points Xq, embedded afresh."""
        return self._support.coords(self._support.embed(Xq))

    def _res_at(self, Xq) -> np.ndarray:
        """Residual blocks (G, N, b, b) at the points Xq, embedded afresh."""
        support = self._support
        return support.residuals_at(support.embed(Xq), self._basis.kernel.diag_blocks(Xq))
