"""Exact vector-valued kernel ridge regression posteriors.

After observing (x_1, y_1), ..., (x_t, y_t) the posterior over a function
in the RKHS of a multi-task kernel Gamma is

    mu_t(x)       = G_t(x)^T (G_t + eta I_nt)^{-1} Y_t
    Gamma_t(x, x) = Gamma(x, x) - G_t(x)^T (G_t + eta I_nt)^{-1} G_t(x)

with G_t the point-major block kernel matrix, G_t(x) the stacked cross
blocks, and Y_t the concatenated outputs.  The state also accumulates

    logdet_sum = sum_{s<=t} log det(I_n + eta^{-1} Gamma_{s-1}(x_s, x_s))

incrementally; by the Schur telescoping identity this equals
log det(I_nt + eta^{-1} G_t) and feeds the confidence radii.

One engine solves every kernel.  It writes the kernel in a task basis as

    Gamma(x, x') = sum_g xi_g U_g (k(x, x') (x) I_{r_g}) U_g^T

with one kernel k of b x b blocks shared by every term, weights xi_g >= 0
and orthonormal column blocks U_g of width b r_g.  The nt x nt solve then
splits into one ridge system (xi_g K + eta I) of size t b per term,
acting on r_g right-hand sides: the projected outputs Y_t U_g, stacked
point-major.  The systems are chosen by one rule (``_task_systems``):

* an ICM kernel k * B gives its scalar kernel (b = 1) once per cluster
  of equal positive eigenvalues of B, with the cluster's eigenvectors;
* a diagonal kernel whose tasks all share one scalar-kernel object gives
  that scalar as one b = 1 system (xi = 1, U = I): the independent-task
  baseline;
* any other kernel is a single system: the kernel itself, with b = n,
  xi = 1 and U = I.  This is the general block solve, and it also takes a
  diagonal kernel with distinct scalars.

The observation front-end ``_Posterior`` keeps a universe of arms: the
rows of the candidate grid, when one is given, then each distinct
off-grid history point from its first visit, and the arm of every
history point.

The engine keeps each system as one row per observation over the arms.
Write P_g for its posterior covariance (prior k; Gamma_t restricted to
system g is xi_g P_g) and w_g for its mean coordinates.  Observation s at
arm a_s has the pivot S_s = xi_g P_{s-1}(a_s, a_s) + eta I_b = L_s L_s^T,
the row u_s = L_s^{-1} P_{s-1}(a_s, arms) and the innovation
z_s = L_s^{-1} (y_s - mu_{s-1}(a_s)) U_g, so that

    P_t = k(arms, arms) - xi_g sum_{s<=t} u_s^T u_s,   w_t = sum_{s<=t} u_s^T z_s

and mu_t(a) = sum_g xi_g w_t(a) U_g^T.  As U is orthogonal, the innovation
is the residual of the projected outputs, y_s U_g - xi_g w_{s-1}(a_s),
and no weight is divided by.  P_t is never formed.  The system keeps the
rows, L_s and z_s, and at every arm the residual diagonal blocks
P_t(a, a); the engine keeps at every arm the task-space mean mu_t and the
covariance norm ||Gamma_t(a, a)||.  Each observation updates the blocks
by its row and the means by the one product sum_g xi_g (u_s^T z_s) U_g^T,
and the log-det increment is read off its pivot.
An update at arm a needs the pre-update column P_{t-1}(arms, a).  When a
was last observed at step s0, the column restarts from that row,

    P_{t-1}(arms, a) = u_{s0}^T L_{s0}^T - xi_g sum_{s0<=s<t} u_s^T u_s[a],

which carries the precision: over 400 noiseless updates at eta = 1e-6 the
log-det stays within 2.3e-12 relative, against 1.6e-11 for columns summed
from the prior.  A first visit starts from the prior column k(arms, a)
and sums every row.  A point x that is not an arm gets its block in every
row by one forward substitution,

    u_s[x] = L_s^{-1} (k(a_s, x) - xi_g sum_{s'<s} u_{s'}[a_s]^T u_{s'}[x]),

through the block lower-triangular history matrix with L_s on its
diagonal.  A new off-grid arm enters this way before its update.

Both posteriors read alike.  Each keeps the means ``_mean`` (A, n) and
the covariance norms ``_norms`` (A,) at every arm, and its ``update``
replaces both arrays rather than writing into them.  ``_Posterior``
defines ``mean_batch``, ``cov`` and ``cov_norm_batch`` once.  A query
that is the grid (the same array object; the caller must not mutate it)
reads read-only views of the kept arrays, which no later update changes.
Any other query, and ``cov`` at any point, uses two hooks of the engine:
the mean coordinates w_t and the residual blocks at the queried points,
which ``_TaskBasis`` assembles into means, covariances and norms.  Here
they come from the forward substitution above, giving the mean
coordinates sum_s u_s[x]^T z_s and the residual
k(x, x) - xi_g sum_s u_s[x]^T u_s[x].
``_solve_lower`` is the one triangle solve, of this engine and of the
budgeted one; it imports SciPy on first use, so only reads away from the
arms load SciPy.

Per system an update at an arm last seen at step s0 costs O((t - s0) A b^2)
for A arms, a first visit O(t A b^2), a grid read O(1), and a new arm or
a read of q other points O((t b)^2 (1 + q b)).  The rows take t A b^2
floats: on the 6,400-arm branin grid 5 MB per system after 100
observations, where an arm-space covariance would take 328 MB.  The
systems share the kernel, b, t and the arms, so their arrays are stacked
and updated together, and each kernel value serves all of them.  No
weight is divided by, so a zero coupling keeps a zero-weight system.

At the bench sizes (about 100 arms, 4 tasks) a round costs NumPy calls
rather than flops, so the round path makes as few as it can.  What
depends only on the task basis is built once per basis, in
``_TaskBasis``: the maps between outputs, coordinates and task space and
the log-det gather index.  What depends only on eta is built once per
state: eta I_b here, the identities of the budgeted step there.  Each
per-round reduction is one ufunc or array method (``np.maximum`` rather
than ``np.clip``, ``.max`` rather than ``np.max``), with the bits of the
wrapper, and a b = 1 block Gram is a product and a sum, with the
einsum's bits except at a single query (``_block_gram``).

The budgeted posterior in the nystrom module shares the front-end with
its checks and its reads, the factor helpers, the triangle solve and the
covariance clamp.  It builds its support over the same systems, in the
same per-system coordinate layout, keeps the same arrays at the arms,
and assembles its reads, its mean updates and its log-det increments
with the same ``_TaskBasis`` methods.
"""

import numpy as np

from .kernels import DiagonalKernel, ICMKernel, MultiTaskKernel, _as_points

__all__ = [
    "PosteriorState",
]


def _clamp(vals, cap) -> np.ndarray:
    """vals clamped to [0, cap], cap None setting no upper bound, by one
    ``np.maximum`` and at most one ``np.minimum``: NaN propagates, and a
    -0.0 comes out as +0.0 (``np.clip`` with a cap would keep -0.0)."""
    vals = np.maximum(vals, 0.0)
    return vals if cap is None else np.minimum(vals, cap, out=vals)


def _clamp_spectrum(M, cap, matrix=False) -> np.ndarray:
    """Clamp the eigenvalues of a covariance to [0, cap] (``_clamp``).

    M is a matrix or a stack of matrices, symmetrised before the eigen
    decomposition, or a 1-D array of eigenvalues already known.  Returns
    the clamped eigenvalues (ascending for a matrix), or with ``matrix``
    the matrix rebuilt from them.  A 1 x 1 block is its own eigenvalue.
    Every covariance clamp of the exact and the budgeted posterior goes
    through here.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim == 1 or M.shape[-1] == 1:
        vals = _clamp(M, cap)
        return vals if matrix or M.ndim == 1 else vals[..., 0]
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    if not matrix:
        return _clamp(np.linalg.eigvalsh(M), cap)
    vals, vecs = np.linalg.eigh(M)
    vals = _clamp(vals, cap)
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _block_gram(A, B, b: int) -> np.ndarray:
    """Per-query b x b blocks of A^T B for point-major columns, shape (N, b, b);
    leading axes of A and B, if any, stack such products.  For b = 1 it is
    the product summed over the rows: bitwise the einsum when the query axis
    is innermost in memory.  For a single query the rows are, and the two
    sum them in different orders."""
    if b == 1:
        return (A * B).sum(axis=-2)[..., None, None]
    A3 = A.reshape(*A.shape[:-1], A.shape[-1] // b, b)
    B3 = B.reshape(*B.shape[:-1], B.shape[-1] // b, b)
    return np.einsum("...kja,...kjb->...jab", A3, B3)


def _group_eigenvalues(xis: np.ndarray):
    """Group descending eigenvalues into (value, column-index) clusters.

    Numerically repeated eigenvalues (relative gap below 1e-12) share one
    system; exact zeros are dropped because their terms vanish
    analytically.
    """
    groups = []
    scale = max(float(xis[0]), 1e-300) if xis.size else 1.0
    for i, xi in enumerate(xis):
        if xi <= 0.0:
            continue
        if groups and abs(groups[-1][0] - xi) <= 1e-12 * scale:
            groups[-1][1].append(i)
        else:
            groups.append((float(xi), [i]))
    return [(xi, np.asarray(cols, dtype=int)) for xi, cols in groups]


def _task_systems(kernel: MultiTaskKernel):
    """The ridge systems of a multi-task kernel, by the module's one rule.

    Returns (U, k, systems): an orthonormal (n, n) basis U, the one kernel
    k of every system (a ``ScalarKernel`` is the b = 1 case), and one
    (xi, cols) per system, so that

        Gamma = sum over (xi, cols) of xi U[:, cols] (k (x) I_r) U[:, cols]^T

    with r = |cols| / b.  A diagonal kernel splits only when all its tasks
    share one scalar-kernel object; with distinct scalars it is the general
    system.  ``SumSeparableKernel(kernel.terms)`` is the same kernel as the
    single general system, with the same ``_cross`` bits.
    """
    n = kernel.n
    if isinstance(kernel, ICMKernel):
        # A zero coupling keeps one zero-weight system, so no basis is empty.
        groups = _group_eigenvalues(kernel.spectrum.eigenvalues) or [(0.0, np.arange(n))]
        return kernel.spectrum.eigenvectors, kernel.scalar, groups
    if isinstance(kernel, DiagonalKernel) and all(
            k is kernel.scalars[0] for k in kernel.scalars):
        return np.eye(n), kernel.scalars[0], [(1.0, np.arange(n))]
    return np.eye(n), kernel, [(1.0, np.arange(n))]


def _put(buf, i: int, j: int, block) -> np.ndarray:
    """buf with block written at row i, column j of its last two axes.

    A buffer too small is first replaced by a zero-padded copy of the same
    dtype; a side that must grow grows by at least half, so a buffer filled
    a few rows or columns at a time copies each entry O(1) times on average
    and holds at most half as much again as it needs.
    """
    *lead, r, c = buf.shape
    rows, cols = i + block.shape[-2], j + block.shape[-1]
    if rows > r or cols > c:
        out = np.zeros((*lead, r if rows <= r else max(rows, r + r // 2),
                        c if cols <= c else max(cols, c + c // 2)), dtype=buf.dtype)
        out[..., :r, :c] = buf
        buf = out
    buf[..., i:rows, j:cols] = block
    return buf


def _chol(S) -> np.ndarray:
    """Lower Cholesky factors of a stack of matrices; 1 x 1 ones are square roots."""
    return np.sqrt(S) if S.shape[-1] == 1 else np.linalg.cholesky(S)


def _inv_lower(L) -> np.ndarray:
    """Inverses of a stack of lower-triangular matrices; 1 x 1 ones are reciprocals."""
    return 1.0 / L if L.shape[-1] == 1 else np.linalg.inv(L)


def _solve_pivot(L, X) -> np.ndarray:
    """L_g^{-1} X_g for a stack of lower-triangular b x b pivot factors."""
    return X / L if L.shape[-1] == 1 else _inv_lower(L) @ X


def _solve_lower(T, K, unit_diagonal=False) -> np.ndarray:
    """T^{-1} K for one lower-triangular T, whose strict upper triangle is
    never read; with ``unit_diagonal`` its diagonal is taken as ones.  The
    one triangle solve of both posteriors, which only reads away from the
    arms need: SciPy is imported here, on the first such read."""
    from scipy.linalg import solve_triangular

    return solve_triangular(T, K, lower=True, unit_diagonal=unit_diagonal, check_finite=False)


# Observation front-end =======================================================
class _Posterior:
    """Observation front-end shared by the exact and the budgeted posterior.

    Checks eta and every observation, keeps the history as a (t, d) input
    array ``X`` and a (t, n) output array ``Y``, accumulates ``logdet_sum``
    and keeps the arm universe: the rows of ``grid`` (which fixes the input
    dimension), then each distinct off-grid point when first observed,
    found by its bytes, with the arm of every history point.  The outputs
    and the arm indices grow in ``_put`` buffers, and ``X`` is the arms of
    the history, gathered on each read.

    The reads ``mean_batch``, ``cov`` and ``cov_norm_batch`` are defined
    here once and check the query (``_points``).  On the grid object
    ``mean_batch`` and ``cov_norm_batch`` return read-only views of the
    engine's ``_mean`` (A, n) and ``_norms`` (A,), the means and covariance
    norms it keeps at every arm; an update replaces those arrays, so a view
    read before it stays as it was.  Any other query, and ``cov``, is
    assembled from the engine's per-system arrays through its
    ``_TaskBasis``, ``_basis``.  ``update``, ``mean``, ``cov`` and
    ``cov_norm`` take one point (``_point``) and refuse a stack of
    several, naming themselves.  A subclass keeps ``_mean`` and ``_norms``
    current and supplies three hooks:

    * ``_absorb(a, y)`` grows its model, called after every check with the
      observed point already an arm a.  It records the observation with
      ``_record(a, y)`` once it no longer needs the history before it, and
      returns log det(I_n + eta^{-1} Gamma_{t-1}(x_t, x_t)).
    * ``_coords_at(Xq)`` gives the mean coordinates (G, N b, r) and
    * ``_res_at(Xq)`` the residual blocks (G, N, b, b) at N checked points,
      by the engine's own embedding.

    They are two hooks, so that a covariance read forms no mean
    coordinates.

    Updates mutate the state in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, grid=None):
        eta = float(eta)
        if not eta > 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.kernel = kernel
        self.eta = eta
        self.t = 0
        self.logdet_sum = 0.0
        self._arms = np.zeros((0, 0))
        self._arm_of = {}  # point bytes -> arm index
        # Outputs and arm indices of the history, valid in their first t rows.
        self._Y = np.zeros((0, kernel.n))
        self._hist = np.zeros((0, 1), dtype=int)
        self._grid = None
        if grid is not None:
            self._grid = _as_points(grid)
            self._add_arms(self._grid)

    @property
    def X(self) -> np.ndarray:
        """History inputs, (t, d): the arm of every history point."""
        return self._arms[self._hist_arm]

    @property
    def Y(self) -> np.ndarray:
        """History outputs, (t, n)."""
        return self._Y[:self.t]

    @property
    def _hist_arm(self) -> np.ndarray:
        """Arm index of every history point, (t,)."""
        return self._hist[:self.t, 0]

    def update(self, x, y):
        """Incorporate one observation; returns self.

        The logdet accumulator is incremented with the predictive
        covariance at x *before* the point is added.  Every check runs
        before the history grows, so an invalid observation leaves the
        state unchanged.  x is one point: a d-vector or a single row.
        """
        x = self._point(x, "update")[0]
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != self.kernel.n:
            raise ValueError(
                f"output has {y.shape[0]} coordinates, kernel has {self.kernel.n} tasks"
            )
        if not np.isfinite(y).all():
            raise ValueError("observation contains non-finite entries")
        self.logdet_sum += self._absorb(self._arm(x), y)
        return self

    def _points(self, Xq) -> np.ndarray:
        """The query Xq as an (N, d) point stack.  The grid object is returned
        unchecked (it was checked once); any other input is checked, and must
        have the dimension of the grid or of the history, once either is set."""
        if Xq is self._grid:
            return Xq
        X = _as_points(Xq)
        d = self._arms.shape[1]
        if (self.t or d) and X.shape[1] != d:
            raise ValueError(f"input has dimension {X.shape[1]}, the posterior expects {d}")
        return X

    def _point(self, x, name: str) -> np.ndarray:
        """The point x as a checked (1, d) stack; ``name``, the caller,
        refuses a stack of several points."""
        X = self._points(x)
        if X.shape[0] != 1:
            raise ValueError(f"{name} takes one point, got an input of shape {np.shape(x)}")
        return X

    def _add_arms(self, X):
        """Append the points X as unobserved arms."""
        A = self._arms.shape[0]
        for j, x in enumerate(X):
            self._arm_of.setdefault(x.tobytes(), A + j)
        self._arms = np.vstack([self._arms.reshape(A, X.shape[1]), X])

    def _arm(self, x) -> int:
        """Arm index of the point x; an unseen point becomes a new arm."""
        a = self._arm_of.get(x.tobytes())
        if a is None:
            a = self._arms.shape[0]
            self._add_arms(x[None])
        return a

    def _record(self, a: int, y):
        """Append the observation y at arm a to the history."""
        self._Y = _put(self._Y, self.t, 0, y[None])
        self._hist = _put(self._hist, self.t, 0, np.array([[a]]))
        self.t += 1

    def _kept(self, values) -> np.ndarray:
        """A read-only view of the arm array ``values`` over the grid rows."""
        view = values[:self._grid.shape[0]]
        view.flags.writeable = False
        return view

    def mean_batch(self, Xq) -> np.ndarray:
        """Posterior means over a stack of queries, shape (N, n); read-only
        on the grid."""
        Xq = self._points(Xq)
        if Xq is self._grid:
            return self._kept(self._mean)
        return self._basis.assemble_mean(self._coords_at(Xq))

    def cov(self, x) -> np.ndarray:
        """Posterior covariance Gamma_t(x, x), symmetric with eigenvalues
        clamped to [0, kappa]; x is one point."""
        return self._basis.assemble_cov(self._res_at(self._point(x, "cov"))[:, 0])

    def cov_norm_batch(self, Xq) -> np.ndarray:
        """Posterior covariance norms over a stack of queries, shape (N,),
        clamped to [0, kappa]; read-only on the grid."""
        Xq = self._points(Xq)
        if Xq is self._grid:
            return self._kept(self._norms)
        return self._basis.assemble_cov_norm(self._res_at(Xq))

    def mean(self, x) -> np.ndarray:
        """Posterior mean mu_t(x) as an (n,) vector at one point x; zero at t = 0."""
        return self.mean_batch(self._point(x, "mean"))[0]

    def cov_norm(self, x) -> float:
        """Operator norm ||Gamma_t(x, x)|| of the clamped covariance at one point x."""
        return float(self.cov_norm_batch(self._point(x, "cov_norm"))[0])


# Engine ======================================================================
class _TaskBasis:
    """The task-basis systems of a kernel (``_task_systems``) and the
    assembly of per-system coordinates and residual blocks into means,
    covariances and log-det increments, shared by the exact and the
    budgeted posterior.  Every system solves the one ``kernel``.  Both
    posteriors hold their mean coordinates as one (G, N b, r) stack, r the
    largest r_g.  Its columns are system g's right-hand sides, the basis
    columns ``ypos[g]`` (b, r), one row per block row; columns past r_g
    are index n, a zero output.  Coordinate (g, j, c) maps to task space
    through the row U[:, ypos[g, j, c]]^T, 0 for the padding, so means are
    one product with these rows.  Every covariance it assembles has its
    eigenvalues clamped to [0, kappa], the kernel's bound on
    ||Gamma(x, x)||.

    Built once per basis, since the rounds only read them: the map of
    outputs to every system's right-hand sides, the map of coordinates to
    task space per system (``mean_step``) and xi-weighted over all of them
    (``assemble_mean``), and the index that repeats system g's log-det
    eigenvalues r_g times (``logdet``)."""

    def __init__(self, kernel):
        self.U, self.kernel, self.systems = _task_systems(kernel)
        self.kappa = kernel.kappa
        self.b = b = self.kernel.n  # the block size
        self.r = [cols.size // b for _, cols in self.systems]  # right-hand sides
        self._xi = np.array([xi for xi, _ in self.systems])
        G, r, n = len(self.systems), max(self.r), kernel.n
        self.ypos = np.full((G, b, r), n)
        for g, (_, cols) in enumerate(self.systems):
            self.ypos[g, :, :self.r[g]] = cols.reshape(b, -1)
        self._to_tasks = np.vstack([self.U.T, np.zeros((1, n))])[self.ypos]  # (G, b, r, n)
        # The per-basis maps (class docstring).  The first is a transposed
        # view: a contiguous copy gives other bits in a one-row product.
        self._coords_of = self._to_tasks.reshape(-1, n).T
        self._task_rows = self._to_tasks.transpose(0, 2, 1, 3).reshape(G, r, b * n)
        self._mean_rows = (self._xi[:, None, None, None] * self._to_tasks).reshape(-1, n)
        self._logdet_rep = np.repeat(np.arange(G), self.r)

    def outputs(self, Y) -> np.ndarray:
        """Outputs Y (q, n) in basis coordinates, Y U, as the right-hand sides
        of every system, (G, q b, r); the columns past r_g are 0."""
        G, b, r, n = self._to_tasks.shape
        P = np.asarray(Y, dtype=float) @ self._coords_of  # (q, G b r)
        return P.reshape(-1, G, b, r).transpose(1, 0, 2, 3).reshape(G, -1, r)

    def assemble_mean(self, coords) -> np.ndarray:
        """sum_g xi_g coords_g U_g^T, (N, n), from the coordinate stack
        (G, N b, r) of N points."""
        G, b, r, n = self._to_tasks.shape
        N = coords.shape[1] // b
        C = coords.reshape(G, N, b, r).transpose(1, 0, 2, 3).reshape(N, G * b * r)
        return C @ self._mean_rows

    def mean_step(self, rows, coeffs) -> np.ndarray:
        """sum_g (rows_g^T coeffs_g) U_g^T, (N, n), for rows (G, k, N b)
        and coefficients (G, k, r): the change of the means kept at the arms
        when each system's mean coordinates gain rows_g^T coeffs_g / xi_g.
        The coefficients are mapped to task space first, so the one product
        over the N points has inner size G k b."""
        G, b, r, n = self._to_tasks.shape
        k, N = rows.shape[1], rows.shape[2] // b
        R = rows.reshape(G, k, N, b).transpose(2, 0, 1, 3).reshape(N, G * k * b)
        E = coeffs @ self._task_rows  # (G, k, b n)
        return R @ E.reshape(G * k * b, n)

    def assemble_cov(self, res) -> np.ndarray:
        """sum_g U_g (xi_g R_g (x) I) U_g^T for one query's residual blocks R_g,
        eigenvalues clamped to [0, kappa]."""
        C = _clamp_spectrum(self._xi[:, None, None] * np.array(res), self.kappa, matrix=True)
        M = np.zeros((self.U.shape[1] + 1,) * 2)  # the last row and column take the padding
        M[self.ypos[:, :, None], self.ypos[:, None]] = C[..., None]
        return self.U @ M[:-1, :-1] @ self.U.T

    def assemble_cov_norm(self, res) -> np.ndarray:
        """max_g lambda_max(xi_g R_g(x)) per query, clamped to [0, kappa]."""
        tops = self._xi[:, None] * _clamp_spectrum(res, None)[..., -1]
        return _clamp_spectrum(tops.max(axis=0), self.kappa)

    def logdet(self, res, eta) -> float:
        """log det(I_n + Gamma(x, x) / eta) for one point's residual blocks R_g,
        (G, b, b): system g contributes r_g copies of the eigenvalues of
        xi_g R_g, clamped to [0, kappa]."""
        vals = _clamp_spectrum(self._xi[:, None, None] * res, self.kappa)
        return float(np.log1p(vals[self._logdet_rep].ravel() / eta).sum())


# Public posterior state ======================================================
class PosteriorState(_Posterior):
    """Exact multi-task KRR posterior after t observations.

    Parameters
    ----------
    kernel : MultiTaskKernel
    eta : float
        Positive regularizer.
    grid : (N, d) float ndarray or None
        Fixed candidate stack that will be queried every round.  Its rows
        are the first arms, so ``mean_batch(grid)`` and
        ``cov_norm_batch(grid)`` return read-only views of the means and
        covariance norms kept at every arm, without checking the grid
        again.  Only a query that *is* this array object is served from
        them; every other query (copies included) is checked and costs
        one forward substitution through the history,
        O((t b)^2 (1 + q b)) per system for q points.  The caller
        must not mutate the grid afterwards.  Inputs must have the grid's
        dimension.

    The systems of the one engine follow from the kernel alone
    (``_task_systems``): an ICM kernel, and a diagonal kernel whose tasks
    share one scalar-kernel object, split into task-basis systems over that
    one scalar; any other kernel, a diagonal kernel with distinct scalars
    included, is one general system.  No option selects another path.
    Each system keeps one row over the arms per observation (module
    docstring): t A b^2 floats for A arms, with no (N b)^2 covariance.  An
    update at an arm last observed at step s0 reads the t - s0 rows since
    then, O((t - s0) A b^2) per system; a first visit reads all t rows.
    It then replaces the means and covariance norms kept at the arms.

    Updates mutate the state in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, grid=None):
        super().__init__(kernel, eta, grid)
        self._basis = basis = _TaskBasis(kernel)
        G, b, r = basis.ypos.shape
        self._xi = basis._xi[:, None, None]
        self._ridge = self.eta * np.eye(b)
        self._last = {}  # arm -> step of its last observation
        # Stacked over the systems, in buffers grown by _put: the rows u_s,
        # stored arm-major (u_s^T fills columns s b .. s b + b - 1), and the
        # pivot factors L_s and innovations z_s, b rows per step; then at
        # every arm the residual blocks, and the means and covariance norms.
        self._rows = np.zeros((G, 0, 0))
        self._pivots = np.zeros((G, 0, b))
        self._innov = np.zeros((G, 0, r))
        self._res = np.zeros((G, 0, b, b))
        self._mean = np.zeros((0, kernel.n))
        self._norms = np.zeros(0)
        self._extend(self._arms)

    def _at(self, Xq):
        """At the points Xq, stacked over the systems: the blocks u_s(Xq)^T
        of every row (G, q b, t b), the mean coordinates (G, q b, r) and the
        residual blocks (G, q, b, b).

        The blocks solve one forward substitution per system through the
        history triangle, with L_s on its diagonal and xi_g u_s'(a_s)^T
        below it: xi_g times the rows at the history arms, with the pivots
        written over its diagonal blocks.  Its strict upper triangle is
        never read.
        """
        t, b, q, basis = self.t, self._basis.b, Xq.shape[0], self._basis
        V = np.zeros((len(basis.systems), t * b, q * b))
        if t:
            K = basis.kernel._cross(self.X, Xq)
            hist = (self._hist_arm[:, None] * b + np.arange(b)).ravel()
            rows = np.arange(t * b)[:, None]
            diag = (rows, rows // b * b + np.arange(b))  # the pivot blocks
            for g, xi in enumerate(basis._xi):
                T = self._rows[g][hist, :t * b]  # a copy
                T *= xi
                T[diag] = self._pivots[g, :t * b]
                V[g] = _solve_lower(T, K)
        res = basis.kernel.diag_blocks(Xq) - self._xi[..., None] * _block_gram(V, V, b)
        blocks = V.transpose(0, 2, 1)
        return blocks, blocks @ self._innov[:, :t * b], res

    def _extend(self, X):
        """Append the points X as arms of every system: their blocks in every
        row, their residual blocks, means and covariance norms."""
        basis = self._basis
        blocks, coords, res = self._at(X)
        self._rows = _put(self._rows, self._res.shape[1] * basis.b, 0, blocks)
        self._res = np.concatenate([self._res, res], axis=1)
        self._mean = np.concatenate([self._mean, basis.assemble_mean(coords)])
        self._norms = np.concatenate([self._norms, basis.assemble_cov_norm(res)])

    def _absorb(self, a, y) -> float:
        """Update every system by the observation y at arm a.

        The pre-update column P_g(arms, a) restarts from the arm's last row,
        or starts from the prior column at a first visit.  The means and
        covariance norms at the arms are replaced.
        """
        basis, b, t, xi = self._basis, self._basis.b, self.t, self._xi
        if a == self._res.shape[1]:  # a point new to the arm universe
            self._extend(self._arms[a:a + 1])
        A, lo, s0 = self._arms.shape[0], a * b, self._last.get(a)
        M = self._rows[:, :A * b, (s0 or 0) * b:t * b]
        c = -xi * M[:, lo:lo + b].transpose(0, 2, 1)
        if s0 is None:
            col = basis.kernel._cross(self._arms, self._arms[a:a + 1]) + M @ c
        else:
            c[:, :b] += self._pivots[:, s0 * b:(s0 + 1) * b].transpose(0, 2, 1)
            col = M @ c
        B = col[:, lo:lo + b]
        L = _chol(xi * B + self._ridge)
        u = _solve_pivot(L, col.transpose(0, 2, 1))
        z = _solve_pivot(L, basis.outputs((y - self._mean[a])[None]))
        self._mean = self._mean + basis.mean_step(u, xi * z)
        self._res -= xi[..., None] * _block_gram(u, u, b)
        self._norms = basis.assemble_cov_norm(self._res)
        self._rows = _put(self._rows, 0, t * b, u.transpose(0, 2, 1))
        self._pivots = _put(self._pivots, t * b, 0, L)
        self._innov = _put(self._innov, t * b, 0, z)
        self._last[a] = t
        self._record(a, y)
        return basis.logdet(B, self.eta)

    def _coords_at(self, Xq) -> np.ndarray:
        """Mean coordinates (G, N b, r) at the points Xq."""
        return self._at(Xq)[1]

    def _res_at(self, Xq) -> np.ndarray:
        """Residual blocks (G, N, b, b) at the points Xq."""
        return self._at(Xq)[2]
