"""Exact vector-valued kernel ridge regression posteriors.

After observing (x_1, y_1), ..., (x_t, y_t) the posterior over a function
in the RKHS of a multi-task kernel Gamma is

    mu_t(x)       = G_t(x)^T (G_t + eta I_nt)^{-1} Y_t
    Gamma_t(x, x) = Gamma(x, x) - G_t(x)^T (G_t + eta I_nt)^{-1} G_t(x)

with G_t the point-major block kernel matrix, G_t(x) the stacked cross
blocks, and Y_t the concatenated outputs.  The state also accumulates

    logdet_sum = sum_{s<=t} log det(I_n + eta^{-1} Gamma_{s-1}(x_s, x_s))

incrementally; by the Schur telescoping identity this equals
log det(I_nt + eta^{-1} G_t) and feeds the confidence radii.  Each
increment is read off the Schur complements that grow the Cholesky
factors, so an update evaluates the kernel against the history once.

One engine solves every kernel.  It writes the kernel in a task basis as

    Gamma(x, x') = sum_g xi_g U_g (k_g(x, x') (x) I_{r_g}) U_g^T

with kernels k_g of b_g x b_g blocks, weights xi_g >= 0 and orthonormal
column blocks U_g of width b_g r_g.  The nt x nt solve then splits into
one ridge system (xi_g K_g + eta I) of size t b_g per term, acting on r_g
right-hand sides: the projected outputs Y_t U_g, stacked point-major.
The systems are chosen by one rule (``_task_systems``):

* an ICM kernel k * B gives its scalar kernel (b = 1) once per cluster
  of equal positive eigenvalues of B, with the cluster's eigenvectors;
* a diagonal kernel gives one b = 1 system per distinct scalar-kernel
  object (xi = 1, unit vectors), so the independent-task baseline with
  one shared scalar kernel needs a single factor;
* any other kernel is a single system: the kernel itself, with b = n,
  xi = 1 and U = I.  This is the general block solve.

Every factor grows by block appends only (the bordered Cholesky
algorithm), whose backward error is that of a fresh factorization.

A bandit scores the same finite candidate grid every round.  Given that
grid, the engine keeps per system g the rows V_g = L_g^{-1} k_g(X_t, grid)
and z_g = L_g^{-1} Y_t U_g, the grid coordinates V_g^T z_g and the grid
residual blocks k_g(x, x) - xi_g V_g(x)^T V_g(x).  The bordered factor's
new block row [W, L_s] gives each new block of rows in O(t N), and the
coordinates and residuals change by one rank-b_g term, so an update costs
O(t N) and a read of the grid O(N) rather than O(t^2 N), for every
kernel.  Reads match the grid by identity (the same array object); the
caller must not mutate it.  Every other query uses the general formulas.

The observation front-end ``_Posterior`` (checks, history, log-det
accumulator) and the covariance clamp are shared with the budgeted
posterior in the nystrom module, which builds its supports over the same
systems and assembles them with the same ``assemble_*`` methods.
"""

import numpy as np
import scipy.linalg as la

from .kernels import DiagonalKernel, ICMKernel, MultiTaskKernel, _as_points

__all__ = [
    "PosteriorState",
    "append_cholesky",
]


def append_cholesky(L: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Grow a lower Cholesky factor by one block via the Schur complement.

    Given L with L L^T = M, returns the factor of [[M, C], [C^T, D]].
    The blocks must be finite: the posteriors check their inputs, so the
    per-call finiteness scans are skipped.  A non-positive-definite Schur
    complement raises LinAlgError.
    """
    if L.shape[0] == 0:
        return la.cholesky(D, lower=True, check_finite=False)
    W = la.solve_triangular(L, C, lower=True, check_finite=False)
    S = D - W.T @ W
    Ls = la.cholesky(0.5 * (S + S.T), lower=True, check_finite=False)
    p, k = L.shape[0], D.shape[0]
    out = np.zeros((p + k, p + k))
    out[:p, :p] = L
    out[p:, :p] = W.T
    out[p:, p:] = Ls
    return out


def _clamp_spectrum(M, cap, matrix=False) -> np.ndarray:
    """Clamp the eigenvalues of a covariance to [0, cap]; cap None sets no upper bound.

    M is a matrix or a stack of matrices, symmetrised before the eigen
    decomposition, or a 1-D array of eigenvalues already known.  Returns
    the clamped eigenvalues (ascending for a matrix), or with ``matrix``
    the matrix rebuilt from them.  A 1 x 1 block is its own eigenvalue.
    Every covariance clamp of the exact and the budgeted posterior goes
    through here.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim == 1 or M.shape[-1] == 1:
        vals = np.clip(M, 0.0, cap)
        return vals if matrix or M.ndim == 1 else vals[..., 0]
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    if not matrix:
        return np.clip(np.linalg.eigvalsh(M), 0.0, cap)
    vals, vecs = np.linalg.eigh(M)
    vals = np.clip(vals, 0.0, cap)
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _logdet_ratio(M, eta: float, cap) -> float:
    """log det(I + M / eta) for a covariance M (or its spectrum), clamped to [0, cap]."""
    return float(np.sum(np.log1p(_clamp_spectrum(M, cap) / eta)))


def _block_gram(A, B, b: int) -> np.ndarray:
    """Per-query b x b blocks of A^T B for point-major columns, shape (N, b, b)."""
    A3 = A.reshape(A.shape[0], -1, b)
    B3 = B.reshape(B.shape[0], -1, b)
    return np.einsum("kja,kjb->jab", A3, B3)


def _solve_lower(Ls, M) -> np.ndarray:
    """Ls^{-1} M for a small lower-triangular block; a 1 x 1 block divides."""
    if Ls.shape[0] == 1:
        return M / Ls[0, 0]
    return la.solve_triangular(Ls, M, lower=True)


def _group_eigenvalues(xis: np.ndarray):
    """Group descending eigenvalues into (value, column-index) clusters.

    Numerically repeated eigenvalues (relative gap below 1e-12) share one
    factorization; exact zeros are dropped because their terms vanish
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


def _task_systems(kernel: MultiTaskKernel, structured: bool = True):
    """The ridge systems of a multi-task kernel, by the module's one rule.

    Returns (U, kernels, systems): an orthonormal (n, n) basis U, the
    distinct kernels k_i of the systems (a ``ScalarKernel`` is the b = 1
    case), and one (i, xi, cols) per system, so that

        Gamma = sum over (i, xi, cols) of xi U[:, cols] (k_i (x) I_r) U[:, cols]^T

    with r = |cols| / b_i.  ``structured=False`` gives the single general
    system for every kernel.
    """
    n = kernel.n
    if structured and isinstance(kernel, ICMKernel):
        # A zero coupling keeps one zero-weight system, so no basis is empty.
        groups = _group_eigenvalues(kernel.spectrum.eigenvalues) or [(0.0, np.arange(n))]
        return kernel.spectrum.eigenvectors, [kernel.scalar], [(0, xi, c) for xi, c in groups]
    if structured and isinstance(kernel, DiagonalKernel):
        by_id = {}
        for j, k in enumerate(kernel.scalars):
            by_id.setdefault(id(k), (k, []))[1].append(j)
        systems = [(i, 1.0, np.asarray(c, dtype=int)) for i, (_, c) in enumerate(by_id.values())]
        return np.eye(n), [k for k, _ in by_id.values()], systems
    return np.eye(n), [kernel], [(0, 1.0, np.arange(n))]


# Observation front-end =======================================================
class _Posterior:
    """Observation front-end shared by the exact and the budgeted posterior.

    Checks eta and every observation, keeps the history as a (t, d) input
    array ``X`` and a (t, n) output array ``Y`` that grow once per update,
    and accumulates ``logdet_sum``.  A subclass grows its model in
    ``_absorb``, which sees the new observation already appended and
    returns the round's increment log det(I_n + eta^{-1} Gamma_{t-1}(x_t, x_t));
    it also supplies ``mean_batch``, ``cov`` and ``cov_norm_batch``.  A
    subclass may fix the input dimension before the first update by
    giving ``X`` a (0, d) shape.

    Updates mutate the state in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float):
        eta = float(eta)
        if not eta > 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.kernel = kernel
        self.eta = eta
        self.X = np.zeros((0, 0))
        self.Y = np.zeros((0, kernel.n))
        self.logdet_sum = 0.0

    @property
    def t(self) -> int:
        return self.Y.shape[0]

    def update(self, x, y):
        """Incorporate one observation; returns self.

        The logdet accumulator is incremented with the predictive
        covariance at x *before* the point is added.  Every check runs
        before the history grows, so an invalid observation leaves the
        state unchanged.
        """
        x = _as_points(x)[0]
        d = self.X.shape[1]
        if (self.t or d) and x.shape[0] != d:
            raise ValueError(f"input has dimension {x.shape[0]}, the posterior expects {d}")
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != self.kernel.n:
            raise ValueError(
                f"output has {y.shape[0]} coordinates, kernel has {self.kernel.n} tasks"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("observation contains non-finite entries")
        self.X = np.vstack([self.X, x]) if self.t else np.array([x])
        self.Y = np.vstack([self.Y, y])
        self.logdet_sum += self._absorb()
        return self

    def mean(self, x) -> np.ndarray:
        """Posterior mean mu_t(x) as an (n,) vector; zero at t = 0."""
        return self.mean_batch(x)[0]

    def cov_norm(self, x) -> float:
        """Operator norm ||Gamma_t(x, x)|| of the clamped covariance."""
        return float(self.cov_norm_batch(x)[0])


# Engine ======================================================================
class _TaskBasis:
    """Ridge systems in a task basis, one per term of ``_task_systems``.

    The engine keeps one block-appended Cholesky factor L_g of
    (xi_g K_g + eta I) per system and, given a candidate ``grid``, the
    grid-resident statistics of the module docstring; a read of that same
    grid object comes from them.  ``assemble_*`` turn per-system
    coordinates and residual blocks into means and covariances; the
    budgeted supports in nystrom reuse them.
    """

    def __init__(self, kernel, eta, structured=True, grid=None):
        self.U, self.kernels, self.systems = _task_systems(kernel, structured)
        self.b = self.kernels[0].n  # the block size, shared by every system
        self._r = [cols.size // self.b for _, _, cols in self.systems]
        self._xi = np.array([xi for _, xi, _ in self.systems])
        self.eta = float(eta)
        self.kappa = kernel.kappa
        self._etaI = self.eta * np.eye(self.b)
        self.chols = [np.zeros((0, 0)) for _ in self.systems]
        self.grid = grid
        if grid is not None:
            N = grid.shape[0]
            self._V = [np.zeros((0, N * self.b)) for _ in self.systems]
            self._z = [np.zeros((0, r)) for r in self._r]
            self._coords = [np.zeros((N * self.b, r)) for r in self._r]
            self._res = [self.kernels[i].diag_blocks(grid) for i, _, _ in self.systems]

    def project(self, Y) -> np.ndarray:
        """Outputs in basis coordinates, Y U."""
        return np.asarray(Y, dtype=float) @ self.U

    def update(self, X, Y) -> float:
        """Grow every factor (and the grid statistics) by the last row of X and Y;
        returns the log-det increment.

        System g contributes (|cols_g| / b_g) log det(I + (S_g - eta I) / eta),
        with S_g = L_s L_s^T the Schur block that grows its factor and the
        eigenvalues of S_g - eta I, the posterior covariance along U_g,
        clamped to [0, kappa].  With a grid, the new block row [W, L_s] gives
        the new rows L_s^{-1} (k_g(x, grid) - W V_g) of V_g and
        L_s^{-1} (y U_g - W z_g) of z_g, which enter the coordinates and
        residuals as rank-b_g terms.
        """
        x = X[-1:]
        cross = [k._cross(X, x) for k in self.kernels]
        if self.grid is not None:
            rows = [k._cross(x, self.grid) for k in self.kernels]
            yp = self.project(Y[-1])
        b = self.b
        blocks = []
        for s, (i, xi, cols) in enumerate(self.systems):
            c = xi * cross[i]
            L = append_cholesky(self.chols[s], c[:-b], c[-b:] + self._etaI)
            self.chols[s] = L
            W, Ls = L[-b:, :-b], L[-b:, -b:]
            blocks.append(Ls)
            if self.grid is not None:
                v = _solve_lower(Ls, rows[i] - W @ self._V[s])
                z = _solve_lower(Ls, yp[cols].reshape(b, -1) - W @ self._z[s])
                self._V[s] = np.concatenate([self._V[s], v])
                self._z[s] = np.concatenate([self._z[s], z])
                self._coords[s] += v.T @ z
                self._res[s] -= _block_gram(xi * v, v, b)
        Ls = np.array(blocks)
        vals = _clamp_spectrum(Ls @ np.swapaxes(Ls, 1, 2) - self._etaI, None)
        return _logdet_ratio(np.repeat(vals, self._r, axis=0).ravel(), self.eta, self.kappa)

    def mean_batch(self, X, Y, Xq) -> np.ndarray:
        if Xq is self.grid:
            return self.assemble_mean(self._coords, Xq.shape[0])
        Kq = [k._cross(X, Xq) for k in self.kernels]
        Yp = self.project(Y)
        parts = []
        for L, (i, _, cols) in zip(self.chols, self.systems):
            rhs = Yp[:, cols].reshape(L.shape[0], -1)
            parts.append(Kq[i].T @ la.cho_solve((L, True), rhs))
        return self.assemble_mean(parts, Xq.shape[0])

    def residuals_batch(self, X, Xq) -> list:
        """Per-system blocks R_g(x) = k_g(x,x) - xi_g k_q^T (xi_g K_g + eta I)^{-1} k_q,
        each of shape (N, b, b)."""
        Xq = _as_points(Xq)
        Kq = [k._cross(X, Xq) for k in self.kernels] if X.shape[0] else None
        res = []
        for L, (i, xi, _) in zip(self.chols, self.systems):
            R = self.kernels[i].diag_blocks(Xq)
            if Kq is not None:
                V = la.solve_triangular(L, Kq[i], lower=True)
                R = R - xi * _block_gram(V, V, self.b)
            res.append(R)
        return res

    def cov(self, X, x) -> np.ndarray:
        return self.assemble_cov([R[0] for R in self.residuals_batch(X, x)], self.kappa)

    def cov_norm_batch(self, X, Xq) -> np.ndarray:
        res = self._res if Xq is self.grid else self.residuals_batch(X, Xq)
        return self.assemble_cov_norm(res, self.kappa)

    # -- assembly ---------------------------------------------------------
    def assemble_mean(self, parts, N) -> np.ndarray:
        """sum_g xi_g parts_g U_g^T for per-system coordinates parts_g (N b_g, r_g)."""
        out = np.zeros((N, self.U.shape[0]))
        for (_, xi, cols), part in zip(self.systems, parts):
            out += xi * part.reshape(N, cols.size) @ self.U[:, cols].T
        return out

    def assemble_cov(self, res, cap) -> np.ndarray:
        """sum_g U_g (xi_g R_g (x) I) U_g^T for one query's residual blocks R_g,
        eigenvalues clamped to [0, cap]."""
        C = _clamp_spectrum(self._xi[:, None, None] * np.array(res), cap, matrix=True)
        M = np.zeros((self.U.shape[1],) * 2)
        for (_, _, cols), Cg in zip(self.systems, C):
            pos = cols.reshape(self.b, -1)  # basis column of (block row, right-hand side)
            M[pos[:, None, :], pos[None, :, :]] = Cg[:, :, None]
        return self.U @ M @ self.U.T

    def assemble_cov_norm(self, res, cap) -> np.ndarray:
        """max_g lambda_max(xi_g R_g(x)) per query, clamped to [0, cap]."""
        tops = self._xi[:, None] * _clamp_spectrum(np.array(res), None)[..., -1]
        return _clamp_spectrum(np.max(tops, axis=0), cap)


# Public posterior state ======================================================
class PosteriorState(_Posterior):
    """Exact multi-task KRR posterior after t observations.

    Parameters
    ----------
    kernel : MultiTaskKernel
    eta : float
        Positive regularizer.
    fast_path : {"auto", True, False}
        Chooses the systems of the one engine.  "auto" splits ICM and
        diagonal kernels into their task-basis systems (``_task_systems``)
        and solves any other kernel as one general system; False solves
        every kernel as one general system; True insists on the split and
        raises TypeError for a kernel that has none.
    grid : (N, d) float ndarray or None
        Fixed candidate stack that will be queried every round.  The
        engine then keeps L_g^{-1} k_g(X_t, grid), the grid coordinates and
        the grid residuals up to date for every kernel and system list, so
        an update costs O(t N) and ``mean_batch(grid)`` or
        ``cov_norm_batch(grid)`` costs O(N) instead of O(t^2 N).  Only a
        query that *is* this array object is served from the cache; every
        other query (copies included) takes the general read path.  The
        caller must not mutate the grid afterwards.  Inputs must have the
        grid's dimension.

    Updates mutate the state in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, fast_path="auto", grid=None):
        super().__init__(kernel, eta)
        structured = isinstance(kernel, (ICMKernel, DiagonalKernel))
        if fast_path is True and not structured:
            raise TypeError(f"no fast path for kernel variant {type(kernel).__name__}")
        if grid is not None:
            grid = _as_points(grid)
            self.X = np.zeros((0, grid.shape[1]))
        structured = structured and (fast_path is True or fast_path == "auto")
        self._solver = _TaskBasis(kernel, self.eta, structured, grid)

    def _absorb(self) -> float:
        return self._solver.update(self.X, self.Y)

    def mean_batch(self, Xq) -> np.ndarray:
        """Posterior means over a stack of queries, shape (N, n)."""
        Xq = _as_points(Xq)
        if self.t == 0:
            return np.zeros((Xq.shape[0], self.kernel.n))
        return self._solver.mean_batch(self.X, self.Y, Xq)

    def cov(self, x) -> np.ndarray:
        """Posterior covariance Gamma_t(x, x), symmetric with eigenvalues
        clamped to [0, kappa]."""
        return self._solver.cov(self.X, x)

    def cov_norm_batch(self, Xq) -> np.ndarray:
        """Posterior covariance norms over a stack of queries, shape (N,),
        clamped to [0, kappa]."""
        return self._solver.cov_norm_batch(self.X, _as_points(Xq))
