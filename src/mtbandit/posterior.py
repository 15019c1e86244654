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
increment is read off the Schur complement that grows the Cholesky
factor, so an update evaluates the kernel against the history once.

Structured kernels decouple in a task basis.  Whenever

    Gamma(x, x') = sum_g xi_g k_g(x, x') U_g U_g^T

with orthonormal column blocks U_g, the nt x nt solve splits into one
t x t scalar ridge system (xi_g K_g + eta I_t) per term g, acting on the
projected outputs Y_t U_g.  An ICM kernel k * B has this form through the
eigen-decomposition of B (one term per distinct positive eigenvalue); a
diagonal kernel has it through unit vectors (one term per distinct scalar
kernel, xi = 1), so the independent-task baseline with one shared scalar
kernel needs a single Gram matrix and factor.  The task-basis solver is
selected automatically and agrees with the general block path to high
accuracy; sum-separable kernels use the block path.

Every factor grows by block appends only (the bordered Cholesky
algorithm), whose backward error is that of a fresh factorization.

A bandit scores the same finite candidate grid every round.  Given that
grid, the task-basis solver keeps per system g the rows V_g =
L_g^{-1} k_g(X_t, grid) and z_g = L_g^{-1} Y_t U_g, the grid coordinates
V_g^T z_g and the grid residuals k_g(x, x) - xi_g ||V_g(x)||^2.  The
bordered factor's new row [w, l] gives each new row in O(t N), and the
coordinates and residuals change by one rank-one term, so an update costs
O(t N) and a read of the grid O(N) rather than O(t^2 N).  Reads match
the grid by identity (the same array object); the caller must not mutate
it.  Every other query, and the block path, use the general formulas.

The observation front-end ``_Posterior`` (checks, history, log-det
accumulator, covariance clamp) is shared with the budgeted posterior in
the nystrom module.
"""

import numpy as np
import scipy.linalg as la

from .kernels import (
    DiagonalKernel,
    ICMKernel,
    MultiTaskKernel,
    _as_points,
    cross_block,
)

__all__ = [
    "PosteriorState",
    "append_cholesky",
]


def append_cholesky(L: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Grow a lower Cholesky factor by one block via the Schur complement.

    Given L with L L^T = M, returns the factor of [[M, C], [C^T, D]].
    """
    if L.shape[0] == 0:
        return la.cholesky(D, lower=True)
    W = la.solve_triangular(L, C, lower=True)
    S = D - W.T @ W
    Ls = la.cholesky(0.5 * (S + S.T), lower=True)
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
    the matrix rebuilt from them.  Every covariance clamp of the exact and
    the budgeted posterior goes through here.
    """
    M = np.asarray(M, dtype=float)
    vecs = None
    if M.ndim == 1:
        vals = M
    else:
        M = 0.5 * (M + np.swapaxes(M, -1, -2))
        vals, vecs = np.linalg.eigh(M) if matrix else (np.linalg.eigvalsh(M), None)
    vals = np.clip(vals, 0.0, cap)
    if vecs is None:
        return vals
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _prior_blocks(kernel, Xq) -> np.ndarray:
    """Prior blocks Gamma(x, x) for a stack of queries, shape (N, n, n)."""
    return np.array([kernel.diag_block(x) for x in Xq]).reshape(-1, kernel.n, kernel.n)


def _logdet_ratio(M, eta: float, cap) -> float:
    """log det(I + M / eta) for a covariance M (or its spectrum), clamped to [0, cap]."""
    return float(np.sum(np.log1p(_clamp_spectrum(M, cap) / eta)))


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


# Observation front-end =======================================================
class _Posterior:
    """Observation front-end shared by the exact and the budgeted posterior.

    Checks eta and every observation, keeps the history as a (t, d) input
    array ``X`` and a (t, n) output array ``Y`` that grow once per update,
    and accumulates ``logdet_sum``.  A subclass grows its model in
    ``_absorb``, which sees the new observation already appended and
    returns the round's increment log det(I_n + eta^{-1} Gamma_{t-1}(x_t, x_t));
    it also supplies ``mean_batch``, ``cov`` and ``cov_norm_batch``.

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

    def _use_fast_path(self, fast_path, supported) -> bool:
        """True for the structured solver; ``fast_path=True`` insists on one."""
        structured = isinstance(self.kernel, supported)
        if fast_path is True and not structured:
            raise TypeError(f"no fast path for kernel variant {type(self.kernel).__name__}")
        return structured and (fast_path is True or fast_path == "auto")

    @property
    def t(self) -> int:
        return self.Y.shape[0]

    def update(self, x, y):
        """Incorporate one observation; returns self.

        The logdet accumulator is incremented with the predictive
        covariance at x *before* the point is added.
        """
        x = _as_points(x)[0]
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


# Solvers =====================================================================
class _TaskBasis:
    """Scalar ridge systems in a task basis: Gamma = sum_g xi_g k_g U_g U_g^T.

    Each system g is a scalar kernel k_g, a weight xi_g and a block of
    orthonormal output columns U_g.  An ICMKernel gives one scalar kernel,
    the eigenvalue clusters of B and their eigenvector columns; a
    DiagonalKernel gives one system per distinct scalar-kernel object, with
    unit weight and unit-vector columns.

    The solver keeps one block-appended Cholesky factor L_g of
    (xi_g K_g + eta I_t) per system and, given a candidate ``grid``, the
    grid-resident statistics of the module docstring; a read of that same
    grid object comes from them.  ``assemble_*`` turn per-system coordinates
    and residuals into means and covariances; the budgeted ICM support in
    nystrom reuses them.
    """

    def __init__(self, kernel, eta, grid=None):
        if isinstance(kernel, ICMKernel):
            self.U = kernel.spectrum.eigenvectors
            self.scalars = [kernel.scalar]
            groups = _group_eigenvalues(kernel.spectrum.eigenvalues)
            self.systems = [(0, xi, cols) for xi, cols in groups]
        else:  # DiagonalKernel
            self.U = np.eye(kernel.n)
            by_id = {}
            for j, k in enumerate(kernel.scalars):
                by_id.setdefault(id(k), (k, []))[1].append(j)
            self.scalars = [k for k, _ in by_id.values()]
            self.systems = [
                (i, 1.0, np.asarray(cols, dtype=int))
                for i, (_, cols) in enumerate(by_id.values())
            ]
        self.eta = float(eta)
        self.kappa = kernel.kappa
        self.chols = [np.zeros((0, 0)) for _ in self.systems]
        self.grid = grid
        if grid is not None:
            N = grid.shape[0]
            self._V = [np.zeros((0, N)) for _ in self.systems]
            self._z = [np.zeros((0, cols.size)) for _, _, cols in self.systems]
            self._coords = [np.zeros((N, cols.size)) for _, _, cols in self.systems]
            self._res = np.array([self.scalars[i].diag(grid) for i, _, _ in self.systems])

    def project(self, Y) -> np.ndarray:
        """Outputs in basis coordinates, Y U."""
        return np.asarray(Y, dtype=float) @ self.U

    def update(self, X, Y) -> float:
        """Grow every factor (and the grid statistics) by the last row of X and Y;
        returns the log-det increment.

        System g contributes |cols_g| log(1 + (S_g - eta) / eta), with
        S_g = xi_g k(x, x) + eta - ||W_g||^2 the Schur complement that grows
        its factor and S_g - eta, clamped to [0, kappa], the posterior
        variance along U_g.  With a grid, the new factor row [w, l] gives the
        new rows (k_g(x, grid) - w V_g) / l of V_g and (y U_g - w z_g) / l of
        z_g, which enter the coordinates and residuals as rank-one terms.
        """
        t = X.shape[0] - 1
        cross = [k.pairwise(X, X[t:]) for k in self.scalars]
        if self.grid is not None:
            rows = [k.pairwise(X[t:], self.grid)[0] for k in self.scalars]
            yp = self.project(Y[t])
        schur = np.empty(len(self.systems))
        for s, (i, xi, cols) in enumerate(self.systems):
            k = cross[i]
            L = append_cholesky(self.chols[s], xi * k[:t], np.array([[xi * k[t, 0] + self.eta]]))
            self.chols[s] = L
            schur[s] = L[t, t] ** 2
            if self.grid is not None:
                w, ell = L[t, :t], L[t, t]
                v = (rows[i] - w @ self._V[s]) / ell
                z = (yp[cols] - w @ self._z[s]) / ell
                self._V[s] = np.vstack([self._V[s], v])
                self._z[s] = np.vstack([self._z[s], z])
                self._coords[s] += np.outer(v, z)
                self._res[s] -= xi * v * v
        sizes = [cols.size for _, _, cols in self.systems]
        return _logdet_ratio(np.repeat(schur - self.eta, sizes), self.eta, self.kappa)

    def mean_batch(self, X, Y, Xq) -> np.ndarray:
        if Xq is self.grid:
            return self.assemble_mean(self._coords, Xq.shape[0])
        Kq = [k.pairwise(X, Xq) for k in self.scalars]
        Yp = self.project(Y)
        parts = [
            Kq[i].T @ la.cho_solve((self.chols[s], True), Yp[:, cols])
            for s, (i, _, cols) in enumerate(self.systems)
        ]
        return self.assemble_mean(parts, Xq.shape[0])

    def residuals_batch(self, X, Xq) -> np.ndarray:
        """Per-system r_g(x) = k_g(x,x) - xi_g k_q^T (xi_g K + eta I)^{-1} k_q.

        Returns shape (n_systems, N).
        """
        Xq = _as_points(Xq)
        Kq = [k.pairwise(X, Xq) for k in self.scalars] if X.shape[0] else None
        res = np.empty((len(self.systems), Xq.shape[0]))
        for s, (i, xi, _) in enumerate(self.systems):
            res[s] = self.scalars[i].diag(Xq)
            if Kq is not None:
                V = la.solve_triangular(self.chols[s], Kq[i], lower=True)
                res[s] -= xi * np.einsum("kj,kj->j", V, V)
        return res

    def cov(self, X, x) -> np.ndarray:
        return self.assemble_cov(self.residuals_batch(X, x)[:, 0], self.kappa)

    def cov_norm_batch(self, X, Xq) -> np.ndarray:
        res = self._res if Xq is self.grid else self.residuals_batch(X, Xq)
        return self.assemble_cov_norm(res, self.kappa)

    # -- assembly ---------------------------------------------------------
    def assemble_mean(self, parts, N) -> np.ndarray:
        """sum_g xi_g parts_g U_g^T for per-system coordinates parts_g (N, |g|)."""
        out = np.zeros((N, self.U.shape[0]))
        for (_, xi, cols), part in zip(self.systems, parts):
            out += xi * part @ self.U[:, cols].T
        return out

    def assemble_cov(self, res, cap) -> np.ndarray:
        """U diag(xi_g r_g) U^T for one query's residuals, eigenvalues clamped to [0, cap]."""
        vals = np.zeros(self.U.shape[1])
        for (_, xi, cols), r in zip(self.systems, res):
            vals[cols] = xi * r
        return (self.U * _clamp_spectrum(vals, cap)) @ self.U.T

    def assemble_cov_norm(self, res, cap) -> np.ndarray:
        """max_g xi_g r_g(x) per query, clamped to [0, cap]."""
        xis = np.array([xi for _, xi, _ in self.systems])
        return _clamp_spectrum(np.max(xis[:, None] * res, axis=0, initial=0.0), cap)


class _BlockSystem:
    """General path: one block-appended Cholesky factor of G_t + eta I_nt."""

    def __init__(self, kernel, eta):
        self.kernel = kernel
        self.eta = float(eta)
        self.chol = np.zeros((0, 0))

    def update(self, X, Y) -> float:
        """Grow the factor by the last row of X; returns the log-det increment,
        that of the n x n Schur block minus eta I.  Y enters only at reads."""
        n = self.kernel.n
        C = cross_block(self.kernel, X[:-1], X[-1])
        D = self.kernel.diag_block(X[-1]) + self.eta * np.eye(n)
        self.chol = append_cholesky(self.chol, C, 0.5 * (D + D.T))
        Ls = self.chol[-n:, -n:]
        return _logdet_ratio(Ls @ Ls.T - self.eta * np.eye(n), self.eta, self.kernel.kappa)

    def mean_batch(self, X, Y, Xq) -> np.ndarray:
        alpha = la.cho_solve((self.chol, True), Y.reshape(-1))
        return (self.kernel._cross(X, Xq).T @ alpha).reshape(Xq.shape[0], self.kernel.n)

    def _cov_stack(self, X, Xq) -> np.ndarray:
        """Unclamped Gamma_t(x, x) for each query, shape (N, n, n)."""
        Xq = _as_points(Xq)
        N, n = Xq.shape[0], self.kernel.n
        C = _prior_blocks(self.kernel, Xq)
        if X.shape[0]:
            W = la.solve_triangular(self.chol, self.kernel._cross(X, Xq), lower=True)
            W3 = W.reshape(W.shape[0], N, n)
            C -= np.einsum("kja,kjb->jab", W3, W3)
        return C

    def cov(self, X, x) -> np.ndarray:
        return _clamp_spectrum(self._cov_stack(X, x)[0], self.kernel.kappa, matrix=True)

    def cov_norm_batch(self, X, Xq) -> np.ndarray:
        return _clamp_spectrum(self._cov_stack(X, Xq), self.kernel.kappa)[:, -1]


# Public posterior state ======================================================
class PosteriorState(_Posterior):
    """Exact multi-task KRR posterior after t observations.

    Parameters
    ----------
    kernel : MultiTaskKernel
    eta : float
        Positive regularizer.
    fast_path : {"auto", True, False}
        "auto" picks the task-basis solver for ICM and diagonal kernels;
        False forces the general nt x nt block path.
    grid : (N, d) float ndarray or None
        Fixed candidate stack that will be queried every round.  The
        task-basis solver then keeps L_g^{-1} k_g(X_t, grid), the grid means
        and the grid residuals up to date, so an update costs O(t N) and
        ``mean_batch(grid)`` or ``cov_norm_batch(grid)`` costs O(N) instead
        of O(t^2 N).  Only a query that *is* this array object is served
        from the cache; every other query (copies included) takes the
        general read path.  The caller must not mutate the grid afterwards.
        The block path ignores it.

    Updates mutate the state in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, fast_path="auto", grid=None):
        super().__init__(kernel, eta)
        if self._use_fast_path(fast_path, (ICMKernel, DiagonalKernel)):
            grid = None if grid is None else _as_points(grid)
            self._solver = _TaskBasis(kernel, self.eta, grid)
        else:
            self._solver = _BlockSystem(kernel, self.eta)

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
