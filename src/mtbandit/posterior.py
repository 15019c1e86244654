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
  one shared scalar kernel needs a single system;
* any other kernel is a single system: the kernel itself, with b = n,
  xi = 1 and U = I.  This is the general block solve.

The observation front-end ``_Posterior`` keeps a universe of arms: the
rows of the candidate grid, when one is given, then each distinct
off-grid history point, with per-arm visit counts c and output sums S.
The c observations of an arm act as one observation of their mean with
noise eta / c, so over the observed arms U system g solves

    (xi_g K_UU + eta diag(1/c) (x) I_b) alpha_g = (S_U / c) U_g,

one dense solve whatever t is.

A bandit observes and scores only the N grid arms, so each system is a
Gaussian process over them (the finite-arm form of GP-UCB and
KernelUCB).  The engine keeps per system the arm-space covariance P_g
(prior k_g(grid, grid); Gamma_t restricted to system g is xi_g P_g) and
the mean coordinates w_g over the grid.  An observation y at arm i is a
rank-b_g downdate by the pre-update block column p = P_g[:, i]:

    S = xi_g P_g[i, i] + eta I,   w_g += p S^{-1} (y U_g - xi_g w_g[i]),
    P_g -= xi_g p S^{-1} p^T,

and the log-det increment is read off the pre-update block xi_g P_g[i, i].
P_g is the lower triangle of a Fortran-ordered array, downdated in place
by one BLAS dsyr (b = 1) or dsyrk.  An update costs O((N b)^2) per system
whatever t, a grid read O(N b^2), and each system stores (N b)^2 floats:
3 MB for b = 1 on N = 625, but 253 MB for the general system of a 9-task
kernel there (the CLI builds only ICM and diagonal kernels, so never the
latter).  No weight is divided by, so a zero coupling keeps a
zero-weight system.  Grid reads match the grid by identity (the same
array object); the caller must not mutate it.  Every other read, and the
column that an update at an off-grid point needs, comes from the
compressed solve, cached until the next update.

The budgeted posterior in the nystrom module shares the front-end and
the covariance clamp, builds its supports over the same systems and
assembles them with the same ``assemble_*`` methods.
"""

import numpy as np
import scipy.linalg as la
from scipy.linalg.blas import dsyr, dsyrk

from .kernels import DiagonalKernel, ICMKernel, MultiTaskKernel, _as_points

__all__ = [
    "PosteriorState",
]


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
    A3 = A.reshape(A.shape[0], A.shape[1] // b, b)
    B3 = B.reshape(B.shape[0], B.shape[1] // b, b)
    return np.einsum("kja,kjb->jab", A3, B3)


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


def _tril_column(P, lo: int, b: int) -> np.ndarray:
    """Columns lo .. lo+b-1 of a symmetric matrix stored in its lower triangle.

    Above the diagonal block the column is read as a row of the triangle;
    the diagonal block is mirrored from its lower half.  Shape (p, b).
    """
    col = np.concatenate([P[lo:lo + b, :lo].T, P[lo:, lo:lo + b]])
    if b > 1:
        i, j = np.triu_indices(b, 1)
        col[lo + i, j] = col[lo + j, i]
    return col


def _tril_diag_blocks(P, b: int) -> np.ndarray:
    """The b x b diagonal blocks of a symmetric matrix stored in its lower
    triangle, mirrored, shape (N, b, b).

    The blocks are read through a strided view of P, so for b = 1 the
    result is a read-only view; for b > 1 it is a mirrored copy.
    """
    N = P.shape[0] // b
    D = np.diagonal(P.T.reshape(N, b, N, b), axis1=0, axis2=2).T
    if b > 1:
        D = D.copy()
        i, j = np.triu_indices(b, 1)
        D[:, i, j] = D[:, j, i]
    return D


# Observation front-end =======================================================
class _Posterior:
    """Observation front-end shared by the exact and the budgeted posterior.

    Checks eta and every observation, keeps the history as a (t, d) input
    array ``X`` and a (t, n) output array ``Y``, accumulates ``logdet_sum``
    and keeps the arm universe: the rows of ``grid`` (which fixes the input
    dimension), then each distinct off-grid point when first observed,
    found by its bytes, with the arm of every history point and the visit
    count and output sum of every arm.

    A subclass grows its model in ``_absorb(a, y)``, called after every
    check with the observed point already an arm a.  It records the
    observation with ``_record(a, y)`` once it no longer needs the history
    before it, and returns log det(I_n + eta^{-1} Gamma_{t-1}(x_t, x_t)).
    A subclass also supplies ``mean_batch``, ``cov`` and ``cov_norm_batch``.

    Updates mutate the state in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, grid=None):
        eta = float(eta)
        if not eta > 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.kernel = kernel
        self.eta = eta
        self.X = np.zeros((0, 0))
        self.Y = np.zeros((0, kernel.n))
        self.logdet_sum = 0.0
        self._arms = np.zeros((0, 0))
        self._arm_of = {}  # point bytes -> arm index
        self._hist_arm = np.zeros(0, dtype=int)  # arm index of every history point
        self._counts = np.zeros(0, dtype=int)
        self._sums = np.zeros((0, kernel.n))
        self._grid = None
        if grid is not None:
            self._grid = _as_points(grid)
            self.X = np.zeros((0, self._grid.shape[1]))
            self._add_arms(self._grid)

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
        self.logdet_sum += self._absorb(self._arm(x), y)
        return self

    def _add_arms(self, X):
        """Append the points X as unobserved arms."""
        A = self._arms.shape[0]
        for j, x in enumerate(X):
            self._arm_of.setdefault(x.tobytes(), A + j)
        self._arms = np.vstack([self._arms.reshape(A, X.shape[1]), X])
        self._counts = np.concatenate([self._counts, np.zeros(X.shape[0], dtype=int)])
        self._sums = np.vstack([self._sums, np.zeros((X.shape[0], self.kernel.n))])

    def _arm(self, x) -> int:
        """Arm index of the point x; an unseen point becomes a new arm."""
        a = self._arm_of.get(x.tobytes())
        if a is None:
            a = self._arms.shape[0]
            self._add_arms(x[None])
        return a

    def _record(self, a: int, y):
        """Append the observation y at arm a to the history and the arm statistics."""
        x = self._arms[a]
        self.X = np.vstack([self.X, x]) if self.t else np.array([x])
        self.Y = np.vstack([self.Y, y])
        self._hist_arm = np.append(self._hist_arm, a)
        self._counts[a] += 1
        self._sums[a] += y

    def mean(self, x) -> np.ndarray:
        """Posterior mean mu_t(x) as an (n,) vector; zero at t = 0."""
        return self.mean_batch(x)[0]

    def cov_norm(self, x) -> float:
        """Operator norm ||Gamma_t(x, x)|| of the clamped covariance."""
        return float(self.cov_norm_batch(x)[0])


# Engine ======================================================================
class _TaskBasis:
    """The task-basis systems of a kernel (``_task_systems``) and the
    assembly of per-system coordinates and residual blocks into means and
    covariances, shared by the exact and the budgeted posterior."""

    def __init__(self, kernel, structured=True):
        self.U, self.kernels, self.systems = _task_systems(kernel, structured)
        self.b = self.kernels[0].n  # the block size, shared by every system
        self.r = [cols.size // self.b for _, _, cols in self.systems]  # right-hand sides
        self._xi = np.array([xi for _, xi, _ in self.systems])

    def project(self, Y) -> np.ndarray:
        """Outputs in basis coordinates, Y U."""
        return np.asarray(Y, dtype=float) @ self.U

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


class _CompressedSolve:
    """The ridge systems of every task-basis system over the history
    compressed per distinct arm (module docstring), factored once."""

    def __init__(self, basis: _TaskBasis, eta, arms, counts, sums):
        self.basis = basis
        seen = np.flatnonzero(counts)
        self._XU = arms[seen]
        inv_c = np.repeat(1.0 / counts[seen], basis.b)
        Yp = basis.project(sums[seen] / counts[seen][:, None])
        K = [k._cross(self._XU, self._XU) for k in basis.kernels]
        self._chol, self._alpha = [], []
        for (i, xi, cols), r in zip(basis.systems, basis.r):
            M = xi * K[i]
            M[np.diag_indices_from(M)] += eta * inv_c
            L = la.cholesky(M, lower=True, check_finite=False)
            rhs = Yp[:, cols].reshape(M.shape[0], r)
            self._chol.append(L)
            self._alpha.append(la.cho_solve((L, True), rhs, check_finite=False))

    def _cross(self, Xq) -> list:
        """k_i(U, Xq) for every kernel of the basis."""
        return [k._cross(self._XU, Xq) for k in self.basis.kernels]

    def coords(self, Xq) -> list:
        """Per-system mean coordinates k_q^T alpha_g, each (N b, r_g)."""
        Kq = self._cross(Xq)
        return [Kq[i].T @ alpha for (i, _, _), alpha in zip(self.basis.systems, self._alpha)]

    def residuals(self, Xq) -> list:
        """Per-system blocks P_g(x, x) = k_g(x, x) - xi_g k_q^T M_g^{-1} k_q, each (N, b, b)."""
        Kq, res = self._cross(Xq), []
        for L, (i, xi, _) in zip(self._chol, self.basis.systems):
            V = la.solve_triangular(L, Kq[i], lower=True, check_finite=False)
            res.append(self.basis.kernels[i].diag_blocks(Xq) - xi * _block_gram(V, V, self.basis.b))
        return res

    def columns(self, x, grid) -> list:
        """Per-system block columns P_g(grid, x) = k_g(grid, x) - xi_g k_g(U, grid)^T
        M_g^{-1} k_g(U, x), each (N b, b)."""
        Kx, Kg = self._cross(x), self._cross(grid)
        prior = [k._cross(grid, x) for k in self.basis.kernels]
        out = []
        for L, (i, xi, _) in zip(self._chol, self.basis.systems):
            solved = la.cho_solve((L, True), Kx[i], check_finite=False)
            out.append(prior[i] - xi * (Kg[i].T @ solved))
        return out


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
        engine then keeps each system's arm-space covariance over the grid,
        (N b)^2 floats, and the grid mean coordinates, downdated by rank b
        per observation: an update costs O((N b)^2) whatever t, and
        ``mean_batch(grid)`` or ``cov_norm_batch(grid)`` O(N b^2).  Only a
        query that *is* this array object is served from them.  Every
        other query (copies included), and the column that an update at an
        off-grid point needs, comes from one dense solve over the history
        compressed per distinct arm, (xi_g K_UU + eta diag(1/c)) (x) I_b
        per system, cached until the next update.  The caller must not
        mutate the grid afterwards.  Inputs must have the grid's dimension.

    Updates mutate the state in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, fast_path="auto", grid=None):
        super().__init__(kernel, eta, grid)
        structured = isinstance(kernel, (ICMKernel, DiagonalKernel))
        if fast_path is True and not structured:
            raise TypeError(f"no fast path for kernel variant {type(kernel).__name__}")
        structured = structured and (fast_path is True or fast_path == "auto")
        self._basis = _TaskBasis(kernel, structured)
        self._solve = None  # the compressed history solve, dropped on update
        self._cov, self._coords = [], []
        if self._grid is not None:
            G, b = self._grid, self._basis.b
            prior = [k._cross(G, G) for k in self._basis.kernels]
            # Fortran order: dsyr and dsyrk return a copy of any other array.
            self._cov = [np.array(prior[i], order="F") for i, _, _ in self._basis.systems]
            self._coords = [np.zeros((G.shape[0] * b, r)) for r in self._basis.r]

    def _compressed(self) -> _CompressedSolve:
        if self._solve is None:
            self._solve = _CompressedSolve(
                self._basis, self.eta, self._arms, self._counts, self._sums
            )
        return self._solve

    def _absorb(self, a, y) -> float:
        """Downdate the grid statistics by the observation y at arm a.

        The block columns P_g(grid, x), the blocks P_g(x, x) and the mean
        coordinates w_g(x) before the update come from the grid arrays for
        a grid arm and from the compressed solve otherwise.
        """
        basis, b = self._basis, self._basis.b
        N = 0 if self._grid is None else self._grid.shape[0]
        if a < N:
            lo = a * b
            cols = [_tril_column(P, lo, b) for P in self._cov]
            blocks = [c[lo:lo + b] for c in cols]
            means = [w[lo:lo + b] for w in self._coords]
        else:
            x, solve = self._arms[a:a + 1], self._compressed()
            blocks = [R[0] for R in solve.residuals(x)]
            means = solve.coords(x)
            cols = solve.columns(x, self._grid) if N else []
        self._record(a, y)
        self._solve = None
        yp = basis.project(y)
        # Without a grid there are no columns and nothing to downdate.
        for s, ((_, xi, idx), col, B) in enumerate(zip(basis.systems, cols, blocks)):
            resid = yp[idx].reshape(b, -1) - xi * means[s]
            S = xi * B + self.eta * np.eye(b)
            if b == 1:
                self._coords[s] += col * (resid / S[0, 0])
                self._cov[s] = dsyr(-xi / S[0, 0], col[:, 0], lower=1, a=self._cov[s],
                                    overwrite_a=1)
            else:
                L = la.cholesky(S, lower=True, check_finite=False)
                W = la.solve_triangular(L, col.T, lower=True, check_finite=False)
                z = la.solve_triangular(L, resid, lower=True, check_finite=False)
                self._coords[s] += W.T @ z
                self._cov[s] = dsyrk(-xi, W.T, beta=1.0, c=self._cov[s], lower=1,
                                     overwrite_c=1)
        # System g contributes r_g copies of the eigenvalues of xi_g P_g(x, x).
        vals = [_clamp_spectrum(xi * B, None) for (_, xi, _), B in zip(basis.systems, blocks)]
        return _logdet_ratio(np.repeat(vals, basis.r, axis=0).ravel(), self.eta, self.kernel.kappa)

    def mean_batch(self, Xq) -> np.ndarray:
        """Posterior means over a stack of queries, shape (N, n)."""
        Xq = _as_points(Xq)
        if self.t == 0:
            return np.zeros((Xq.shape[0], self.kernel.n))
        if Xq is self._grid:
            return self._basis.assemble_mean(self._coords, Xq.shape[0])
        return self._basis.assemble_mean(self._compressed().coords(Xq), Xq.shape[0])

    def _residuals(self, Xq) -> list:
        if self.t == 0:
            return [self._basis.kernels[i].diag_blocks(Xq) for i, _, _ in self._basis.systems]
        return self._compressed().residuals(Xq)

    def cov(self, x) -> np.ndarray:
        """Posterior covariance Gamma_t(x, x), symmetric with eigenvalues
        clamped to [0, kappa]."""
        res = self._residuals(_as_points(x))
        return self._basis.assemble_cov([R[0] for R in res], self.kernel.kappa)

    def cov_norm_batch(self, Xq) -> np.ndarray:
        """Posterior covariance norms over a stack of queries, shape (N,),
        clamped to [0, kappa]."""
        Xq = _as_points(Xq)
        if Xq is self._grid:
            res = [_tril_diag_blocks(P, self._basis.b) for P in self._cov]
        else:
            res = self._residuals(Xq)
        return self._basis.assemble_cov_norm(res, self.kernel.kappa)
