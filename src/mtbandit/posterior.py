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
"""

import numpy as np
import scipy.linalg as la

from .kernels import (
    DiagonalKernel,
    ICMKernel,
    MultiTaskKernel,
    _as_points,
    block_kernel_matrix,
)

__all__ = [
    "PosteriorState",
    "icm_posterior_mean",
    "icm_posterior_cov_norm",
    "append_cholesky",
    "REBUILD_EVERY",
]

# Full factorization rebuild cadence; block appends in between.
REBUILD_EVERY = 64


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


def _logdet_ratio(M: np.ndarray, eta: float, cap: float) -> float:
    """log det(I + M / eta) for a symmetric matrix M with eigenvalues in [0, cap]."""
    evals = np.clip(la.eigvalsh(0.5 * (M + M.T)), 0.0, cap)
    return float(np.sum(np.log1p(evals / eta)))


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


# Task-basis engine ===========================================================
class _TaskBasis:
    """Scalar ridge systems in a task basis: Gamma = sum_g xi_g k_g U_g U_g^T.

    Each system g is a scalar kernel k_g, a weight xi_g and a block of
    orthonormal output columns U_g.  An ICMKernel gives one scalar kernel,
    the eigenvalue clusters of B and their eigenvector columns; a
    DiagonalKernel gives one system per distinct scalar-kernel object, with
    unit weight and unit-vector columns.

    The state keeps one Gram matrix per distinct scalar kernel, one
    Cholesky factor of (xi_g K + eta I_t) per system (block-appended, fully
    rebuilt every REBUILD_EVERY updates) and the outputs projected onto U.
    ``assemble_*`` turn per-system coordinates and residuals into means and
    covariances; the budgeted ICM support in nystrom reuses them.
    """

    def __init__(self, kernel, eta):
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
        self.grams = [np.zeros((0, 0)) for _ in self.scalars]
        self.chols = [np.zeros((0, 0)) for _ in self.systems]
        self.Yproj = np.zeros((0, kernel.n))
        self._since_rebuild = 0

    @property
    def t(self) -> int:
        return self.Yproj.shape[0]

    def project(self, Yrows) -> np.ndarray:
        """Outputs in basis coordinates, Y U."""
        return np.asarray(Yrows, dtype=float) @ self.U

    def update(self, X_old, x_new, y_new):
        t = self.t
        X_new = np.vstack([X_old, x_new]) if t else _as_points(x_new)
        for i, k in enumerate(self.scalars):
            K = np.empty((t + 1, t + 1))
            K[:t, :t] = self.grams[i]
            K[:, t:] = k.pairwise(X_new, x_new)
            K[t:, :t] = K[:t, t:].T
            self.grams[i] = K
        self._since_rebuild += 1
        rebuild = self._since_rebuild >= REBUILD_EVERY
        for s, (i, xi, _) in enumerate(self.systems):
            K = self.grams[i]
            if rebuild:
                self.chols[s] = la.cholesky(xi * K + self.eta * np.eye(t + 1), lower=True)
            else:
                self.chols[s] = append_cholesky(
                    self.chols[s], xi * K[:t, t:], np.array([[xi * K[t, t] + self.eta]])
                )
        if rebuild:
            self._since_rebuild = 0
        self.Yproj = np.vstack([self.Yproj, self.project(y_new)[None, :]])

    def _crosses(self, X_hist, Xq) -> list:
        """One (t, N) cross matrix k(x_s, z_j) per distinct scalar kernel."""
        return [k.pairwise(X_hist, Xq) for k in self.scalars]

    def mean_batch(self, X_hist, Xq) -> np.ndarray:
        N = _as_points(Xq).shape[0]
        if self.t == 0:
            return np.zeros((N, self.U.shape[0]))
        Kq = self._crosses(X_hist, Xq)
        parts = [
            Kq[i].T @ la.cho_solve((self.chols[s], True), self.Yproj[:, cols])
            for s, (i, _, cols) in enumerate(self.systems)
        ]
        return self.assemble_mean(parts, N)

    def residuals_batch(self, X_hist, Xq) -> np.ndarray:
        """Per-system r_g(x) = k_g(x,x) - xi_g k_q^T (xi_g K + eta I)^{-1} k_q.

        Returns shape (n_systems, N).
        """
        Xq = _as_points(Xq)
        Kq = self._crosses(X_hist, Xq) if self.t else None
        res = np.empty((len(self.systems), Xq.shape[0]))
        for s, (i, xi, _) in enumerate(self.systems):
            res[s] = self.scalars[i].diag(Xq)
            if Kq is not None:
                V = la.solve_triangular(self.chols[s], Kq[i], lower=True)
                res[s] -= xi * np.einsum("kj,kj->j", V, V)
        return res

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
        vals = np.clip(vals, 0.0, cap)
        return (self.U * vals) @ self.U.T

    def assemble_cov_norm(self, res, cap) -> np.ndarray:
        """max_g xi_g r_g(x) per query, clamped to [0, cap]."""
        xis = np.array([xi for _, xi, _ in self.systems])
        return np.clip(np.max(xis[:, None] * res, axis=0, initial=0.0), 0.0, cap)


# Public posterior state ======================================================
class PosteriorState:
    """Exact multi-task KRR posterior after t observations.

    Parameters
    ----------
    kernel : MultiTaskKernel
    eta : float
        Positive regularizer.
    fast_path : {"auto", True, False}
        "auto" picks the task-basis solver for ICM and diagonal kernels;
        False forces the general nt x nt block path.

    Updates mutate the state in place (single-writer); reads are pure.
    """

    def __init__(self, kernel: MultiTaskKernel, eta: float, fast_path="auto"):
        eta = float(eta)
        if not eta > 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.kernel = kernel
        self.eta = eta
        self.points: list[np.ndarray] = []
        self.Y = np.zeros(0)
        self.logdet_sum = 0.0
        structured = isinstance(kernel, (ICMKernel, DiagonalKernel))
        if fast_path is True and not structured:
            raise TypeError(f"no fast path for kernel variant {type(kernel).__name__}")
        use_fast = structured and (fast_path is True or fast_path == "auto")
        self._fast = _TaskBasis(kernel, eta) if use_fast else None
        self._chol = np.zeros((0, 0))
        self._alpha = np.zeros(0)
        self._since_rebuild = 0

    @property
    def t(self) -> int:
        return len(self.points)

    def _hist(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 1))
        return np.vstack(self.points)

    # -- updates --------------------------------------------------------
    def update(self, x, y) -> "PosteriorState":
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

        self.logdet_sum += _logdet_ratio(self.cov(x), self.eta, self.kernel.kappa)

        X_old = self._hist()
        if self._fast is not None:
            self._fast.update(X_old, x, y)
            self.points.append(x)
        else:
            n = self.kernel.n
            C = self.kernel._cross(X_old, _as_points(x)) if self.t else np.zeros((0, n))
            D = self.kernel.diag_block(x) + self.eta * np.eye(n)
            self.points.append(x)
            self._since_rebuild += 1
            if self._since_rebuild >= REBUILD_EVERY:
                G = block_kernel_matrix(self.kernel, self._hist())
                self._chol = la.cholesky(
                    G + self.eta * np.eye(G.shape[0]), lower=True
                )
                self._since_rebuild = 0
            else:
                self._chol = append_cholesky(self._chol, C, 0.5 * (D + D.T))
        self.Y = np.concatenate([self.Y, y])
        if self._fast is None:
            self._alpha = la.cho_solve((self._chol, True), self.Y)
        return self

    # -- reads ----------------------------------------------------------
    def mean(self, x) -> np.ndarray:
        """Posterior mean mu_t(x) as an (n,) vector; zero at t = 0."""
        return self.mean_batch(x)[0]

    def mean_batch(self, Xq) -> np.ndarray:
        """Posterior means over a stack of queries, shape (N, n)."""
        Xq = _as_points(Xq)
        if self._fast is not None:
            return self._fast.mean_batch(self._hist(), Xq)
        N, n = Xq.shape[0], self.kernel.n
        if self.t == 0:
            return np.zeros((N, n))
        Gq = self.kernel._cross(self._hist(), Xq)
        return (Gq.T @ self._alpha).reshape(N, n)

    def cov(self, x) -> np.ndarray:
        """Posterior covariance Gamma_t(x, x), symmetric with eigenvalues
        clamped to [0, kappa]."""
        if self._fast is not None:
            res = self._fast.residuals_batch(self._hist(), x)[:, 0]
            return self._fast.assemble_cov(res, self.kernel.kappa)
        prior = self.kernel.diag_block(x)
        if self.t == 0:
            C = prior
        else:
            g = self.kernel._cross(self._hist(), _as_points(x))
            W = la.solve_triangular(self._chol, g, lower=True)
            C = prior - W.T @ W
        evals, evecs = la.eigh(0.5 * (C + C.T))
        evals = np.clip(evals, 0.0, self.kernel.kappa)
        return (evecs * evals) @ evecs.T

    def cov_norm(self, x) -> float:
        """Operator norm ||Gamma_t(x, x)||, clamped to [0, kappa]."""
        return float(self.cov_norm_batch(x)[0])

    def cov_norm_batch(self, Xq) -> np.ndarray:
        """Posterior covariance norms over a stack of queries, shape (N,)."""
        Xq = _as_points(Xq)
        if self._fast is not None:
            res = self._fast.residuals_batch(self._hist(), Xq)
            return self._fast.assemble_cov_norm(res, self.kernel.kappa)
        N = Xq.shape[0]
        out = np.empty(N)
        if self.t == 0:
            for j in range(N):
                out[j] = la.eigvalsh(self.kernel.diag_block(Xq[j]))[-1]
            return np.clip(out, 0.0, self.kernel.kappa)
        n = self.kernel.n
        Gq = self.kernel._cross(self._hist(), Xq)
        W = la.solve_triangular(self._chol, Gq, lower=True)
        W3 = W.reshape(W.shape[0], N, n)
        Q = np.einsum("kja,kjb->jab", W3, W3)
        for j in range(N):
            C = self.kernel.diag_block(Xq[j]) - Q[j]
            out[j] = la.eigvalsh(0.5 * (C + C.T))[-1]
        return np.clip(out, 0.0, self.kernel.kappa)


# ICM fast-path entry points ==================================================
def _require_icm(state: PosteriorState):
    if state._fast is None or not isinstance(state.kernel, ICMKernel):
        raise TypeError(
            "fast-path evaluation needs a PosteriorState over an ICMKernel "
            "with its eigendirection solver enabled"
        )


def icm_posterior_mean(state: PosteriorState, x) -> np.ndarray:
    """mu_t(x) through the eigendirection solver of a separable kernel.

    Equals the general block path; raises TypeError for other variants.
    """
    _require_icm(state)
    return state.mean_batch(x)[0]


def icm_posterior_cov_norm(state: PosteriorState, x) -> float:
    """||Gamma_t(x, x)|| through the eigendirection solver.

    max_i xi_i (k(x,x) - xi_i k_t(x)^T (xi_i K_t + eta I_t)^{-1} k_t(x)).
    """
    _require_icm(state)
    return state.cov_norm(x)
