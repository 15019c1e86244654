"""Scalar kernels, coupling matrices, and multi-task kernels.

A multi-task kernel maps a pair of inputs to an n x n positive
semi-definite matrix coupling the n objectives.  Every one is a sum of
separable terms, Gamma(x, x') = sum_j k_j(x, x') * B_j (the linear model
of coregionalization), and ``MultiTaskKernel`` implements that sum once.
The other classes only build its terms:

* ``ICMKernel(k, B)``       -- the one-term sum k(x, x') * B.
* ``DiagonalKernel([k_j])`` -- sum_j k_j(x, x') e_j e_j^T, which treats
  every task independently.
* ``SumSeparableKernel``    -- any list of terms.

The posteriors solve an ICM kernel, and a diagonal kernel whose tasks
share one scalar-kernel object, through that one scalar kernel, and any
other kernel as one general system; a diagonal kernel with distinct
scalars is such a general system.

Block matrices over a point history use point-major layout: rows
``i*n .. (i+1)*n - 1`` belong to the i-th point, matching the
concatenation order of the stacked output vector.

``ScalarKernel.pairwise`` returns every value below the smallest normal
float, np.finfo(float).tiny = 2.2e-308, as 0.0.  Points many lengthscales
apart (lengthscale 0.2 on a domain of width 15, say) give such subnormal
values, and the hardware computes with subnormals far more slowly: a
product of a 120 x 120 matrix with a 120 x 625 kernel matrix holding
4.6 % subnormal entries took 19 times as long as with those entries
zeroed.  A value that small cannot change any sum of O(1) terms.
Feature rows built from kernel values (the nystrom module's incomplete
Cholesky factor) are flushed at sqrt(tiny) = 1.5e-154, so that no
product of two of them is subnormal either.  The squared exponential
skips exp where its value would be below tiny, since exp is also slow
there.  Distances are summed coordinate by coordinate, in the order of
scipy's cdist and with its bits, without importing scipy.spatial.  The
eigen-solvers of the couplings are NumPy's, so the module loads no SciPy.
"""

import abc

import numpy as np

__all__ = [
    "ScalarKernel",
    "SquaredExponential",
    "Matern52",
    "CouplingSpectrum",
    "coupling_spectrum",
    "validate_coupling",
    "omega_coupling",
    "gram_coupling",
    "MultiTaskKernel",
    "ICMKernel",
    "SumSeparableKernel",
    "DiagonalKernel",
    "block_kernel_matrix",
    "cross_block",
    "operator_norm",
]


def _as_points(X) -> np.ndarray:
    """Coerce one point or a stack of points to a 2-D float array (N, d)."""
    A = np.asarray(X, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        # A single point given as a d-vector.
        A = A.reshape(1, -1)
    if not np.all(np.isfinite(A)):
        raise ValueError("kernel input contains non-finite entries")
    return A


# Smallest normal float; smaller kernel values are flushed to 0.0.
_TINY = np.finfo(float).tiny
# exp(a) < _TINY for every a below this, one below log(_TINY) for margin.
_EXP_FLOOR = np.log(_TINY) - 1.0


def operator_norm(M: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix (its induced 2-norm)."""
    M = np.asarray(M, dtype=float)
    sym = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(sym)[-1])


# Scalar kernels ==============================================================
class ScalarKernel(abc.ABC):
    """Stationary scalar kernel with unit variance, k(x, x) = 1.

    It also acts as a one-task kernel (``n = 1``, ``_cross``,
    ``diag_blocks``), so the posteriors treat it like a multi-task kernel.

    Parameters
    ----------
    lengthscale : float
        Positive lengthscale in input-space units.
    """

    n = 1

    def __init__(self, lengthscale: float):
        lengthscale = float(lengthscale)
        if not np.isfinite(lengthscale) or lengthscale <= 0:
            raise ValueError(f"lengthscale must be positive, got {lengthscale}")
        self.lengthscale = lengthscale

    @abc.abstractmethod
    def _from_distance(self, r: np.ndarray) -> np.ndarray:
        """Kernel value as a function of Euclidean distance r >= 0."""

    def pairwise(self, X, Z) -> np.ndarray:
        """Kernel matrix [k(x_i, z_j)] for point stacks X (N, d), Z (M, d).

        Values below np.finfo(float).tiny are 0.0 (module docstring).
        """
        X, Z = _as_points(X), _as_points(Z)
        if X.shape[1] != Z.shape[1]:
            raise ValueError(f"point dimensions differ: {X.shape[1]} and {Z.shape[1]}")
        r2 = np.zeros((X.shape[0], Z.shape[0]))
        for k in range(X.shape[1]):
            r2 += (X[:, k, None] - Z[None, :, k]) ** 2
        K = self._from_distance(np.sqrt(r2))
        K *= K >= _TINY  # faster than a masked store when most entries flush
        return K

    def diag(self, X) -> np.ndarray:
        """Vector of k(x_i, x_i); identically 1 for unit-variance kernels."""
        return np.ones(_as_points(X).shape[0])

    def _cross(self, X, Z) -> np.ndarray:
        """The one-task cross blocks: ``pairwise``."""
        return self.pairwise(X, Z)

    def diag_blocks(self, X) -> np.ndarray:
        """k(x_i, x_i) as a stack of 1 x 1 blocks, shape (N, 1, 1)."""
        return self.diag(X)[:, None, None]

    def __call__(self, x, z) -> float:
        return float(self.pairwise(x, z)[0, 0])

    def __repr__(self):
        return f"{type(self).__name__}(lengthscale={self.lengthscale!r})"


class SquaredExponential(ScalarKernel):
    """k(x, x') = exp(-||x - x'||^2 / (2 l^2))."""

    def _from_distance(self, r):
        a = -0.5 * (r / self.lengthscale) ** 2
        # Where exp would be subnormal or zero it is slow, and pairwise flushes it.
        return np.exp(a, out=np.zeros_like(a), where=a > _EXP_FLOOR)


class Matern52(ScalarKernel):
    """Matern kernel with smoothness 5/2.

    k(x, x') = (1 + sqrt(5) r / l + 5 r^2 / (3 l^2)) exp(-sqrt(5) r / l)
    with r = ||x - x'||.
    """

    def _from_distance(self, r):
        s = np.sqrt(5.0) * r / self.lengthscale
        return (1.0 + s + s**2 / 3.0) * np.exp(-s)


# Coupling matrices ===========================================================
class CouplingSpectrum:
    """Eigen-decomposition of a PSD coupling matrix.

    Attributes
    ----------
    eigenvalues : (n,) ndarray
        Nonnegative, in descending order.
    eigenvectors : (n, n) ndarray
        Orthonormal columns, aligned with ``eigenvalues``.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=float)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Sum_i xi_i u_i u_i^T, the matrix the spectrum was taken from."""
        U, xi = self.eigenvectors, self.eigenvalues
        return (U * xi) @ U.T

    def __repr__(self):
        return f"CouplingSpectrum(eigenvalues={self.eigenvalues!r})"


def validate_coupling(B) -> np.ndarray:
    """Check that B is a symmetric PSD matrix; return it as a float array.

    Raises
    ------
    ValueError
        If B is not square, not symmetric within 1e-12, or has an
        eigenvalue below -1e-9 times the largest one.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"coupling matrix must be square, got shape {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("coupling matrix contains non-finite entries")
    asym = np.max(np.abs(B - B.T)) if B.size else 0.0
    if asym > 1e-12:
        raise ValueError(f"coupling matrix is asymmetric (max |B - B^T| = {asym:.3e})")
    evals = np.linalg.eigvalsh(B)
    lam_max = max(evals[-1], 0.0)
    if evals[0] < -1e-9 * max(lam_max, 1e-300):
        raise ValueError(
            f"coupling matrix is not PSD: eigenvalue {evals[0]:.6e} "
            f"below tolerance -1e-9 * {lam_max:.6e}"
        )
    return B


def coupling_spectrum(B) -> CouplingSpectrum:
    """Eigen-decompose a symmetric PSD coupling matrix.

    Eigenvalues are returned in descending order with their orthonormal
    eigenvectors.  Values within 1e-12 of zero relative to the largest
    eigenvalue are floored to exactly 0.0 (round-off on rank-deficient
    couplings such as omega = 0 leaves ~1e-17 residue that would
    otherwise masquerade as an informative direction).
    """
    B = validate_coupling(B)
    evals, evecs = np.linalg.eigh(B)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    if evals.size:
        evals[evals <= 1e-12 * evals[0]] = 0.0
    return CouplingSpectrum(evals, evecs[:, order])


def omega_coupling(omega: float, n: int) -> np.ndarray:
    """Coupling B = omega * I_n + (1 - omega) * 1_n / n.

    ``1_n`` is the all-ones n x n matrix.  B has one eigenvalue equal to 1
    (the normalized all-ones direction) and n - 1 eigenvalues equal to
    omega: omega = 0 makes all tasks identical, omega = 1 makes them
    unrelated.
    """
    omega = float(omega)
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    if n < 1:
        raise ValueError(f"task count must be >= 1, got {n}")
    return omega * np.eye(n) + (1.0 - omega) * np.ones((n, n)) / n


def gram_coupling(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random PSD coupling B = A^T A with A entries Uniform[0, 1]."""
    if n < 1:
        raise ValueError(f"task count must be >= 1, got {n}")
    A = rng.random((n, n))
    B = A.T @ A
    return 0.5 * (B + B.T)


# Multi-task kernels ==========================================================
class MultiTaskKernel:
    """Sum of separable terms, Gamma(x, x') = sum_j k_j(x, x') * B_j.

    Parameters
    ----------
    terms : iterable of (ScalarKernel, array_like)
        Unit-variance scalar kernels k_j with symmetric PSD couplings B_j,
        all of shape (n, n).

    Attributes
    ----------
    n : int
        Task count.
    kappa : float
        Uniform operator-norm bound sup_x ||Gamma(x, x)||.
    """

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError(f"{type(self).__name__} needs at least one (kernel, coupling) term")
        self.terms = [(k, validate_coupling(B)) for k, B in terms]
        self.n = self.terms[0][1].shape[0]
        if any(B.shape[0] != self.n for _, B in self.terms):
            raise ValueError("all coupling matrices must share the task count")
        # k_j(x, x) = 1 for every stationary unit-variance term, so
        # Gamma(x, x) = sum_j B_j at every x.
        self.kappa = operator_norm(sum(B for _, B in self.terms))

    def __call__(self, x, z) -> np.ndarray:
        """Gamma(x, z) as an (n, n) array."""
        return sum(k(x, z) * B for k, B in self.terms)

    def _cross(self, X, Z) -> np.ndarray:
        """Stacked cross blocks of shape (n * len(X), n * len(Z)).

        Block (i, j) equals Gamma(x_i, z_j).
        """
        return sum(np.kron(k.pairwise(X, Z), B) for k, B in self.terms)

    def diag_block(self, x) -> np.ndarray:
        """Gamma(x, x), always symmetric PSD for a valid kernel."""
        return self(x, x)

    def diag_blocks(self, X) -> np.ndarray:
        """Gamma(x_i, x_i) for a stack of points, shape (N, n, n)."""
        return sum(k.diag_blocks(X) * B for k, B in self.terms)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, terms={len(self.terms)})"


class SumSeparableKernel(MultiTaskKernel):
    """A general sum of separable terms, solved as one system by the posteriors."""


class ICMKernel(MultiTaskKernel):
    """Separable kernel Gamma(x, x') = k(x, x') * B, the one-term sum.

    Parameters
    ----------
    scalar : ScalarKernel
        Unit-variance scalar kernel k.
    coupling : array_like
        Symmetric PSD task-coupling matrix B of shape (n, n).
    """

    def __init__(self, scalar: ScalarKernel, coupling):
        super().__init__([(scalar, coupling)])
        self.scalar, self.coupling = self.terms[0]
        self.spectrum = coupling_spectrum(self.coupling)
        # The spectrum's top eigenvalue, not operator_norm(B): the two differ in
        # the last bits, and kappa reaches the regret bound.
        self.kappa = float(self.spectrum.eigenvalues[0])


class DiagonalKernel(MultiTaskKernel):
    """Independent tasks: Gamma(x, x') = Dg(k_1(x, x'), ..., k_n(x, x')).

    The sum of the terms k_j e_j e_j^T.
    """

    def __init__(self, scalars):
        self.scalars = list(scalars)
        E = np.eye(len(self.scalars))
        super().__init__((k, np.outer(e, e)) for k, e in zip(self.scalars, E))


# Block assembly ==============================================================
def block_kernel_matrix(kernel: MultiTaskKernel, X) -> np.ndarray:
    """Assemble the (nt, nt) block matrix [Gamma(x_i, x_j)] over t points.

    Point-major layout: rows i*n .. (i+1)*n - 1 belong to x_i.
    """
    X = _as_points(X)
    if X.shape[0] < 1:
        raise ValueError("block_kernel_matrix needs at least one point")
    G = kernel._cross(X, X)
    return 0.5 * (G + G.T)


def cross_block(kernel: MultiTaskKernel, X, z) -> np.ndarray:
    """Stacked cross-kernel [Gamma(x_1, z); ...; Gamma(x_t, z)] of shape (nt, n q)
    for q query points z.

    An empty history yields an empty (0, n q) matrix.
    """
    X, Z = np.asarray(X, dtype=float), _as_points(z)
    if X.size == 0:
        return np.zeros((0, kernel.n * Z.shape[0]))
    return kernel._cross(X, Z)
