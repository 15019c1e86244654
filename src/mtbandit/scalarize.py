"""Scalarizations of vector objectives and weight-vector samplers.

A scalarization s_lambda maps an n-vector objective value to a scalar,
parameterized by a weight lambda on the open probability simplex
Lambda = {lambda > 0 : ||lambda||_1 = 1}.  Both kinds here are monotone
(coordinatewise domination strictly increases the value), so maximizing
s_lambda(f(x)) over a candidate set returns a Pareto-optimal point, and
Lipschitz in the l2 norm with a per-lambda constant used by the
acquisition rule.

Both work on stacks.  ``Scalarization.value_stack`` scores k weights
against N objective rows in one pass over the n task columns, a running
minimum (Chebyshev) or sum (linear) of (k, N) products, so no (k, N, n)
array is formed; a single weight is a stack of one.
``WeightDistribution.sample_stack`` draws k weights from one uniform
block, bitwise the rows of k sequential ``sample`` calls from the same
stream, rejected rows and the fallback included.
"""

import abc

import numpy as np

__all__ = [
    "Scalarization",
    "LinearScalarization",
    "ChebyshevScalarization",
    "WeightDistribution",
    "UniformSimplexWeights",
    "InverseWeightedWeights",
]

# Simplex samples must be strictly positive; coordinates below this are
# rejected and redrawn (guards the inverse weighting against division blowup).
_MIN_COORD = 1e-12
_MAX_RESAMPLE = 100


def _check_weights(lams, n: int) -> np.ndarray:
    """A stack of weights as a (k, n) float array."""
    lams = np.atleast_2d(np.asarray(lams, dtype=float))
    if lams.ndim != 2 or lams.shape[1] != n:
        raise ValueError(f"weights have shape {lams.shape}, expected (k, {n})")
    return lams


# Scalarizations ==============================================================
class Scalarization(abc.ABC):
    """Monotone Lipschitz map from R^n to R, parameterized by a weight."""

    def value_stack(self, lams, Y) -> np.ndarray:
        """s_lambda of each row of Y (N, n) for each weight of lams (k, n); returns (k, N).

        One pass over the task columns: the running combination of the
        (k, N) products lambda_j y_j, so no (k, N, n) array is formed.
        """
        Y = self._shifted(np.atleast_2d(np.asarray(Y, dtype=float)))
        lams = _check_weights(lams, Y.shape[1])
        out = lams[:, :1] * Y[:, 0]
        for j in range(1, Y.shape[1]):
            self._combine(out, lams[:, j:j + 1] * Y[:, j])
        return out

    def value_batch(self, lam, Y) -> np.ndarray:
        """s_lambda applied to each row of Y (N, n); returns (N,)."""
        return self.value_stack(np.asarray(lam, dtype=float).reshape(1, -1), Y)[0]

    def value(self, lam, y) -> float:
        return float(self.value_batch(lam, np.asarray(y, dtype=float)[None, :])[0])

    def _shifted(self, Y) -> np.ndarray:
        """The objective rows the weights act on."""
        return Y

    @abc.abstractmethod
    def _combine(self, out, term):
        """Fold the weighted task column term (k, N) into out, in place."""

    @abc.abstractmethod
    def lipschitz(self, lam) -> float:
        """Constant L_lambda with |s(u) - s(v)| <= L_lambda ||u - v||_2."""


class LinearScalarization(Scalarization):
    """s_lambda(y) = lambda^T y with L_lambda = ||lambda||_2."""

    def _combine(self, out, term):
        out += term

    def lipschitz(self, lam):
        return float(np.linalg.norm(np.asarray(lam, dtype=float)))

    def __repr__(self):
        return "LinearScalarization()"


class ChebyshevScalarization(Scalarization):
    """s_lambda(y) = min_i lambda_i (y_i - z_i) with L_lambda = max_i lambda_i.

    Parameters
    ----------
    reference : array_like or None
        Reference point z; None means the zero vector.
    """

    def __init__(self, reference=None):
        self.reference = (
            None if reference is None else np.asarray(reference, dtype=float).reshape(-1)
        )
        if self.reference is not None and not np.all(np.isfinite(self.reference)):
            raise ValueError(f"reference must be finite, got {self.reference}")

    def _shifted(self, Y):
        if self.reference is None:
            return Y
        if self.reference.shape[0] != Y.shape[1]:
            raise ValueError(
                f"reference has {self.reference.shape[0]} coordinates, "
                f"objectives have {Y.shape[1]}"
            )
        return Y - self.reference

    def _combine(self, out, term):
        np.minimum(out, term, out=out)

    def lipschitz(self, lam):
        return float(np.max(np.asarray(lam, dtype=float)))

    def __repr__(self):
        return f"ChebyshevScalarization(reference={self.reference!r})"


# Weight distributions ========================================================
class WeightDistribution(abc.ABC):
    """Sampler over the open probability simplex.

    A weight is a map of one uniform row u in [0, 1]^n (``_from_uniform``).
    A row with a coordinate below _MIN_COORD is rejected and the next one
    drawn; after _MAX_RESAMPLE rejected rows the weight is the map of the
    row 1/n (probability ~0; keeps the sampler total).
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"weight dimension must be >= 1, got {n}")
        self.n = n

    @abc.abstractmethod
    def _from_uniform(self, U) -> np.ndarray:
        """Weights (k, n) from positive uniform rows U (k, n), row by row."""

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One weight lambda with lambda > 0 and ||lambda||_1 = 1."""
        return self.sample_stack(rng, 1)[0]

    def sample_stack(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k weights (k, n): bitwise the k sequential ``sample`` draws from the
        same stream, consuming the same uniforms.

        The uniforms form a stream of rows, and a weight ends at its first
        kept row or at the _MAX_RESAMPLE-th rejected row of its run.  Each
        draw adds one row per weight still open; a row ends at most one
        weight, so no row beyond the k-th weight's last is drawn.
        """
        n = self.n
        U = rng.random(k * n).reshape(k, n)
        while True:
            ok = np.all(U >= _MIN_COORD, axis=1)
            rejected = np.cumsum(~ok)
            # Place of each rejected row in its run; 0 on a kept row.
            run = rejected - np.maximum.accumulate(np.where(ok, rejected, 0))
            ends = np.flatnonzero(ok | (run % _MAX_RESAMPLE == 0))
            if ends.size == k:
                break
            U = np.vstack([U, rng.random((k - ends.size) * n).reshape(-1, n)])
        return self._from_uniform(np.where(ok[ends, None], U[ends], 1.0 / n))


class UniformSimplexWeights(WeightDistribution):
    """lambda = u / ||u||_1 with u drawn uniformly from [0, 1]^n."""

    def _from_uniform(self, U):
        return U / np.sum(U, axis=1, keepdims=True)

    def __repr__(self):
        return f"UniformSimplexWeights(n={self.n})"


class InverseWeightedWeights(WeightDistribution):
    """lambda = alpha / ||alpha||_1 with alpha_i = ||u||_1 / u_i, u ~ U[0,1]^n.

    Small u coordinates receive large weight, biasing rounds toward
    objectives that a uniform draw would deprioritize.
    """

    def _from_uniform(self, U):
        alpha = np.sum(U, axis=1, keepdims=True) / U
        return alpha / np.sum(alpha, axis=1, keepdims=True)

    def __repr__(self):
        return f"InverseWeightedWeights(n={self.n})"
