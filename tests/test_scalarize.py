"""Scalarization and weight-distribution tests.

Checks the closed-form values and Lipschitz constants of the linear and
Chebyshev scalarizations, their monotonicity (the property that makes
scalarized maximizers Pareto-optimal), and the simplex constraints of
both weight distributions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtbandit.scalarize import (
    _MAX_RESAMPLE,
    _MIN_COORD,
    ChebyshevScalarization,
    InverseWeightedWeights,
    LinearScalarization,
    UniformSimplexWeights,
)

_vec = lambda n: st.lists(st.floats(-5, 5), min_size=n, max_size=n).map(np.array)


class TestLinearScalarization:
    def test_value(self):
        s = LinearScalarization()
        lam, y = np.array([0.25, 0.75]), np.array([2.0, -1.0])
        assert s.value(lam, y) == pytest.approx(0.25 * 2.0 - 0.75, abs=1e-15)

    def test_value_batch_matches_value(self):
        rng = np.random.default_rng(0)
        s = LinearScalarization()
        lam = np.array([0.3, 0.2, 0.5])
        Y = rng.normal(size=(10, 3))
        batch = s.value_batch(lam, Y)
        for i in range(10):
            assert batch[i] == pytest.approx(s.value(lam, Y[i]), abs=1e-14)

    def test_lipschitz_is_weight_norm(self):
        lam = np.array([0.6, 0.8]) / 1.4
        assert LinearScalarization().lipschitz(lam) == pytest.approx(
            np.linalg.norm(lam), abs=1e-15
        )


class TestChebyshevScalarization:
    def test_value_zero_reference(self):
        s = ChebyshevScalarization()
        lam, y = np.array([0.5, 0.5]), np.array([1.0, 3.0])
        assert s.value(lam, y) == pytest.approx(0.5, abs=1e-15)

    def test_reference_shift(self):
        s = ChebyshevScalarization(reference=[1.0, 1.0])
        lam, y = np.array([0.5, 0.5]), np.array([1.0, 3.0])
        assert s.value(lam, y) == pytest.approx(0.0, abs=1e-15)

    def test_lipschitz_is_max_weight(self):
        lam = np.array([0.2, 0.7, 0.1])
        assert ChebyshevScalarization().lipschitz(lam) == pytest.approx(0.7, abs=1e-15)

    def test_bad_reference_length(self):
        s = ChebyshevScalarization(reference=[0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            s.value(np.array([0.5, 0.5]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("reference", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]])
    def test_non_finite_reference_rejected(self, reference):
        """A NaN reference would make every score NaN, so it fails at construction."""
        with pytest.raises(ValueError, match="finite"):
            ChebyshevScalarization(reference)


class TestValueStack:
    @pytest.mark.parametrize("reference", [None, [0.3, -0.2, 0.1, 0.0]])
    def test_chebyshev_rows_are_the_per_weight_minimum(self, reference):
        """Each row is bitwise min_i lambda_i (y_i - z_i) of the weight alone."""
        rng = np.random.default_rng(13)
        lams, Y = rng.random((7, 4)), rng.normal(size=(20, 4))
        z = np.zeros(4) if reference is None else np.asarray(reference)
        stack = ChebyshevScalarization(reference).value_stack(lams, Y)
        assert stack.shape == (7, 20)
        np.testing.assert_array_equal(stack, [((Y - z) * lam).min(axis=1) for lam in lams])

    def test_linear_rows_are_the_weighted_sums(self):
        rng = np.random.default_rng(14)
        lams, Y = rng.random((7, 4)), rng.normal(size=(20, 4))
        np.testing.assert_allclose(LinearScalarization().value_stack(lams, Y), lams @ Y.T,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("s", [LinearScalarization(), ChebyshevScalarization()])
    def test_batch_is_a_stack_of_one(self, s):
        rng = np.random.default_rng(15)
        lams, Y = rng.random((5, 3)), rng.normal(size=(9, 3))
        np.testing.assert_array_equal(s.value_stack(lams, Y), [s.value_batch(l, Y) for l in lams])

    def test_weight_length_checked(self):
        with pytest.raises(ValueError, match="expected"):
            LinearScalarization().value_stack(np.ones((2, 3)), np.ones((4, 2)))


class TestScalarizationProperties:
    @settings(max_examples=60, deadline=None)
    @given(_vec(3), _vec(3), st.integers(0, 10_000))
    def test_monotone(self, y, shift, seed):
        """y <= y' coordinatewise implies s(y) <= s(y')."""
        lam = UniformSimplexWeights(3).sample(np.random.default_rng(seed))
        upper = y + np.abs(shift)
        for s in (LinearScalarization(), ChebyshevScalarization()):
            assert s.value(lam, y) <= s.value(lam, upper) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(_vec(3), _vec(3), st.integers(0, 10_000))
    def test_lipschitz_in_euclidean_norm(self, u, v, seed):
        """|s(u) - s(v)| <= L(lam) * ||u - v||_2."""
        lam = UniformSimplexWeights(3).sample(np.random.default_rng(seed))
        for s in (LinearScalarization(), ChebyshevScalarization()):
            gap = abs(s.value(lam, u) - s.value(lam, v))
            assert gap <= s.lipschitz(lam) * np.linalg.norm(u - v) + 1e-12

    def test_lipschitz_at_most_one_on_simplex(self):
        """Simplex weights keep both constants <= 1, the harness default L."""
        rng = np.random.default_rng(4)
        for dist in (UniformSimplexWeights(5), InverseWeightedWeights(5)):
            for _ in range(50):
                lam = dist.sample(rng)
                assert LinearScalarization().lipschitz(lam) <= 1.0 + 1e-12
                assert ChebyshevScalarization().lipschitz(lam) <= 1.0 + 1e-12


class _Stream:
    """Generator stub serving preset uniform rows in order, counting the
    doubles drawn."""

    def __init__(self, rows):
        self.flat = np.asarray(rows, dtype=float).ravel()
        self.drawn = 0

    def random(self, size):
        out = self.flat[self.drawn:self.drawn + size]
        assert out.size == size, "stream exhausted"
        self.drawn += size
        return out.copy()


class TestWeightDistributions:
    def test_inverse_weighted_frozen_example(self):
        """u = (0.2, 0.8) maps to lambda = (0.8, 0.2): small coordinates upweighted."""
        lam = InverseWeightedWeights(2).sample(_Stream([0.2, 0.8]))
        np.testing.assert_allclose(lam, [0.8, 0.2], atol=1e-15)

    def test_uniform_simplex_from_uniform(self):
        lam = UniformSimplexWeights(3).sample(_Stream([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(lam, [0.2, 0.3, 0.5], atol=1e-15)

    @pytest.mark.parametrize("dist_cls", [UniformSimplexWeights, InverseWeightedWeights])
    def test_samples_live_on_simplex(self, dist_cls):
        dist = dist_cls(4)
        rng = np.random.default_rng(7)
        for _ in range(200):
            lam = dist.sample(rng)
            assert lam.shape == (4,)
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(lam >= 1e-13)

    @pytest.mark.parametrize("dist_cls", [UniformSimplexWeights, InverseWeightedWeights])
    def test_sampling_is_stream_deterministic(self, dist_cls):
        dist = dist_cls(3)
        a = [dist.sample(np.random.default_rng(9)) for _ in range(1)][0]
        b = [dist.sample(np.random.default_rng(9)) for _ in range(1)][0]
        np.testing.assert_array_equal(a, b)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            UniformSimplexWeights(0)


def _reference_sample(dist, rng):
    """One weight by the sequential rule: redraw a row with a coordinate below
    _MIN_COORD, up to _MAX_RESAMPLE rows, then fall back to the row 1/n."""
    for _ in range(_MAX_RESAMPLE):
        u = rng.random(dist.n)
        if np.all(u >= _MIN_COORD):
            break
    else:
        u = np.full(dist.n, 1.0 / dist.n)
    if isinstance(dist, UniformSimplexWeights):
        return u / np.sum(u)
    alpha = np.sum(u) / u
    return alpha / np.sum(alpha)


_DISTS = [UniformSimplexWeights, InverseWeightedWeights]


class TestSampleStack:
    """Rows of sample_stack are bitwise the sequential draws, from the same
    doubles of the stream."""

    @pytest.mark.parametrize("dist_cls", _DISTS)
    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_generator(self, dist_cls, n):
        dist = dist_cls(n)
        a, b, c = (np.random.default_rng(11) for _ in range(3))
        stack = dist.sample_stack(a, 50)
        assert stack.shape == (50, n)
        np.testing.assert_array_equal(stack, [dist.sample(b) for _ in range(50)])
        np.testing.assert_array_equal(stack, [_reference_sample(dist, c) for _ in range(50)])
        tail = a.random(4)
        np.testing.assert_array_equal(tail, b.random(4))
        np.testing.assert_array_equal(tail, c.random(4))

    @pytest.mark.parametrize("dist_cls", _DISTS)
    @pytest.mark.parametrize("rejected", [1, _MAX_RESAMPLE, _MAX_RESAMPLE + 30])
    def test_rejected_rows(self, dist_cls, rejected):
        """One row below _MIN_COORD is redrawn; a run of _MAX_RESAMPLE rejected
        rows ends in the fallback, and a longer run goes on into the next draw."""
        n, k = 3, 4
        rng = np.random.default_rng(12)
        good = rng.uniform(0.1, 1.0, (k + 3, n))
        bad = rng.uniform(0.1, 1.0, (rejected, n))
        bad[:, 1] = 0.5 * _MIN_COORD
        rows = np.vstack([good[:1], bad, good[1:]])
        dist = dist_cls(n)
        stack_rng, seq_rng, ref_rng = _Stream(rows), _Stream(rows), _Stream(rows)
        stack = dist.sample_stack(stack_rng, k)
        np.testing.assert_array_equal(stack, [dist.sample(seq_rng) for _ in range(k)])
        np.testing.assert_array_equal(stack, [_reference_sample(dist, ref_rng) for _ in range(k)])
        assert stack_rng.drawn == seq_rng.drawn == ref_rng.drawn
        # Every rejected row was consumed; a fallback weight takes no kept row.
        fallbacks = rejected // _MAX_RESAMPLE
        assert stack_rng.drawn == n * (rejected + k - fallbacks)
        if fallbacks:
            all_rejected = _Stream(np.full((_MAX_RESAMPLE, n), 0.5 * _MIN_COORD))
            np.testing.assert_array_equal(stack[1], _reference_sample(dist, all_rejected))

    @pytest.mark.parametrize("dist_cls", _DISTS)
    def test_empty_stack(self, dist_cls):
        stream = _Stream(np.zeros((0, 2)))
        assert dist_cls(2).sample_stack(stream, 0).shape == (0, 2)
        assert stream.drawn == 0
