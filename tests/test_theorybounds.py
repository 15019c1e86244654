"""Information-gain and regret-bound calculator tests.

The realized gain is checked against dense log-dets, the separable-kernel
eigen-split against the Kronecker identity (including the rank-deficient
coupling case where most terms vanish exactly), the diagonal-kernel
additivity, the predictive-variance-sum bound, and the closed-form regret
bound's scaling behavior.
"""

import numpy as np
import pytest

from conftest import dense_logdet, random_icm
from mtbandit import bandit, kernels, posterior, theorybounds

ETA = 0.1


def _fit(kern, X, Y):
    state = posterior.PosteriorState(kern, ETA)
    for x, y in zip(X, Y):
        state.update(x, y)
    return state


class TestRealizedGain:
    def test_empty_state_has_zero_gain(self):
        rng = np.random.default_rng(0)
        state = posterior.PosteriorState(random_icm(rng), ETA)
        assert theorybounds.realized_gain(state) == 0.0
        assert theorybounds.realized_gain(0.0) == 0.0

    def test_matches_half_dense_logdet(self):
        rng = np.random.default_rng(1)
        kern = random_icm(rng, n=3)
        X = rng.random((12, 2))
        Y = rng.normal(size=(12, 3))
        state = _fit(kern, X, Y)
        assert theorybounds.realized_gain(state) == pytest.approx(
            0.5 * dense_logdet(kern, X, ETA), rel=1e-6
        )

    def test_monotone_over_a_run(self):
        rng = np.random.default_rng(2)
        kern = random_icm(rng, n=2)
        state = posterior.PosteriorState(kern, ETA)
        last = 0.0
        for _ in range(10):
            state.update(rng.random(2), rng.normal(size=2))
            gain = theorybounds.realized_gain(state)
            assert gain >= last - 1e-12
            last = gain


class TestScalarGain:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        k = kernels.SquaredExponential(0.3)
        X = rng.random((9, 1))
        alpha = 0.25
        K = k.pairwise(X, X)
        expected = 0.5 * np.linalg.slogdet(np.eye(9) + K / alpha)[1]
        assert theorybounds.scalar_realized_gain(X, k, alpha) == pytest.approx(
            expected, rel=1e-12
        )

    def test_empty_points(self):
        k = kernels.SquaredExponential(0.3)
        assert theorybounds.scalar_realized_gain(np.zeros((0, 1)), k, 0.1) == 0.0


class TestICMGainSplit:
    def test_split_sums_to_joint_gain(self):
        """Joint realized gain of kron(K, B) decomposes over B's spectrum."""
        rng = np.random.default_rng(4)
        B = kernels.gram_coupling(3, rng)
        k = kernels.SquaredExponential(0.3)
        kern = kernels.ICMKernel(k, B)
        X = rng.random((10, 2))
        split = theorybounds.icm_gain_split(X, k, B, ETA)
        assert split.shape == (3,)
        assert np.all(split >= 0.0)
        assert split.sum() == pytest.approx(0.5 * dense_logdet(kern, X, ETA), abs=1e-6)

    def test_identity_coupling_gives_equal_terms(self):
        rng = np.random.default_rng(5)
        k = kernels.SquaredExponential(0.4)
        X = rng.random((8, 1))
        split = theorybounds.icm_gain_split(X, k, np.eye(4), ETA)
        np.testing.assert_allclose(split, split[0], atol=1e-10)
        assert split[0] == pytest.approx(
            theorybounds.scalar_realized_gain(X, k, ETA), rel=1e-10
        )

    def test_rank_one_coupling_zeroes_other_terms(self):
        """omega = 0: only the averaging direction carries information; the
        remaining terms are exactly zero, not merely small."""
        rng = np.random.default_rng(6)
        k = kernels.SquaredExponential(0.3)
        X = rng.random((7, 1))
        B = kernels.omega_coupling(0.0, 4)
        split = theorybounds.icm_gain_split(X, k, B, ETA)
        assert np.count_nonzero(split) == 1
        assert split[1] == split[2] == split[3] == 0.0
        kern = kernels.ICMKernel(k, B)
        assert split.sum() == pytest.approx(0.5 * dense_logdet(kern, X, ETA), abs=1e-6)

    def test_accepts_spectrum(self):
        rng = np.random.default_rng(7)
        k = kernels.SquaredExponential(0.3)
        X = rng.random((6, 1))
        B = kernels.omega_coupling(0.5, 3)
        via_matrix = theorybounds.icm_gain_split(X, k, B, ETA)
        via_spec = theorybounds.icm_gain_split(X, k, kernels.coupling_spectrum(B), ETA)
        np.testing.assert_allclose(via_matrix, via_spec, atol=1e-12)


class TestDiagonalAdditivity:
    def test_joint_gain_splits_per_task(self):
        """For independent tasks the joint realized gain is the sum of the
        per-task scalar gains."""
        rng = np.random.default_rng(8)
        scalars = [kernels.SquaredExponential(0.3), kernels.Matern52(0.5)]
        kern = kernels.DiagonalKernel(scalars)
        X = rng.random((11, 2))
        Y = rng.normal(size=(11, 2))
        state = _fit(kern, X, Y)
        parts = sum(
            theorybounds.scalar_realized_gain(X, k, ETA) for k in scalars
        )
        assert theorybounds.realized_gain(state) == pytest.approx(parts, abs=1e-6)


class TestVarianceSumBound:
    def test_lemma_bound_on_icm_runs(self):
        """sum_t ||Gamma_t(x_t, x_t)|| <= 2 eta max(kappa, 1) gamma_T(k, eta)."""
        rng = np.random.default_rng(9)
        for omega in (0.0, 0.4, 1.0):
            kern = random_icm(rng, n=3, omega=omega)
            state = posterior.PosteriorState(kern, ETA)
            X = rng.random((20, 2))
            total = 0.0
            for x in X:
                state.update(x, rng.normal(size=3))
                total += state.cov_norm(x)
            gain = theorybounds.scalar_realized_gain(X, kern.scalar, ETA)
            assert total <= 2.0 * ETA * max(kern.kappa, 1.0) * gain + 1e-6


class TestRegretBoundValue:
    def _config(self, **over):
        base = dict(
            algorithm="MTKB", eta=0.1, delta=0.1, horizon=50, rkhs_bound=1.0,
            noise_sigma=0.1, kappa=1.0, lipschitz_bound=1.0, seed=0,
        )
        base.update(over)
        return bandit.AlgorithmConfig(**base)

    def test_zero_rounds_gives_zero(self):
        assert theorybounds.regret_bound_value(self._config(), 1.0, 1.0, t=0) == 0.0

    def test_closed_form(self):
        cfg = self._config()
        gain, varsum, t = 2.0, 3.0, 40
        expected = (
            2.0
            * cfg.lipschitz_bound
            * (
                cfg.rkhs_bound
                + cfg.noise_sigma / np.sqrt(cfg.eta)
                * np.sqrt(2.0 * np.log(1.0 / cfg.delta) + 2.0 * gain)
            )
            * np.sqrt((1.0 + cfg.kappa / cfg.eta) * t * varsum)
        )
        assert theorybounds.regret_bound_value(cfg, gain, varsum, t) == pytest.approx(
            expected, rel=1e-12
        )

    def test_noiseless_bound_is_linear_in_b(self):
        """With sigma = 0 the bound is exactly proportional to b."""
        one = theorybounds.regret_bound_value(
            self._config(noise_sigma=0.0, rkhs_bound=1.0), 2.0, 3.0, 40
        )
        two = theorybounds.regret_bound_value(
            self._config(noise_sigma=0.0, rkhs_bound=2.0), 2.0, 3.0, 40
        )
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_defaults_to_config_horizon(self):
        cfg = self._config()
        assert theorybounds.regret_bound_value(cfg, 1.0, 1.0) == pytest.approx(
            theorybounds.regret_bound_value(cfg, 1.0, 1.0, t=cfg.horizon), rel=1e-15
        )

    def test_arrays_equal_scalar_calls_bitwise(self):
        cfg = self._config()
        rng = np.random.default_rng(5)
        t = np.arange(0, 60)
        gain = np.cumsum(rng.random(60))
        varsum = np.cumsum(rng.random(60))
        bounds = theorybounds.regret_bound_value(cfg, gain, varsum, t)
        assert isinstance(bounds, np.ndarray) and bounds.shape == (60,)
        expected = [
            theorybounds.regret_bound_value(cfg, float(g), float(v), int(s))
            for g, v, s in zip(gain, varsum, t)
        ]
        assert all(isinstance(e, float) for e in expected)
        np.testing.assert_array_equal(bounds, expected)
        assert bounds[0] == 0.0

    def test_any_negative_entry_is_rejected(self):
        cfg = self._config()
        with pytest.raises(ValueError):
            theorybounds.regret_bound_value(cfg, np.array([1.0, -1e-9]), np.ones(2), [1, 2])
        with pytest.raises(ValueError):
            theorybounds.regret_bound_value(cfg, np.ones(2), np.ones(2), [1, -1])
