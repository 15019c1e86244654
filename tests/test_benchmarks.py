"""Synthetic environment and regret-metric tests.

Covers the three objective factories (random RKHS member, perturbed
sine, shifted Branin), the Pareto / scalarized-optimum oracles, and the
regret series, each against closed forms or brute-force recomputation.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mtbandit import benchmarks, kernels, scalarize

BRANIN_MIN_VALUE = 0.39788735772973816  # at (pi, 2.275), frozen from the closed form


def _icm(n=3, omega=0.5, lengthscale=0.2):
    return kernels.ICMKernel(
        kernels.SquaredExponential(lengthscale), kernels.omega_coupling(omega, n)
    )


class TestEnvironment:
    def test_validation(self):
        grid = np.linspace(0, 1, 5)[:, None]
        values = np.zeros((5, 2))
        env = benchmarks.Environment("toy", grid, values, 0.1)
        assert env.n == 2
        with pytest.raises(ValueError):
            benchmarks.Environment("toy", grid, np.zeros((4, 2)), 0.1)
        with pytest.raises(ValueError):
            benchmarks.Environment("toy", grid, values, -0.1)
        with pytest.raises(ValueError, match="noise_sigma"):
            benchmarks.Environment("toy", grid, values, np.nan)

    def test_observe_adds_gaussian_noise(self):
        grid = np.zeros((1, 1))
        values = np.array([[1.0, 2.0]])
        env = benchmarks.Environment("toy", grid, values, 0.5)
        rng = np.random.default_rng(0)
        ref = np.random.default_rng(0).standard_normal(2)
        np.testing.assert_allclose(env.observe(0, rng), values[0] + 0.5 * ref, atol=1e-15)

    def test_noiseless_observe_still_consumes_draws(self):
        """sigma = 0 must advance the stream identically to sigma > 0, so
        noisy and noiseless configurations stay replay-compatible."""
        grid = np.zeros((1, 1))
        values = np.array([[1.0, 2.0, 3.0]])
        noisy = benchmarks.Environment("a", grid, values, 0.1)
        silent = benchmarks.Environment("b", grid, values, 0.0)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        noisy.observe(0, rng_a)
        out = silent.observe(0, rng_b)
        np.testing.assert_array_equal(out, values[0])
        np.testing.assert_array_equal(rng_a.random(3), rng_b.random(3))


class TestRKHSObjective:
    def test_shapes_and_grid(self):
        env, b = benchmarks.make_rkhs_objective(_icm(), rng=np.random.default_rng(1))
        assert env.grid.shape == (101, 1)
        assert env.grid[0, 0] == 0.0 and env.grid[-1, 0] == 1.0
        assert env.values.shape == (101, 3)
        assert b > 0

    def test_matches_anchor_expansion(self):
        """values equal K(grid, anchors) @ coeffs @ B for the drawn anchors."""
        kern = _icm(n=2)
        seed_rng = np.random.default_rng(2)
        env, b = benchmarks.make_rkhs_objective(kern, n_anchors=7, rng=seed_rng)
        replay = np.random.default_rng(2)
        anchors = replay.random((7, 1))
        coeffs = replay.uniform(-1.0, 1.0, (7, 2))
        expected = kern.scalar.pairwise(env.grid, anchors) @ coeffs @ kern.coupling
        np.testing.assert_allclose(env.values, expected, atol=1e-12)
        assert b == pytest.approx(
            np.max(np.linalg.norm(expected, axis=1)) / kern.kappa, abs=1e-12
        )

    def test_requires_icm(self):
        diag = kernels.DiagonalKernel([kernels.SquaredExponential(0.2)] * 2)
        with pytest.raises(TypeError):
            benchmarks.make_rkhs_objective(diag, rng=np.random.default_rng(0))


class TestPerturbedSine:
    def test_default_shape(self):
        env = benchmarks.make_perturbed_sine()
        assert env.values.shape == (101, 4)
        assert env.name == "perturbed_sine"

    def test_closed_form_value(self):
        """Task i value is sin(2 pi x) + 0.6 sum_b W[i,b] exp(-(x-c_b)^2 / 0.02)."""
        env = benchmarks.make_perturbed_sine()
        x = 0.4
        i = np.flatnonzero(np.isclose(env.grid[:, 0], x))[0]
        centers = np.array([0.05, 0.4, 0.7])
        bumps = np.exp(-((x - centers) ** 2) / 0.02)
        W = benchmarks.PERTURBED_SINE_WEIGHTS
        expected = np.sin(2 * np.pi * x) + 0.6 * W @ bumps
        np.testing.assert_allclose(env.values[i], expected, atol=1e-12)

    def test_fourth_task_blends_evenly(self):
        W = benchmarks.PERTURBED_SINE_WEIGHTS
        np.testing.assert_array_equal(W[3], [0.5, 0.5, 0.5])
        np.testing.assert_array_equal(W[:3], np.eye(3))

    def test_weight_override(self):
        env = benchmarks.make_perturbed_sine(weights=np.ones((2, 3)))
        assert env.n == 2
        with pytest.raises(ValueError):
            benchmarks.make_perturbed_sine(weights=np.ones((2, 4)))


class TestShiftedBranin:
    def test_branin_minimum(self):
        assert benchmarks.branin(np.array([[np.pi, 2.275]]))[0] == pytest.approx(
            BRANIN_MIN_VALUE, abs=1e-12
        )

    def test_grid_and_tasks(self):
        env = benchmarks.make_shifted_branin()
        assert env.grid.shape == (625, 2)
        assert env.values.shape == (625, 9)
        assert env.grid[:, 0].min() == -5.0 and env.grid[:, 0].max() == 10.0
        assert env.grid[:, 1].min() == 0.0 and env.grid[:, 1].max() == 15.0

    def test_task_zero_is_negated_scaled_branin(self):
        env = benchmarks.make_shifted_branin(n_tasks=3)
        np.testing.assert_allclose(
            env.values[:, 0], -benchmarks.branin(env.grid) / 100.0, atol=1e-12
        )

    def test_shift_clamps_at_domain_corner(self):
        """At the upper corner every shifted input clips back to the corner,
        so all tasks agree there."""
        env = benchmarks.make_shifted_branin(n_tasks=5)
        corner = np.flatnonzero(
            (env.grid[:, 0] == 10.0) & (env.grid[:, 1] == 15.0)
        )[0]
        np.testing.assert_allclose(
            env.values[corner], env.values[corner, 0] * np.ones(5), atol=1e-12
        )


class TestParetoOracles:
    def test_anti_correlated_tasks_are_all_optimal(self):
        """Two linear tasks in total trade-off: every point is on the front."""
        grid = np.linspace(0, 1, 21)[:, None]
        values = np.column_stack([grid[:, 0], 1.0 - grid[:, 0]])
        env = benchmarks.Environment("tradeoff", grid, values, 0.0)
        np.testing.assert_array_equal(benchmarks.pareto_front(env), np.arange(21))

    def test_dominated_point_is_dropped(self):
        grid = np.arange(3, dtype=float)[:, None]
        values = np.array([[1.0, 1.0], [0.5, 0.5], [2.0, 0.0]])
        env = benchmarks.Environment("toy", grid, values, 0.0)
        np.testing.assert_array_equal(benchmarks.pareto_front(env), [0, 2])

    def test_front_is_dominance_free(self):
        rng = np.random.default_rng(3)
        env = benchmarks.Environment(
            "rand", rng.random((40, 1)), rng.normal(size=(40, 3)), 0.0
        )
        front = benchmarks.pareto_front(env)
        V = env.values[front]
        for i in range(len(front)):
            dominated = np.all(V >= V[i], axis=1) & np.any(V > V[i], axis=1)
            assert not np.any(dominated)

    def test_scalarized_optimum_lies_on_front(self):
        """Monotone scalarizations select Pareto-optimal points: checked
        for 100 random weights against the brute-force front."""
        rng = np.random.default_rng(4)
        env = benchmarks.Environment(
            "rand", rng.random((60, 1)), rng.normal(size=(60, 3)), 0.0
        )
        front = set(benchmarks.pareto_front(env).tolist())
        dist = scalarize.UniformSimplexWeights(3)
        for s in (scalarize.LinearScalarization(), scalarize.ChebyshevScalarization()):
            for _ in range(100):
                lam = dist.sample(rng)
                val, idx = benchmarks.scalarized_optimum(env, s, lam)
                assert idx in front
                assert val == pytest.approx(
                    float(np.max(s.value_batch(lam, env.values))), abs=1e-12
                )


class TestRegretSeries:
    def _run(self, horizon=15, seed=5):
        from mtbandit import bandit

        kern = _icm(n=2)
        env, b = benchmarks.make_rkhs_objective(kern, rng=np.random.default_rng(6))
        cfg = bandit.AlgorithmConfig(
            algorithm="MTKB", eta=0.1, delta=0.1, horizon=horizon, rkhs_bound=b,
            noise_sigma=0.1, kappa=kern.kappa, lipschitz_bound=1.0, seed=seed,
        )
        scal = scalarize.ChebyshevScalarization()
        res = bandit.run(cfg, env, kern, scal, scalarize.InverseWeightedWeights(2))
        return res, env, scal

    def test_instantaneous_regret_nonnegative(self):
        res, env, scal = self._run()
        inst = benchmarks.instantaneous_regrets(res, env, scal)
        assert inst.shape == (15,)
        assert np.all(inst >= -1e-12)

    def test_cumulative_regret_is_prefix_sum(self):
        res, env, scal = self._run()
        inst = benchmarks.instantaneous_regrets(res, env, scal)
        cum = benchmarks.cumulative_regret(res, env, scal)
        np.testing.assert_allclose(cum, np.cumsum(inst), atol=1e-14)
        assert np.all(np.diff(cum) >= -1e-12)

    def test_bayes_regret_non_increasing(self):
        res, env, scal = self._run()
        series = benchmarks.bayes_regret(
            res, env, scal, scalarize.InverseWeightedWeights(2),
            checkpoints=[1, 5, 10, 15], rng=np.random.default_rng(8),
        )
        assert series.shape == (4,)
        assert np.all(np.diff(series) <= 1e-12)
        assert np.all(series >= -1e-12)

    def test_bayes_regret_checkpoint_validation(self):
        res, env, scal = self._run()
        with pytest.raises(ValueError):
            benchmarks.bayes_regret(
                res, env, scal, scalarize.InverseWeightedWeights(2),
                checkpoints=[0], rng=np.random.default_rng(0),
            )

    def test_bayes_regret_without_checkpoints(self):
        """No checkpoint gives an empty series; it used to raise a TypeError
        from np.take on a float index."""
        res, env, scal = self._run()
        series = benchmarks.bayes_regret(
            res, env, scal, scalarize.InverseWeightedWeights(2),
            checkpoints=[], rng=np.random.default_rng(0),
        )
        assert series.shape == (0,)

    @pytest.mark.parametrize("n_mc", [0, -3])
    def test_bayes_regret_rejects_empty_weight_stack(self, n_mc):
        """No Monte-Carlo draw leaves no mean to take: a ValueError naming n_mc."""
        res, env, scal = self._run()
        with pytest.raises(ValueError, match="n_mc"):
            benchmarks.bayes_regret(
                res, env, scal, scalarize.InverseWeightedWeights(2),
                checkpoints=[1], n_mc=n_mc, rng=np.random.default_rng(0),
            )


def _reference_instantaneous(result, env, scalarization):
    """Per-weight loop: one value_batch call per round."""
    out = np.empty(result.horizon)
    for t in range(result.horizon):
        vals = scalarization.value_batch(result.lambdas[t], env.values)
        out[t] = float(np.max(vals)) - float(vals[result.x_indices[t]])
    return out


def _reference_bayes(result, env, scalarization, weight_dist, checkpoints, n_mc, rng):
    """Per-weight loop: one sample and two value_batch calls per draw."""
    lams = [weight_dist.sample(rng) for _ in range(n_mc)]
    selected = env.values[result.x_indices]
    gaps = np.empty((n_mc, len(checkpoints)))
    for i, lam in enumerate(lams):
        opt = float(np.max(scalarization.value_batch(lam, env.values)))
        best = np.maximum.accumulate(scalarization.value_batch(lam, selected))
        for j, c in enumerate(checkpoints):
            gaps[i, j] = opt - best[c - 1]
    return gaps.mean(axis=0)


def _stacked_case(T, N, n, seed=0):
    rng = np.random.default_rng(seed)
    env = benchmarks.Environment("rand", rng.random((N, 1)), rng.normal(size=(N, n)), 0.0)
    lams = scalarize.InverseWeightedWeights(n).sample_stack(rng, T)
    result = SimpleNamespace(lambdas=lams, x_indices=rng.integers(0, N, T), horizon=T)
    return env, result


_SCALARIZATIONS = {
    "chebyshev": lambda n: scalarize.ChebyshevScalarization(),
    "chebyshev-reference": lambda n: scalarize.ChebyshevScalarization(-np.linspace(0.5, 1.5, n)),
    "linear": lambda n: scalarize.LinearScalarization(),
}


class TestStackedAccounting:
    """The weight stacks give bitwise the per-weight loops' regrets, without
    a (T, N, n) temporary."""

    @pytest.mark.parametrize("kind", sorted(_SCALARIZATIONS))
    def test_instantaneous_regrets_match_loop(self, kind):
        env, result = _stacked_case(40, 70, 4)
        scal = _SCALARIZATIONS[kind](4)
        np.testing.assert_array_equal(benchmarks.instantaneous_regrets(result, env, scal),
                                      _reference_instantaneous(result, env, scal))

    @pytest.mark.parametrize("kind", sorted(_SCALARIZATIONS))
    @pytest.mark.parametrize("dist_cls", [scalarize.UniformSimplexWeights,
                                          scalarize.InverseWeightedWeights])
    def test_bayes_regret_matches_loop(self, kind, dist_cls):
        env, result = _stacked_case(40, 70, 4, seed=1)
        scal, dist, checkpoints = _SCALARIZATIONS[kind](4), dist_cls(4), [1, 7, 20, 40]
        got = benchmarks.bayes_regret(result, env, scal, dist, checkpoints, n_mc=300,
                                      rng=np.random.default_rng(2))
        ref = _reference_bayes(result, env, scal, dist, checkpoints, 300,
                               np.random.default_rng(2))
        np.testing.assert_array_equal(got, ref)

    def test_no_three_way_temporary_at_branin_size(self):
        """At T = 120, N = 625, n = 9 a (T, N, n) float temporary takes 5.4 MB;
        the (T, N) values and one (T, N) product take 1.2 MB."""
        env = benchmarks.make_shifted_branin()
        T, (N, n) = 120, env.values.shape
        rng = np.random.default_rng(3)
        result = SimpleNamespace(lambdas=scalarize.InverseWeightedWeights(n).sample_stack(rng, T),
                                 x_indices=rng.integers(0, N, T), horizon=T)
        scal, dist = scalarize.ChebyshevScalarization(), scalarize.InverseWeightedWeights(n)
        bound = T * N * n * 8 // 2
        for fn in (lambda: benchmarks.instantaneous_regrets(result, env, scal),
                   lambda: benchmarks.bayes_regret(result, env, scal, dist, [30, 60, 120],
                                                   n_mc=T, rng=np.random.default_rng(4))):
            tracemalloc.start()
            try:
                fn()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound
