"""Bandit loop tests.

Freezes the confidence-radius constants, verifies the run loop against a
hand-rolled scalar UCB reference in the single-task special case, checks
deterministic optimism on noiseless runs, and confirms that the budgeted
algorithm coincides with the exact one when its dictionary keeps
everything.
"""

import numpy as np
import pytest
import scipy.linalg as la

from mtbandit import bandit, benchmarks, kernels, posterior, scalarize

# Frozen oracle values for b=1, sigma=0.1, eta=0.1, delta=0.1 and
# accumulator value 3.0 (epsilon=0.5 for the budgeted radius).
BETA_AT_3 = 1.8720762687969494
BETA_AT_0 = 1.6786140424415112
BETA_TILDE_AT_3 = 3.6386099257745865


def _config(algorithm="MTKB", **over):
    base = dict(
        algorithm=algorithm,
        eta=0.1,
        delta=0.1,
        horizon=10,
        rkhs_bound=1.0,
        noise_sigma=0.1,
        kappa=1.0,
        lipschitz_bound=1.0,
        seed=0,
    )
    if algorithm == "MTBKB":
        base["epsilon"] = 0.5
    base.update(over)
    return bandit.AlgorithmConfig(**base)


class TestRadii:
    def test_beta_frozen_values(self):
        cfg = _config()
        assert bandit.beta_t(cfg, 3.0) == pytest.approx(BETA_AT_3, abs=1e-14)
        assert bandit.beta_t(cfg, 0.0) == pytest.approx(BETA_AT_0, abs=1e-14)

    def test_beta_tilde_frozen_value(self):
        cfg = _config("MTBKB")
        assert bandit.beta_tilde_t(cfg, 3.0) == pytest.approx(BETA_TILDE_AT_3, abs=1e-14)

    def test_rho_and_inflation_factors(self):
        assert bandit.rho_factor(0.5) == pytest.approx(3.0, abs=1e-15)
        assert bandit.epsilon_inflation(0.5) == pytest.approx(
            1.0 + 1.0 / np.sqrt(0.5), abs=1e-15
        )

    def test_beta_monotone_in_logdet(self):
        cfg = _config()
        values = [bandit.beta_t(cfg, s) for s in (0.0, 1.0, 5.0, 20.0)]
        assert values == sorted(values)

    def test_negative_accumulator_rejected(self):
        with pytest.raises(ValueError):
            bandit.beta_t(_config(), -1e-3)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("algorithm", "GPUCB", "algorithm"),
            ("eta", 0.0, "eta"),
            ("delta", 0.0, "delta"),
            ("delta", 1.5, "delta"),
            ("horizon", 0, "horizon"),
            ("rkhs_bound", -1.0, "rkhs_bound"),
            ("rkhs_bound", float("nan"), "rkhs_bound"),
            ("noise_sigma", -0.1, "noise_sigma"),
            ("noise_sigma", float("nan"), "noise_sigma"),
            ("kappa", 0.0, "kappa"),
            ("lipschitz_bound", 0.0, "lipschitz"),
        ],
    )
    def test_field_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            _config(**{field: value})

    def test_mtbkb_requires_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            _config("MTBKB", epsilon=None)
        with pytest.raises(ValueError, match="epsilon"):
            _config("MTBKB", epsilon=1.0)


def _tiny_env(n=2, seed=0, noise_sigma=0.1, omega=0.5):
    rng = np.random.default_rng(seed)
    kern = kernels.ICMKernel(
        kernels.SquaredExponential(0.2), kernels.omega_coupling(omega, n)
    )
    env, b = benchmarks.make_rkhs_objective(kern, rng=rng, noise_sigma=noise_sigma)
    return env, b, kern


class TestSelection:
    def test_select_point_breaks_ties_at_first_index(self):
        """With no data every grid point scores identically; pick index 0."""
        env, b, kern = _tiny_env()
        model_cfg = _config(rkhs_bound=b, kappa=kern.kappa, horizon=1)
        from mtbandit.posterior import PosteriorState

        model = PosteriorState(kern, model_cfg.eta)
        lam = np.array([0.5, 0.5])
        idx, point = bandit.select_point(
            model, scalarize.LinearScalarization(), lam, 1.0, env.grid
        )
        assert idx == 0
        np.testing.assert_array_equal(point, env.grid[0])
        # The batch scores really are flat over an empty posterior.
        direct = [
            bandit.acquisition(model, scalarize.LinearScalarization(), lam, 1.0, x)
            for x in env.grid[:5]
        ]
        np.testing.assert_allclose(direct, direct[0], atol=1e-12)

    @pytest.mark.parametrize("beta", [-1.0, np.nan])
    def test_negative_or_nan_beta_refused(self, beta):
        """select_point and acquisition refuse a radius that is not >= 0; both
        used to score with it, select_point returning index 0."""
        env, b, kern = _tiny_env()
        from mtbandit.posterior import PosteriorState

        model = PosteriorState(kern, 0.1)
        lam, scal = np.array([0.5, 0.5]), scalarize.LinearScalarization()
        with pytest.raises(ValueError, match="beta must be >= 0"):
            bandit.select_point(model, scal, lam, beta, env.grid)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            bandit.acquisition(model, scal, lam, beta, env.grid[0])

    def test_select_point_empty_candidates(self):
        env, b, kern = _tiny_env()
        from mtbandit.posterior import PosteriorState

        model = PosteriorState(kern, 0.1)
        with pytest.raises(ValueError):
            bandit.select_point(
                model,
                scalarize.LinearScalarization(),
                np.array([0.5, 0.5]),
                1.0,
                np.zeros((0, 1)),
            )


class TestRunLoop:
    def test_record_shapes_and_metadata(self):
        env, b, kern = _tiny_env()
        cfg = _config(rkhs_bound=b, kappa=kern.kappa, horizon=12, seed=5)
        res = bandit.run(
            cfg, env, kern, scalarize.ChebyshevScalarization(),
            scalarize.InverseWeightedWeights(2),
        )
        T = 12
        assert res.horizon == T
        assert res.lambdas.shape == (T, 2)
        assert res.X.shape == (T, 1) and res.Y.shape == (T, 2)
        assert np.all(res.m_sizes == 0)  # exact algorithm has no dictionary
        assert np.all(np.diff(res.logdet_sums) >= -1e-12)
        assert np.all(res.micros == 0)
        assert res.variance_sum == pytest.approx(res.variance_norms.sum())

    def test_beta_uses_previous_rounds_accumulator(self):
        """betas[t] must be computed from logdet_sums[t-1] (the state
        before round t's update), with betas[0] at accumulator zero."""
        env, b, kern = _tiny_env(seed=3)
        cfg = _config(rkhs_bound=b, kappa=kern.kappa, horizon=8, seed=11)
        res = bandit.run(
            cfg, env, kern, scalarize.ChebyshevScalarization(),
            scalarize.UniformSimplexWeights(2),
        )
        assert res.betas[0] == pytest.approx(bandit.beta_t(cfg, 0.0), abs=1e-12)
        for t in range(1, 8):
            assert res.betas[t] == pytest.approx(
                bandit.beta_t(cfg, res.logdet_sums[t - 1]), abs=1e-12
            )
        assert np.all(np.diff(res.betas) >= -1e-12)

    def test_same_seed_same_run(self):
        env, b, kern = _tiny_env(seed=4)
        cfg = _config(rkhs_bound=b, kappa=kern.kappa, horizon=10, seed=21)
        args = (cfg, env, kern, scalarize.ChebyshevScalarization(),
                scalarize.InverseWeightedWeights(2))
        r1, r2 = bandit.run(*args), bandit.run(*args)
        np.testing.assert_array_equal(r1.x_indices, r2.x_indices)
        np.testing.assert_array_equal(r1.Y, r2.Y)
        np.testing.assert_array_equal(r1.lambdas, r2.lambdas)

    def test_equal_seeds_share_weight_and_noise_streams(self):
        """MTKB and MTBKB under one seed draw identical lambda sequences:
        the dictionary stream is split off separately."""
        env, b, kern = _tiny_env(seed=5)
        scal = scalarize.ChebyshevScalarization()
        wdist = scalarize.InverseWeightedWeights(2)
        cfg_exact = _config(rkhs_bound=b, kappa=kern.kappa, horizon=10, seed=33)
        cfg_budget = _config(
            "MTBKB", rkhs_bound=b, kappa=kern.kappa, horizon=10, seed=33
        )
        r_exact = bandit.run(cfg_exact, env, kern, scal, wdist)
        r_budget = bandit.run(cfg_budget, env, kern, scal, wdist)
        np.testing.assert_array_equal(r_exact.lambdas, r_budget.lambdas)

    def test_round_hook_and_timing(self):
        env, b, kern = _tiny_env(seed=6)
        cfg = _config(rkhs_bound=b, kappa=kern.kappa, horizon=5, seed=2)
        seen = []
        res = bandit.run(
            cfg, env, kern, scalarize.ChebyshevScalarization(),
            scalarize.UniformSimplexWeights(2),
            round_hook=lambda t, model: seen.append((t, model.t)),
            timing=True,
        )
        assert seen == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
        assert np.all(res.micros > 0)

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_grid_resident_posterior_replays_off_grid_run(self, diagonal, monkeypatch):
        """MTKB (ICM) and ITKB (one shared scalar on the diagonal) give the same
        run whether the posterior keeps grid-resident statistics or not."""
        env, b, kern = _tiny_env(n=3, seed=7)
        if diagonal:
            kern = kernels.DiagonalKernel([kern.scalar] * 3)
        cfg = _config(rkhs_bound=b, kappa=kern.kappa, horizon=40, seed=17)
        args = (cfg, env, kern, scalarize.ChebyshevScalarization(),
                scalarize.InverseWeightedWeights(3))
        on_grid = bandit.run(*args)
        monkeypatch.setattr(
            bandit, "PosteriorState",
            lambda kernel, eta, grid=None: posterior.PosteriorState(kernel, eta),
        )
        off_grid = bandit.run(*args)
        np.testing.assert_array_equal(on_grid.x_indices, off_grid.x_indices)
        for name in ("u_values", "betas", "logdet_sums", "variance_norms"):
            np.testing.assert_allclose(
                getattr(on_grid, name), getattr(off_grid, name), rtol=0, atol=1e-9
            )

    def test_weight_dimension_mismatch(self):
        env, b, kern = _tiny_env()
        cfg = _config(rkhs_bound=b, kappa=kern.kappa, horizon=3)
        with pytest.raises(ValueError, match="dimension"):
            bandit.run(
                cfg, env, kern, scalarize.ChebyshevScalarization(),
                scalarize.UniformSimplexWeights(3),
            )


class TestScalarReferenceReduction:
    def test_single_task_run_matches_handrolled_ucb(self):
        """With n = 1 and B = [[1]] the algorithm is plain kernel UCB.

        A from-scratch scalar implementation (dense solves, explicit
        streams) must choose the same points, radii, and observations.
        """
        n = 1
        kern = kernels.ICMKernel(kernels.SquaredExponential(0.2), np.array([[1.0]]))
        rng = np.random.default_rng(12)
        env, b = benchmarks.make_rkhs_objective(kern, rng=rng, noise_sigma=0.1)
        T = 12
        cfg = _config(rkhs_bound=b, kappa=1.0, horizon=T, seed=77)
        res = bandit.run(
            cfg, env, kern, scalarize.LinearScalarization(),
            scalarize.UniformSimplexWeights(1),
        )

        # Independent reference loop.
        lam_ss, noise_ss, _ = np.random.SeedSequence(77).spawn(3)
        rng_lam = np.random.default_rng(lam_ss)
        rng_noise = np.random.default_rng(noise_ss)
        grid = env.grid
        k = kern.scalar
        Kgg = k.pairwise(grid, grid)
        picked, ys = [], []
        logdet = 0.0
        for t in range(T):
            u = rng_lam.random(1)  # the weight draw (always lambda = 1)
            assert u[0] >= 1e-12
            beta = cfg.rkhs_bound + (cfg.noise_sigma / np.sqrt(cfg.eta)) * np.sqrt(
                2.0 * np.log(1.0 / cfg.delta) + logdet
            )
            if picked:
                K = Kgg[np.ix_(picked, picked)] + cfg.eta * np.eye(len(picked))
                cho = la.cho_factor(K, lower=True)
                kq = Kgg[np.ix_(picked, range(grid.shape[0]))]
                mu = kq.T @ la.cho_solve(cho, np.array(ys))
                var = np.clip(1.0 - np.sum(kq * la.cho_solve(cho, kq), axis=0), 0.0, 1.0)
            else:
                mu = np.zeros(grid.shape[0])
                var = np.ones(grid.shape[0])
            scores = mu + beta * np.sqrt(var)
            idx = int(np.argmax(scores))
            logdet += float(np.log1p(var[idx] / cfg.eta))
            picked.append(idx)
            ys.append(env.values[idx, 0] + 0.1 * rng_noise.standard_normal(1)[0])

        np.testing.assert_array_equal(res.x_indices, np.array(picked))
        np.testing.assert_allclose(res.Y[:, 0], ys, atol=1e-12)
        np.testing.assert_allclose(res.betas[1:], [
            cfg.rkhs_bound + (cfg.noise_sigma / np.sqrt(cfg.eta)) * np.sqrt(
                2.0 * np.log(1.0 / cfg.delta) + s
            )
            for s in res.logdet_sums[:-1]
        ], atol=1e-10)


class TestOptimism:
    def test_noiseless_acquisition_dominates_optimum(self):
        """On noiseless data with the true RKHS norm as b, the selected
        upper confidence value is at least the scalarized optimum every
        round (deterministic interpolation bound)."""
        rng = np.random.default_rng(20)
        n = 2
        kern = kernels.ICMKernel(
            kernels.SquaredExponential(0.25), kernels.omega_coupling(0.5, n)
        )
        grid = np.linspace(0.0, 1.0, 101)[:, None]
        anchors = rng.random((12, 1))
        coeffs = rng.uniform(-1.0, 1.0, (12, n))
        values = kern.scalar.pairwise(grid, anchors) @ coeffs @ kern.coupling
        # True RKHS norm of f = sum_i Gamma(., a_i) c_i.
        G_a = kernels.block_kernel_matrix(kern, anchors)
        b_true = float(np.sqrt(coeffs.reshape(-1) @ (G_a @ coeffs.reshape(-1))))
        env = benchmarks.Environment("interp", grid, values, noise_sigma=0.0)
        cfg = _config(
            rkhs_bound=b_true, kappa=kern.kappa, horizon=20, seed=3, noise_sigma=0.0
        )
        scal = scalarize.ChebyshevScalarization()
        res = bandit.run(cfg, env, kern, scal, scalarize.UniformSimplexWeights(n))
        for t in range(res.horizon):
            opt, _ = benchmarks.scalarized_optimum(env, scal, res.lambdas[t])
            assert res.u_values[t] >= opt - 1e-9


class TestBudgetedCoincidence:
    def test_full_dictionary_budgeted_run_equals_exact_run(self, monkeypatch):
        """A tiny epsilon makes q huge, the dictionary keeps every visited arm,
        and (with the radius schedule pinned) MTBKB replays MTKB's
        selections exactly."""
        monkeypatch.setattr(bandit, "beta_tilde_t", bandit.beta_t)
        env, b, kern = _tiny_env(seed=9)
        T = 20
        scal = scalarize.ChebyshevScalarization()
        wdist = scalarize.InverseWeightedWeights(2)
        cfg_exact = _config(rkhs_bound=b, kappa=kern.kappa, horizon=T, seed=13)
        cfg_budget = _config(
            "MTBKB", rkhs_bound=b, kappa=kern.kappa, horizon=T, seed=13, epsilon=0.02
        )
        r_exact = bandit.run(cfg_exact, env, kern, scal, wdist)
        r_budget = bandit.run(cfg_budget, env, kern, scal, wdist)
        visited = [np.unique(r_budget.x_indices[:t]).size for t in range(1, T + 1)]
        np.testing.assert_array_equal(r_budget.m_sizes, visited)
        np.testing.assert_array_equal(r_exact.x_indices, r_budget.x_indices)
        np.testing.assert_allclose(r_exact.betas, r_budget.betas, atol=1e-8)
        np.testing.assert_allclose(
            r_exact.logdet_sums, r_budget.logdet_sums, atol=1e-8
        )
