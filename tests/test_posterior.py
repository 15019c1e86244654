"""Exact posterior tests against dense-solve oracles.

Every incremental quantity (mean, covariance, log-det accumulator) is
compared with a from-scratch dense computation in conftest, for all
three kernel variants, on the task-basis systems of the one engine and
on the single general system of the same kernel (built as
``SumSeparableKernel(kern.terms)``).  The battery also covers long
runs at small eta with repeated noiseless queries, grid-resident reads
along those runs for every kernel, grid-resident states whose history
interleaves grid rows with off-grid points, the log-det accumulator
against a 60-digit determinant down to eta = 1e-6 (grid, grid-less and
half-grid states), the traced memory of a state on a 6,400-arm grid, grid
reads of both engines that assemble nothing and return read-only views,
the covariance eigenvalue clamp, input checks that leave the state unchanged,
and the predictive-variance geometry used by the regret analysis.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_logdet, dense_posterior_cov, dense_posterior_mean, random_icm
from mtbandit import benchmarks, kernels, nystrom, posterior

ETA = 0.1


def _fit(kern, X, Y, eta=ETA, general=False, **kwargs):
    """The exact state after observing X, Y; ``general`` solves the kernel as
    the single general system, ``SumSeparableKernel(kern.terms)``."""
    if general:
        kern = kernels.SumSeparableKernel(kern.terms)
    state = posterior.PosteriorState(kern, eta, **kwargs)
    for x, y in zip(X, Y):
        state.update(x, y)
    return state


def _variants(rng):
    n = 3
    return [
        random_icm(rng, n=n),
        kernels.DiagonalKernel([kernels.SquaredExponential(0.4)] * n),
        kernels.SumSeparableKernel(
            [
                (kernels.SquaredExponential(0.3), kernels.omega_coupling(0.5, n)),
                (kernels.Matern52(0.6), kernels.gram_coupling(n, rng)),
            ]
        ),
    ]


class TestPriorState:
    def test_empty_posterior_is_prior(self):
        rng = np.random.default_rng(1)
        for kern in _variants(rng):
            state = posterior.PosteriorState(kern, ETA)
            x = rng.random(2)
            np.testing.assert_allclose(state.mean(x), np.zeros(kern.n), atol=1e-15)
            np.testing.assert_allclose(state.cov(x), kern(x, x), atol=1e-12)
            assert state.logdet_sum == 0.0
            assert state.t == 0


class TestDenseOracleAgreement:
    @pytest.mark.parametrize("variant", [0, 1, 2])
    def test_mean_and_cov_match_dense(self, variant):
        rng = np.random.default_rng(2 + variant)
        kern = _variants(rng)[variant]
        X = rng.random((12, 2))
        Y = rng.normal(size=(12, kern.n))
        Xq = rng.random((7, 2))
        state = _fit(kern, X, Y)
        np.testing.assert_allclose(
            state.mean_batch(Xq), dense_posterior_mean(kern, X, Y, ETA, Xq), atol=1e-9
        )
        for xq in Xq:
            np.testing.assert_allclose(
                state.cov(xq), dense_posterior_cov(kern, X, Y, ETA, xq), atol=1e-9
            )

    def test_logdet_matches_dense(self):
        rng = np.random.default_rng(6)
        for kern in _variants(rng):
            X = rng.random((10, 2))
            Y = rng.normal(size=(10, kern.n))
            state = _fit(kern, X, Y)
            assert state.logdet_sum == pytest.approx(dense_logdet(kern, X, ETA), rel=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8))
    def test_logdet_telescoping_property(self, seed, t):
        """The per-round block increments sum to the joint log-det."""
        rng = np.random.default_rng(seed)
        kern = random_icm(rng, n=2)
        X = rng.random((t, 2))
        Y = rng.normal(size=(t, 2))
        state = _fit(kern, X, Y)
        assert state.logdet_sum == pytest.approx(dense_logdet(kern, X, ETA), rel=1e-8)


class TestFastPaths:
    def test_icm_fast_equals_general(self):
        rng = np.random.default_rng(7)
        kern = random_icm(rng, n=3)
        X = rng.random((25, 2))
        Y = rng.normal(size=(25, 3))
        Xq = rng.random((30, 2))
        fast = _fit(kern, X, Y)
        general = _fit(kern, X, Y, general=True)
        np.testing.assert_allclose(fast.mean_batch(Xq), general.mean_batch(Xq), atol=1e-10)
        np.testing.assert_allclose(
            fast.cov_norm_batch(Xq), general.cov_norm_batch(Xq), atol=1e-10
        )
        for xq in Xq[:5]:
            np.testing.assert_allclose(fast.cov(xq), general.cov(xq), atol=1e-10)
        assert fast.logdet_sum == pytest.approx(general.logdet_sum, rel=1e-10)

    def test_repeated_coupling_eigenvalues_are_grouped(self):
        """An omega coupling has n-1 equal eigenvalues: one shared solve."""
        rng = np.random.default_rng(8)
        kern = random_icm(rng, n=4, omega=0.3)
        X = rng.random((10, 1))
        Y = rng.normal(size=(10, 4))
        fast = _fit(kern, X, Y)
        general = _fit(kern, X, Y, general=True)
        Xq = rng.random((5, 1))
        np.testing.assert_allclose(fast.mean_batch(Xq), general.mean_batch(Xq), atol=1e-10)

    def test_rank_deficient_coupling(self):
        """omega = 0 zeroes n-1 eigendirections; they are skipped analytically."""
        rng = np.random.default_rng(9)
        kern = random_icm(rng, n=3, omega=0.0)
        X = rng.random((8, 1))
        Y = rng.normal(size=(8, 3))
        state = _fit(kern, X, Y)
        xq = rng.random(1)
        np.testing.assert_allclose(
            state.mean(xq), dense_posterior_mean(kern, X, Y, ETA, xq)[0], atol=1e-9
        )
        np.testing.assert_allclose(
            state.cov(xq), dense_posterior_cov(kern, X, Y, ETA, xq), atol=1e-9
        )

    def test_diagonal_fast_matches_dense(self):
        """A diagonal kernel with distinct scalars is one general system
        with 3 x 3 blocks; it matches the dense posterior too."""
        rng = np.random.default_rng(21)
        se = kernels.SquaredExponential(0.3)
        kern = kernels.DiagonalKernel([se, se, kernels.Matern52(0.5)])
        X = rng.random((15, 2))
        Y = rng.normal(size=(15, 3))
        state = _fit(kern, X, Y)
        Xq = rng.random((6, 2))
        np.testing.assert_allclose(
            state.mean_batch(Xq), dense_posterior_mean(kern, X, Y, ETA, Xq), atol=1e-9
        )
        norms = state.cov_norm_batch(Xq)
        for j, xq in enumerate(Xq):
            dense = dense_posterior_cov(kern, X, Y, ETA, xq)
            np.testing.assert_allclose(state.cov(xq), dense, atol=1e-9)
            assert norms[j] == pytest.approx(np.linalg.eigvalsh(dense)[-1], abs=1e-9)
        assert state.logdet_sum == pytest.approx(dense_logdet(kern, X, ETA), abs=1e-9)

    def test_diagonal_equals_identity_coupled_icm(self):
        """Dg(k, ..., k) and k * I are the same kernel and the same posterior."""
        rng = np.random.default_rng(22)
        se = kernels.SquaredExponential(0.3)
        diag = posterior.PosteriorState(kernels.DiagonalKernel([se] * 3), ETA)
        icm = posterior.PosteriorState(kernels.ICMKernel(se, np.eye(3)), ETA)
        for _ in range(30):
            x, y = rng.random(2), rng.normal(size=3)
            diag.update(x, y)
            icm.update(x, y)
        Xq = rng.random((20, 2))
        np.testing.assert_allclose(diag.mean_batch(Xq), icm.mean_batch(Xq), atol=1e-10)
        np.testing.assert_allclose(
            diag.cov_norm_batch(Xq), icm.cov_norm_batch(Xq), atol=1e-10
        )
        for xq in Xq[:5]:
            np.testing.assert_allclose(diag.cov(xq), icm.cov(xq), atol=1e-10)
        assert diag.logdet_sum == pytest.approx(icm.logdet_sum, abs=1e-10)


def _repeated_noiseless_run(variant):
    """150 noiseless observations drawn from a 40-point pool, mostly repeats."""
    rng = np.random.default_rng(13)
    kern = _variants(rng)[variant]
    pool = rng.random((40, 2))
    X = pool[rng.integers(0, pool.shape[0], size=150)]
    assert np.unique(X, axis=0).shape[0] <= 75
    Y = np.sin(3.0 * X @ rng.normal(size=(2, kern.n)))
    return rng, kern, pool, X, Y


class TestAppendOnlyFactors:
    @pytest.mark.parametrize("eta", [0.1, 1e-3])
    @pytest.mark.parametrize(
        "variant, general", [(0, False), (0, True), (1, False), (1, True), (2, False)]
    )
    def test_long_repeated_noiseless_run_matches_dense(self, variant, general, eta):
        """After 150 noiseless updates, most of them repeating an earlier
        query, the posterior still matches the dense oracles."""
        rng, kern, pool, X, Y = _repeated_noiseless_run(variant)
        state = _fit(kern, X, Y, eta=eta, general=general)
        Xq = np.vstack([pool[:4], rng.random((4, 2))])
        np.testing.assert_allclose(
            state.mean_batch(Xq), dense_posterior_mean(kern, X, Y, eta, Xq), atol=1e-9
        )
        for xq in Xq:
            np.testing.assert_allclose(
                state.cov(xq), dense_posterior_cov(kern, X, Y, eta, xq), atol=1e-9
            )
        assert state.logdet_sum == pytest.approx(dense_logdet(kern, X, eta), rel=1e-10)

    @pytest.mark.parametrize("eta", [0.1, 1e-3])
    @pytest.mark.parametrize(
        "variant, general", [(0, False), (1, False), (2, False), (0, True)]
    )
    def test_grid_reads_match_dense_and_off_grid(self, variant, general, eta):
        """A state built on the pool grid serves pool reads from its
        grid-resident rows, for task-basis systems and for the single
        general system alike.  Along the same repeated noiseless run they
        match the dense oracles and the off-grid path (a copy of the pool)."""
        _, kern, pool, X, Y = _repeated_noiseless_run(variant)
        state = _fit(kern, (), (), eta=eta, general=general, grid=pool)
        checkpoints = {0, 1, 75, 150}
        for t in range(X.shape[0] + 1):
            if t in checkpoints:
                means, norms = state.mean_batch(pool), state.cov_norm_batch(pool)
                if t:
                    dense_means = dense_posterior_mean(kern, X[:t], Y[:t], eta, pool)
                    covs = [dense_posterior_cov(kern, X[:t], Y[:t], eta, x) for x in pool]
                else:
                    dense_means = np.zeros_like(means)
                    covs = [kern(x, x) for x in pool]
                dense_norms = np.clip(np.linalg.eigvalsh(covs)[:, -1], 0.0, kern.kappa)
                np.testing.assert_allclose(means, dense_means, atol=1e-9)
                np.testing.assert_allclose(norms, dense_norms, atol=1e-9)
                np.testing.assert_allclose(means, state.mean_batch(pool.copy()), atol=1e-9)
                np.testing.assert_allclose(norms, state.cov_norm_batch(pool.copy()), atol=1e-9)
            if t < X.shape[0]:
                state.update(X[t], Y[t])


def _interleaved_kernel(name, rng, n=3):
    """The kernels of the off-grid battery: task-basis systems (ICM, diagonal,
    a rank-1 and an all-zero coupling) and one general b = n system."""
    se = kernels.SquaredExponential(0.3)
    if name == "icm":
        return random_icm(rng, n=n)
    if name == "diagonal":
        return kernels.DiagonalKernel([se, se, kernels.Matern52(0.5)])
    if name == "sum-separable":
        return kernels.SumSeparableKernel([
            (se, kernels.omega_coupling(0.5, n)),
            (kernels.Matern52(0.6), kernels.gram_coupling(n, rng)),
        ])
    if name == "rank-1":
        return kernels.ICMKernel(se, kernels.omega_coupling(0.0, n))
    return kernels.ICMKernel(se, np.zeros((n, n)))


class TestOffGridColumns:
    @pytest.mark.parametrize("eta", [0.1, 1e-3])
    @pytest.mark.parametrize("name", ["icm", "diagonal", "sum-separable", "rank-1", "zero"])
    def test_interleaved_history_matches_twin_and_dense(self, name, eta):
        """A grid-resident state whose history alternates repeated grid rows
        with new and repeated off-grid points adds each new off-grid arm by
        forward substitution through its history rows and restarts every
        repeat from the arm's last row.  Its grid reads, its off-grid reads
        and its log-det match a grid-less twin and the dense oracles."""
        rng = np.random.default_rng(31)
        kern = _interleaved_kernel(name, rng)
        G, off = rng.random((20, 2)), rng.random((4, 2))
        resident = posterior.PosteriorState(kern, eta, grid=G)
        twin = posterior.PosteriorState(kern, eta)
        X = np.array([G[rng.integers(6)] if t % 2 else off[rng.integers(4)] for t in range(40)])
        Y = np.sin(3.0 * X @ rng.normal(size=(2, kern.n)))
        for x, y in zip(X, Y):
            resident.update(x, y)
            twin.update(x, y)
        dense_mean = dense_posterior_mean(kern, X, Y, eta, G)
        dense_norms = np.clip(
            [np.linalg.eigvalsh(dense_posterior_cov(kern, X, Y, eta, x))[-1] for x in G],
            0.0, kern.kappa,
        )
        for state in (resident, twin):
            np.testing.assert_allclose(state.mean_batch(G), dense_mean, atol=1e-9)
            np.testing.assert_allclose(state.cov_norm_batch(G), dense_norms, atol=1e-9)
            np.testing.assert_allclose(
                state.mean_batch(off), dense_posterior_mean(kern, X, Y, eta, off), atol=1e-9
            )
            for x in np.vstack([off, G[:3]]):
                np.testing.assert_allclose(
                    state.cov(x), dense_posterior_cov(kern, X, Y, eta, x), atol=1e-9
                )
            assert state.logdet_sum == pytest.approx(dense_logdet(kern, X, eta), rel=1e-10)
        np.testing.assert_allclose(resident.mean_batch(G), twin.mean_batch(G), atol=1e-9)
        np.testing.assert_allclose(resident.cov_norm_batch(G), twin.cov_norm_batch(G), atol=1e-9)
        assert resident.logdet_sum == pytest.approx(twin.logdet_sum, rel=1e-10)


class TestHighPrecisionLogdet:
    @pytest.mark.parametrize("eta", [1e-1, 1e-3, 1e-6])
    def test_logdet_matches_60_digit_determinant(self, eta):
        """400 noiseless updates over 40 arms: on a state whose grid holds
        every arm, on a grid-less state, and on a state whose grid holds the
        first 20 arms, so that the other 20 arrive off-grid (each new arm's
        blocks by forward substitution, then restarts from its last row),
        the accumulator equals log det(I + K_UU diag(c) / eta), evaluated
        with 60 significant digits from the same float64 kernel matrix, to
        rel 1e-10."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        arms = rng.random((40, 2))
        kern = kernels.ICMKernel(kernels.SquaredExponential(0.3), np.eye(1))
        visits = rng.integers(0, 40, size=400)
        states = [
            posterior.PosteriorState(kern, eta, grid=arms), posterior.PosteriorState(kern, eta),
            posterior.PosteriorState(kern, eta, grid=arms[:20]),
        ]
        for i in visits:
            for state in states:
                state.update(arms[i], [np.sin(3.0 * arms[i].sum())])
        K, c = kern.scalar.pairwise(arms, arms), np.bincount(visits, minlength=40)
        with mpmath.workdps(60):
            M = mpmath.matrix(40, 40)
            for a in range(40):
                for b in range(40):
                    M[a, b] = int(a == b) + mpmath.mpf(K[a, b]) * int(c[b]) / mpmath.mpf(eta)
            exact = float(mpmath.log(mpmath.det(M)))
        for state in states:
            assert state.logdet_sum == pytest.approx(exact, rel=1e-10)


class TestMemory:
    def test_wide_grid_state_stays_small(self):
        """On the 6,400-arm branin grid (9 tasks, omega 0.5: two systems) a
        state keeps rows over the arms, not an arm-space covariance: 100
        grid updates, a third of them repeats, and grid reads peak under
        64 MB of traced allocations, where the prior k(grid, grid) alone
        takes 328 MB.  The means at the visited arms match the dense oracle."""
        env = benchmarks.make_shifted_branin(9, 0.1, 80)
        kern = kernels.ICMKernel(kernels.SquaredExponential(0.2), kernels.omega_coupling(0.5, 9))
        rng = np.random.default_rng(41)
        pool = rng.choice(env.grid.shape[0], size=66, replace=False)
        visits = np.concatenate([pool, pool[rng.integers(0, 66, size=34)]])
        tracemalloc.start()
        try:
            state = posterior.PosteriorState(kern, ETA, grid=env.grid)
            for i in visits:
                state.update(env.grid[i], env.observe(i, rng))
            means, norms = state.mean_batch(env.grid), state.cov_norm_batch(env.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.t == 100 and norms.shape == (6400,)
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
        np.testing.assert_allclose(
            means[pool[:5]],
            dense_posterior_mean(kern, state.X, state.Y, ETA, env.grid[pool[:5]]), atol=1e-9,
        )


class TestCovarianceGeometry:
    def test_cov_norm_clamped_to_prior_bound(self):
        """0 <= ||Gamma_t(x, x)|| <= kappa at every query."""
        rng = np.random.default_rng(14)
        kern = random_icm(rng, n=3)
        state = posterior.PosteriorState(kern, ETA)
        for _ in range(20):
            state.update(rng.random(2), rng.normal(size=3))
        norms = state.cov_norm_batch(rng.random((50, 2)))
        assert np.all(norms >= 0.0)
        assert np.all(norms <= kern.kappa + 1e-12)

    def test_posterior_cov_is_psd(self):
        rng = np.random.default_rng(15)
        kern = random_icm(rng, n=3)
        state = posterior.PosteriorState(kern, ETA)
        for _ in range(15):
            state.update(rng.random(2), rng.normal(size=3))
        for xq in rng.random((10, 2)):
            assert np.linalg.eigvalsh(state.cov(xq)).min() >= -1e-10

    def test_variance_shrinks_and_inflation_bound(self):
        """Gamma_{t-1} - Gamma_t and (1 + kappa/eta) Gamma_t - Gamma_{t-1}
        are both PSD up to roundoff at every step."""
        rng = np.random.default_rng(16)
        kern = random_icm(rng, n=2)
        state = posterior.PosteriorState(kern, ETA)
        queries = rng.random((10, 2))
        factor = 1.0 + kern.kappa / ETA
        prev = [state.cov(xq) for xq in queries]
        for _ in range(15):
            state.update(rng.random(2), rng.normal(size=2))
            for j, xq in enumerate(queries):
                cur = state.cov(xq)
                assert np.linalg.eigvalsh(prev[j] - cur).min() >= -1e-9
                assert np.linalg.eigvalsh(factor * cur - prev[j]).min() >= -1e-9
                prev[j] = cur

    def test_trace_inequality(self):
        """(1/eta) sum_s Tr(Gamma_s(x_s, x_s)) <= logdet_sum + 1e-8."""
        rng = np.random.default_rng(17)
        for kern in _variants(rng):
            state = posterior.PosteriorState(kern, ETA)
            trace_sum = 0.0
            for _ in range(12):
                x = rng.random(2)
                state.update(x, rng.normal(size=kern.n))
                trace_sum += float(np.trace(state.cov(x)))
            assert trace_sum / ETA <= state.logdet_sum + 1e-8


def _grid_state(budgeted, kern, grid, q=10.0):
    """An exact or a budgeted posterior over the candidate grid."""
    if budgeted:
        return nystrom.NystromState(kern, ETA, q=q, rng=np.random.default_rng(0), grid=grid)
    return posterior.PosteriorState(kern, ETA, grid=grid)


class TestGridReads:
    @pytest.mark.parametrize("budgeted", [False, True])
    def test_grid_reads_assemble_nothing(self, budgeted, monkeypatch):
        """A grid read returns the means and covariance norms kept at the
        arms: it calls neither ``_TaskBasis.assemble_mean`` nor
        ``assemble_cov_norm``, while a read of a copy calls each once."""
        rng = np.random.default_rng(30)
        grid = rng.random((8, 2))
        state = _grid_state(budgeted, random_icm(rng, n=3), grid)
        for x in grid[:4]:
            state.update(x, rng.normal(size=3))
        calls = []
        for name in ("assemble_mean", "assemble_cov_norm"):
            def counted(self, arg, _name=name, _original=getattr(posterior._TaskBasis, name)):
                calls.append(_name)
                return _original(self, arg)

            monkeypatch.setattr(posterior._TaskBasis, name, counted)
        state.mean_batch(grid), state.cov_norm_batch(grid)
        assert calls == []
        state.mean_batch(grid.copy()), state.cov_norm_batch(grid.copy())
        assert calls == ["assemble_mean", "assemble_cov_norm"]

    @pytest.mark.parametrize("budgeted", [False, True])
    def test_grid_reads_are_read_only_and_kept(self, budgeted):
        """A grid read is a read-only array, which a later update leaves as it
        was: the update replaces the arrays kept at the arms.  The next grid
        read agrees with a read of a copy, embedded afresh."""
        rng = np.random.default_rng(31)
        grid = rng.random((8, 2))
        state = _grid_state(budgeted, random_icm(rng, n=3), grid)
        for x in grid[:4]:
            state.update(x, rng.normal(size=3))
        reads = state.mean_batch(grid), state.cov_norm_batch(grid)
        kept = [r.copy() for r in reads]
        for r in reads:
            assert not r.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                r[0] = 0.0
        state.update(grid[5], rng.normal(size=3))
        for r, k in zip(reads, kept):
            np.testing.assert_array_equal(r, k)
        new = state.mean_batch(grid), state.cov_norm_batch(grid)
        assert not np.array_equal(new[0], kept[0]) and not np.array_equal(new[1], kept[1])
        np.testing.assert_allclose(new[0], state.mean_batch(grid.copy()), rtol=0, atol=1e-10)
        np.testing.assert_allclose(new[1], state.cov_norm_batch(grid.copy()), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("budgeted", [False, True])
    def test_cov_of_one_row_grid_matches_dense(self, budgeted):
        """``cov`` of the grid object, a one-row grid, embeds it by the
        engine's own hook and matches the dense oracle, as do the grid reads,
        over a history that mixes the grid row with off-grid points."""
        rng = np.random.default_rng(32)
        kern, grid = random_icm(rng, n=2), rng.random((1, 2))
        state = _grid_state(budgeted, kern, grid, q=1e12)
        X = np.array([grid[0], rng.random(2), grid[0], rng.random(2), grid[0]])
        Y = rng.normal(size=(5, 2))
        for t, (x, y) in enumerate(zip(X, Y)):
            state.update(x, y)
            cov = dense_posterior_cov(kern, X[:t + 1], Y[:t + 1], ETA, grid[0])
            np.testing.assert_allclose(state.cov(grid), cov, rtol=0, atol=1e-9)
            np.testing.assert_allclose(state.cov_norm_batch(grid), np.linalg.eigvalsh(cov)[-1:],
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(
                state.mean_batch(grid), dense_posterior_mean(kern, X[:t + 1], Y[:t + 1], ETA, grid),
                rtol=0, atol=1e-9)


class TestValidation:
    def test_wrong_output_dimension(self):
        rng = np.random.default_rng(18)
        state = posterior.PosteriorState(random_icm(rng, n=3), ETA)
        with pytest.raises(ValueError, match="tasks"):
            state.update(rng.random(2), np.zeros(2))

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_wrong_input_dimension_leaves_state_unchanged(self, on_grid):
        """An input of the wrong dimension is refused before the history
        grows, whether the dimension comes from the grid or the history."""
        rng = np.random.default_rng(23)
        kern = random_icm(rng, n=2)
        if on_grid:
            state = posterior.PosteriorState(kern, ETA, grid=np.zeros((5, 3)))
        else:
            state = posterior.PosteriorState(kern, ETA).update(np.zeros(3), np.ones(2))
        t, X, Y, logdet = state.t, state.X.copy(), state.Y.copy(), state.logdet_sum
        with pytest.raises(ValueError, match="dimension 2.*expects 3"):
            state.update(np.zeros(2), np.ones(2))
        assert state.t == t and state.logdet_sum == logdet
        np.testing.assert_array_equal(state.X, X)
        np.testing.assert_array_equal(state.Y, Y)
        state.update(np.ones(3), np.ones(2))
        assert state.t == t + 1 and state.mean_batch(np.ones((4, 3))).shape == (4, 2)

    @pytest.mark.parametrize("budgeted", [False, True])
    def test_wrong_input_dimension_refused_by_reads(self, budgeted):
        """A read of the wrong dimension is refused, naming both dimensions,
        by the exact and the budgeted posterior, before the first update
        (the grid fixes the dimension) and after it.  At t = 0 a 3-D query
        on a 2-D grid state used to read the prior."""
        rng = np.random.default_rng(28)
        kern, grid = random_icm(rng, n=2), rng.random((5, 2))
        if budgeted:
            state = nystrom.NystromState(kern, ETA, q=10.0, rng=np.random.default_rng(0),
                                         grid=grid)
        else:
            state = posterior.PosteriorState(kern, ETA, grid=grid)
        for t in range(2):
            assert state.t == t
            for read in (state.mean_batch, state.cov_norm_batch, state.cov):
                with pytest.raises(ValueError, match="dimension 3.*expects 2"):
                    read(rng.random((4, 3)))
            state.update(grid[t], rng.normal(size=2))

    @pytest.mark.parametrize("budgeted", [False, True])
    def test_non_finite_output_leaves_state_unchanged(self, budgeted):
        """A NaN output is refused, by the exact and by the budgeted
        posterior, before the history, the log-det sum or the arm universe
        grows, although its input would have been a new arm."""
        rng = np.random.default_rng(27)
        kern = random_icm(rng, n=2)
        if budgeted:
            state = nystrom.NystromState(kern, ETA, q=10.0, rng=np.random.default_rng(0))
        else:
            state = posterior.PosteriorState(kern, ETA)
        state.update(rng.random(2), rng.normal(size=2))
        t, logdet, arms = state.t, state.logdet_sum, state._arms.shape[0]
        with pytest.raises(ValueError, match="non-finite"):
            state.update(rng.random(2), np.array([0.3, np.nan]))
        assert state.t == t and state.logdet_sum == logdet and state._arms.shape[0] == arms

    def test_update_rejects_a_stack_of_points(self):
        """A stack of several points is refused, naming its shape, before
        anything is recorded; it used to keep the first point and drop the rest."""
        state = posterior.PosteriorState(random_icm(np.random.default_rng(24), n=2), ETA)
        with pytest.raises(ValueError, match=r"one point.*\(3, 1\)"):
            state.update(np.array([[0.1], [0.5], [0.9]]), np.ones(2))
        assert state.t == 0 and state.logdet_sum == 0.0 and state.X.shape[0] == 0

    @pytest.mark.parametrize("budgeted", [False, True])
    def test_point_reads_reject_a_stack_of_points(self, budgeted):
        """``mean``, ``cov`` and ``cov_norm`` take one point: the exact and the
        budgeted posterior refuse a stack of several by name and shape,
        before and after the first update, where they used to return the
        first point's values.  A d-vector and a single row are one point."""
        rng = np.random.default_rng(29)
        kern = random_icm(rng, n=2)
        if budgeted:
            state = nystrom.NystromState(kern, ETA, q=10.0, rng=np.random.default_rng(0))
        else:
            state = posterior.PosteriorState(kern, ETA)
        stack = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        for _ in range(2):
            for name in ("mean", "cov", "cov_norm"):
                with pytest.raises(ValueError, match=rf"^{name} takes one point.*\(3, 2\)"):
                    getattr(state, name)(stack)
                np.testing.assert_array_equal(getattr(state, name)(stack[1]),
                                              getattr(state, name)(stack[1:2]))
            state.update(rng.random(2), rng.normal(size=2))

    def test_history_grows_in_buffers(self):
        """X is the arm of every history point and Y the outputs, in order,
        over grid rows, repeats and off-grid points; the arm indices stay
        integers through the buffer's growth."""
        rng = np.random.default_rng(25)
        grid = rng.random((6, 2))
        state = posterior.PosteriorState(random_icm(rng, n=2), ETA, grid=grid)
        X = np.array([grid[1], rng.random(2), grid[1], grid[4]] * 5)
        Y = rng.normal(size=(20, 2))
        for t, (x, y) in enumerate(zip(X, Y)):
            state.update(x, y)
            assert state.t == t + 1
            np.testing.assert_array_equal(state.X, X[:t + 1])
            np.testing.assert_array_equal(state.Y, Y[:t + 1])
        assert state._hist_arm.dtype.kind == "i"
        buf = posterior._put(np.zeros((0, 1), dtype=int), 0, 0, np.array([[7]]))
        assert buf.dtype.kind == "i" and buf[0, 0] == 7

    def test_grid_reads_skip_the_finite_check(self, monkeypatch):
        """The grid was checked when the state was built: reading it calls
        no input check, while any other query, a copy included, is checked."""
        rng = np.random.default_rng(26)
        grid = rng.random((8, 2))
        state = _fit(random_icm(rng, n=2), grid[:3], rng.normal(size=(3, 2)), grid=grid)
        calls = []
        monkeypatch.setattr(posterior, "_as_points",
                            lambda X: calls.append(1) or kernels._as_points(X))
        state.mean_batch(grid), state.cov_norm_batch(grid)
        assert calls == []
        state.mean_batch(grid.copy()), state.cov_norm_batch(grid.copy())
        assert len(calls) == 2
        with pytest.raises(ValueError, match="non-finite"):
            state.mean_batch(np.full((1, 2), np.nan))

    def test_eta_must_be_positive(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError, match="eta"):
            posterior.PosteriorState(random_icm(rng), 0.0)

    def test_batch_consistency(self):
        rng = np.random.default_rng(20)
        kern = random_icm(rng, n=2)
        state = _fit(kern, rng.random((8, 2)), rng.normal(size=(8, 2)))
        Xq = rng.random((5, 2))
        means = state.mean_batch(Xq)
        norms = state.cov_norm_batch(Xq)
        for i, xq in enumerate(Xq):
            np.testing.assert_allclose(means[i], state.mean(xq), atol=1e-12)
            assert norms[i] == pytest.approx(state.cov_norm(xq), abs=1e-12)
