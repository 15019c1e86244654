"""Budgeted (Nystrom) posterior tests.

The budgeted state is validated against the exact posterior in the
regime where they must coincide (all inclusion probabilities equal to
one, with distinct and with heavily repeated queries), against the
variance-proportional resampling contract, against the rho-sandwich that
the regret analysis relies on, against a dictionary listing each arm once
(repeats and inclusion weights must change nothing), and, for grid reads
served from the arm arrays, against a grid-less twin that embeds the grid
afresh.  The incomplete Cholesky features are checked against the Nystrom
kernel k(x, D) K_DD^{-1} k(D, x') and, on a rank-deficient dictionary,
against the dense posterior.  The support updated in place must agree
with one solved from scratch (its feature factor bitwise on a fixed arm
universe), solve nothing from scratch while the dictionary loses no arm,
and evaluate one kernel row per appended arm.
"""

import numpy as np
import pytest

from conftest import dense_posterior_cov, dense_posterior_mean, random_icm
from mtbandit import benchmarks, kernels, nystrom, posterior

ETA = 0.1


class _CountingRNG:
    """Wraps a Generator and counts uniform variates drawn."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self, size=None):
        self.draws += int(np.prod(size)) if size is not None else 1
        return self.rng.random(size)


class TestDictionary:
    def test_validation(self):
        d = nystrom.Dictionary([0, 2, 5], [1.0, 0.5, 0.25])
        assert d.m == 3
        with pytest.raises(ValueError):
            nystrom.Dictionary([2, 1], [0.5, 0.5])  # not increasing
        with pytest.raises(ValueError):
            nystrom.Dictionary([0], [0.0])  # probability must be positive
        with pytest.raises(ValueError):
            nystrom.Dictionary([0], [1.5])  # probability above one
        with pytest.raises(ValueError, match="q"):
            nystrom.resample_dictionary([0.5, 0.2], q=np.nan, rng=np.random.default_rng(0))

    def test_resample_inclusion_rule(self):
        """Point i is kept iff draw_i < min(q * norm_i, 1)."""

        class _Fixed:
            def __init__(self, draws):
                self.draws = np.asarray(draws, dtype=float)

            def random(self, size):
                assert size == self.draws.shape[0]
                return self.draws

        norms = np.array([0.5, 0.01, 0.2])
        d = nystrom.resample_dictionary(norms, q=2.0, rng=_Fixed([0.9, 0.01, 0.5]))
        # p = (1.0, 0.02, 0.4): draws (0.9, 0.01, 0.5) keep indices 0 and 1.
        np.testing.assert_array_equal(d.indices, [0, 1])
        np.testing.assert_allclose(d.probs, [1.0, 0.02], atol=1e-15)

    def test_resample_empty_falls_back_to_newest(self):
        """An all-excluded draw keeps the most recent point with p = 1."""

        class _Ones:
            def random(self, size):
                return np.ones(size)

        d = nystrom.resample_dictionary(np.array([1e-9, 1e-9]), q=1.0, rng=_Ones())
        np.testing.assert_array_equal(d.indices, [1])
        np.testing.assert_allclose(d.probs, [1.0])

    def test_one_uniform_draw_per_point_each_round(self):
        """Resampling consumes exactly t variates at round t, regardless of q,
        so equal seeds stay aligned across configurations."""
        rng = np.random.default_rng(1)
        kern = random_icm(rng, n=2)
        counter = _CountingRNG(3)
        state = nystrom.NystromState(kern, ETA, q=50.0, rng=counter)
        T = 8
        for _ in range(T):
            state.update(rng.random(2), rng.normal(size=2))
        assert counter.draws == T * (T + 1) // 2


class TestIncompleteCholeskyFeatures:
    def test_reproduces_kernel_on_well_separated_arms(self):
        """On well-separated arms the features reproduce k(D, D) on the
        dictionary, and k(x, D) K_DD^{-1} k(D, x') at the other arms and at
        points embedded by forward substitution."""
        rng = np.random.default_rng(2)
        k = kernels.SquaredExponential(0.3)
        arms = np.vstack([np.linspace(0.0, 3.0, 7)[:, None] * [1.0, 0.5], rng.random((5, 2))])
        D = np.array([0, 3, 1, 5, 2])
        f = nystrom._Features(k, arms, D, cut=nystrom.PINV_RTOL)
        assert f.F.shape == (5, 12)
        K_DD = k.pairwise(arms[D], arms[D])
        np.testing.assert_allclose(f.F[:, D].T @ f.F[:, D], K_DD, atol=1e-12)
        Xq = rng.random((6, 2)) * 3.0
        for P, Q in ((arms, arms), (arms, Xq), (Xq, Xq)):
            nys = k.pairwise(P, arms[D]) @ np.linalg.solve(K_DD, k.pairwise(arms[D], Q))
            Fp = f.F if P is arms else f.embed(k._cross(arms[f.piv], P))
            Fq = f.F if Q is arms else f.embed(k._cross(arms[f.piv], Q))
            np.testing.assert_allclose(Fp.T @ Fq, nys, atol=1e-12)

    def test_pivot_rows_follow_coordinate_order(self):
        """A b x b pivot's rows C, with C P C^T = I, come from Gram-Schmidt
        over its coordinates in order: on a full-rank pivot they are the
        inverse Cholesky factor, also when its eigenvalues tie, and they
        move by rounding when P does; a coordinate in the span of the
        earlier ones adds no row and no row uses it."""
        P = kernels.omega_coupling(0.5, 3)  # eigenvalues 1, 0.5, 0.5
        C = nystrom._pivot_rows(P, nystrom.PINV_RTOL)
        np.testing.assert_allclose(C, np.linalg.inv(np.linalg.cholesky(P)), atol=1e-14)
        E = np.random.default_rng(4).normal(size=(3, 3)) * 1e-15
        np.testing.assert_allclose(nystrom._pivot_rows(P + E + E.T, nystrom.PINV_RTOL), C,
                                   atol=1e-13)
        for V, dependent in (([[1, 0], [0, 1], [1, 1]], 2), ([[1, 0], [2, 0], [0, 1]], 1)):
            P = np.array(V, dtype=float) @ np.transpose(V)
            C = nystrom._pivot_rows(P, nystrom.PINV_RTOL)
            assert C.shape == (2, 3) and np.all(C[:, dependent] == 0.0)
            np.testing.assert_allclose(C @ P @ C.T, np.eye(2), atol=1e-14)

    def test_rank_deficient_dictionary(self):
        """On 45 of the 101 rkhs grid arms at lengthscale 0.2 the dictionary
        is numerically rank-deficient: every skipped arm's pivot is at most
        the cut and every kept one above it, and a full-dictionary state
        agrees with the dense exact posterior within 1e-5."""
        rng = np.random.default_rng(15)
        grid = np.linspace(0.0, 1.0, 101)[:, None]
        kern = kernels.ICMKernel(kernels.SquaredExponential(0.2), kernels.gram_coupling(4, rng))
        D = rng.choice(101, size=45, replace=False)
        cut = nystrom.PINV_RTOL
        f = nystrom._Features(kern.scalar, grid, D, cut)
        starts = np.concatenate([[0], f.ends[:-1]])
        pivots = np.array([1.0 - f.F[:n, a] @ f.F[:n, a] for a, n in zip(D, starts)])
        skipped = f.ends == starts
        assert 0 < f.F.shape[0] < 45 and np.all(pivots[skipped] <= cut)
        assert np.all(pivots[~skipped] > cut)
        state = nystrom.NystromState(kern, ETA, q=1e12, rng=np.random.default_rng(0), grid=grid)
        X, Y = grid[np.concatenate([D, D[:20]])], rng.normal(size=(65, 4))
        for x, y in zip(X, Y):
            state.update(x, y)
        np.testing.assert_allclose(
            state.mean_batch(grid), dense_posterior_mean(kern, X, Y, ETA, grid), atol=1e-5
        )
        for j in range(0, 101, 10):
            np.testing.assert_allclose(
                state.cov(grid[j]), dense_posterior_cov(kern, X, Y, ETA, grid[j]), atol=1e-5
            )

    def test_no_subnormal_on_branin(self):
        """After 30 rounds on the 625-arm branin grid at lengthscale 0.2 no
        feature entry is nonzero below sqrt(tiny), and the means, residual
        blocks and covariance norms at the arms hold no subnormal."""
        env = benchmarks.make_shifted_branin()
        kern = kernels.ICMKernel(kernels.SquaredExponential(0.2), kernels.omega_coupling(0.5, 9))
        state = nystrom.NystromState(kern, ETA, q=1e12, rng=np.random.default_rng(1),
                                     grid=env.grid)
        rng = np.random.default_rng(2)
        for idx in rng.choice(env.grid.shape[0], size=30):
            state.update(env.grid[idx], env.observe(idx, rng))
        s, tiny = state._support, np.finfo(float).tiny
        F = s._features.F
        assert not np.any((F != 0) & (np.abs(F) < np.sqrt(tiny)))
        for M in (s.means, *s.res, s.norms):
            assert not np.any((M != 0) & (np.abs(M) < tiny))


def _full_dictionary_kernel(name, rng):
    """An ICM kernel, the same kernel as one sum-separable term (a single
    general system), or a diagonal kernel with a shared and a distinct scalar."""
    icm = random_icm(rng, n=2)
    if name == "icm":
        return icm
    if name == "icm-as-sum-separable":
        return kernels.SumSeparableKernel([(icm.scalar, icm.coupling)])
    se = kernels.SquaredExponential(0.3)
    return kernels.DiagonalKernel([se, se, kernels.Matern52(0.5)])


class TestFullDictionaryExactness:
    @pytest.mark.parametrize("name", ["icm", "icm-as-sum-separable", "diagonal"])
    def test_matches_exact_posterior(self, name):
        """With every inclusion probability forced to 1 the budgeted
        posterior is the exact one (projection onto the full span), for
        scalar embeddings per system and for the general block embedding."""
        rng = np.random.default_rng(3)
        kern = _full_dictionary_kernel(name, rng)
        exact = posterior.PosteriorState(kern, ETA)
        budget = nystrom.NystromState(kern, ETA, q=1e12, rng=np.random.default_rng(0))
        for _ in range(25):
            x, y = rng.random(2), rng.normal(size=kern.n)
            exact.update(x, y)
            budget.update(x, y)
        assert budget.m == budget.t == 25
        Xq = rng.random((40, 2))
        np.testing.assert_allclose(
            budget.mean_batch(Xq), exact.mean_batch(Xq), atol=1e-8
        )
        np.testing.assert_allclose(
            budget.cov_norm_batch(Xq), exact.cov_norm_batch(Xq), atol=1e-8
        )
        for xq in Xq[:5]:
            np.testing.assert_allclose(budget.cov(xq), exact.cov(xq), atol=1e-8)
        assert budget.logdet_sum == pytest.approx(exact.logdet_sum, rel=1e-8)

    @pytest.mark.parametrize("name", ["icm", "icm-as-sum-separable", "diagonal"])
    def test_repeated_queries_match_exact_posterior(self, name):
        """Heavily repeated queries enter the history compressed per arm,
        V = Phi_U diag(c) Phi_U^T; with a full dictionary the budgeted
        posterior is still the exact one."""
        rng = np.random.default_rng(13)
        kern = _full_dictionary_kernel(name, rng)
        sites = rng.random((4, 2))
        exact = posterior.PosteriorState(kern, ETA)
        budget = nystrom.NystromState(kern, ETA, q=1e12, rng=np.random.default_rng(0))
        for _ in range(30):
            x, y = sites[rng.integers(4)], rng.normal(size=kern.n)
            exact.update(x, y)
            budget.update(x, y)
        assert budget.m == budget.t == 30
        Xq = np.vstack([sites, rng.random((10, 2))])
        np.testing.assert_allclose(budget.mean_batch(Xq), exact.mean_batch(Xq), atol=1e-8)
        np.testing.assert_allclose(
            budget.cov_norm_batch(Xq), exact.cov_norm_batch(Xq), atol=1e-8
        )
        for xq in sites:
            np.testing.assert_allclose(budget.cov(xq), exact.cov(xq), atol=1e-8)
        assert budget.logdet_sum == pytest.approx(exact.logdet_sum, rel=1e-8)

    def test_general_path_on_sum_separable(self):
        rng = np.random.default_rng(4)
        kern = kernels.SumSeparableKernel(
            [
                (kernels.SquaredExponential(0.3), kernels.omega_coupling(0.5, 2)),
                (kernels.Matern52(0.6), kernels.gram_coupling(2, rng)),
            ]
        )
        exact = posterior.PosteriorState(kern, ETA)
        budget = nystrom.NystromState(kern, ETA, q=1e12, rng=np.random.default_rng(0))
        for _ in range(15):
            x, y = rng.random(2), rng.normal(size=2)
            exact.update(x, y)
            budget.update(x, y)
        Xq = rng.random((20, 2))
        np.testing.assert_allclose(budget.mean_batch(Xq), exact.mean_batch(Xq), atol=1e-8)
        np.testing.assert_allclose(
            budget.cov_norm_batch(Xq), exact.cov_norm_batch(Xq), atol=1e-8
        )


class TestGridResidentReads:
    @pytest.mark.parametrize("name", ["icm", "diagonal", "sum-separable"])
    def test_grid_reads_match_grid_less_twin(self, name):
        """Grid reads gathered from the arm arrays equal the fresh embedding
        of a grid-less twin drawing from the same rng, under heavily
        repeated arms with one off-grid update mixed in; both draw the
        same dictionaries and accumulate the same log-det."""
        rng = np.random.default_rng(12)
        if name == "sum-separable":
            kern = kernels.SumSeparableKernel(
                [
                    (kernels.SquaredExponential(0.3), kernels.omega_coupling(0.5, 2)),
                    (kernels.Matern52(0.6), kernels.gram_coupling(2, rng)),
                ]
            )
        else:
            kern = _full_dictionary_kernel(name, rng)
        G = rng.random((30, 2))
        resident = nystrom.NystromState(kern, ETA, q=3.0, rng=np.random.default_rng(4), grid=G)
        twin = nystrom.NystromState(kern, ETA, q=3.0, rng=np.random.default_rng(4))
        for t in range(40):
            x = rng.random(2) if t == 20 else G[rng.integers(5)]
            y = rng.normal(size=kern.n)
            resident.update(x, y)
            twin.update(x, y)
            np.testing.assert_array_equal(resident.dictionary.indices, twin.dictionary.indices)
        assert resident.m == twin.m < resident.t
        assert resident.logdet_sum == pytest.approx(twin.logdet_sum, rel=1e-10)
        np.testing.assert_allclose(resident.mean_batch(G), twin.mean_batch(G), atol=1e-10)
        np.testing.assert_allclose(resident.cov_norm_batch(G), twin.cov_norm_batch(G), atol=1e-10)
        # A copy of the grid is not the grid: it takes the embedding path.
        np.testing.assert_allclose(
            resident.cov_norm_batch(G.copy()), resident.cov_norm_batch(G), atol=1e-10
        )


    def test_grid_reads_skip_the_finite_check(self, monkeypatch):
        """Before and after the first update, reading the grid object calls
        no input check; a copy of it is checked."""
        rng = np.random.default_rng(13)
        grid = rng.random((10, 2))
        state = nystrom.NystromState(random_icm(rng, n=2), ETA, q=3.0,
                                     rng=np.random.default_rng(4), grid=grid)
        calls = []
        monkeypatch.setattr(nystrom, "_as_points",
                            lambda X: calls.append(1) or kernels._as_points(X))
        for _ in range(2):
            state.mean_batch(grid), state.cov_norm_batch(grid)
            assert calls == []
            state.update(grid[3], rng.normal(size=2))
        state.mean_batch(grid.copy()), state.cov_norm_batch(grid.copy())
        assert len(calls) == 2


class _Keep:
    """Uniform draws that keep exactly the history positions flagged in ``keep``
    (draw 0 for a kept position, 1 for any other)."""

    def __init__(self, keep):
        self.keep = np.asarray(keep, dtype=bool)

    def random(self, size):
        return np.where(self.keep[:size], 0.0, 1.0)


class TestDistinctArmSupport:
    @pytest.mark.parametrize("name", ["icm", "sum-separable"])
    def test_repeated_dictionary_arms_change_nothing(self, name):
        """A dictionary that lists arms several times, with inclusion
        probabilities below one, gives bitwise the same model as one that
        lists each arm once: weights and repeats leave the span of the
        support features unchanged, so the support holds each arm once."""
        rng = np.random.default_rng(14)
        if name == "sum-separable":
            kern = kernels.SumSeparableKernel(
                [
                    (kernels.SquaredExponential(0.3), kernels.omega_coupling(0.5, 2)),
                    (kernels.Matern52(0.6), kernels.gram_coupling(2, rng)),
                ]
            )
        else:
            kern = random_icm(rng, n=2)
        G = rng.random((20, 2))
        sites = np.vstack([G[:4], rng.random((1, 2))])  # four grid arms and one off-grid
        T = 30
        visits = rng.integers(5, size=T)
        first = np.zeros(T, dtype=bool)
        first[np.unique(visits, return_index=True)[1]] = True
        every = nystrom.NystromState(kern, ETA, q=1.0, rng=_Keep(np.ones(T)), grid=G)
        once = nystrom.NystromState(kern, ETA, q=1.0, rng=_Keep(first), grid=G)
        for v in visits:
            y = rng.normal(size=kern.n)
            every.update(sites[v], y)
            once.update(sites[v], y)
        assert every.m == T and once.m == 5
        assert np.any(every.dictionary.probs < 1)
        Xq = np.vstack([sites, rng.random((6, 2))])
        for Q in (G, Xq):
            np.testing.assert_array_equal(every.mean_batch(Q), once.mean_batch(Q))
            np.testing.assert_array_equal(every.cov_norm_batch(Q), once.cov_norm_batch(Q))
        assert every.logdet_sum == once.logdet_sum


class _Schedule:
    """Uniform draws that keep, at round t, exactly the history positions
    ``keeps[t - 1]`` (draw 0 for a kept position, 1 for any other)."""

    def __init__(self, keeps):
        self.keeps = iter(keeps)

    def random(self, size):
        draws = np.ones(size)
        draws[next(self.keeps)] = 0.0
        return draws


class _Rebuilt(nystrom.NystromState):
    """A state whose support is solved from scratch after every update."""

    def _absorb(self, a, y):
        increment = super()._absorb(a, y)
        self._support = _solved(self)
        return increment


def _solved(state):
    """The support of the state's dictionary arms, built and solved from scratch."""
    return nystrom._Support.solved(state._basis, state.eta, state._support._dict, state._arms,
                                   state._counts, state._sums)


def _model_gap(s, t) -> float:
    """Largest |difference| of two supports' means, covariance norms and residual blocks."""
    return max(float(np.max(np.abs(u - v))) for u, v in
               ((s.means, t.means), (s.norms, t.norms), (s.res, t.res)))


def _churn(dicts) -> dict:
    """Rounds whose dictionary arm list kept its arms, only gained arms, or lost one."""
    kinds = {"same": 0, "gain": 0, "loss": 0}
    for old, new in zip(dicts, dicts[1:]):
        if list(new) == list(old):
            kinds["same"] += 1
        else:
            kinds["gain" if list(new[:len(old)]) == list(old) else "loss"] += 1
    return kinds


class TestSupportCarryOver:
    @pytest.mark.parametrize("name", ["icm", "icm-as-sum-separable", "diagonal"])
    def test_matches_support_built_afresh(self, name, monkeypatch):
        """The support updated in place agrees with one solved from scratch
        every round, within 1e-10 in the means, covariance norms, residual
        blocks and log-det sum, under a binding budget and repeated arms.
        At q = 30 the dictionary keeps its arms in 11 of 39 rounds, gains
        arms in 10 and loses one in 18, and arms return after leaving (at
        q = 1 it loses an arm in 37 rounds, which leaves the in-place
        update nearly unexercised).  Both draw the same dictionaries.  When
        every point is a grid arm the feature factor is bitwise the one
        built afresh; grid-less, each new point is a new arm whose feature
        columns come from the embedding recurrence, and the factor agrees
        to 1e-12.  Kernel rows carried by arm evaluate fewer kernel entries
        than the rebuilds."""
        rng = np.random.default_rng(21)
        kern = _full_dictionary_kernel(name, rng)
        sites = rng.random((6, 2))
        steps = [
            (sites[rng.integers(6)] if rng.random() < 0.7 else rng.random(2),
             rng.normal(size=kern.n))
            for _ in range(40)
        ]
        G = np.unique([x for x, _ in steps], axis=0)
        entries = []
        pairwise = kernels.ScalarKernel.pairwise

        def counted(self, X, Z):
            K = pairwise(self, X, Z)
            entries[-1] += K.size
            return K

        monkeypatch.setattr(kernels.ScalarKernel, "pairwise", counted)

        def run(cls, grid):
            entries.append(0)
            state = cls(kern, ETA, q=30.0, rng=np.random.default_rng(5), grid=grid)
            rounds = []
            for x, y in steps:
                state.update(x, y)
                s = state._support
                rounds.append((s._dict, [(f.F.copy(), f.piv, f.ends) for f in (s._features,)],
                               s.means, s.norms, s.res.copy(), state.logdet_sum))
            return rounds, state.rebuilds

        for grid in (G, None):
            (carried, rebuilds), (fresh, _) = run(nystrom.NystromState, grid), run(_Rebuilt, grid)
            for (dc, fc, mc, nc, rc, lc), (df, ff, mf, nf, rf, lf) in zip(carried, fresh):
                np.testing.assert_array_equal(dc, df)
                for (Fc, pc, ec), (Ff, pf, ef) in zip(fc, ff):
                    np.testing.assert_array_equal(pc, pf)
                    np.testing.assert_array_equal(ec, ef)
                    if grid is None:
                        np.testing.assert_allclose(Fc, Ff, rtol=0, atol=1e-12)
                    else:
                        np.testing.assert_array_equal(Fc, Ff)
                for c, f in ((mc, mf), (nc, nf), (rc, rf)):
                    np.testing.assert_allclose(c, f, rtol=0, atol=1e-10)
                assert lc == pytest.approx(lf, rel=0, abs=1e-10)
            kinds = _churn([d for d, *_ in carried])
            assert rebuilds == kinds["loss"] and min(kinds.values()) >= 10
            dicts = [set(d) for d, *_ in carried]
            assert any((d - dicts[t - 1]) & set().union(*dicts[:t - 1])
                       for t, d in enumerate(dicts) if t > 1)
            assert entries[-2] < entries[-1]

    def test_tied_coupling_eigenvalues_carry_the_factor(self):
        """An omega-coupled ICM kernel written as one sum-separable term is a
        general system whose 3 x 3 pivots have two equal eigenvalues, so
        rows along eigenvectors would be fixed only up to a rotation that
        rounding chooses.  Rows built coordinate by coordinate are not:
        grid-less, over the 40 steps of test_matches_support_built_afresh,
        the carried support has the pivot arms and row counts of the one
        solved from scratch every round, its factor within 1e-12 and its
        model within 1e-10."""
        rng = np.random.default_rng(21)
        kern = kernels.SumSeparableKernel(
            [(kernels.SquaredExponential(0.3), kernels.omega_coupling(0.5, 3))]
        )
        sites = rng.random((6, 2))
        steps = [
            (sites[rng.integers(6)] if rng.random() < 0.7 else rng.random(2),
             rng.normal(size=kern.n))
            for _ in range(40)
        ]
        state = nystrom.NystromState(kern, ETA, q=30.0, rng=np.random.default_rng(5))
        for x, y in steps:
            state.update(x, y)
            s, fresh = state._support, _solved(state)
            np.testing.assert_array_equal(s._features.piv, fresh._features.piv)
            np.testing.assert_array_equal(s._features.ends, fresh._features.ends)
            np.testing.assert_allclose(s._features.F, fresh._features.F, rtol=0, atol=1e-12)
            assert _model_gap(s, fresh) <= 1e-10

    @pytest.mark.parametrize("name", ["icm", "icm-as-sum-separable", "diagonal"])
    def test_long_binding_budget_run(self, name):
        """Over 300 rounds at q = 30 on an ever wider pool of 12 grid arms,
        with one off-grid arm visited from round 150 on, the dictionary
        keeps its arms, gains arms and loses arms, and after every round the
        support updated in place agrees with one solved from scratch within
        1e-10."""
        rng = np.random.default_rng(31)
        kern = _full_dictionary_kernel(name, rng)
        G = rng.random((12, 2))
        off = rng.random(2)
        state = nystrom.NystromState(kern, ETA, q=30.0, rng=np.random.default_rng(6), grid=G)
        dicts = []
        for t in range(300):
            x = off if t >= 150 and t % 7 == 0 else G[rng.integers(min(12, 2 + t // 10))]
            state.update(x, rng.normal(size=kern.n))
            dicts.append(state._support._dict)
            assert _model_gap(state._support, _solved(state)) <= 1e-10
        kinds = _churn(dicts)
        assert min(kinds.values()) >= 10 and state.rebuilds == kinds["loss"]
        assert state.m < 100 and state._arms.shape[0] == 13

    def test_no_rebuild_without_loss(self, monkeypatch):
        """A grid run whose dictionary never loses an arm (every inclusion
        probability 1) solves nothing from scratch and runs no
        eigendecomposition, yet ends within 1e-10 of the support solved
        from scratch."""
        rng = np.random.default_rng(23)
        G = rng.random((15, 2))
        state = nystrom.NystromState(random_icm(rng, n=3), ETA, q=1e12,
                                     rng=np.random.default_rng(7), grid=G)

        def banned(*args, **kwargs):
            raise AssertionError("eigendecomposition or rebuild during an update")

        with monkeypatch.context() as m:
            for target, attr in ((np.linalg, "eigh"), (nystrom.la, "eigh"),
                                 (nystrom._Support, "_rebuild")):
                m.setattr(target, attr, banned)
            for _ in range(60):
                state.update(G[rng.integers(15)], rng.normal(size=3))
        assert state.rebuilds == 0 and state.m == 60
        assert _model_gap(state._support, _solved(state)) <= 1e-10

    @pytest.mark.parametrize("name", ["icm", "icm-as-sum-separable", "diagonal"])
    def test_kernel_rows_evaluated(self, name, monkeypatch):
        """A rebuild whose dictionary appends one arm evaluates one kernel row
        k(a, arms) per basis kernel, and one with the same arms none, also
        when it samples other visits of them: the support lists its arms in
        first-visit order, so the same arms give the same factor."""
        rng = np.random.default_rng(22)
        kern = _full_dictionary_kernel(name, rng)
        G = rng.random((20, 2))
        visits = [0, 1, 1, 2, 0, 2, 3]
        # Kept history positions per round; the arm sets are [0], [0, 1],
        # [0, 1], [0, 1, 2] three times (sampled in other orders) and [0, 1, 2, 3].
        keeps = [[0], [0, 1], [0, 2], [0, 1, 3], [1, 3, 4], [2, 4, 5], [0, 1, 3, 6]]
        state = nystrom.NystromState(kern, ETA, q=1.0, rng=_Schedule(keeps), grid=G)
        calls = []
        for k in (state._basis.kernel,):
            cross = k._cross
            monkeypatch.setattr(k, "_cross", lambda X, Z, f=cross: calls.append(
                (X.shape[0], Z.shape[0])) or f(X, Z))
        appends = [1, 1, 0, 1, 0, 0, 1]
        for v, n in zip(visits, appends):
            calls.clear()
            state.update(G[v], rng.normal(size=kern.n))
            assert calls == [(1, 20)] * n


class TestPriorAndValidation:
    def test_prior_state(self):
        rng = np.random.default_rng(5)
        kern = random_icm(rng, n=3)
        state = nystrom.NystromState(kern, ETA, q=10.0, rng=np.random.default_rng(0))
        x = rng.random(2)
        np.testing.assert_allclose(state.mean(x), np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(state.cov(x), kern(x, x), atol=1e-12)
        assert state.logdet_sum == 0.0 and state.m == 0

    def test_update_rejects_a_stack_of_points(self):
        """A stack of several points is refused, naming its shape, before
        anything is recorded or any uniform is drawn."""
        rng = _CountingRNG(0)
        state = nystrom.NystromState(random_icm(np.random.default_rng(9), n=2), ETA, q=10.0,
                                     rng=rng)
        with pytest.raises(ValueError, match=r"one point.*\(3, 1\)"):
            state.update(np.array([[0.1], [0.5], [0.9]]), np.ones(2))
        assert state.t == 0 and state.m == 0 and state.X.shape[0] == 0 and rng.draws == 0

    def test_q_validation(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="q"):
            nystrom.NystromState(random_icm(rng), ETA, q=0.5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="q"):
            nystrom.NystromState(random_icm(rng), ETA, q=np.nan, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["icm", "icm-as-sum-separable", "diagonal"])
    def test_prior_reads_on_grid(self, name):
        """Before any update a grid state reads zero means and the prior
        covariance norms ||Gamma(x, x)|| from its empty support, for the
        grid object and for a copy of it."""
        rng = np.random.default_rng(24)
        kern = _full_dictionary_kernel(name, rng)
        G = rng.random((7, 2))
        state = nystrom.NystromState(kern, ETA, q=10.0, rng=np.random.default_rng(0), grid=G)
        prior = np.clip(np.linalg.eigvalsh(kern.diag_blocks(G))[:, -1], 0.0, kern.kappa)
        for Xq in (G, G.copy()):
            np.testing.assert_array_equal(state.mean_batch(Xq), np.zeros((7, kern.n)))
            np.testing.assert_allclose(state.cov_norm_batch(Xq), prior, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.cov(G[3]), kern(G[3], G[3]), rtol=0, atol=1e-12)
        assert state.rebuilds == 0 and state.m == 0

    @pytest.mark.parametrize("name", ["icm", "icm-as-sum-separable", "sum-separable-3-tasks",
                                      "diagonal"])
    def test_reads_clamped_to_kappa(self, name):
        """As for the exact posterior, every covariance norm lies in [0, kappa]
        and every covariance has its eigenvalues there (to rounding), on grid
        and off-grid reads, before the first update and after each of 15.
        On the 3-task sum-separable kernel some unclamped norms exceed kappa
        in their last bits."""
        rng = np.random.default_rng(25)
        if name == "sum-separable-3-tasks":
            kern = kernels.SumSeparableKernel(
                [(kernels.SquaredExponential(0.3), kernels.gram_coupling(3, rng))]
            )
        else:
            kern = _full_dictionary_kernel(name, rng)
        G, off = 3.0 * rng.random((8, 2)), 3.0 * rng.random((5, 2))
        state = nystrom.NystromState(kern, ETA, q=10.0, rng=np.random.default_rng(1), grid=G)
        for t in range(16):
            for Xq in (G, off):
                norms = state.cov_norm_batch(Xq)
                assert np.all(norms >= 0.0) and np.all(norms <= kern.kappa)
                vals = np.linalg.eigvalsh(state.cov(Xq[t % Xq.shape[0]]))
                assert vals[0] >= -1e-12 and vals[-1] <= kern.kappa + 1e-12
            x = off[t % 5] if t % 4 == 3 else G[rng.integers(8)]
            state.update(x, rng.normal(size=kern.n))

    @pytest.mark.parametrize("budgeted", [False, True])
    @pytest.mark.parametrize("structured", [True, False])
    def test_empty_query_stack(self, budgeted, structured):
        """After one update every state maps an empty query stack to empty
        results: exact and budgeted, on the task-basis systems of an ICM
        kernel and on the single general system of a sum-separable kernel."""
        rng = np.random.default_rng(8)
        if structured:
            kern = random_icm(rng, n=2)
        else:
            kern = kernels.SumSeparableKernel(
                [(kernels.SquaredExponential(0.3), kernels.omega_coupling(0.5, 2))]
            )
        if budgeted:
            state = nystrom.NystromState(kern, ETA, q=1e12, rng=np.random.default_rng(0))
        else:
            state = posterior.PosteriorState(kern, ETA)
        state.update(rng.random(2), rng.normal(size=2))
        empty = np.zeros((0, 2))
        assert state.mean_batch(empty).shape == (0, 2)
        assert state.cov_norm_batch(empty).shape == (0,)


class TestRhoSandwich:
    def test_budgeted_cov_within_rho_of_exact(self):
        """Gamma_t / rho <= Gamma~_t <= rho Gamma_t along a subsampled run."""
        self._sandwich_run(repeats=False)

    def test_budgeted_cov_within_rho_of_exact_on_repeated_arms(self):
        """The sandwich at the theory q holds when the history revisits six
        sites, so that the dictionary lists arms more than once."""
        self._sandwich_run(repeats=True)

    @staticmethod
    def _sandwich_run(repeats):
        eps = 0.5
        rho = (1 + eps) / (1 - eps)
        T, delta = 40, 0.1
        q = 6.0 * rho * np.log(4 * T / delta) / eps**2
        rng = np.random.default_rng(8)
        kern = random_icm(rng, n=2, omega=0.4)
        exact = posterior.PosteriorState(kern, ETA)
        budget = nystrom.NystromState(kern, ETA, q=q, rng=np.random.default_rng(1))
        queries = rng.random((10, 2))
        sites = rng.random((6, 2)) if repeats else None
        duplicated = False
        for _ in range(T):
            x = sites[rng.integers(6)] if repeats else rng.random(2)
            y = rng.normal(size=2)
            exact.update(x, y)
            budget.update(x, y)
            kept = budget.X[budget.dictionary.indices]
            duplicated |= np.unique(kept, axis=0).shape[0] < budget.m
            for xq in queries:
                C, Ct = exact.cov(xq), budget.cov(xq)
                assert np.linalg.eigvalsh(rho * C - Ct).min() >= -1e-6
                assert np.linalg.eigvalsh(Ct - C / rho).min() >= -1e-6
        assert duplicated == repeats

    def test_dictionary_shrinks_under_repeated_queries(self):
        """Once repeatedly visited locations have small posterior variance,
        their inclusion probabilities fall and the dictionary drops them."""
        rng = np.random.default_rng(9)
        kern = random_icm(rng, n=2, omega=0.5)
        sites = rng.random((5, 1))
        T = 60
        state = nystrom.NystromState(kern, ETA, q=20.0, rng=np.random.default_rng(2))
        for t in range(T):
            state.update(sites[t % 5], rng.normal(size=2))
        assert 1 <= state.m < T // 2
