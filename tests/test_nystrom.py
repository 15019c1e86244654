"""Budgeted (Nystrom) posterior tests.

The budgeted state is validated against the exact posterior in the
regime where they must coincide (all inclusion probabilities equal to
one, with distinct and with heavily repeated queries), against the
variance-proportional resampling contract drawn once per visited arm
(per-arm inclusion frequencies against 1 - (1 - p)^c and against BKB's
per-point rule), against the rho-sandwich that the regret analysis
relies on, against a support that holds each sampled arm once
(repeated visits and inclusion probabilities must change nothing), and,
for grid reads served from the arm arrays, against a grid-less twin that
embeds the grid afresh.  The incomplete Cholesky features are checked
against the Nystrom kernel k(x, D) K_DD^{-1} k(D, x') and, on a
rank-deficient dictionary, against the dense posterior.  The support updated in place must agree
with one solved from scratch (its feature factor bitwise on a fixed arm
universe), solve nothing from scratch while the dictionary loses no arm,
keep its means from drifting over a long bandit run, and evaluate one
kernel row per appended arm.
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import dense_posterior_cov, dense_posterior_mean, random_icm
from mtbandit import benchmarks, cli, kernels, nystrom, posterior

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
        """The draw refuses q < 1, negative or non-finite norms, and counts
        that are not positive or not aligned with the norms; it returns
        increasing positions of the visited arms."""
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="q"):
            nystrom.resample_dictionary([0.5, 0.2], [1, 2], q=np.nan, rng=rng)
        with pytest.raises(ValueError, match="q"):
            nystrom.resample_dictionary([0.5, 0.2], [1, 2], q=0.5, rng=rng)
        for norms in ([0.5, -0.2], [0.5, np.inf], [np.nan, 0.2]):
            with pytest.raises(ValueError, match="nonnegative"):
                nystrom.resample_dictionary(norms, [1, 2], q=2.0, rng=rng)
        for counts in ([1], [1, 0], [[1, 2]]):
            with pytest.raises(ValueError, match="counts"):
                nystrom.resample_dictionary([0.5, 0.2], counts, q=2.0, rng=rng)
        kept = nystrom.resample_dictionary(np.full(6, 0.3), np.arange(1, 7), q=2.0, rng=rng)
        assert kept.dtype.kind == "i" and np.all(np.diff(kept) > 0)

    def test_resample_inclusion_rule(self):
        """Arm a, visited c_a times, is kept iff draw_a < 1 - (1 - p_a)^{c_a}
        with p_a = min(q * norm_a, 1)."""

        class _Fixed:
            def __init__(self, draws):
                self.draws = np.asarray(draws, dtype=float)

            def random(self, size):
                assert size == self.draws.shape[0]
                return self.draws

        norms, counts = np.array([0.5, 0.01, 0.2, 0.05]), np.array([1, 1, 3, 2])
        kept = nystrom.resample_dictionary(norms, counts, q=2.0,
                                           rng=_Fixed([0.9, 0.01, 0.7, 0.2]))
        # p = (1.0, 0.02, 0.4, 0.1) and 1 - (1 - p)^c = (1.0, 0.02, 0.784, 0.19):
        # the third arm is kept by its three visits although 0.7 > p.
        np.testing.assert_array_equal(kept, [0, 1, 2])

    def test_resample_empty_falls_back_to_newest(self):
        """A draw that keeps no arm leaves the state with the newest point's
        arm alone, whether that arm is new or revisited."""
        rng = np.random.default_rng(10)
        G = rng.random((5, 2))

        class _Ones:
            def random(self, size):
                return np.ones(size)

        assert nystrom.resample_dictionary([1e-9, 1.0], [3, 1], q=1.0, rng=_Ones()).size == 0
        state = nystrom.NystromState(random_icm(rng, n=2), ETA, q=1.0, rng=_Ones(), grid=G)
        for v in (3, 1, 3, 4, 1):
            state.update(G[v], rng.normal(size=2))
            np.testing.assert_array_equal(state.dictionary, [v])
            assert state.m == 1

    def test_each_update_gives_a_new_dictionary_array(self):
        """Every update gives a new ``dictionary`` array, and no later update
        writes into it, so a caller may keep each round's array (the CLI
        formats them at write time).  The visited arms grow in a buffer that
        the dictionary is drawn from."""
        rng = np.random.default_rng(12)
        G = rng.random((10, 2))
        state = nystrom.NystromState(random_icm(rng, n=2), ETA, q=5.0,
                                     rng=np.random.default_rng(4), grid=G)
        kept = []
        for _ in range(60):
            state.update(G[rng.integers(10)], rng.normal(size=2))
            assert all(state.dictionary is not d for d, _ in kept)
            kept.append((state.dictionary, state.dictionary.copy()))
        for d, copy in kept:
            np.testing.assert_array_equal(d, copy)
        assert len({tuple(copy) for _, copy in kept}) > 10
        assert state._visited.dtype.kind == "i" and state._visited.size == np.unique(
            state._hist_arm).size

    def test_one_uniform_draw_per_visited_arm_each_round(self):
        """Resampling consumes one variate per visited arm at each round,
        regardless of q and of the visit counts, so equal seeds stay aligned
        across configurations."""
        rng = np.random.default_rng(1)
        kern = random_icm(rng, n=2)
        counter = _CountingRNG(3)
        state = nystrom.NystromState(kern, ETA, q=50.0, rng=counter)
        sites = rng.random((4, 2))
        visits = [0, 1, 0, 0, 2, 1, 3, 3]
        for v in visits:
            state.update(sites[v], rng.normal(size=2))
        visited = [len(set(visits[:t])) for t in range(1, len(visits) + 1)]
        assert counter.draws == sum(visited) == 21

    def test_inclusion_frequencies_match_per_point_rule(self):
        """Over 4,000 seeds each arm's inclusion frequency matches
        1 - (1 - p)^c, and the frequency under BKB's per-point rule (each of
        the c visits kept with p, the arm kept if any visit is); both within
        4.5 binomial standard deviations.  Arms are drawn independently: the
        joint frequency of two arms matches the product of their
        probabilities.  An arm with p = 1 is always kept."""
        norms = np.array([0.004, 0.02, 0.05, 0.15, 0.3, 0.6, 2.0])
        counts = np.array([1, 7, 3, 1, 4, 2, 3])
        q, n = 1.5, 4000
        p = np.minimum(q * norms, 1.0)
        want = 1.0 - (1.0 - p) ** counts
        by_arm = np.zeros((n, norms.size), dtype=bool)
        by_point = np.zeros((n, norms.size), dtype=bool)
        owner = np.repeat(np.arange(norms.size), counts)
        for seed in range(n):
            by_arm[seed, nystrom.resample_dictionary(norms, counts, q,
                                                     np.random.default_rng(seed))] = True
            kept = np.random.default_rng([seed, 1]).random(owner.size) < p[owner]
            by_point[seed, owner[kept]] = True
        sd = np.sqrt(want * (1.0 - want) / n)
        assert np.all(np.abs(by_arm.mean(axis=0) - want) <= 4.5 * sd)
        assert np.all(np.abs(by_point.mean(axis=0) - want) <= 4.5 * sd)
        assert np.all(np.abs(by_arm.mean(axis=0) - by_point.mean(axis=0))
                      <= 4.5 * np.sqrt(2.0) * sd)
        assert np.all(by_arm[:, -1]) and 0.0 < want[0] < 0.01
        both = want[1] * want[4]
        joint = np.mean(by_arm[:, 1] & by_arm[:, 4])
        assert abs(joint - both) <= 4.5 * np.sqrt(both * (1.0 - both) / n)


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
        means, norms, res = _at_arms(s)
        for M in (means, *res, norms):
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
        posterior is still the exact one, its dictionary every visited arm."""
        rng = np.random.default_rng(13)
        kern = _full_dictionary_kernel(name, rng)
        sites = rng.random((4, 2))
        exact = posterior.PosteriorState(kern, ETA)
        budget = nystrom.NystromState(kern, ETA, q=1e12, rng=np.random.default_rng(0))
        for _ in range(30):
            x, y = sites[rng.integers(4)], rng.normal(size=kern.n)
            exact.update(x, y)
            budget.update(x, y)
        # Every visited arm is kept, each once, in first-visit order.
        assert budget.t == 30 and budget.m == 4
        np.testing.assert_array_equal(budget.dictionary, np.arange(4))
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
        same dictionaries (the same points, though the resident numbers its
        arms after the grid rows) and accumulate the same log-det.  The
        budget binds: some rounds drop a visited arm."""
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
        dropped = 0
        for t in range(40):
            x = rng.random(2) if t == 20 else G[rng.integers(5)]
            y = rng.normal(size=kern.n)
            resident.update(x, y)
            twin.update(x, y)
            np.testing.assert_array_equal(resident._arms[resident.dictionary],
                                          twin._arms[twin.dictionary])
            assert resident.m == twin.m
            dropped += twin.m < twin._arms.shape[0]
        assert dropped > 0
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
        monkeypatch.setattr(posterior, "_as_points",
                            lambda X: calls.append(1) or kernels._as_points(X))
        for _ in range(2):
            state.mean_batch(grid), state.cov_norm_batch(grid)
            assert calls == []
            state.update(grid[3], rng.normal(size=2))
            calls.clear()  # the update checks its point
        state.mean_batch(grid.copy()), state.cov_norm_batch(grid.copy())
        assert len(calls) == 2


class _Keep:
    """Uniform draws that keep every visited arm (draw 0 for each)."""

    def random(self, size):
        return np.zeros(size)


class TestDistinctArmSupport:
    @pytest.mark.parametrize("name", ["icm", "sum-separable"])
    def test_repeated_dictionary_arms_change_nothing(self, name):
        """Repeated visits to the dictionary arms and inclusion probabilities
        below one leave the model as it is with every probability 1: the
        support holds each sampled arm once, unweighted.  A state at q = 1
        whose draws keep every visited arm gives bitwise the model of one at
        q = 1e12 that draws its uniforms, and both list the five visited
        arms, each once."""
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
        weighted = nystrom.NystromState(kern, ETA, q=1.0, rng=_Keep(), grid=G)
        full = nystrom.NystromState(kern, ETA, q=1e12, rng=np.random.default_rng(3), grid=G)
        lowest = np.inf
        for v in visits:
            lowest = min(lowest, float(np.min(weighted.cov_norm_batch(sites))))
            y = rng.normal(size=kern.n)
            weighted.update(sites[v], y)
            full.update(sites[v], y)
            np.testing.assert_array_equal(weighted.dictionary, full.dictionary)
        assert lowest < 1.0  # some inclusion probability at q = 1 was below one
        first = [a for i, a in enumerate(visits) if a not in visits[:i]]
        np.testing.assert_array_equal(weighted.dictionary, [[0, 1, 2, 3, 20][a] for a in first])
        Xq = np.vstack([sites, rng.random((6, 2))])
        for Q in (G, Xq):
            np.testing.assert_array_equal(weighted.mean_batch(Q), full.mean_batch(Q))
            np.testing.assert_array_equal(weighted.cov_norm_batch(Q), full.cov_norm_batch(Q))
        assert weighted.logdet_sum == full.logdet_sum


class _Schedule:
    """Uniform draws that keep, at round t, exactly the visited arms at the
    positions ``keeps[t - 1]`` of the first-visit order (draw 0 for a kept
    arm, 1 for any other)."""

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


def _at_arms(s):
    """The means, covariance norms and residual blocks (a copy) a support
    keeps at every arm."""
    return s.mean, s.norms, s.res.copy()


def _model_gap(s, t) -> float:
    """Largest |difference| of two supports' means, covariance norms and residual blocks."""
    return max(float(np.max(np.abs(u - v))) for u, v in zip(_at_arms(s), _at_arms(t)))


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
        At q = 30 the dictionary keeps its arms in 12 of 49 rounds, gains
        arms in 11 and loses one in 26 (10, 10 and 29 on the diagonal
        kernel), and arms return after leaving (at q = 1 it loses an arm in
        47 rounds, which leaves the in-place update nearly unexercised).  Both draw the same dictionaries.  When
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
            for _ in range(50)
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
                               *_at_arms(s), state.logdet_sum))
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
        grid-less, over 40 steps drawn as in
        test_matches_support_built_afresh, the carried support has the pivot arms and row counts of the one
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

    def test_long_bandit_run_keeps_its_mean(self):
        """The means kept at the arms follow every observation and border
        without being solved again, so they must not drift: after an MTBKB
        run of 1,000 rounds on the 4-task rkhs objective (seed 1), of which
        262 lose a dictionary arm, they agree with the support solved from
        scratch within 1e-10 (3.5e-13 when written)."""
        exp = cli.ExperimentConfig.from_mapping({
            "run": {"trials": 1, "horizon": 1000, "master_seed": 1, "algorithms": ["MTBKB"]},
            "objective": {"name": "rkhs", "tasks": 4, "seed": 1},
            "kernel": {"family": "squared_exponential", "lengthscale": 0.2,
                       "coupling": "gram", "coupling_seed": 1},
            "scalarization": {"kind": "chebyshev", "weights": "inverse"},
            "bandit": {"eta": 0.1, "delta": 0.1, "epsilon": 0.5},
        })
        env, b_auto = exp.build_environment()
        state = cli._run_one_trial(exp, env, b_auto, "MTBKB", 0, False)[-1]
        assert state.t == 1000 and state.rebuilds == 262
        s, fresh = state._support, _solved(state)
        assert _model_gap(s, fresh) <= 1e-10

    def test_no_rebuild_without_loss(self, monkeypatch):
        """A grid run whose dictionary never loses an arm (every inclusion
        probability 1, so every visited arm is kept) solves nothing from scratch and runs no
        eigendecomposition, yet ends within 1e-10 of the support solved
        from scratch."""
        rng = np.random.default_rng(23)
        G = rng.random((15, 2))
        state = nystrom.NystromState(random_icm(rng, n=3), ETA, q=1e12,
                                     rng=np.random.default_rng(7), grid=G)

        def banned(*args, **kwargs):
            raise AssertionError("eigendecomposition or rebuild during an update")

        with monkeypatch.context() as m:
            for target, attr in ((np.linalg, "eigh"), (scipy.linalg, "eigh"),
                                 (nystrom._Support, "_reset")):
                m.setattr(target, attr, banned)
            for _ in range(60):
                state.update(G[rng.integers(15)], rng.normal(size=3))
        # Every visited arm is kept, in first-visit order.
        assert state.rebuilds == 0 and state.m == np.unique(state._hist_arm).size
        np.testing.assert_array_equal(state.dictionary, state._visited)
        assert _model_gap(state._support, _solved(state)) <= 1e-10

    @pytest.mark.parametrize("name", ["icm", "icm-as-sum-separable", "diagonal"])
    def test_kernel_rows_evaluated(self, name, monkeypatch):
        """A round whose dictionary appends one arm evaluates one kernel row
        k(a, arms) per basis kernel, and one with the same arms none, also
        when the round revisits one of them: the support lists its arms in
        first-visit order, so the same arms give the same factor."""
        rng = np.random.default_rng(22)
        kern = _full_dictionary_kernel(name, rng)
        G = rng.random((20, 2))
        visits = [0, 1, 1, 2, 0, 2, 3]
        # Kept visited-arm positions per round: the arm sets are [0], [0, 1]
        # twice, [0, 1, 2] three times (twice after a revisit) and [0, 1, 2, 3].
        keeps = [[0], [0, 1], [0, 1], [0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1, 2, 3]]
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
        sites, so that the dictionary holds arms visited more than once."""
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
        revisited = False
        for _ in range(T):
            x = sites[rng.integers(6)] if repeats else rng.random(2)
            y = rng.normal(size=2)
            exact.update(x, y)
            budget.update(x, y)
            revisited |= bool(np.any(budget._counts[budget.dictionary] > 1))
            for xq in queries:
                C, Ct = exact.cov(xq), budget.cov(xq)
                assert np.linalg.eigvalsh(rho * C - Ct).min() >= -1e-6
                assert np.linalg.eigvalsh(Ct - C / rho).min() >= -1e-6
        assert revisited == repeats

    def test_dictionary_shrinks_under_repeated_queries(self):
        """Once repeatedly visited locations have small posterior variance,
        their inclusion probabilities fall and the dictionary drops them:
        over the last 30 of 60 rounds on five sites, most dictionaries miss
        a visited arm."""
        rng = np.random.default_rng(9)
        kern = random_icm(rng, n=2, omega=0.5)
        sites = rng.random((5, 1))
        T = 60
        state = nystrom.NystromState(kern, ETA, q=20.0, rng=np.random.default_rng(2))
        short = 0
        for t in range(T):
            state.update(sites[t % 5], rng.normal(size=2))
            short += t >= T // 2 and state.m < 5
        assert 1 <= state.m and short > 15
