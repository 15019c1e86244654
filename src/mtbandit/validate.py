"""Randomized self-checks of the core matrix identities (``mtbandit validate``).

Each suite builds small seeded instances and reports its worst error
against a fixed tolerance: the log-det telescoping and the trace bound
against dense oracles, the geometry of the posterior covariance, the
agreement of the engine's task-basis systems, grid-resident and off-grid
reads with the single general system, the budgeted posterior with an
all-points dictionary against the exact one, and the budgeted model
updated in place against the same model solved from scratch.  ``main`` prints one line
per suite and a tally, and returns 0 when every suite passed, else 1.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import kernels, nystrom, posterior

__all__ = ["SuiteReport", "main"]


@dataclass
class SuiteReport:
    name: str
    max_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.threshold


def _read_gap(state, queries, mean, norms) -> float:
    """Largest |difference| of the state's means and covariance norms at the
    queries from the reference ``mean`` and ``norms``."""
    return max(float(np.max(np.abs(state.mean_batch(queries) - mean))),
               float(np.max(np.abs(state.cov_norm_batch(queries) - norms))))


def _battery_instances():
    """Twenty small randomized regression instances with dense oracles."""
    out = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = 2 + seed % 3
        scalar = kernels.SquaredExponential(0.4)
        if seed % 2 == 0:
            kern = kernels.ICMKernel(scalar, kernels.omega_coupling(0.3 + 0.1 * (seed % 5), n))
        else:
            kern = kernels.SumSeparableKernel(
                [
                    (scalar, kernels.omega_coupling(0.5, n)),
                    (kernels.Matern52(0.6), kernels.gram_coupling(n, rng)),
                ]
            )
        t = 8 + seed % 7
        X = rng.random((t, 2))
        Y = rng.normal(size=(t, n))
        out.append((kern, X, Y))
    return out


def _suite_schur_and_trace():
    """Log-det telescoping vs dense oracle; predictive-variance trace bound."""
    eta = 0.1
    schur_err = 0.0
    trace_violation = 0.0
    for kern, X, Y in _battery_instances():
        state = posterior.PosteriorState(kern, eta)
        trace_sum = 0.0
        for x, y in zip(X, Y):
            state.update(x, y)
            trace_sum += float(np.trace(state.cov(x)))
        G = kernels.block_kernel_matrix(kern, X)
        dense = float(np.linalg.slogdet(np.eye(G.shape[0]) + G / eta)[1])
        schur_err = max(schur_err, abs(state.logdet_sum - dense) / max(1.0, abs(dense)))
        trace_violation = max(trace_violation, trace_sum / eta - dense)
    return (
        SuiteReport("schur-telescoping", schur_err, 1e-6),
        SuiteReport("trace-inequality", trace_violation, 1e-8),
    )


def _suite_variance_geometry():
    """Posterior covariance shrinks, and by at most the 1 + kappa/eta factor."""
    eta = 0.1
    rng = np.random.default_rng(77)
    kern = kernels.ICMKernel(kernels.SquaredExponential(0.3), kernels.omega_coupling(0.6, 3))
    state = posterior.PosteriorState(kern, eta)
    queries = rng.random((15, 2))
    factor = 1.0 + kern.kappa / eta
    worst = 0.0
    prev = [state.cov(xq) for xq in queries]
    for _ in range(25):
        state.update(rng.random(2), rng.normal(size=3))
        for j, xq in enumerate(queries):
            cur = state.cov(xq)
            shrink = np.linalg.eigvalsh(prev[j] - cur)
            inflate = np.linalg.eigvalsh(factor * cur - prev[j])
            worst = max(worst, -float(shrink.min()), -float(inflate.min()))
            prev[j] = cur
    return (SuiteReport("variance-geometry", worst, 1e-9),)


def _suite_fast_path_equivalence():
    """The default systems, off the grid and grid-resident, agree with the
    single general system (ICM, and a diagonal kernel whose tasks share one
    scalar-kernel object; with distinct scalars a diagonal kernel is itself
    the general system, so it would compare a path with itself); on a
    sum-separable kernel, which is one general system, grid-resident reads
    agree with off-grid ones.
    In exact-grid-interleaved the history alternates repeated grid rows
    with off-grid points, so the grid-resident state adds each new
    off-grid arm by forward substitution through its history rows and
    restarts a repeated arm's column from that arm's last row."""
    eta = 0.1
    rng = np.random.default_rng(123)
    se = kernels.SquaredExponential(0.3)
    icm = kernels.ICMKernel(se, kernels.gram_coupling(3, rng))
    cases = (
        ("icm-equivalence", icm, False),
        ("diagonal-equivalence", kernels.DiagonalKernel([se] * 3), False),
        ("sum-separable-grid", kernels.SumSeparableKernel([
            (se, kernels.omega_coupling(0.5, 3)),
            (kernels.Matern52(0.5), kernels.gram_coupling(3, rng)),
        ]), False),
        ("exact-grid-interleaved", icm, True),
    )
    queries = rng.random((40, 2))
    reports = []
    for name, kern, interleaved in cases:
        fast = posterior.PosteriorState(kern, eta)
        on_grid = posterior.PosteriorState(kern, eta, grid=queries)
        general = posterior.PosteriorState(kern, eta, fast_path=False)
        for t in range(25):
            x = queries[rng.integers(6)] if interleaved and t % 2 else rng.random(2)
            y = rng.normal(size=3)
            for state in (fast, on_grid, general):
                state.update(x, y)
        mean, norm = general.mean_batch(queries), general.cov_norm_batch(queries)
        err = max(
            max(_read_gap(state, queries, mean, norm),
                abs(state.logdet_sum - general.logdet_sum))
            for state in (fast, on_grid)
        )
        reports.append(SuiteReport(name, err, 1e-8))
    return tuple(reports)


def _dense_posterior(kern, X, Y, eta, Xq):
    """Means (N, n) and covariance norms (N,) at Xq by one dense solve."""
    N, n = Xq.shape[0], kern.n
    G = kernels.block_kernel_matrix(kern, X)
    L = np.linalg.cholesky(G + eta * np.eye(G.shape[0]))
    W = la.solve_triangular(L, kernels.cross_block(kern, X, Xq), lower=True)
    mean = W.T @ la.solve_triangular(L, Y.reshape(-1), lower=True)
    W3 = W.reshape(-1, N, n)
    cov = kern.diag_blocks(Xq) - np.einsum("kja,kjb->jab", W3, W3)
    return mean.reshape(N, n), np.linalg.eigvalsh(0.5 * (cov + cov.transpose(0, 2, 1)))[:, -1]


def _suite_full_dictionary():
    """Budgeted posterior with an all-points dictionary matches the exact one,
    with one scalar factor (ICM), with the n x n blocks of a diagonal kernel
    with distinct scalars factored as the general system, and on grid reads served from the arm arrays of a grid-resident state whose
    history repeats grid points and mixes in off-grid ones.  On 45 of 101
    arms 0.01 apart at lengthscale 0.2 the dictionary is numerically
    rank-deficient, so the features skip arms at the pivot cut; there the
    grid reads are checked against the dense solve."""
    eta = 0.1
    rng = np.random.default_rng(321)
    se = kernels.SquaredExponential(0.3)
    icm = kernels.ICMKernel(se, kernels.omega_coupling(0.4, 2))
    queries = rng.random((50, 2))
    cases = (
        ("full-dictionary-exactness", icm, None),
        ("full-dictionary-diagonal", kernels.DiagonalKernel([se, se, kernels.Matern52(0.5)]),
         None),
        ("full-dictionary-grid", icm, queries),
    )
    reports = []
    for name, kern, grid in cases:
        exact = posterior.PosteriorState(kern, eta)
        budget = nystrom.NystromState(kern, eta, q=1e12, rng=np.random.default_rng(9), grid=grid)
        for t in range(25):
            x = queries[rng.integers(5)] if grid is not None and t % 2 else rng.random(2)
            y = rng.normal(size=kern.n)
            exact.update(x, y)
            budget.update(x, y)
        err = _read_gap(budget, queries, exact.mean_batch(queries), exact.cov_norm_batch(queries))
        reports.append(SuiteReport(name, err, 1e-6))
    grid = np.linspace(0.0, 1.0, 101)[:, None]
    kern = kernels.ICMKernel(kernels.SquaredExponential(0.2), kernels.gram_coupling(4, rng))
    arms = rng.choice(101, size=45, replace=False)
    X = grid[np.concatenate([arms, arms[rng.integers(45, size=15)]])]
    Y = rng.normal(size=(60, 4))
    budget = nystrom.NystromState(kern, eta, q=1e12, rng=np.random.default_rng(9), grid=grid)
    for x, y in zip(X, Y):
        budget.update(x, y)
    mean, norms = _dense_posterior(kern, X, Y, eta, grid)
    err = _read_gap(budget, grid, mean, np.clip(norms, 0.0, None))
    reports.append(SuiteReport("full-dictionary-rank-deficient", err, 1e-5))
    return tuple(reports)


def _suite_budgeted_update():
    """The budgeted model updated in place against the same dictionary's
    model solved from scratch, on an ICM kernel (one b = 1 factor per
    coupling eigenvalue) and on the same kernel as one general system.
    300 rounds at q = 30, where the budget binds (about 40 sampled points),
    revisit an ever wider pool of 12 grid arms and, from round 150, one
    off-grid arm, so that the dictionary keeps its arms, gains arms and
    loses arms; after every round the means, covariance norms and residual
    blocks at every arm are compared."""
    eta = 0.1
    rng = np.random.default_rng(404)
    icm = kernels.ICMKernel(kernels.SquaredExponential(0.3), kernels.gram_coupling(2, rng))
    grid, off = rng.random((12, 2)), rng.random(2)
    worst = 0.0
    for kern in (icm, kernels.SumSeparableKernel([(icm.scalar, icm.coupling)])):
        state = nystrom.NystromState(kern, eta, q=30.0, rng=np.random.default_rng(11), grid=grid)
        for t in range(300):
            x = off if t >= 150 and t % 7 == 0 else grid[rng.integers(min(12, 2 + t // 10))]
            state.update(x, rng.normal(size=2))
            s = state._support
            fresh = nystrom._Support.solved(state._basis, eta, s._dict, state._arms,
                                            state._counts, state._sums)
            worst = max([worst] + [float(np.max(np.abs(u - v))) for u, v in (
                (s.means, fresh.means), (s.norms, fresh.norms), (s.res, fresh.res))])
    return (SuiteReport("budgeted-update-vs-rebuild", worst, 1e-9),)


def main() -> int:
    """Run every suite, print one line per suite and a tally; 0 if all passed."""
    reports = []
    for suite in (
        _suite_schur_and_trace,
        _suite_variance_geometry,
        _suite_fast_path_equivalence,
        _suite_full_dictionary,
        _suite_budgeted_update,
    ):
        reports.extend(suite())
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max error {r.max_error:.3e}  (tol {r.threshold:.0e})  {status}")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} suites passed")
    return 0 if not failed else 1
