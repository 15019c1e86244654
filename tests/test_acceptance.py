"""Acceptance gate: twelve falsifiable criteria run at desk scale.

Criteria 1-3 check the linear-algebra backbone of sequential inference:
the log-det telescoping identity against a dense oracle, the
trace-versus-log-det information inequality, and the two-sided
predictive-variance geometry (covariances shrink, and by at most the
1 + kappa/eta factor).  Criteria 4-6 certify the approximation layers:
the structured fast path agrees with general inference to near machine
precision, a full dictionary reproduces exact inference, and the
budgeted posterior stays inside the rho-sandwich of the exact one at
every round.  Criterion 7 checks the eigendirection split of the
realized information gain, including exact zeros for rank-deficient
couplings.  Criteria 8-10 are qualitative regret orderings: task
similarity helps (omega sweep), joint inference beats independent
inference under a correlated coupling, and the budgeted solver tracks
the exact one at bounded cost with a sublinear dictionary.  Criterion
11 evaluates the closed-form regret bound above the observed regret,
and criterion 12 pins byte-level determinism of the command-line
harness.

Each test finishes with a single ``PASS: criterion NN`` line so that a
log scan (``pytest -v -s tests/test_acceptance.py``) reads as a
checklist, and asserts its runtime budget alongside the numeric
tolerance.
"""

import time

import numpy as np
import pytest

from conftest import dense_logdet
from mtbandit import bandit, benchmarks, cli, kernels, nystrom, posterior
from mtbandit import scalarize, theorybounds

ETA = 0.1
DELTA = 0.1
SIGMA = 0.1
EPSILON = 0.5
RHO = bandit.rho_factor(EPSILON)  # 3.0 at epsilon = 0.5

CHEB = scalarize.ChebyshevScalarization()


def _report(number, label, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS: criterion {number:2d} ({label}): {detail} [{elapsed:.1f}s]")


def _config(algorithm, horizon, b, kappa, seed, epsilon=None):
    return bandit.AlgorithmConfig(
        algorithm=algorithm,
        eta=ETA,
        delta=DELTA,
        horizon=horizon,
        rkhs_bound=b,
        noise_sigma=SIGMA,
        kappa=kappa,
        lipschitz_bound=1.0,
        seed=seed,
        epsilon=epsilon,
    )


def _se_icm(omega, n, lengthscale=0.2):
    return kernels.ICMKernel(
        kernels.SquaredExponential(lengthscale), kernels.omega_coupling(omega, n)
    )


def _gram_icm(trial, n=2, lengthscale=0.2):
    coupling = kernels.gram_coupling(n, np.random.default_rng(500 + trial))
    return kernels.ICMKernel(kernels.SquaredExponential(lengthscale), coupling)


def _rkhs_env(kernel, trial):
    return benchmarks.make_rkhs_objective(
        kernel, rng=np.random.default_rng(30_000 + trial), noise_sigma=SIGMA
    )


# Shared batteries ===========================================================


@pytest.fixture(scope="module")
def telescoping_battery():
    """Twenty random multi-task instances driven through exact inference.

    Returns the worst relative telescoping error, the worst trace-bound
    violation, and the wall time of the sweep (shared by criteria 1, 2).
    """
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    worst_trace = -np.inf
    for i in range(20):
        n = 2 + i % 3
        t = 6 + (7 * i) % 25
        scalar = kernels.SquaredExponential(0.2 + 0.05 * (i % 4))
        if i % 3 == 0:
            kern = kernels.ICMKernel(scalar, kernels.omega_coupling(0.1 * (i % 10), n))
        elif i % 3 == 1:
            kern = kernels.ICMKernel(scalar, kernels.gram_coupling(n, rng))
        else:
            kern = kernels.SumSeparableKernel(
                [
                    (scalar, kernels.omega_coupling(0.5, n)),
                    (kernels.Matern52(0.4), kernels.gram_coupling(n, rng)),
                ]
            )
        X = rng.random((t, 2))
        Y = rng.normal(size=(t, n))
        state = posterior.PosteriorState(kern, ETA)
        trace_sum = 0.0
        for x, y in zip(X, Y):
            state.update(x, y)
            trace_sum += float(np.trace(state.cov(x)))
        dense = dense_logdet(kern, X, ETA)
        worst_rel = max(
            worst_rel, abs(state.logdet_sum - dense) / (1.0 + abs(dense))
        )
        worst_trace = max(worst_trace, trace_sum / ETA - dense)
    return worst_rel, worst_trace, time.monotonic() - start


@pytest.fixture(scope="module")
def gram_benchmark_runs():
    """Ten paired exact-inference runs on the correlated-coupling benchmark.

    For each trial the same environment and seed drive one run with the
    coupled kernel and one with the diagonal (independent-task) kernel.
    Shared by criteria 9 and 11.
    """
    start = time.monotonic()
    horizon = 200
    rows = []
    for trial in range(10):
        kern = _gram_icm(trial)
        env, b = _rkhs_env(kern, trial)
        weights = scalarize.InverseWeightedWeights(2)
        config = _config("MTKB", horizon, b, kern.kappa, 40_000 + trial)
        result = bandit.run(config, env, kern, CHEB, weights)
        coupled_final = float(
            benchmarks.cumulative_regret(result, env, CHEB)[-1]
        )
        diag = kernels.DiagonalKernel([kernels.SquaredExponential(0.2)] * 2)
        diag_config = _config("MTKB", horizon, b, diag.kappa, 40_000 + trial)
        diag_result = bandit.run(diag_config, env, diag, CHEB, weights)
        diag_final = float(
            benchmarks.cumulative_regret(diag_result, env, CHEB)[-1]
        )
        rows.append((config, result, coupled_final, diag_final))
    return rows, time.monotonic() - start


# Criteria ===================================================================


def test_criterion_01_logdet_telescoping(telescoping_battery):
    worst_rel, _, elapsed = telescoping_battery
    assert worst_rel <= 1e-6
    _report(1, "log-det telescoping", f"max rel err {worst_rel:.2e} <= 1e-06",
            elapsed, 10.0)


def test_criterion_02_trace_inequality(telescoping_battery):
    _, worst_trace, elapsed = telescoping_battery
    assert worst_trace <= 1e-8
    _report(2, "trace inequality", f"max violation {worst_trace:.2e} <= 1e-08",
            elapsed, 10.0)


def test_criterion_03_variance_geometry():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    kern = kernels.ICMKernel(
        kernels.SquaredExponential(0.3), kernels.gram_coupling(3, rng)
    )
    state = posterior.PosteriorState(kern, ETA)
    queries = rng.random((20, 2))
    inflate = 1.0 + kern.kappa / ETA
    prev = [state.cov(xq) for xq in queries]
    worst = 0.0
    for _ in range(30):
        state.update(rng.random(2), rng.normal(size=3))
        for j, xq in enumerate(queries):
            cur = state.cov(xq)
            shrink = float(np.linalg.eigvalsh(prev[j] - cur).min())
            bounded = float(np.linalg.eigvalsh(inflate * cur - prev[j]).min())
            worst = min(worst, shrink, bounded)
            prev[j] = cur
    elapsed = time.monotonic() - start
    assert worst >= -1e-9
    _report(3, "variance geometry", f"min eigenvalue {worst:.2e} >= -1e-09",
            elapsed, 10.0)


def test_criterion_04_fast_path_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    kern = _se_icm(0.6, 3, lengthscale=0.3)
    fast = posterior.PosteriorState(kern, ETA)
    general = posterior.PosteriorState(kernels.SumSeparableKernel(kern.terms), ETA)
    for _ in range(25):
        x, y = rng.random(1), rng.normal(size=3)
        fast.update(x, y)
        general.update(x, y)
    queries = rng.random((200, 1))
    mean_err = max(
        float(np.linalg.norm(fast.mean(xq) - general.mean(xq))) for xq in queries
    )
    norm_err = max(
        abs(fast.cov_norm(xq) - general.cov_norm(xq)) for xq in queries
    )
    elapsed = time.monotonic() - start
    assert mean_err <= 1e-8 and norm_err <= 1e-8
    _report(4, "fast-path equivalence",
            f"mean err {mean_err:.2e}, norm err {norm_err:.2e} <= 1e-08",
            elapsed, 5.0)


def test_criterion_05_full_dictionary_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(13)
    kern = _gram_icm(3, n=3, lengthscale=0.3)
    exact = posterior.PosteriorState(kern, ETA)
    budgeted = nystrom.NystromState(kern, ETA, q=1e30, rng=np.random.default_rng(1))
    for _ in range(25):
        x, y = rng.random(1), rng.normal(size=3)
        exact.update(x, y)
        budgeted.update(x, y)
    assert budgeted.m == budgeted.t == 25  # every inclusion probability hit 1
    queries = rng.random((100, 1))
    mean_err = max(
        float(np.linalg.norm(budgeted.mean(xq) - exact.mean(xq))) for xq in queries
    )
    cov_err = max(
        float(np.linalg.norm(budgeted.cov(xq) - exact.cov(xq), "fro"))
        for xq in queries
    )
    elapsed = time.monotonic() - start
    assert mean_err <= 1e-6 and cov_err <= 1e-6
    _report(5, "full-dictionary exactness",
            f"mean err {mean_err:.2e}, cov err {cov_err:.2e} <= 1e-06",
            elapsed, 30.0)


def test_criterion_06_rho_sandwich():
    start = time.monotonic()
    horizon = 100
    passing = 0
    worst = 0.0
    for trial in range(10):
        kern = _gram_icm(trial)
        env, b = _rkhs_env(kern, trial)
        queries = env.grid[::10][:10]
        per_round = []

        def hook(t, model, queries=queries, out=per_round):
            out.append([model.cov(xq) for xq in queries])

        config = _config("MTBKB", horizon, b, kern.kappa, 60_000 + trial,
                         epsilon=EPSILON)
        result = bandit.run(config, env, kern, CHEB,
                            scalarize.InverseWeightedWeights(2), round_hook=hook)
        exact = posterior.PosteriorState(kern, ETA)
        seed_ok = True
        for t in range(horizon):
            exact.update(result.X[t], result.Y[t])
            for j, xq in enumerate(queries):
                cov = exact.cov(xq)
                tilde = per_round[t][j]
                lower = float(np.linalg.eigvalsh(tilde - cov / RHO).min())
                upper = float(np.linalg.eigvalsh(RHO * cov - tilde).min())
                worst = min(worst, lower, upper)
                if lower < -1e-6 or upper < -1e-6:
                    seed_ok = False
        passing += seed_ok
    elapsed = time.monotonic() - start
    assert passing >= 9
    _report(6, "rho sandwich",
            f"{passing}/10 seeds inside [cov/rho, rho*cov], worst eig {worst:.2e}",
            elapsed, 120.0)


def test_criterion_07_gain_eigen_split():
    start = time.monotonic()
    scalar = kernels.SquaredExponential(0.2)
    for omega in (0.6, 0.0):
        coupling = kernels.omega_coupling(omega, 3)
        kern = kernels.ICMKernel(scalar, coupling)
        env, b = _rkhs_env(kern, 1)
        config = _config("MTKB", 15, b, kern.kappa, 70_000 + int(10 * omega))
        result = bandit.run(config, env, kern, CHEB,
                            scalarize.InverseWeightedWeights(3))
        joint = theorybounds.realized_gain(result.logdet_sums[-1])
        split = theorybounds.icm_gain_split(result.X, scalar, coupling, ETA)
        assert abs(joint - float(split.sum())) <= 1e-6
        if omega == 0.0:
            assert int(np.count_nonzero(split)) == 1
            assert sorted(split)[:-1] == [0.0, 0.0]  # exactly zero, not tiny
    elapsed = time.monotonic() - start
    _report(7, "gain eigen-split",
            "joint gain = sum over eigendirections (1e-06); "
            "rank-one coupling leaves exact zeros", elapsed, 30.0)


def test_criterion_08_similarity_sweep():
    start = time.monotonic()
    horizon, trials = 200, 10
    weights = scalarize.InverseWeightedWeights(4)
    means = {}
    for omega in (0.0, 0.25, 0.5, 0.75, 1.0):
        finals = []
        for trial in range(trials):
            kern = _se_icm(omega, 4)
            env, b = benchmarks.make_rkhs_objective(
                kern, rng=np.random.default_rng(11_000 + trial), noise_sigma=SIGMA
            )
            config = _config("MTKB", horizon, b, kern.kappa, 21_000 + trial)
            result = bandit.run(config, env, kern, CHEB, weights)
            finals.append(
                float(benchmarks.cumulative_regret(result, env, CHEB)[-1]) / horizon
            )
        means[omega] = float(np.mean(finals))
    elapsed = time.monotonic() - start
    assert means[1.0] >= 1.5 * means[0.0]
    detail = ", ".join(f"w={w:.2f}: {v:.4f}" for w, v in means.items())
    _report(8, "similarity sweep",
            f"{detail}; ratio {means[1.0] / means[0.0]:.2f} >= 1.5",
            elapsed, 600.0)


def test_criterion_09_coupled_beats_independent(gram_benchmark_runs):
    rows, elapsed = gram_benchmark_runs
    horizon = rows[0][0].horizon
    coupled = float(np.mean([r[2] for r in rows])) / horizon
    independent = float(np.mean([r[3] for r in rows])) / horizon
    assert coupled <= independent
    _report(9, "coupled vs independent",
            f"mean time-avg regret {coupled:.4f} <= {independent:.4f}",
            elapsed, 600.0)


def test_criterion_10_budgeted_efficiency():
    start = time.monotonic()
    horizon = 300
    limit = 2.0 * RHO ** 1.5
    worst_ratio = 0.0
    m_ratio_100, m_ratio_300 = [], []
    for trial in range(10):
        kern = _gram_icm(trial)
        env, b = _rkhs_env(kern, trial)
        weights = scalarize.InverseWeightedWeights(2)
        exact = bandit.run(
            _config("MTKB", horizon, b, kern.kappa, 50_000 + trial),
            env, kern, CHEB, weights)
        budgeted = bandit.run(
            _config("MTBKB", horizon, b, kern.kappa, 50_000 + trial,
                    epsilon=EPSILON),
            env, kern, CHEB, weights)
        exact_final = float(benchmarks.cumulative_regret(exact, env, CHEB)[-1])
        budget_final = float(benchmarks.cumulative_regret(budgeted, env, CHEB)[-1])
        worst_ratio = max(worst_ratio, budget_final / exact_final)
        m_ratio_100.append(budgeted.m_sizes[99] / 100.0)
        m_ratio_300.append(budgeted.m_sizes[299] / 300.0)
    elapsed = time.monotonic() - start
    assert worst_ratio <= limit
    assert float(np.mean(m_ratio_300)) < float(np.mean(m_ratio_100))
    _report(10, "budgeted efficiency",
            f"worst regret ratio {worst_ratio:.2f} <= {limit:.2f}; "
            f"dictionary share {np.mean(m_ratio_100):.3f} -> "
            f"{np.mean(m_ratio_300):.3f}", elapsed, 900.0)


def test_criterion_11_regret_bound_dominates(gram_benchmark_runs):
    rows, _ = gram_benchmark_runs
    start = time.monotonic()
    margins = []
    for config, result, coupled_final, _ in rows:
        gain = theorybounds.realized_gain(result.logdet_sums[-1])
        bound = theorybounds.regret_bound_value(
            config, gain, result.variance_sum, config.horizon
        )
        assert bound >= coupled_final
        margins.append(bound / coupled_final)
    elapsed = time.monotonic() - start
    _report(11, "regret bound dominates",
            f"bound/regret margin {min(margins):.1f}x-{max(margins):.1f}x "
            "on all 10 runs", elapsed, 60.0)


def test_criterion_12_byte_determinism(tmp_path):
    start = time.monotonic()
    config = tmp_path / "exp.toml"
    config.write_text(
        "\n".join(
            [
                "[run]",
                "trials = 2",
                "horizon = 20",
                "master_seed = 7",
                'algorithms = ["MTKB", "MTBKB"]',
                "",
                "[objective]",
                'name = "rkhs"',
                "tasks = 2",
                "seed = 4",
                "",
                "[kernel]",
                'family = "squared_exponential"',
                "lengthscale = 0.2",
                'coupling = "gram"',
                "",
                "[scalarization]",
                'kind = "chebyshev"',
                'weights = "inverse"',
                "",
                "[bandit]",
                "eta = 0.1",
                "delta = 0.1",
                "epsilon = 0.5",
                "",
            ]
        ),
        encoding="utf-8",
    )
    for out in ("first", "second"):
        assert cli.main(["run", str(config), "--outdir", str(tmp_path / out)]) == 0
    traces = sorted(p.name for p in (tmp_path / "first").iterdir()
                    if p.name.startswith("trace_"))
    assert traces
    for name in traces:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"trace {name} differs between executions"
    elapsed = time.monotonic() - start
    _report(12, "byte determinism",
            f"{len(traces)} trace files byte-identical across executions",
            elapsed, 60.0)
