"""One repeat of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py CONFIG OUTDIR --trace 0|1 --check 0|1

Imports mtbandit (from PYTHONPATH), parses the config and builds the
environment and the inference kernels, then runs ``mtbandit run CONFIG
--outdir OUTDIR --timing`` in-process.  With --trace 1 the module entry
points are wrapped before the run (see spans.py); with --check 1 the
outputs are checked afterwards.  The last stdout line is one JSON object:

    ready_clock   CLOCK_MONOTONIC reading when set-up finished
    exit_code     return value of the run command
    run_s         wall time of the run command
    peak_rss_mb   peak resident memory of this process after the run
    bytes_written total size of the files in OUTDIR
    layers        per-entry-point span summary (--trace 1 only)
    checks        {name: error message or null} (--check 1 only)
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy as np
import scipy.linalg as la
from mtbandit import cli, kernels, posterior

import outputs
import spans

# Absolute tolerance of the dense-oracle comparisons in tests/test_posterior.py.
DENSE_ATOL = 1e-9
# The recomputed regrets repeat the program's float operations; the
# tolerance only allows for another summation order.
REGRET_ATOL = 1e-9


def dense_posterior(kernel, X, Y, eta, grid):
    """Mean (N, n) and covariance norms (N,) on the grid by one dense solve."""
    N, n = grid.shape[0], kernel.n
    G = kernels.block_kernel_matrix(kernel, X)
    C = kernels.cross_block(kernel, X, grid)  # (n t, n N)
    factor = la.cho_factor(G + eta * np.eye(G.shape[0]), lower=True)
    mean = (C.T @ la.cho_solve(factor, Y.reshape(-1))).reshape(N, n)
    W = la.solve_triangular(factor[0], C, lower=True).reshape(-1, N, n)
    explained = np.einsum("kja,kjb->jab", W, W)
    norms = np.empty(N)
    for j in range(N):
        cov = kernel.diag_block(grid[j]) - explained[j]
        norms[j] = la.eigvalsh(0.5 * (cov + cov.T))[-1]
    return mean, np.clip(norms, 0.0, kernel.kappa)


def check_dense(exp, env, cell):
    """Refit the exact posterior of one cell from its trace; compare on the grid."""
    label, rows = cell
    X = np.array([r["x"] for r in rows])
    Y = np.array([r["y"] for r in rows])
    kern = exp.build_inference_kernel(label, env.n)
    eta = float(exp.bandit_params["eta"])
    state = posterior.PosteriorState(kern, eta)
    for x, y in zip(X, Y):
        state.update(x, y)
    mean, norms = dense_posterior(kern, X, Y, eta, env.grid)
    err = max(
        float(np.max(np.abs(state.mean_batch(env.grid) - mean))),
        float(np.max(np.abs(state.cov_norm_batch(env.grid) - norms))),
    )
    if not err <= DENSE_ATOL:
        return f"{label}: posterior differs from the dense solve by {err:.3e}"
    return None


def check_regret(env, traces, summary, horizon):
    """Recompute every trace's regret and the summary's final time average.

    The workloads scalarize with Chebyshev at the zero reference, so
    s_lambda(y) = min_i lambda_i y_i.
    """
    index = {tuple(x): i for i, x in enumerate(env.grid)}
    finals = {}
    for name, (label, rows) in traces.items():
        cum = 0.0
        for t, r in enumerate(rows, start=1):
            scores = np.min(env.values * r["lambda"], axis=1)
            gap = float(np.max(scores) - scores[index[tuple(r["x"])]])
            cum += gap
            off = max(abs(gap - r["inst_regret"]), abs(cum - r["cum_regret"]))
            if off > REGRET_ATOL:
                return f"{name} round {t}: regret {r['inst_regret']!r}, recomputed {gap!r}"
            m_ok = 1 <= r["m_t"] <= t if label == "MTBKB" else r["m_t"] == 0
            if not m_ok:
                return f"{name} round {t}: dictionary size {r['m_t']} out of range"
        if len(rows) != horizon:
            return f"{name}: {len(rows)} rounds, expected {horizon}"
        finals.setdefault(label, []).append(cum / horizon)
    for label, values in finals.items():
        want = float(np.mean(values))
        got = summary[(label, horizon)]
        if abs(got - want) > REGRET_ATOL:
            return f"summary {label}: time-average regret {got!r}, traces give {want!r}"
    return None


def run_checks(exp, env, outdir):
    traces = outputs.read_traces(outdir)
    summary = outputs.read_summary(outdir)
    checks = {"regret": check_regret(env, traces, summary, exp.horizon)}
    for label in ("MTKB", "ITKB"):
        if label in exp.algorithms:
            checks[f"dense:{label}"] = check_dense(
                exp, env, traces[f"trace_{label}_trial000.csv"]
            )
    return checks


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("outdir")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exp = cli.load_config(args.config)
    env, _ = exp.build_environment()
    for label in exp.algorithms:
        exp.build_inference_kernel(label, env.n)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    recorder = spans.install(spans.SpanRecorder()) if args.trace else None
    quiet = io.StringIO()
    tic = time.perf_counter()
    with contextlib.redirect_stdout(quiet):
        code = cli.main(["run", args.config, "--outdir", args.outdir, "--timing"])
    run_s = time.perf_counter() - tic
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "ready_clock": ready,
        "exit_code": code,
        "run_s": run_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "bytes_written": sum(
            os.path.getsize(os.path.join(args.outdir, f)) for f in os.listdir(args.outdir)
        ),
    }
    if recorder is not None:
        report["layers"] = recorder.summary()
    if args.check and code == 0:
        report["checks"] = run_checks(exp, env, args.outdir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
