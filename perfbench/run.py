"""Benchmark of ``mtbandit run``: fixed experiments, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  The loop is closed with one client: one experiment at a time,
each repeat a fresh interpreter (perfbench/worker.py) that sets up, runs
``mtbandit run --timing`` in-process and reports.  Repeats continue while
the next one is expected to end within --seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced repeats and prints the per-layer metrics: self time, calls and
work amounts per module entry point, and the tracing overhead.

Every run also checks its outputs: each repeat exits 0, all repeats write
the same bytes (trace micros aside), regrets recompute from the traces,
the exact posteriors match a dense solve, and ``mtbandit validate``
passes.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1 when a check failed.
Files go to .perfbench_out/ under the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import outputs

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
# Whole invocation, builds aside, must end within this many seconds.
TIME_LIMIT_S = 170.0
VALIDATE_RESERVE_S = 20.0
MIN_REPEATS = 2

# Every workload runs on one thread: BLAS/OpenMP threads and the trial pool
# (MTBANDIT_THREADS) are pinned to 1.  With the default 2-worker pool on a
# 2-core host, the pool threads share the interpreter lock, and each time
# the host preempts the thread that holds it the other one stalls too.  The
# per-round p95 on harness-sweep then spread 0.64 across ten seeds, and the
# sweep ran slower (median 4.0 s) than on one worker (3.3 s).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MTBANDIT_THREADS": "1"}


def _experiment(horizon, trials, algorithms, objective, kernel, seed, **run):
    return {
        "run": {"trials": trials, "horizon": horizon, "master_seed": seed,
                "algorithms": algorithms, **run},
        "objective": objective,
        "kernel": {"family": "squared_exponential", "lengthscale": 0.2, **kernel},
        "scalarization": {"kind": "chebyshev", "weights": "inverse"},
        "bandit": {"eta": 0.1, "delta": 0.1, "epsilon": 0.5},
    }


def exact_rkhs_long(seed, smoke):
    # One long exact run: the O(t^2 N) grid rescans of `posterior` dominate.
    return _experiment(
        20 if smoke else 300, 1, ["MTKB"],
        {"name": "rkhs", "tasks": 4, "seed": seed},
        {"coupling": "gram", "coupling_seed": seed}, seed,
    )


def budgeted_branin(seed, smoke):
    # Budgeted solver on a wide 2-D grid: Nystrom resample, support rebuild
    # and rescoring plus kernels.pairwise; PosteriorState is never called.
    cfg = _experiment(
        10 if smoke else 120, 1, ["MTBKB"],
        {"name": "shifted_branin", "n_tasks": 9},
        {"coupling": "omega", "omega": 0.5}, seed,
    )
    cfg["bandit"]["b"] = 1.0
    return cfg


def harness_sweep(seed, smoke):
    # Many short runs through the trial loop, the diagonal path and the
    # regret, Bayes-regret and bound accounting, where per-call cost rules.
    horizon = 12 if smoke else 100
    return _experiment(
        horizon, 2 if smoke else 4, ["MTKB", "MTBKB", "ITKB"],
        {"name": "rkhs", "tasks": 4, "seed": seed},
        {"coupling": "gram", "coupling_seed": seed}, seed,
        checkpoints=[horizon // 4, horizon // 2, horizon],
    )


WORKLOADS = {
    "exact-rkhs-long": exact_rkhs_long,
    "budgeted-branin": budgeted_branin,
    "harness-sweep": harness_sweep,
}

END_TO_END = {
    "run_s": "s",
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Module entry points wrapped by spans.install, reported as .self_s and .calls.
SPANS = (
    "kernels.pairwise",
    "posterior.update", "posterior.mean_batch", "posterior.cov_norm_batch", "posterior.cov",
    "nystrom.update", "nystrom.resample_dictionary", "nystrom.mean_batch",
    "nystrom.cov_norm_batch", "nystrom.rescore", "nystrom.cov",
    "scalarize.value_batch", "scalarize.sample",
    "bandit.run",
    "benchmarks.instantaneous_regrets", "benchmarks.bayes_regret",
    "theorybounds.regret_bound_value",
    "cli.cmd_run", "cli.load_config", "cli.build_environment",
    "cli.write_trace", "cli.write_manifest",
)
PER_LAYER = {
    **{f"{s}.{k}": u for s in SPANS for k, u in (("self_s", "s"), ("calls", "count"))},
    "kernels.pairwise.entries": "count",
    "nystrom.dict_fraction": "ratio",
    "cli.bytes_written": "bytes",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
    # Mean R_C(T)/T over the cells: fixed for a seed, so it guards that a
    # speed-up left the algorithm alone.  It moves with the seed's objective
    # far beyond any end-to-end bound, hence it is reported here.
    "time_avg_regret": "regret",
}


def to_toml(cfg):
    lines = []
    for section, items in cfg.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {json.dumps(value)}" for key, value in items.items())
        lines.append("")
    return "\n".join(lines)


def git_commit(root):
    """HEAD of a git checkout at root, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(root):
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError):
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "thread_env": THREAD_ENV,
        "commit": git_commit(root),
    }


def worker_env(root):
    env = {**os.environ, **THREAD_ENV}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(cmd, env, timeout):
    """Run cmd to completion or kill it at timeout; (code, stdout, stderr)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err + f"\nkilled after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out, err


def run_repeat(config_path, outdir, traced, check, env, timeout):
    """One fresh-interpreter repeat; returns its report, with an error if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), config_path, outdir,
           "--trace", str(int(traced)), "--check", str(int(check))]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    code, out, err = run_process(cmd, env, timeout)
    wall = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {}
    report.update(traced=traced, wall_s=wall)
    if code != 0 or report.get("exit_code") != 0:
        report["error"] = f"worker exit {code}, run exit {report.get('exit_code')}: {err[-2000:]}"
    else:
        report["setup_s"] = report["ready_clock"] - spawned
    return report


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end_metrics(exp_cfg, reps):
    # Timings are medians over the untraced repeats, and the round latency
    # percentiles are taken over their rounds pooled.  Slow stretches of a
    # shared host often outlast a run and move any statistic of it; the
    # minimum also hangs on one rare fast repeat, and it spread more across
    # seeds than the median did.
    ok = [r for r in reps if "error" not in r and not r["traced"]]
    run_s = statistics.median(r["run_s"] for r in ok)
    cells = len(exp_cfg["run"]["algorithms"]) * exp_cfg["run"]["trials"]
    horizon = exp_cfg["run"]["horizon"]
    round_ms = [row["micros"] / 1000.0 for r in ok
                for _, rows in outputs.read_traces(r["outdir"]).values() for row in rows]
    values = {
        "run_s": run_s,
        "rounds_per_s": cells * horizon / run_s,
        "round_ms_p50": percentile(round_ms, 50),
        "round_ms_p95": percentile(round_ms, 95),
        "setup_s": statistics.median([r["setup_s"] for r in reps if "error" not in r]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in ok]),
    }
    samples = {"repeats": len(ok), "rounds": len(round_ms),
               "rounds_beyond_p95": sum(1 for ms in round_ms if ms > values["round_ms_p95"])}
    return values, samples


def time_avg_regret(outdir):
    """Mean over the run's cells of the final cumulative regret over T."""
    return statistics.fmean(
        rows[-1]["cum_regret"] / len(rows) for _, rows in outputs.read_traces(outdir).values()
    )


def per_layer_metrics(reps):
    # The layer figures come from the traced repeat with the median run time,
    # so its self times add up within its own run_s.
    ok = [r for r in reps if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = sorted((r for r in ok if r["traced"]), key=lambda r: r["run_s"])
    mid = traced[(len(traced) - 1) // 2]
    layers = mid["layers"]
    values = {}
    for span in SPANS:
        row = layers.get(span, {"self_s": 0.0, "calls": 0, "amount": []})
        values[f"{span}.self_s"] = row["self_s"]
        values[f"{span}.calls"] = row["calls"]
    values["kernels.pairwise.entries"] = sum(layers["kernels.pairwise"]["amount"])
    fractions = layers["bandit.run"]["amount"]
    values["nystrom.dict_fraction"] = statistics.fmean(fractions) if fractions else 0.0
    values["cli.bytes_written"] = mid["bytes_written"]
    values["trace.run_s"] = mid["run_s"]
    values["trace.overhead_frac"] = mid["run_s"] / statistics.median(r["run_s"] for r in plain) - 1
    values["time_avg_regret"] = time_avg_regret(plain[0]["outdir"])
    return values, {"traced_repeats": len(ok) - len(plain), "untraced_repeats": len(plain)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons: every workload end to end in seconds")
    args = parser.parse_args(argv)
    # Exit through `finally` on SIGTERM, so a running worker is killed too.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mtbandit", "cli.py")):
        print("perfbench: no src/mtbandit in the working directory; run from a checkout root",
              file=sys.stderr)
        return 2

    exp_cfg = WORKLOADS[args.workload](args.seed, args.smoke)
    base = os.path.join(root, OUT_DIR, args.workload, f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    config_path = os.path.join(base, "config.toml")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(to_toml(exp_cfg))
    env = worker_env(root)
    machine = machine_info(root)

    # Measurement loop ------------------------------------------------------
    deadline = started + args.seconds
    reps = []
    while True:
        k = len(reps)
        left = TIME_LIMIT_S - VALIDATE_RESERVE_S - (time.monotonic() - started)
        rep = run_repeat(config_path, os.path.join(base, f"rep{k}"),
                         traced=bool(args.trace and k % 2), check=k == 0, env=env, timeout=left)
        rep["outdir"] = os.path.join(base, f"rep{k}")
        reps.append(rep)
        now = time.monotonic()
        if "error" in rep or now - started > TIME_LIMIT_S - VALIDATE_RESERVE_S - rep["wall_s"]:
            break
        if len(reps) >= MIN_REPEATS and now + rep["wall_s"] > deadline:
            break

    # Checks ----------------------------------------------------------------
    checks = {}
    for k, rep in enumerate(reps):
        checks[f"run:rep{k}"] = rep.get("error")
    good = [r for r in reps if "error" not in r]
    if good:
        checks.update(good[0].get("checks", {"output-checks": "first repeat ran no checks"}))
        first = outputs.deterministic_content(good[0]["outdir"])
        for rep in good[1:]:
            same = outputs.deterministic_content(rep["outdir"]) == first
            checks[f"identical:{os.path.basename(rep['outdir'])}"] = (
                None if same else "outputs differ from rep0"
            )
    code, out, err = run_process(
        [sys.executable, "-c", "import sys; from mtbandit.cli import main; "
         "sys.exit(main(['validate']))"],
        env, TIME_LIMIT_S - (time.monotonic() - started),
    )
    checks["validate"] = None if code == 0 else f"mtbandit validate exit {code}: {out}{err}"
    failed = sum(1 for v in checks.values() if v is not None)

    # Metrics ---------------------------------------------------------------
    metrics, samples = {}, {}
    units = PER_LAYER if args.trace else END_TO_END
    if failed == 0:
        values, samples = (per_layer_metrics(reps) if args.trace
                           else end_to_end_metrics(exp_cfg, reps))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "machine": machine, "samples": samples, "checks": checks,
              "repeats": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
              "metrics": metrics}
    with open(os.path.join(base, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    for name, result in checks.items():
        print(f"check {name}: {'ok' if result is None else 'FAILED ' + result}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {failed}/{len(checks)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
