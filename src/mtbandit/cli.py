"""Command-line harness for multi-task bandit experiments.

Drives the library from a structured config file: build a synthetic
multi-objective environment, run each configured algorithm for a number
of independent trials, and persist per-trial trace CSVs, a merged
summary CSV, and a manifest with content hashes.  Further subcommands
plot summaries as self-contained SVG and dump Pareto fronts and fitted
posteriors; ``validate`` runs the self-checks of the validate module.

Config file layout (TOML, read with the standard-library ``tomllib``)::

    [run]
    trials = 10
    horizon = 200
    master_seed = 0
    outdir = "results"
    algorithms = ["MTKB", "MTBKB", "ITKB"]
    checkpoints = [50, 100, 200]      # optional Bayes-regret rounds

    [objective]
    name = "rkhs"                     # rkhs | perturbed_sine | shifted_branin
    tasks = 4                         # rkhs only
    seed = 0                          # rkhs generation seed
    noise_sigma = 0.1

    [kernel]
    family = "squared_exponential"    # or "matern52"
    lengthscale = 0.2
    variant = "icm"                   # icm | diagonal
    coupling = "omega"                # omega | gram | inline
    omega = 0.5

    [scalarization]
    kind = "chebyshev"                # chebyshev | linear
    weights = "inverse"               # inverse | uniform

    [bandit]
    eta = 0.1
    delta = 0.1
    epsilon = 0.5                     # required when MTBKB runs

``_SCHEMA`` is the one list of keys: each key's type, its default (or
that it is required) and its allowed values or bound.  A key it does not
list inside these five sections, whether from the file or from
``--set section.key=value``, is a config error that names
``section.key``; other sections are kept in ``raw`` and left unread.
Missing, mistyped, out-of-range and unknown keys, and floats that are NaN
or infinite, all fail at load, before ``run`` creates its output directory.

Determinism: (config, master seed) fully determines every CSV byte.
Per-trial seeds are derived by hashing (master seed, trial index,
algorithm label), so trials share no generator state.  Wall-clock
columns are zero unless ``run --timing`` is given.  Exit codes: 0 ok,
1 runtime failure (partial outputs are preserved), 2 usage or config
error.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
import tomllib
import traceback
from dataclasses import dataclass, field
from typing import get_args, get_origin

import numpy as np

from . import __version__, bandit, benchmarks, kernels, theorybounds, validate
from ._svg import render_line_plot
from .scalarize import (
    ChebyshevScalarization,
    InverseWeightedWeights,
    LinearScalarization,
    UniformSimplexWeights,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "cmd_run",
    "cmd_plot",
    "cmd_pareto",
    "cmd_model_dump",
    "main",
]

_ALGORITHM_LABELS = ("MTKB", "MTBKB", "ITKB")
_TRACE_HEADER = ("t", "lambda", "x", "y", "beta", "m_t", "inst_regret", "cum_regret", "micros")
_SUMMARY_HEADER = (
    "algorithm",
    "t",
    "mean_time_avg_regret",
    "std_time_avg_regret",
    "realized_gain",
    "bound_value",
    "variance_sum",
)


# Config loading ==============================================================
class ConfigError(ValueError):
    """Config syntax or schema problem; syntax errors carry the parser's position."""


_REQUIRED = object()
_SCALAR_FAMILIES = {
    "squared_exponential": kernels.SquaredExponential,
    "matern52": kernels.Matern52,
}
_WEIGHT_DISTS = {"inverse": InverseWeightedWeights, "uniform": UniformSimplexWeights}

# Every config key: section -> key -> (type, default or _REQUIRED, check).  A
# check is a tuple of allowed values or a bound ("> a", ">= a", "in (a, b]",
# ...), applied to each entry of a list.  A None default is a key that a
# cross-key rule in ExperimentConfig.from_mapping requires or derives.
_SCHEMA = {
    "run": {
        "trials": (int, 1, ">= 1"),
        "horizon": (int, _REQUIRED, ">= 1"),
        "master_seed": (int, 0, None),
        "outdir": (str, "results", None),
        "algorithms": (list[str], ["MTKB"], _ALGORITHM_LABELS),
        "checkpoints": (list[int], [], None),       # Bayes-regret rounds in [1, horizon]
    },
    "objective": {
        "name": (str, _REQUIRED, ("rkhs", "perturbed_sine", "shifted_branin")),
        "noise_sigma": (float, 0.1, ">= 0"),
        "tasks": (int, None, ">= 1"),               # rkhs, required there
        "seed": (int, 0, None),                     # rkhs
        "anchors": (int, 50, ">= 0"),               # rkhs
        "grid_step": (float, 0.01, "> 0"),          # rkhs, perturbed_sine
        "weights": (list[float], None, None),       # perturbed_sine, rows of 3
        "n_tasks": (int, 9, ">= 1"),                # shifted_branin
        "grid_side": (int, 25, ">= 1"),             # shifted_branin
    },
    "kernel": {
        "family": (str, "squared_exponential", tuple(_SCALAR_FAMILIES)),
        "lengthscale": (float, 0.2, "> 0"),
        "variant": (str, "icm", ("icm", "diagonal")),
        "coupling": (str, "omega", ("omega", "gram", "inline")),
        "omega": (float, None, "in [0, 1]"),        # omega coupling, required there
        "coupling_seed": (int, 0, None),            # gram coupling
        "rows": (list[float], None, None),          # inline coupling, n * n row-major
    },
    "scalarization": {
        "kind": (str, "chebyshev", ("chebyshev", "linear")),
        "weights": (str, "inverse", tuple(_WEIGHT_DISTS)),
        "reference": (list[float], None, None),     # chebyshev, n entries
    },
    "bandit": {
        "eta": (float, _REQUIRED, "> 0"),
        "delta": (float, _REQUIRED, "in (0, 1]"),
        "epsilon": (float, None, "in (0, 1)"),      # required when MTBKB runs
        "b": (float, None, ">= 0"),                 # None: the rkhs objective's norm
        "sigma": (float, None, ">= 0"),             # None: objective.noise_sigma
        "kappa": (float, None, "> 0"),              # None: the inference kernel's kappa
        "L": (float, 1.0, "> 0"),
    },
}


def _typed(name: str, value, kind):
    if get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list")
        return [_typed(f"{name} entry", v, get_args(kind)[0]) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{name} must be {kind.__name__}, got {type(value).__name__}")
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return float(value) if kind is float else value


def _within(value, bound: str) -> bool:
    op, _, limits = bound.partition(" ")
    if op == ">":
        return value > float(limits)
    if op == ">=":
        return value >= float(limits)
    lo, hi = (float(s) for s in limits[1:-1].split(","))
    return (lo < value if limits[0] == "(" else lo <= value) and (
        value < hi if limits[-1] == ")" else value <= hi
    )


def _resolve(cfg: dict) -> dict:
    """Every ``_SCHEMA`` key of a parsed config, typed, checked and defaulted."""
    resolved = {}
    for section, keys in _SCHEMA.items():
        given = cfg.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"[{section}] must be a section")
        unknown = [f"{section}.{key}" for key in given if key not in keys]
        if unknown:
            raise ConfigError(f"unknown config key: {', '.join(unknown)}")
        resolved[section] = values = {}
        for key, (kind, default, check) in keys.items():
            name, value = f"{section}.{key}", given.get(key, default)
            if value is _REQUIRED:
                raise ConfigError(f"missing required key: {name}")
            if value is not None:
                value = _typed(name, value, kind)
                for v in value if isinstance(value, list) else [value]:
                    if isinstance(check, tuple) and v not in check:
                        raise ConfigError(f"{name} {v!r} is not one of {check}")
                    if isinstance(check, str) and not _within(v, check):
                        raise ConfigError(f"{name} must be {check}, got {v}")
            values[key] = value
    return resolved


def _require(values: dict, section: str, key: str):
    if values[key] is None:
        raise ConfigError(f"missing required key: {section}.{key}")


@dataclass
class ExperimentConfig:
    """Validated experiment description, built from a parsed config mapping.

    ``objective``, ``kernel``, ``scalarization`` and ``bandit_params`` hold
    every ``_SCHEMA`` key of their section, typed and defaulted; ``raw`` is
    the parsed mapping.  Environments, kernels, and algorithm configs are
    constructed on demand by the build methods so that objective generation
    and per-algorithm inference kernels stay independent.
    """

    trials: int
    horizon: int
    master_seed: int
    outdir: str
    algorithms: list
    checkpoints: list
    objective: dict
    kernel: dict
    scalarization: dict
    bandit_params: dict
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_mapping(cls, cfg: dict) -> "ExperimentConfig":
        sections = _resolve(cfg)
        run, obj, kern = sections["run"], sections["objective"], sections["kernel"]
        scal, params = sections["scalarization"], sections["bandit"]
        exp = cls(**run, objective=obj, kernel=kern, scalarization=scal,
                  bandit_params=params, raw=cfg)

        # Cross-key rules ----------------------------------------------------
        if not exp.algorithms:
            raise ConfigError("run.algorithms must name at least one algorithm")
        if len(set(exp.algorithms)) != len(exp.algorithms):
            raise ConfigError("run.algorithms entries must be distinct")
        for c in exp.checkpoints:
            if not 1 <= c <= exp.horizon:
                raise ConfigError(f"run.checkpoints entry {c} outside [1, horizon={exp.horizon}]")
        if obj["name"] == "rkhs":
            _require(obj, "objective", "tasks")
            if kern["variant"] != "icm":
                raise ConfigError(
                    "objective.name = 'rkhs' generates from a separable kernel; "
                    f"kernel.variant must be 'icm', got {kern['variant']!r}"
                )
        else:
            _require(params, "bandit", "b")
        if "MTBKB" in exp.algorithms:
            _require(params, "bandit", "epsilon")
        if obj["weights"] is not None and (not obj["weights"] or len(obj["weights"]) % 3):
            raise ConfigError("objective.weights must be a flat row-major list of 3-entry rows")
        n = exp.n_tasks()
        if kern["variant"] == "icm" and kern["coupling"] == "omega":
            _require(kern, "kernel", "omega")
        elif kern["variant"] == "icm" and kern["coupling"] == "inline":
            if len(kern["rows"] or ()) != n * n:
                raise ConfigError(f"kernel.rows must list {n * n} row-major entries for n = {n}")
            exp.build_coupling(n)  # the rows must form a valid coupling
        if scal["reference"] is not None and len(scal["reference"]) != n:
            raise ConfigError(
                f"scalarization.reference must have {n} entries, got {len(scal['reference'])}"
            )
        return exp

    # -- derived quantities ------------------------------------------------
    def n_tasks(self) -> int:
        obj = self.objective
        if obj["name"] == "rkhs":
            return obj["tasks"]
        if obj["name"] == "perturbed_sine":
            if obj["weights"] is None:
                return benchmarks.PERTURBED_SINE_WEIGHTS.shape[0]
            return len(obj["weights"]) // 3
        return obj["n_tasks"]

    def build_scalar_kernel(self) -> kernels.ScalarKernel:
        return _SCALAR_FAMILIES[self.kernel["family"]](self.kernel["lengthscale"])

    def build_coupling(self, n: int) -> np.ndarray:
        kern = self.kernel
        if kern["coupling"] == "omega":
            return kernels.omega_coupling(kern["omega"], n)
        if kern["coupling"] == "gram":
            return kernels.gram_coupling(n, np.random.default_rng(kern["coupling_seed"]))
        try:
            return kernels.validate_coupling(np.asarray(kern["rows"]).reshape(n, n))
        except ValueError as exc:
            raise ConfigError(f"kernel.rows: {exc}") from None

    def build_inference_kernel(self, label: str, n: int) -> kernels.MultiTaskKernel:
        """The kernel the algorithm regresses with.

        ITKB ignores inter-task structure by construction, so it always
        gets the diagonal (independent-task) variant of the configured
        scalar family; the other labels follow kernel.variant.
        """
        scalar = self.build_scalar_kernel()
        if label == "ITKB" or self.kernel["variant"] == "diagonal":
            return kernels.DiagonalKernel([scalar] * n)
        return kernels.ICMKernel(scalar, self.build_coupling(n))

    def build_environment(self):
        """Returns (environment, auto norm bound or None)."""
        obj = self.objective
        if obj["name"] == "rkhs":
            return benchmarks.make_rkhs_objective(
                self.build_inference_kernel("MTKB", obj["tasks"]),
                n_anchors=obj["anchors"],
                rng=np.random.default_rng(obj["seed"]),
                noise_sigma=obj["noise_sigma"],
                grid_step=obj["grid_step"],
            )
        if obj["name"] == "perturbed_sine":
            W = None if obj["weights"] is None else np.asarray(obj["weights"]).reshape(-1, 3)
            return benchmarks.make_perturbed_sine(W, obj["noise_sigma"], obj["grid_step"]), None
        env = benchmarks.make_shifted_branin(obj["n_tasks"], obj["noise_sigma"], obj["grid_side"])
        return env, None

    def build_scalarization(self):
        if self.scalarization["kind"] == "linear":
            return LinearScalarization()
        return ChebyshevScalarization(self.scalarization["reference"])

    def build_weight_dist(self, n: int):
        return _WEIGHT_DISTS[self.scalarization["weights"]](n)

    def build_algorithm_config(
        self, label: str, kernel: kernels.MultiTaskKernel, seed: int, b_auto
    ) -> bandit.AlgorithmConfig:
        p = self.bandit_params
        try:
            return bandit.AlgorithmConfig(
                algorithm="MTBKB" if label == "MTBKB" else "MTKB",
                eta=p["eta"],
                delta=p["delta"],
                horizon=self.horizon,
                rkhs_bound=b_auto if p["b"] is None else p["b"],
                noise_sigma=self.objective["noise_sigma"] if p["sigma"] is None else p["sigma"],
                kappa=kernel.kappa if p["kappa"] is None else p["kappa"],
                lipschitz_bound=p["L"],
                seed=seed,
                epsilon=p["epsilon"],
            )
        except ValueError as exc:
            raise ConfigError(f"[bandit] {exc}") from None


def trial_seed(master_seed: int, trial: int, label: str) -> int:
    """Decorrelated per-trial seed from (master seed, trial, algorithm)."""
    digest = hashlib.sha256(f"{master_seed}|{trial}|{label}".encode()).hexdigest()
    return int(digest[:16], 16)


def apply_overrides(cfg: dict, sets: list) -> dict:
    """Apply ``--set section.key=value`` overrides onto a parsed config."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        dotted, _, raw_value = item.partition("=")
        dotted = dotted.strip()
        parts = dotted.split(".")
        if len(parts) < 2 or not all(parts):
            raise ConfigError(f"--set key must be section.key, got {dotted!r}")
        try:
            value = tomllib.loads(f"x = {raw_value.strip()}")["x"]
        except tomllib.TOMLDecodeError:
            value = raw_value.strip()
        node = cfg
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {dotted!r} crosses a non-section key")
        node[parts[-1]] = value
    return cfg


def load_config(path: str, sets: list | None = None) -> ExperimentConfig:
    try:
        with open(path, "rb") as fh:
            cfg = tomllib.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from None
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from None
    return ExperimentConfig.from_mapping(apply_overrides(cfg, sets or []))


# CSV and manifest writers ====================================================
def _fmt_float(v) -> str:
    return repr(float(v))


def _fmt_rows(M) -> list:
    """Each row of M as ';'-joined reprs, formatted from Python floats
    (``tolist``); a float and the numpy scalar of the same value print the
    same ``repr``."""
    return [";".join(map(repr, row)) for row in np.asarray(M, dtype=float).tolist()]


def _write_csv(path: str, header, rows):
    """UTF-8, LF-terminated CSV with a mandatory header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def write_trace(path: str, result: bandit.RunResult, inst_regret: np.ndarray):
    """One row per round, formatted from Python floats (``tolist``)."""
    inst = np.asarray(inst_regret, dtype=float)
    rows = zip(
        range(1, result.horizon + 1),
        _fmt_rows(result.lambdas),
        _fmt_rows(result.X),
        _fmt_rows(result.Y),
        map(repr, result.betas.tolist()),
        result.m_sizes.tolist(),
        map(repr, inst.tolist()),
        map(repr, np.cumsum(inst).tolist()),
        result.micros.tolist(),
    )
    _write_csv(path, _TRACE_HEADER, rows)


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(outdir: str, exp: ExperimentConfig, seeds: dict, filenames: list,
                   wall_seconds: float):
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(exp.raw, sort_keys=True).encode()
        ).hexdigest(),
        "package_version": __version__,
        "master_seed": exp.master_seed,
        "algorithms": exp.algorithms,
        "trials": exp.trials,
        "horizon": exp.horizon,
        "seeds": seeds,
        "wall_seconds": wall_seconds,
        "files": {
            name: _sha256_file(os.path.join(outdir, name)) for name in sorted(filenames)
        },
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# run =========================================================================
def _run_one_trial(exp, env, b_auto, label, trial, timing):
    """Execute one (algorithm, trial) cell.

    Returns (result, instantaneous regrets, dictionaries, seed, model):
    the dictionaries are MTBKB's (t, arms) per round, with arms the round's
    dictionary array (every update makes a new one), empty for the other
    labels, and model is the run's posterior after its last round.
    """
    n = env.n
    kern = exp.build_inference_kernel(label, n)
    seed = trial_seed(exp.master_seed, trial, label)
    config = exp.build_algorithm_config(label, kern, seed, b_auto)
    scal = exp.build_scalarization()
    dicts, models = [], []

    def hook(t, model):
        if label == "MTBKB":
            dicts.append((t, model.dictionary))
        models[:] = [model]

    result = bandit.run(
        config, env, kern, scal, exp.build_weight_dist(n), round_hook=hook, timing=timing,
    )
    inst = benchmarks.instantaneous_regrets(result, env, scal)
    return result, inst, dicts, seed, models[0]


def cmd_run(args) -> int:
    exp = load_config(args.config, args.set)
    if args.outdir is not None:
        exp.outdir = args.outdir
    os.makedirs(exp.outdir, exist_ok=True)
    started = time.monotonic()

    env, b_auto = exp.build_environment()

    # Per-trial runs and persistence ---------------------------------------
    filenames, seeds = [], {}

    def save(name, header, rows):
        _write_csv(os.path.join(exp.outdir, name), header, rows)
        filenames.append(name)

    by_label = {label: [] for label in exp.algorithms}
    for label in exp.algorithms:
        for trial in range(exp.trials):
            result, inst, dicts, seed, _ = _run_one_trial(
                exp, env, b_auto, label, trial, args.timing
            )
            seeds.setdefault(label, []).append(seed)
            name = f"trace_{label}_trial{trial:03d}.csv"
            write_trace(os.path.join(exp.outdir, name), result, inst)
            filenames.append(name)
            if dicts:
                save(f"dictionary_{label}_trial{trial:03d}.csv", ("t", "m_t", "arms"),
                     [(t, arms.size, ";".join(map(str, arms.tolist()))) for t, arms in dicts])
            by_label[label].append((result, inst))

    # Merged summary -------------------------------------------------------
    T = exp.horizon
    t_axis = np.arange(1, T + 1)
    rows = []
    for label in exp.algorithms:
        cells = by_label[label]
        cum = np.vstack([np.cumsum(inst) for _, inst in cells])       # (trials, T)
        avg = cum / t_axis
        gains = np.vstack([0.5 * r.logdet_sums for r, _ in cells])
        varsums = np.vstack([np.cumsum(r.variance_norms) for r, _ in cells])
        bounds = np.vstack([
            theorybounds.regret_bound_value(r.config, gain, varsum, t_axis)
            for (r, _), gain, varsum in zip(cells, gains, varsums)
        ])
        # One reduce per column over the contiguous (T, trials) transpose,
        # along its last axis: bitwise each round's column reduced alone (an
        # axis-0 reduce sums in another order from 8 trials on).
        avg_t = np.ascontiguousarray(avg.T)
        stats = [avg_t.mean(axis=1), avg_t.std(axis=1)] + [
            np.ascontiguousarray(M.T).mean(axis=1) for M in (gains, bounds, varsums)
        ]
        rows.extend(
            (label, t, *map(_fmt_float, vals))
            for t, *vals in zip(t_axis.tolist(), *(s.tolist() for s in stats))
        )
    save("summary.csv", _SUMMARY_HEADER, rows)

    # Bayes-regret checkpoints ----------------------------------------------
    if exp.checkpoints:
        n = env.n
        scal = exp.build_scalarization()
        wdist = exp.build_weight_dist(n)
        brows = []
        for label in exp.algorithms:
            per_trial = []
            for trial, (result, _) in enumerate(by_label[label]):
                rng = np.random.default_rng(trial_seed(exp.master_seed, trial, label + "|bayes"))
                per_trial.append(
                    benchmarks.bayes_regret(result, env, scal, wdist, exp.checkpoints, rng=rng)
                )
            means = np.vstack(per_trial).mean(axis=0)
            for c, v in zip(exp.checkpoints, means):
                brows.append((label, c, _fmt_float(v)))
        save("bayes_regret.csv", ("algorithm", "checkpoint", "bayes_regret"), brows)

    write_manifest(exp.outdir, exp, seeds, filenames, time.monotonic() - started)
    print(f"wrote {len(filenames) + 1} files to {exp.outdir}")
    return 0


# plot ========================================================================
def cmd_plot(args) -> int:
    try:
        with open(args.summary, encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            fields = reader.fieldnames or []
    except OSError as exc:
        raise ConfigError(f"cannot read summary {args.summary!r}: {exc.strerror}") from None
    needed = ("algorithm", "t", "mean_time_avg_regret", "std_time_avg_regret")
    missing = [c for c in needed if c not in fields]
    if missing:
        raise ConfigError(f"summary CSV lacks columns: {', '.join(missing)}")
    if not rows:
        raise ConfigError("summary CSV has a header but no data rows")

    groups: dict[str, list] = {}
    try:
        for row in rows:
            groups.setdefault(row["algorithm"], []).append(
                (
                    int(row["t"]),
                    float(row["mean_time_avg_regret"]),
                    float(row["std_time_avg_regret"]),
                )
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"summary CSV has malformed values: {exc}") from None

    series = []
    for label in sorted(groups):
        pts = sorted(groups[label])
        t = np.array([p[0] for p in pts], dtype=float)
        mean = np.array([p[1] for p in pts])
        std = np.array([p[2] for p in pts])
        series.append((label, t, mean, std))
    svg = render_line_plot(
        series,
        title="Time-average cumulative regret",
        xlabel="round t",
        ylabel="R_C(t) / t",
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


# pareto and model dump =======================================================
def cmd_pareto(args) -> int:
    exp = load_config(args.config, args.set)
    env, _ = exp.build_environment()
    front = benchmarks.pareto_front(env)
    rows = list(zip(front.tolist(), _fmt_rows(env.grid[front]), _fmt_rows(env.values[front])))
    _write_csv(args.out, ("index", "x", "f"), rows)
    print(f"wrote {len(rows)} Pareto-optimal points to {args.out}")
    return 0


def cmd_model_dump(args) -> int:
    """Fit the exact posterior over one trial and dump it on the grid."""
    exp = load_config(args.config, args.set)
    env, b_auto = exp.build_environment()
    model = _run_one_trial(exp, env, b_auto, "MTKB", 0, False)[-1]  # the run's own posterior
    rows = list(zip(
        range(env.grid.shape[0]),
        _fmt_rows(env.grid),
        _fmt_rows(model.mean_batch(env.grid)),
        map(repr, model.cov_norm_batch(env.grid).tolist()),
    ))
    _write_csv(args.out, ("index", "x", "mu", "cov_norm"), rows)
    print(f"wrote posterior over {len(rows)} grid points to {args.out}")
    return 0


# entry point =================================================================
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtbandit", description="Multi-task kernelized bandit experiments."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # The config arguments of every subcommand that reads a config.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("config", help="path to the experiment config file")
    config.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override a config value (repeatable)")

    p_run = sub.add_parser("run", parents=[config],
                           help="execute trials x algorithms from a config")
    p_run.add_argument("--outdir", default=None, help="override run.outdir")
    p_run.add_argument("--timing", action="store_true",
                       help="record per-round wall time (breaks byte reproducibility)")
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser("plot", help="render a summary CSV as SVG")
    p_plot.add_argument("summary", help="path to summary.csv")
    p_plot.add_argument("out", help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)

    p_val = sub.add_parser("validate", help="run the randomized identity suites")
    p_val.set_defaults(func=lambda args: validate.main())

    p_par = sub.add_parser("pareto", parents=[config],
                           help="dump an objective's Pareto front to CSV")
    p_par.add_argument("--out", default="pareto.csv", help="output CSV path")
    p_par.set_defaults(func=cmd_pareto)

    p_dump = sub.add_parser("model-dump", parents=[config],
                            help="fit one exact-posterior trial and dump it over the grid")
    p_dump.add_argument("--out", default="model.csv", help="output CSV path")
    p_dump.set_defaults(func=cmd_model_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
