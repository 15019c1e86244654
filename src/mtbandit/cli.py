"""Command-line harness for multi-task bandit experiments.

Drives the library from a structured config file: build a synthetic
multi-objective environment, run each configured algorithm for a number
of independent trials, and persist per-trial trace CSVs, a merged
summary CSV, and a manifest with content hashes.  Further subcommands
plot summaries as self-contained SVG, dump Pareto fronts and fitted
posteriors, and run randomized validation suites for the core
matrix identities.

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

import numpy as np

from . import __version__, bandit, benchmarks, kernels, nystrom, posterior, theorybounds
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
    "cmd_validate",
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


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"[{name}] must be a section")
    return sec


_REQUIRED = object()


def _get(sec: dict, section: str, key: str, kind, default=_REQUIRED):
    """Typed lookup of ``section.key`` with a named-key diagnostic."""
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key: {section}.{key}")
        return default
    value = sec[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(
            f"{section}.{key} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _get_list(sec: dict, section: str, key: str, kind, default=None):
    if key not in sec:
        return default
    value = sec[key]
    if not isinstance(value, list):
        raise ConfigError(f"{section}.{key} must be a list")
    out = []
    for item in value:
        if kind is float and isinstance(item, (int, float)) and not isinstance(item, bool):
            out.append(float(item))
        elif isinstance(item, kind) and not (kind is not bool and isinstance(item, bool)):
            out.append(item)
        else:
            raise ConfigError(f"{section}.{key} entries must be {kind.__name__}")
    return out


@dataclass
class ExperimentConfig:
    """Validated experiment description, built from a parsed config mapping.

    Holds the raw per-section values; environments, kernels, and
    algorithm configs are constructed on demand by the build methods so
    that objective generation and per-algorithm inference kernels stay
    independent.
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
        run = _section(cfg, "run")
        trials = _get(run, "run", "trials", int, 1)
        horizon = _get(run, "run", "horizon", int)
        master_seed = _get(run, "run", "master_seed", int, 0)
        outdir = _get(run, "run", "outdir", str, "results")
        algorithms = _get_list(run, "run", "algorithms", str, ["MTKB"])
        checkpoints = _get_list(run, "run", "checkpoints", int, [])

        if trials < 1:
            raise ConfigError(f"run.trials must be >= 1, got {trials}")
        if horizon < 1:
            raise ConfigError(f"run.horizon must be >= 1, got {horizon}")
        if not algorithms:
            raise ConfigError("run.algorithms must name at least one algorithm")
        for label in algorithms:
            if label not in _ALGORITHM_LABELS:
                raise ConfigError(
                    f"run.algorithms entry {label!r} is not one of {_ALGORITHM_LABELS}"
                )
        if len(set(algorithms)) != len(algorithms):
            raise ConfigError("run.algorithms entries must be distinct")
        for c in checkpoints:
            if c < 1 or c > horizon:
                raise ConfigError(
                    f"run.checkpoints entry {c} outside [1, horizon={horizon}]"
                )

        exp = cls(
            trials=trials,
            horizon=horizon,
            master_seed=master_seed,
            outdir=outdir,
            algorithms=list(algorithms),
            checkpoints=[int(c) for c in checkpoints],
            objective=dict(_section(cfg, "objective")),
            kernel=dict(_section(cfg, "kernel")),
            scalarization=dict(_section(cfg, "scalarization")),
            bandit_params=dict(_section(cfg, "bandit")),
            raw=cfg,
        )
        exp._validate_sections()
        return exp

    # -- section validation ----------------------------------------------
    def _validate_sections(self):
        obj = self.objective
        name = _get(obj, "objective", "name", str)
        if name not in ("rkhs", "perturbed_sine", "shifted_branin"):
            raise ConfigError(f"objective.name {name!r} is not a known objective")
        if name == "rkhs":
            tasks = _get(obj, "objective", "tasks", int)
            if tasks < 1:
                raise ConfigError(f"objective.tasks must be >= 1, got {tasks}")
            variant = _get(self.kernel, "kernel", "variant", str, "icm")
            if variant != "icm":
                raise ConfigError(
                    "objective.name = 'rkhs' generates from a separable kernel; "
                    f"kernel.variant must be 'icm', got {variant!r}"
                )
        # Lower limits of numeric keys: (section, key, type, limit, limit allowed)
        limits = [
            ("kernel", "lengthscale", float, 0.0, False),
            ("objective", "noise_sigma", float, 0.0, True),
        ]
        if name == "rkhs":
            limits.append(("objective", "anchors", int, 0, True))
        if name == "shifted_branin":
            limits.append(("objective", "n_tasks", int, 1, True))
            limits.append(("objective", "grid_side", int, 1, True))
        else:
            limits.append(("objective", "grid_step", float, 0.0, False))
        for section, key, kind, low, closed in limits:
            value = _get(self.kernel if section == "kernel" else obj, section, key, kind, None)
            if value is not None and not (value >= low if closed else value > low):
                rule = ">=" if closed else ">"
                raise ConfigError(f"{section}.{key} must be {rule} {low}, got {value}")
        # Eagerly exercise kernel/scalarization construction so config
        # errors surface before any worker starts.
        n = self.n_tasks()
        self.build_inference_kernel("MTKB", n)
        self.build_scalarization(n)
        self.build_weight_dist(n)
        _get(self.bandit_params, "bandit", "eta", float)
        _get(self.bandit_params, "bandit", "delta", float)
        if "MTBKB" in self.algorithms:
            _get(self.bandit_params, "bandit", "epsilon", float)
        if name != "rkhs":
            _get(self.bandit_params, "bandit", "b", float)

    # -- derived quantities ------------------------------------------------
    def n_tasks(self) -> int:
        name = self.objective["name"]
        if name == "rkhs":
            return _get(self.objective, "objective", "tasks", int)
        if name == "perturbed_sine":
            weights = _get_list(self.objective, "objective", "weights", float)
            if weights is None:
                return benchmarks.PERTURBED_SINE_WEIGHTS.shape[0]
            if len(weights) % 3 != 0 or not weights:
                raise ConfigError(
                    "objective.weights must be a flat row-major list of 3-entry rows"
                )
            return len(weights) // 3
        return _get(self.objective, "objective", "n_tasks", int, 9)

    def build_scalar_kernel(self) -> kernels.ScalarKernel:
        family = _get(self.kernel, "kernel", "family", str, "squared_exponential")
        lengthscale = _get(self.kernel, "kernel", "lengthscale", float, 0.2)
        if family == "squared_exponential":
            return kernels.SquaredExponential(lengthscale)
        if family == "matern52":
            return kernels.Matern52(lengthscale)
        raise ConfigError(f"kernel.family {family!r} is not a known family")

    def build_coupling(self, n: int) -> np.ndarray:
        kind = _get(self.kernel, "kernel", "coupling", str, "omega")
        if kind == "omega":
            omega = _get(self.kernel, "kernel", "omega", float)
            if not 0.0 <= omega <= 1.0:
                raise ConfigError(f"kernel.omega must lie in [0, 1], got {omega}")
            return kernels.omega_coupling(omega, n)
        if kind == "gram":
            seed = _get(self.kernel, "kernel", "coupling_seed", int, 0)
            return kernels.gram_coupling(n, np.random.default_rng(seed))
        if kind == "inline":
            rows = _get_list(self.kernel, "kernel", "rows", float)
            if rows is None or len(rows) != n * n:
                raise ConfigError(
                    f"kernel.rows must list {n * n} row-major entries for n = {n}"
                )
            try:
                return kernels.validate_coupling(np.asarray(rows).reshape(n, n))
            except ValueError as exc:
                raise ConfigError(f"kernel.rows: {exc}") from None
        raise ConfigError(f"kernel.coupling {kind!r} is not a known constructor")

    def build_inference_kernel(self, label: str, n: int) -> kernels.MultiTaskKernel:
        """The kernel the algorithm regresses with.

        ITKB ignores inter-task structure by construction, so it always
        gets the diagonal (independent-task) variant of the configured
        scalar family; the other labels follow kernel.variant.
        """
        scalar = self.build_scalar_kernel()
        variant = _get(self.kernel, "kernel", "variant", str, "icm")
        if label == "ITKB" or variant == "diagonal":
            return kernels.DiagonalKernel([scalar] * n)
        if variant == "icm":
            return kernels.ICMKernel(scalar, self.build_coupling(n))
        raise ConfigError(f"kernel.variant {variant!r} is not a known variant")

    def build_environment(self):
        """Returns (environment, auto norm bound or None)."""
        obj = self.objective
        name = obj["name"]
        noise_sigma = _get(obj, "objective", "noise_sigma", float, 0.1)
        if name == "rkhs":
            n = self.n_tasks()
            gen_kernel = self.build_inference_kernel("MTKB", n)
            seed = _get(obj, "objective", "seed", int, 0)
            anchors = _get(obj, "objective", "anchors", int, 50)
            grid_step = _get(obj, "objective", "grid_step", float, 0.01)
            env, b = benchmarks.make_rkhs_objective(
                gen_kernel,
                n_anchors=anchors,
                rng=np.random.default_rng(seed),
                noise_sigma=noise_sigma,
                grid_step=grid_step,
            )
            return env, b
        if name == "perturbed_sine":
            weights = _get_list(obj, "objective", "weights", float)
            W = None if weights is None else np.asarray(weights).reshape(-1, 3)
            grid_step = _get(obj, "objective", "grid_step", float, 0.01)
            return benchmarks.make_perturbed_sine(W, noise_sigma, grid_step), None
        n_tasks = _get(obj, "objective", "n_tasks", int, 9)
        grid_side = _get(obj, "objective", "grid_side", int, 25)
        return benchmarks.make_shifted_branin(n_tasks, noise_sigma, grid_side), None

    def build_scalarization(self, n: int):
        kind = _get(self.scalarization, "scalarization", "kind", str, "chebyshev")
        if kind == "linear":
            return LinearScalarization()
        if kind == "chebyshev":
            reference = _get_list(self.scalarization, "scalarization", "reference", float)
            if reference is not None and len(reference) != n:
                raise ConfigError(
                    f"scalarization.reference must have {n} entries, got {len(reference)}"
                )
            return ChebyshevScalarization(reference)
        raise ConfigError(f"scalarization.kind {kind!r} is not a known scalarization")

    def build_weight_dist(self, n: int):
        kind = _get(self.scalarization, "scalarization", "weights", str, "inverse")
        if kind == "uniform":
            return UniformSimplexWeights(n)
        if kind == "inverse":
            return InverseWeightedWeights(n)
        raise ConfigError(f"scalarization.weights {kind!r} is not a known distribution")

    def build_algorithm_config(
        self, label: str, kernel: kernels.MultiTaskKernel, seed: int, b_auto
    ) -> bandit.AlgorithmConfig:
        sec = self.bandit_params
        b = _get(sec, "bandit", "b", float, b_auto)
        if b is None:
            raise ConfigError("missing required key: bandit.b")
        env_sigma = _get(self.objective, "objective", "noise_sigma", float, 0.1)
        try:
            return bandit.AlgorithmConfig(
                algorithm="MTBKB" if label == "MTBKB" else "MTKB",
                eta=_get(sec, "bandit", "eta", float),
                delta=_get(sec, "bandit", "delta", float),
                horizon=self.horizon,
                rkhs_bound=b,
                noise_sigma=_get(sec, "bandit", "sigma", float, env_sigma),
                kappa=_get(sec, "bandit", "kappa", float, kernel.kappa),
                lipschitz_bound=_get(sec, "bandit", "L", float, 1.0),
                seed=seed,
                epsilon=_get(sec, "bandit", "epsilon", float, None),
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


def _fmt_vector(v) -> str:
    return ";".join(repr(float(c)) for c in np.asarray(v, dtype=float).reshape(-1))


def _write_csv(path: str, header, rows):
    """UTF-8, LF-terminated CSV with a mandatory header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def write_trace(path: str, result: bandit.RunResult, inst_regret: np.ndarray):
    cum = np.cumsum(inst_regret)
    rows = []
    for t in range(result.horizon):
        rows.append(
            (
                t + 1,
                _fmt_vector(result.lambdas[t]),
                _fmt_vector(result.X[t]),
                _fmt_vector(result.Y[t]),
                _fmt_float(result.betas[t]),
                int(result.m_sizes[t]),
                _fmt_float(inst_regret[t]),
                _fmt_float(cum[t]),
                int(result.micros[t]),
            )
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
    """Execute one (algorithm, trial) cell and return its records."""
    n = env.n
    kern = exp.build_inference_kernel(label, n)
    seed = trial_seed(exp.master_seed, trial, label)
    config = exp.build_algorithm_config(label, kern, seed, b_auto)
    scal = exp.build_scalarization(n)
    wdist = exp.build_weight_dist(n)
    dict_rows = []

    def hook(t, model):
        if label == "MTBKB":
            idx = ";".join(str(i) for i in model.dictionary.indices)
            dict_rows.append((t, model.m, idx))

    result = bandit.run(
        config, env, kern, scal, wdist,
        round_hook=hook if label == "MTBKB" else None, timing=timing,
    )
    inst = benchmarks.instantaneous_regrets(result, env, scal)
    return result, inst, dict_rows, seed


def cmd_run(args) -> int:
    exp = load_config(args.config, args.set)
    if args.outdir is not None:
        exp.outdir = args.outdir
    os.makedirs(exp.outdir, exist_ok=True)
    started = time.monotonic()

    env, b_auto = exp.build_environment()

    # Per-trial runs and persistence ---------------------------------------
    filenames, seeds = [], {}
    by_label = {label: [] for label in exp.algorithms}
    for label in exp.algorithms:
        for trial in range(exp.trials):
            result, inst, dict_rows, seed = _run_one_trial(
                exp, env, b_auto, label, trial, args.timing
            )
            seeds.setdefault(label, []).append(seed)
            name = f"trace_{label}_trial{trial:03d}.csv"
            write_trace(os.path.join(exp.outdir, name), result, inst)
            filenames.append(name)
            if dict_rows:
                dname = f"dictionary_{label}_trial{trial:03d}.csv"
                _write_csv(
                    os.path.join(exp.outdir, dname),
                    ("t", "m_t", "indices"),
                    dict_rows,
                )
                filenames.append(dname)
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
        bounds = np.empty_like(gains)
        for i, (result, _) in enumerate(cells):
            for t in range(T):
                bounds[i, t] = theorybounds.regret_bound_value(
                    result.config, gains[i, t], varsums[i, t], t + 1
                )
        for t in range(T):
            rows.append(
                (
                    label,
                    t + 1,
                    _fmt_float(avg[:, t].mean()),
                    _fmt_float(avg[:, t].std()),
                    _fmt_float(gains[:, t].mean()),
                    _fmt_float(bounds[:, t].mean()),
                    _fmt_float(varsums[:, t].mean()),
                )
            )
    _write_csv(os.path.join(exp.outdir, "summary.csv"), _SUMMARY_HEADER, rows)
    filenames.append("summary.csv")

    # Bayes-regret checkpoints ----------------------------------------------
    if exp.checkpoints:
        n = env.n
        scal = exp.build_scalarization(n)
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
        _write_csv(
            os.path.join(exp.outdir, "bayes_regret.csv"),
            ("algorithm", "checkpoint", "bayes_regret"),
            brows,
        )
        filenames.append("bayes_regret.csv")

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
    rows = [
        (int(i), _fmt_vector(env.grid[i]), _fmt_vector(env.values[i])) for i in front
    ]
    _write_csv(args.out, ("index", "x", "f"), rows)
    print(f"wrote {len(rows)} Pareto-optimal points to {args.out}")
    return 0


def cmd_model_dump(args) -> int:
    """Fit the exact posterior over one trial and dump it on the grid."""
    exp = load_config(args.config, args.set)
    env, b_auto = exp.build_environment()
    n = env.n
    kern = exp.build_inference_kernel("MTKB", n)
    seed = trial_seed(exp.master_seed, 0, "MTKB")
    config = exp.build_algorithm_config("MTKB", kern, seed, b_auto)
    result = bandit.run(
        config, env, kern, exp.build_scalarization(n), exp.build_weight_dist(n)
    )
    model = posterior.PosteriorState(kern, config.eta)
    for x, y in zip(result.X, result.Y):
        model.update(x, y)
    means = model.mean_batch(env.grid)
    norms = model.cov_norm_batch(env.grid)
    rows = [
        (int(i), _fmt_vector(env.grid[i]), _fmt_vector(means[i]), _fmt_float(norms[i]))
        for i in range(env.grid.shape[0])
    ]
    _write_csv(args.out, ("index", "x", "mu", "cov_norm"), rows)
    print(f"wrote posterior over {len(rows)} grid points to {args.out}")
    return 0


# validate ====================================================================
@dataclass
class SuiteReport:
    name: str
    max_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.threshold


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
    single general system (ICM, diagonal); on a sum-separable kernel, which
    is one general system, grid-resident reads agree with off-grid ones.
    In exact-grid-interleaved the history alternates repeated grid rows
    with off-grid points, so the grid-resident state takes the covariance
    columns of its off-grid updates from the compressed history solve."""
    eta = 0.1
    rng = np.random.default_rng(123)
    se = kernels.SquaredExponential(0.3)
    icm = kernels.ICMKernel(se, kernels.gram_coupling(3, rng))
    cases = (
        ("icm-equivalence", icm, False),
        ("diagonal-equivalence", kernels.DiagonalKernel([se, se, kernels.Matern52(0.5)]), False),
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
        err = 0.0
        for state in (fast, on_grid):
            err = max(
                err,
                float(np.max(np.abs(state.mean_batch(queries) - mean))),
                float(np.max(np.abs(state.cov_norm_batch(queries) - norm))),
                abs(state.logdet_sum - general.logdet_sum),
            )
        reports.append(SuiteReport(name, err, 1e-8))
    return tuple(reports)


def _suite_full_dictionary():
    """Budgeted posterior with an all-points dictionary matches the exact one,
    with one scalar embedding (ICM), one per distinct scalar (diagonal), and
    on grid reads served from the arm arrays of a grid-resident state whose
    history repeats grid points and mixes in off-grid ones."""
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
        err = max(
            float(np.max(np.abs(exact.mean_batch(queries) - budget.mean_batch(queries)))),
            float(np.max(np.abs(exact.cov_norm_batch(queries) - budget.cov_norm_batch(queries)))),
        )
        reports.append(SuiteReport(name, err, 1e-6))
    return tuple(reports)


def cmd_validate(args) -> int:
    reports = []
    for suite in (
        _suite_schur_and_trace,
        _suite_variance_geometry,
        _suite_fast_path_equivalence,
        _suite_full_dictionary,
    ):
        reports.extend(suite())
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max error {r.max_error:.3e}  (tol {r.threshold:.0e})  {status}")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} suites passed")
    return 0 if not failed else 1


# entry point =================================================================
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtbandit", description="Multi-task kernelized bandit experiments."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute trials x algorithms from a config")
    p_run.add_argument("config", help="path to the experiment config file")
    p_run.add_argument("--outdir", default=None, help="override run.outdir")
    p_run.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override a config value (repeatable)")
    p_run.add_argument("--timing", action="store_true",
                       help="record per-round wall time (breaks byte reproducibility)")
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser("plot", help="render a summary CSV as SVG")
    p_plot.add_argument("summary", help="path to summary.csv")
    p_plot.add_argument("out", help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)

    p_val = sub.add_parser("validate", help="run the randomized identity suites")
    p_val.set_defaults(func=cmd_validate)

    p_par = sub.add_parser("pareto", help="dump an objective's Pareto front to CSV")
    p_par.add_argument("config", help="path to the experiment config file")
    p_par.add_argument("--out", default="pareto.csv", help="output CSV path")
    p_par.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL")
    p_par.set_defaults(func=cmd_pareto)

    p_dump = sub.add_parser(
        "model-dump", help="fit one exact-posterior trial and dump it over the grid"
    )
    p_dump.add_argument("config", help="path to the experiment config file")
    p_dump.add_argument("--out", default="model.csv", help="output CSV path")
    p_dump.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL")
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
