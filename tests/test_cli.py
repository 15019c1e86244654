"""Command-line harness tests.

Covers the config text format (TOML with line diagnostics), schema
validation with named-key errors, per-trial seed derivation, the run
command's CSV contract and byte determinism, SVG plotting against a golden file, the Pareto and model-dump
exports, the validation suites including a mutation check, and the
``python -m`` entry points.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import dense_posterior_cov, dense_posterior_mean
from mtbandit import benchmarks, cli, nystrom, posterior, validate

DATA = os.path.join(os.path.dirname(__file__), "data")

MINIMAL_CONFIG = """\
[run]
trials = 1
horizon = 5
master_seed = 3
algorithms = ["MTKB"]

[objective]
name = "rkhs"
tasks = 2
seed = 1

[kernel]
family = "squared_exponential"
lengthscale = 0.2
coupling = "omega"
omega = 0.5

[scalarization]
kind = "chebyshev"
weights = "inverse"

[bandit]
eta = 0.1
delta = 0.1
"""


def _write_config(tmp_path, text=MINIMAL_CONFIG, name="exp.toml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigText:
    """The config is TOML; syntax errors surface as ConfigError and exit 2."""

    def _rejects(self, tmp_path, text, match):
        cfg = _write_config(tmp_path, text)
        with pytest.raises(cli.ConfigError, match=match):
            cli.load_config(cfg)
        assert cli.main(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2

    def test_comments_and_nested_sections(self, tmp_path):
        text = MINIMAL_CONFIG + """
        # leading comment
        [a.b]
        x = 1  # trailing comment
        s = "has # no comment"
        """
        exp = cli.load_config(_write_config(tmp_path, text))
        assert exp.raw["a"] == {"b": {"x": 1, "s": "has # no comment"}}

    def test_typed_scalars(self, tmp_path):
        text = MINIMAL_CONFIG + '[t]\ni = -3\nf = 2.5\ng = 1e-3\nb = false\ns = "x"\n'
        text += "l = [1, 2.0]\n"
        cfg = cli.load_config(_write_config(tmp_path, text)).raw["t"]
        assert cfg["i"] == -3 and isinstance(cfg["i"], int)
        assert cfg["f"] == 2.5 and cfg["g"] == 1e-3
        assert cfg["b"] is False and cfg["s"] == "x"
        assert cfg["l"] == [1, 2.0]

    def test_syntax_error_carries_line_number(self, tmp_path):
        self._rejects(tmp_path, "a = 1\nb = 2\nc =\n", "line 3")

    def test_duplicate_key_rejected(self, tmp_path):
        self._rejects(tmp_path, "a = 1\na = 2\n", "overwrite")

    def test_unterminated_list(self, tmp_path):
        self._rejects(tmp_path, "a = [1, 2\n", "array")

    def test_bad_value(self, tmp_path):
        self._rejects(tmp_path, "a = nonsense\n", "Invalid value")


class TestOverrides:
    def test_set_typed_and_bare_values(self):
        cfg = {"run": {"horizon": 5}}
        cli.apply_overrides(
            cfg, ["run.horizon=9", "kernel.family=matern52", "bandit.eta=0.2"]
        )
        assert cfg["run"]["horizon"] == 9
        assert cfg["kernel"]["family"] == "matern52"
        assert cfg["bandit"]["eta"] == 0.2

    def test_set_requires_dotted_key(self):
        with pytest.raises(cli.ConfigError, match="section.key"):
            cli.apply_overrides({}, ["horizon=9"])
        with pytest.raises(cli.ConfigError, match="--set"):
            cli.apply_overrides({}, ["run.horizon"])


class TestExperimentConfig:
    def test_missing_required_key_is_named(self, tmp_path):
        text = MINIMAL_CONFIG.replace("eta = 0.1\n", "")
        with pytest.raises(cli.ConfigError, match="bandit.eta"):
            cli.load_config(_write_config(tmp_path, text))

    def test_missing_horizon_is_named(self, tmp_path):
        text = MINIMAL_CONFIG.replace("horizon = 5\n", "")
        with pytest.raises(cli.ConfigError, match="run.horizon"):
            cli.load_config(_write_config(tmp_path, text))

    def test_unknown_algorithm_rejected(self, tmp_path):
        text = MINIMAL_CONFIG.replace('["MTKB"]', '["GPUCB"]')
        with pytest.raises(cli.ConfigError, match="GPUCB"):
            cli.load_config(_write_config(tmp_path, text))

    def test_mtbkb_requires_epsilon(self, tmp_path):
        text = MINIMAL_CONFIG.replace('["MTKB"]', '["MTBKB"]')
        with pytest.raises(cli.ConfigError, match="bandit.epsilon"):
            cli.load_config(_write_config(tmp_path, text))

    def test_non_rkhs_objective_requires_b(self, tmp_path):
        text = MINIMAL_CONFIG.replace('name = "rkhs"', 'name = "perturbed_sine"')
        with pytest.raises(cli.ConfigError, match="bandit.b"):
            cli.load_config(_write_config(tmp_path, text))

    def test_checkpoint_out_of_range(self, tmp_path):
        text = MINIMAL_CONFIG.replace(
            'algorithms = ["MTKB"]', 'algorithms = ["MTKB"]\ncheckpoints = [99]'
        )
        with pytest.raises(cli.ConfigError, match="checkpoints"):
            cli.load_config(_write_config(tmp_path, text))

    def test_unknown_key_is_named(self, tmp_path):
        text = MINIMAL_CONFIG.replace("lengthscale = 0.2", "lenghtscale = 0.9")
        with pytest.raises(cli.ConfigError, match="kernel.lenghtscale"):
            cli.load_config(_write_config(tmp_path, text))

    def test_itkb_gets_diagonal_kernel(self, tmp_path):
        exp = cli.load_config(_write_config(tmp_path))
        from mtbandit import kernels

        assert isinstance(exp.build_inference_kernel("ITKB", 2), kernels.DiagonalKernel)
        assert isinstance(exp.build_inference_kernel("MTKB", 2), kernels.ICMKernel)


class TestTrialSeeds:
    def test_deterministic_and_decorrelated(self):
        a = cli.trial_seed(0, 0, "MTKB")
        assert a == cli.trial_seed(0, 0, "MTKB")
        others = {
            cli.trial_seed(0, 1, "MTKB"),
            cli.trial_seed(1, 0, "MTKB"),
            cli.trial_seed(0, 0, "MTBKB"),
        }
        assert a not in others and len(others) == 3


class TestRunCommand:
    def test_minimal_run_trace_contract(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", cfg, "--outdir", out]) == 0
        trace = (tmp_path / "out" / "trace_MTKB_trial000.csv").read_text()
        lines = trace.splitlines()
        assert lines[0] == "t,lambda,x,y,beta,m_t,inst_regret,cum_regret,micros"
        assert len(lines) == 6  # header + exactly 5 data rows
        assert trace.endswith("\n") and "\r" not in trace
        # the wall-time column stays zero without --timing
        assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(summary) == 6
        assert summary[0].startswith("algorithm,t,mean_time_avg_regret")

    def test_byte_identical_across_runs(self, tmp_path):
        text = MINIMAL_CONFIG.replace(
            'algorithms = ["MTKB"]', 'algorithms = ["MTKB", "MTBKB", "ITKB"]'
        ).replace("trials = 1", "trials = 2").replace(
            "delta = 0.1", "delta = 0.1\nepsilon = 0.5"
        )
        cfg = _write_config(tmp_path, text)
        assert cli.main(["run", cfg, "--outdir", str(tmp_path / "a")]) == 0
        assert cli.main(["run", cfg, "--outdir", str(tmp_path / "b")]) == 0
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            if name.endswith(".csv"):
                assert (tmp_path / "a" / name).read_bytes() == (
                    tmp_path / "b" / name
                ).read_bytes(), name

    def test_manifest_lists_every_output_with_hash(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        produced = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["files"]) == produced
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert manifest["seeds"]["MTKB"] == [cli.trial_seed(3, 0, "MTKB")]
        assert manifest["package_version"]

    def test_missing_key_exits_2_naming_key(self, tmp_path, capsys):
        text = MINIMAL_CONFIG.replace("eta = 0.1\n", "")
        cfg = _write_config(tmp_path, text)
        assert cli.main(["run", cfg]) == 2
        assert "bandit.eta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "objective, key, value",
        [
            ("rkhs", "kernel.lengthscale", "0.0"),
            ("rkhs", "objective.grid_step", "0.0"),
            ("rkhs", "objective.noise_sigma", "-0.1"),
            ("rkhs", "objective.anchors", "-1"),
            ("shifted_branin", "objective.grid_side", "0"),
            ("shifted_branin", "objective.n_tasks", "0"),
            ("rkhs", "kernel.lenghtscale", "0.9"),
            ("rkhs", "bandit.eta", "-1"),
            ("rkhs", "bandit.delta", "2"),
        ],
    )
    def test_out_of_range_value_exits_2_naming_key(
        self, tmp_path, capsys, objective, key, value
    ):
        out = tmp_path / "out"
        argv = ["run", _write_config(tmp_path), "--outdir", str(out), "--set", f"{key}={value}"]
        if objective != "rkhs":
            argv += ["--set", f"objective.name={objective}", "--set", "bandit.b=1.0"]
        assert cli.main(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.toml")]) == 2
        assert "nope.toml" in capsys.readouterr().err

    def test_timing_flag_records_wall_time(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--outdir", str(out), "--timing"]) == 0
        rows = (out / "trace_MTKB_trial000.csv").read_text().splitlines()[1:]
        assert all(int(r.rsplit(",", 1)[1]) > 0 for r in rows)

    def test_checkpoints_write_bayes_regret(self, tmp_path):
        text = MINIMAL_CONFIG.replace(
            'algorithms = ["MTKB"]', 'algorithms = ["MTKB"]\ncheckpoints = [2, 5]'
        )
        cfg = _write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--outdir", str(out)]) == 0
        rows = (out / "bayes_regret.csv").read_text().splitlines()
        assert rows[0] == "algorithm,checkpoint,bayes_regret"
        assert len(rows) == 3

    def test_set_override_changes_run(self, tmp_path):
        cfg = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", cfg, "--outdir", str(out_a)]) == 0
        assert cli.main(
            ["run", cfg, "--outdir", str(out_b), "--set", "run.master_seed=9"]
        ) == 0
        a = (out_a / "trace_MTKB_trial000.csv").read_bytes()
        b = (out_b / "trace_MTKB_trial000.csv").read_bytes()
        assert a != b


class TestObjectivesAndCouplings:
    """The objectives other than rkhs, the inline coupling and the cross-key
    rules on run.algorithms and kernel.variant, through ``mtbandit run``."""

    @staticmethod
    def _run(tmp_path, *sets):
        out = tmp_path / "out"
        argv = ["run", _write_config(tmp_path), "--outdir", str(out)]
        for item in sets:
            argv += ["--set", item]
        return cli.main(argv), out

    @staticmethod
    def _trace_rows(out):
        with open(out / "trace_MTKB_trial000.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    @pytest.mark.parametrize("weights, n", [(None, 4), ("[1.0, 0.0, 0.5, 0.0, 1.0, 0.5]", 2)])
    def test_perturbed_sine_run(self, tmp_path, weights, n):
        """perturbed_sine runs with its default weight rows (four tasks) and
        with objective.weights (one task per row of three)."""
        sets = ["objective.name=perturbed_sine", "objective.grid_step=0.05", "bandit.b=1.0"]
        if weights is not None:
            sets.append(f"objective.weights={weights}")
        code, out = self._run(tmp_path, *sets)
        assert code == 0
        rows = self._trace_rows(out)
        assert len(rows) == 5
        for row in rows:
            assert len(row["y"].split(";")) == n
            assert 0.0 <= float(row["x"]) <= 1.0

    def test_shifted_branin_run(self, tmp_path):
        """shifted_branin runs on a small grid with bandit.b set, and every
        query is a grid point of the branin domain."""
        code, out = self._run(tmp_path, "objective.name=shifted_branin", "objective.n_tasks=3",
                              "objective.grid_side=4", "bandit.b=1.0")
        assert code == 0
        rows = self._trace_rows(out)
        assert len(rows) == 5
        grid = benchmarks.make_shifted_branin(3, grid_side=4).grid
        for row in rows:
            x = np.array([float(v) for v in row["x"].split(";")])
            assert np.any(np.all(grid == x, axis=1))
            assert len(row["y"].split(";")) == 3

    def test_inline_coupling(self, tmp_path, capsys):
        """Valid inline rows run; rows that are not PSD exit 2 naming
        kernel.rows, before the output directory is made."""
        code, out = self._run(tmp_path, "kernel.coupling=inline", "kernel.rows=[1.0, 0.3, 0.3, 1.0]")
        assert code == 0 and len(self._trace_rows(out)) == 5
        bad = tmp_path / "bad"
        code = cli.main(["run", _write_config(tmp_path), "--outdir", str(bad), "--set",
                         "kernel.coupling=inline", "--set", "kernel.rows=[1.0, 2.0, 2.0, 1.0]"])
        assert code == 2
        assert "kernel.rows" in capsys.readouterr().err
        assert not bad.exists()

    @pytest.mark.parametrize("item, key", [
        ("run.algorithms=[]", "run.algorithms"),
        ('run.algorithms=["MTKB", "MTKB"]', "run.algorithms"),
        ("kernel.variant=diagonal", "kernel.variant"),
    ])
    def test_cross_key_errors_exit_2_naming_key(self, tmp_path, capsys, item, key):
        """An empty or repeated algorithm list, and the diagonal variant on
        the rkhs objective, exit 2 naming the key."""
        code, out = self._run(tmp_path, item)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestPlotCommand:
    def test_golden_file(self, tmp_path):
        out = str(tmp_path / "plot.svg")
        assert cli.main(["plot", os.path.join(DATA, "golden_summary.csv"), out]) == 0
        golden = open(os.path.join(DATA, "golden_summary.svg"), "rb").read()
        assert open(out, "rb").read() == golden

    def test_two_algorithms_two_stable_legend_colors(self, tmp_path):
        out = str(tmp_path / "plot.svg")
        assert cli.main(["plot", os.path.join(DATA, "golden_summary.csv"), out]) == 0
        svg = open(out).read()
        assert svg.count("<polyline") == 2
        # labels sorted: MTBKB first, then MTKB, with the fixed palette order
        assert svg.index("MTBKB") < svg.index(">MTKB<")
        assert "#0072b2" in svg and "#d55e00" in svg

    def test_empty_data_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "algorithm,t,mean_time_avg_regret,std_time_avg_regret\n", encoding="utf-8"
        )
        assert cli.main(["plot", str(empty), str(tmp_path / "x.svg")]) == 2
        assert "no data rows" in capsys.readouterr().err

    def test_missing_columns_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("algorithm,t\nMTKB,1\n", encoding="utf-8")
        assert cli.main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2
        assert "mean_time_avg_regret" in capsys.readouterr().err

    def test_single_series(self, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text(
            "algorithm,t,mean_time_avg_regret,std_time_avg_regret\n"
            "MTKB,1,0.5,0.1\nMTKB,2,0.4,0.05\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "one.svg")
        assert cli.main(["plot", str(one), out]) == 0
        svg = open(out).read()
        assert svg.count("<polyline") == 1
        assert svg.count("<polygon") == 1  # one std band


class TestParetoCommand:
    def test_dumps_front(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path / "front.csv")
        assert cli.main(["pareto", cfg, "--out", out]) == 0
        rows = open(out).read().splitlines()
        assert rows[0] == "index,x,f"
        assert len(rows) > 1
        indices = [int(r.split(",")[0]) for r in rows[1:]]
        assert indices == sorted(indices)
        assert all(0 <= i <= 100 for i in indices)


class TestModelDumpCommand:
    def test_dumps_posterior_over_grid(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = str(tmp_path / "model.csv")
        assert cli.main(["model-dump", cfg, "--out", out]) == 0
        rows = open(out).read().splitlines()
        assert rows[0] == "index,x,mu,cov_norm"
        assert len(rows) == 102  # header + one row per grid point
        first = rows[1].split(",")
        assert len(first[2].split(";")) == 2  # one mean coordinate per task
        assert float(first[3]) >= 0.0

    def test_dump_matches_dense_oracles_on_run_trace(self, tmp_path):
        """The dumped mean and covariance norm at every grid point equal the
        dense posterior refit on the (x, y) of the MTKB trace that ``run``
        writes for the same config."""
        cfg = _write_config(tmp_path, MINIMAL_CONFIG.replace("horizon = 5", "horizon = 30"))
        outdir, out = tmp_path / "run", str(tmp_path / "model.csv")
        assert cli.main(["run", cfg, "--outdir", str(outdir)]) == 0
        assert cli.main(["model-dump", cfg, "--out", out]) == 0
        with open(outdir / "trace_MTKB_trial000.csv", encoding="utf-8") as fh:
            trace = list(csv.DictReader(fh))
        X = np.array([[float(v) for v in row["x"].split(";")] for row in trace])
        Y = np.array([[float(v) for v in row["y"].split(";")] for row in trace])
        with open(out, encoding="utf-8") as fh:
            dump = list(csv.DictReader(fh))
        mu = np.array([[float(v) for v in row["mu"].split(";")] for row in dump])
        norms = np.array([float(row["cov_norm"]) for row in dump])
        exp = cli.load_config(cfg)
        grid = exp.build_environment()[0].grid
        kern = exp.build_inference_kernel("MTKB", 2)
        assert X.shape == (30, grid.shape[1]) and mu.shape == (grid.shape[0], 2)
        np.testing.assert_allclose(mu, dense_posterior_mean(kern, X, Y, 0.1, grid), atol=1e-9)
        dense_norms = [
            np.linalg.eigvalsh(dense_posterior_cov(kern, X, Y, 0.1, x)).max() for x in grid
        ]
        np.testing.assert_allclose(norms, dense_norms, atol=1e-9)


class TestValidateCommand:
    def test_all_suites_pass_on_fresh_checkout(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        for name in (
            "schur-telescoping",
            "trace-inequality",
            "variance-geometry",
            "icm-equivalence",
            "diagonal-equivalence",
            "sum-separable-grid",
            "exact-grid-interleaved",
            "full-dictionary-exactness",
            "full-dictionary-diagonal",
            "full-dictionary-grid",
            "full-dictionary-rank-deficient",
            "budgeted-update-vs-rebuild",
        ):
            assert name in out
        assert "FAIL" not in out
        assert "max error" in out

    def test_coarse_pivot_cut_fails_rank_deficient_suite(self, monkeypatch):
        """A pivot cut a million times coarser moves the features of the
        rank-deficient dictionary away from the dense solve."""
        monkeypatch.setattr(nystrom, "PINV_RTOL", 1e-4)
        reports = {r.name: r for r in validate._suite_full_dictionary()}
        assert not reports["full-dictionary-rank-deficient"].passed

    def test_stale_residuals_fail_update_suite(self, monkeypatch):
        """Budgeted residual blocks left stale by an observation move the
        updated model away from the one solved from scratch."""
        original = nystrom._Support._observe

        def stale(self, a):
            res = self.res.copy()
            original(self, a)
            self.res = res

        monkeypatch.setattr(nystrom._Support, "_observe", stale)
        (report,) = validate._suite_budgeted_update()
        assert not report.passed

    def test_sign_mutation_fails_geometry_suite(self, capsys, monkeypatch):
        """Flipping the posterior covariance sign must trip the suites."""
        original = posterior.PosteriorState.cov
        monkeypatch.setattr(
            posterior.PosteriorState, "cov", lambda self, x: -original(self, x)
        )
        with np.errstate(invalid="ignore"):
            assert cli.main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "variance-geometry" in out
        assert "FAIL" in out


class TestModuleEntryPoints:
    def test_python_m_runs_without_warnings_and_import_skips_cli(self):
        """Both module entry points run under -W error; the package leaves cli and
        validate unloaded."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
        for module in ("mtbandit", "mtbandit.cli"):
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--version"],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert cli.__version__ in proc.stdout
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, mtbandit; "
             "print('mtbandit.cli' in sys.modules, 'mtbandit.validate' in sys.modules)"],
            env=env, capture_output=True, text=True,
        )
        assert proc.stdout.strip() == "False False", proc.stderr
