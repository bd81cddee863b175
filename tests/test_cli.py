import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tetronsim
from tetronsim import experiments
from tetronsim.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from tetronsim.errors import ConfigError
from tetronsim.experiments import (
    PRESETS,
    config_from_mapping,
    preset_config,
    read_table,
    run_experiment,
)


def write_ini(path, text):
    path.write_text(text, encoding="utf-8")
    return path


WALK_INI = """
[experiment]
kind = walk
seed = 11

[walk]
length_list = 2, 100
trials = 5000

[output]
path = {out}
"""

SWEEP_INI = """
[experiment]
kind = sweep-rate
seed = 1

[model]
n_sites = 4

[protocol]
mu_in = 0.0
mu_fin_list = 0.05, 0.1

[grid]
v_list = 5e-3, 2e-2

[stepping]
steps_per_span = 150

[output]
path = {out}
"""

ORACLE_INI = """
[experiment]
kind = oracle-check

[model]
n_sites = 2

[protocol]
mu_in = 0.0
mu_fin = 0.1

[grid]
v_list = 1e-2

[stepping]
steps_per_span = 200

[output]
path = {out}
"""

LENGTH_INI = """
[experiment]
kind = sweep-length

[protocol]
mu_in = 0.0
mu_fin = 0.05
rate = 2e-2

[grid]
n_list = 4, 6

[stepping]
steps_per_span = 150

[output]
path = {out}
"""


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="experiment.kind"):
            config_from_mapping({"experiment": {"kind": "bogus"}})

    def test_empty_rate_grid(self):
        with pytest.raises(ConfigError, match="grid"):
            config_from_mapping({
                "experiment": {"kind": "sweep-rate"},
                "model": {"n_sites": "4"},
                "protocol": {"mu_fin": "0.05"},
            })

    def test_non_topological_mu(self):
        with pytest.raises(ConfigError, match="topological"):
            config_from_mapping({
                "experiment": {"kind": "sweep-rate"},
                "model": {"n_sites": "4"},
                "protocol": {"mu_fin": "2.0"},
                "grid": {"v_list": "1e-2"},
            })

    def test_oracle_check_size_limit(self):
        with pytest.raises(ConfigError, match="n_sites"):
            config_from_mapping({
                "experiment": {"kind": "oracle-check"},
                "model": {"n_sites": "4"},
                "protocol": {"mu_fin": "0.1"},
                "grid": {"v_list": "1e-2"},
            })

    def test_field_named_in_error(self):
        with pytest.raises(ConfigError, match="grid.v_count"):
            config_from_mapping({
                "experiment": {"kind": "sweep-rate"},
                "model": {"n_sites": "4"},
                "protocol": {"mu_fin": "0.05"},
                "grid": {"v_min": "1e-3", "v_max": "1e-2", "v_count": "0"},
            })

    @pytest.mark.parametrize("kind", ["sweep-length", "sudden"])
    def test_length_grid_kinds_reject_a_non_finite_model(self, kind):
        # their rows take n_sites from the grid, so the model is checked without it
        with pytest.raises(ConfigError, match="model: hopping and pairing must be finite"):
            config_from_mapping({"experiment": {"kind": kind}, "model": {"pairing": "inf"}})

    @pytest.mark.parametrize("section, key, value", [
        ("model", "hopping", "inf"),
        ("model", "pairing", "inf"),
        ("model", "hopping", "nan"),
        ("stepping", "purity_tol", "nan"),
        ("stepping", "max_dmu_per_step", "nan"),
        ("protocol", "rate", "nan"),
        ("protocol", "rate", "inf"),
        ("protocol", "rate", "-1"),
        ("grid", "v_list", "1e-2, nan"),
        ("grid", "v_list", "1e-2, -1e-3"),
        ("grid", "v_list", "inf"),
        ("grid", "v_max", "inf"),
        ("grid", "n_list", "1, 4"),
        ("samples", "count", "-1"),
    ])
    def test_bad_numbers_are_config_errors(self, tmp_path, section, key, value):
        mapping = {
            "experiment": {"kind": "ramp"},
            "model": {"n_sites": "4"},
            "protocol": {"mu_fin": "0.05", "rate": "1e-2"},
            "grid": {"v_list": "1e-2"},
        }
        if section == "grid":
            mapping["experiment"]["kind"] = "sweep-rate"
            if key == "v_max":
                mapping["grid"] = {"v_min": "1e-3", "v_max": value, "v_count": "3"}
        mapping.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_mapping(mapping)
        ini = tmp_path / "bad.ini"
        ini.write_text("".join("[%s]\n" % sec + "".join("%s = %s\n" % kv for kv in keys.items())
                               for sec, keys in mapping.items()), encoding="utf-8")
        out = tmp_path / "never.csv"
        assert main(["run", "--config", str(ini), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    def test_no_output_file_on_invalid_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ini = write_ini(tmp_path / "bad.ini", """
[experiment]
kind = sweep-rate

[model]
n_sites = 4

[protocol]
mu_fin = 0.05

[output]
path = should_not_exist.csv
""")
        code = main(["run", "--config", str(ini), "--quiet"])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "should_not_exist.csv").exists()


def test_cli_import_and_config_parse_leave_scipy_unloaded(tmp_path):
    # scipy costs most of the start-up time; only quadrature and fitting need it
    ini = write_ini(tmp_path / "s.ini", SWEEP_INI.format(out=tmp_path / "s.csv"))
    code = ("import sys\nfrom pathlib import Path\nimport tetronsim.cli\n"
            "from tetronsim.experiments import parse_config\n"
            "parse_config(Path(sys.argv[1]))\nprint('scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(tetronsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(ini)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


class TestRunCommand:
    def test_walk_table(self, tmp_path):
        out = tmp_path / "walk.csv"
        ini = write_ini(tmp_path / "walk.ini", WALK_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        table = read_table(out)
        assert table.columns[:3] == ("length", "trials", "p_exact")
        exact = dict(zip(table.column("length"), table.column("p_exact")))
        assert exact[100.0] == pytest.approx(0.33)
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["row_status"] == ["ok", "ok"]

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ini1 = write_ini(tmp_path / "a.ini", SWEEP_INI.format(out=out1))
        ini2 = write_ini(tmp_path / "b.ini", SWEEP_INI.format(out=out2))
        assert main(["run", "--config", str(ini1), "--quiet"]) == EXIT_OK
        assert main(["run", "--config", str(ini2), "--quiet"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_sidecar_records_run_environment(self, tmp_path):
        out = tmp_path / "s.csv"
        ini = write_ini(tmp_path / "s.ini", SWEEP_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        env = json.loads(out.with_suffix(".csv.meta.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"], str) and isinstance(env["lapack"], str)
        assert set(env["threads_env"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["blas_threads"] == (None if experiments.blas_threads() is None else 1)
        assert env["cpu_count"] >= 1

    def test_sweep_sidecar_counts_steps_per_row(self, tmp_path):
        # steps_per_span comes from the 0.1 span, so the 0.03 ramp runs 300 steps
        out = tmp_path / "s.csv"
        ini = write_ini(tmp_path / "s.ini", SWEEP_INI.format(out=out).replace(
            "mu_fin_list = 0.05, 0.1", "mu_fin_list = 0.03, 0.1").replace(
            "v_list = 5e-3, 2e-2", "v_list = 0.5").replace(
            "steps_per_span = 150", "steps_per_span = 1000"))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert list(read_table(out).column("mu_fin")) == [0.03, 0.1]
        assert meta["row_n_steps"] == [300, 1000]
        assert meta["dmu"] == pytest.approx(1e-4, rel=1e-12)

    def test_length_and_ramp_sidecars_count_steps(self, tmp_path):
        out = tmp_path / "length.csv"
        ini = write_ini(tmp_path / "length.ini", LENGTH_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["row_n_steps"] == [150, 150]
        ramp = config_from_mapping({
            "experiment": {"kind": "ramp"},
            "model": {"n_sites": "4"},
            "protocol": {"mu_in": "0.0", "mu_fin": "0.05", "rate": "2e-2"},
            "stepping": {"steps_per_span": "150"},
            "samples": {"count": "7"},
        })
        meta = run_experiment(ramp).metadata
        # 7 sample segments of 150/7 = 21.4 steps each, rounded up to 22
        assert meta["n_steps"] == 7 * 22
        assert meta["dmu"] == pytest.approx(0.05 / 150, rel=1e-12)

    def test_length_grid_sidecars_leave_n_sites_null(self, tmp_path):
        # each row takes its length from the grid; [model] n_sites is absent or ignored
        out = tmp_path / "length.csv"
        ini = write_ini(tmp_path / "length.ini", LENGTH_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["config"]["model"]["n_sites"] is None
        assert list(read_table(out).column("n_sites")) == [4, 6]
        for name in ("fig2-inset", "fig3"):
            assert preset_config(name).resolved()["model"]["n_sites"] is None
        assert preset_config("fig2-main").resolved()["model"]["n_sites"] == 40

    def test_sidecars_record_max_purity_defect(self, tmp_path):
        out = tmp_path / "s.csv"
        ini = write_ini(tmp_path / "s.ini", SWEEP_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        defects = meta["row_max_purity_defect"]
        assert len(defects) == len(meta["row_status"]) == 4
        # the maximum over the row's samples bounds its final-sample cell,
        # which the CSV holds to 13 significant digits
        for defect, final in zip(defects, read_table(out).column("purity_defect")):
            assert final <= defect * (1 + 1e-12) and defect < 1e-10
        ramp = tmp_path / "r.csv"
        ini = write_ini(tmp_path / "r.ini", """
[experiment]
kind = ramp

[model]
n_sites = 4

[protocol]
mu_in = 0.0
mu_fin = 0.05
rate = 2e-2

[stepping]
steps_per_span = 150

[samples]
count = 7

[output]
path = {out}
""".format(out=ramp))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        meta = json.loads(ramp.with_suffix(".csv.meta.json").read_text())
        cells = read_table(ramp).column("purity_defect")
        assert meta["max_purity_defect"] == pytest.approx(max(cells), rel=1e-12)
        assert "max_purity_defect" not in read_table(ramp).columns

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "s.ini", SWEEP_INI.format(out=tmp_path / "s.csv"))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(ini), "--threads", "4", "--quiet"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_sudden_prediction_out_of_range_is_nan(self, tmp_path):
        # at mu_fin = 0.9 the N=20 MZM overlap is alpha = 0.453, below the 0.5
        # the parity-sector prediction needs; the simulated row itself is fine
        out = tmp_path / "sudden.csv"
        ini = write_ini(tmp_path / "sudden.ini", """
[experiment]
kind = sudden

[model]
n_sites = 20

[protocol]
mu_in = 0.0
mu_fin_list = 0.03, 0.9

[grid]
n_list = 20

[output]
path = {out}
""".format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        table = read_table(out)
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["row_status"] == ["ok", "ok"]
        assert list(table.column("mu_fin")) == [0.03, 0.9]
        pred = table.column("l_odd_pred")
        assert np.isfinite(pred[0]) and np.isnan(pred[1])
        assert np.all(np.isfinite(table.column("l_odd")))

    def test_sweep_rows_sorted_and_consistent(self, tmp_path):
        out = tmp_path / "sweep.csv"
        ini = write_ini(tmp_path / "sweep.ini", SWEEP_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        table = read_table(out)
        v = table.column("v")
        assert list(v) == sorted(v)
        l_sum = table.column("l_odd") + table.column("l_even")
        assert np.max(np.abs(l_sum - table.column("l_g"))) < 1e-10
        for name in ("l_odd", "l_even", "l_g"):
            col = table.column(name)
            assert np.all(col >= -1e-9) and np.all(col <= 1 + 1e-9)

    @pytest.mark.parametrize("template", [SWEEP_INI, LENGTH_INI], ids=["rate", "length"])
    def test_sweep_sidecar_carries_richardson_defects(self, tmp_path, template):
        plain, checked = tmp_path / "plain.csv", tmp_path / "checked.csv"
        ini1 = write_ini(tmp_path / "plain.ini", template.format(out=plain))
        ini2 = write_ini(tmp_path / "checked.ini", template.format(out=checked).replace(
            "steps_per_span = 150", "steps_per_span = 150\nrichardson = true"))
        assert main(["run", "--config", str(ini1), "--quiet"]) == EXIT_OK
        assert main(["run", "--config", str(ini2), "--quiet"]) == EXIT_OK
        assert plain.read_bytes() == checked.read_bytes()
        plain_meta = json.loads(plain.with_suffix(".csv.meta.json").read_text())
        meta = json.loads(checked.with_suffix(".csv.meta.json").read_text())
        assert "row_richardson_defect" not in plain_meta
        defects = meta["row_richardson_defect"]
        assert len(defects) == len(meta["row_status"]) == len(read_table(checked).rows)
        assert all(0.0 <= d < 1e-2 for d in defects)

    def test_per_row_numerical_failure_exit_code(self, tmp_path):
        # an unsatisfiable purity budget trips every sweep point
        out = tmp_path / "sweep.csv"
        ini = write_ini(tmp_path / "bad_purity.ini", """
[experiment]
kind = sweep-rate

[model]
n_sites = 4

[protocol]
mu_fin_list = 0.05, 0.1

[grid]
v_list = 1e-2, 3e-2

[stepping]
steps_per_span = 100
purity_tol = 1e-18

[output]
path = {out}
""".format(out=out))
        code = main(["run", "--config", str(ini), "--quiet"])
        assert code == EXIT_NUMERICAL
        table = read_table(out)  # table still written, every row flagged
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert len(meta["row_status"]) == len(table.rows) == 4
        assert all(s.startswith("failed: purity defect") for s in meta["row_status"])
        assert meta["row_n_steps"] == [None] * 4
        assert meta["row_max_purity_defect"] == [None] * 4
        assert list(table.column("v")) == [1e-2, 1e-2, 3e-2, 3e-2]
        assert list(table.column("mu_fin")) == [0.05, 0.1, 0.05, 0.1]
        assert np.all(np.isnan(table.column("l_g")))

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TETRONSIM_OUTDIR", str(tmp_path / "results"))
        ini = write_ini(tmp_path / "walk.ini", WALK_INI.format(out="walk.csv"))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        assert (tmp_path / "results" / "walk.csv").exists()


@pytest.mark.skipif(experiments.blas_threads() is None, reason="numpy's OpenBLAS not found")
class TestSerialBlas:
    @pytest.fixture
    def threads(self):
        # start from two threads, so that the scope has a count to restore
        get, set_count = experiments._openblas_threads()
        before = get()
        set_count(2)
        yield get
        set_count(before)

    def test_scope_runs_on_one_thread_and_restores(self, threads):
        prior = threads()
        with experiments.serial_blas():
            assert threads() == 1
        assert threads() == prior

    def test_scope_restores_after_an_error(self, threads):
        prior = threads()
        with pytest.raises(RuntimeError):
            with experiments.serial_blas():
                raise RuntimeError("inside")
        assert threads() == prior

    def test_run_is_serial_and_restores(self, threads, tmp_path):
        prior = threads()
        out = tmp_path / "s.csv"
        ini = write_ini(tmp_path / "s.ini", SWEEP_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        env = json.loads(out.with_suffix(".csv.meta.json").read_text())["environment"]
        assert env["blas_threads"] == 1
        assert threads() == prior


class TestFitCommand:
    def test_fit_round_trip_from_csv(self, tmp_path):
        # synthesize a table in the documented format, then fit it
        v = np.geomspace(4e-4, 1e-3, 30)
        ell = 2.0 * v ** 2 + 0.5 * v ** 2 * np.cos(0.03 / v)
        lines = ["v,l_odd"] + ["%.12e,%.12e" % (a, b) for a, b in zip(v, ell)]
        src = tmp_path / "src.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.csv"
        ini = write_ini(tmp_path / "fit.ini", f"""
[experiment]
kind = fit

[fit]
table = {src}
family = half-lz
y_column = l_odd

[output]
path = {out}
""")
        assert main(["fit", "--config", str(ini), "--quiet"]) == EXIT_OK
        table = read_table(out)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["omega"] == pytest.approx(0.03, abs=1e-6)
        assert row["k1"] == pytest.approx(2.0, rel=1e-5)

    def test_fit_missing_column(self, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text("v,l_odd\n1.0,1.0\n")
        ini = write_ini(tmp_path / "fit.ini", f"""
[experiment]
kind = fit

[fit]
table = {src}
family = half-lz
y_column = no_such_column
""")
        assert main(["fit", "--config", str(ini), "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("text, where", [
        ("", "is empty"),
        ("v,l_odd\n1e-3,1e-4\n2e-3,abc\n", "line 3, column l_odd: cannot parse 'abc'"),
        ("v,l_odd\n1e-3,1e-4\n2e-3\n", "line 3: 1 cells, header has 2"),
    ], ids=["empty", "non-numeric", "short-row"])
    def test_malformed_input_table_is_a_config_error(self, tmp_path, capsys, text, where):
        src = tmp_path / "src.csv"
        src.write_text(text)
        ini = write_ini(tmp_path / "fit.ini", f"""
[experiment]
kind = fit

[fit]
table = {src}
family = linear-n
x_column = v
""")
        assert main(["fit", "--config", str(ini), "--quiet"]) == EXIT_CONFIG
        assert "config error: input table %s" % src in capsys.readouterr().err
        with pytest.raises(ConfigError, match=where):
            read_table(src)

    def test_fit_subcommand_requires_fit_kind(self, tmp_path):
        ini = write_ini(tmp_path / "walk.ini", WALK_INI.format(out=tmp_path / "w.csv"))
        assert main(["fit", "--config", str(ini), "--quiet"]) == EXIT_CONFIG


class TestOracleCommand:
    def test_oracle_check_passes(self, tmp_path):
        out = tmp_path / "oracle.csv"
        ini = write_ini(tmp_path / "oracle.ini", ORACLE_INI.format(out=out))
        assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_OK
        table = read_table(out)
        assert max(table.column("max_abs_diff")) < 1e-8

    def test_oracle_check_builds_one_fock_space_per_run(self, tmp_path, monkeypatch):
        from tetronsim.dynamics import FockSpace

        init = FockSpace.__init__
        built = []

        def counted(self, params):
            built.append(params)
            init(self, params)

        monkeypatch.setattr(FockSpace, "__init__", counted)
        out = tmp_path / "oracle.csv"
        text = ORACLE_INI.format(out=out).replace("mu_fin = 0.1", "mu_fin_list = 0.05, 0.1")
        ini = write_ini(tmp_path / "oracle.ini", text.replace("v_list = 1e-2", "v_list = 1e-2, 0.1"))
        for run in (1, 2):
            assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_OK
            assert len(built) == run
        assert len(read_table(out).rows) == 6

    def test_diff_failure_exit_code(self, tmp_path, monkeypatch):
        from tetronsim import cli as cli_mod
        from tetronsim.cli import EXIT_ORACLE_DIFF
        from tetronsim.experiments import run_experiment

        def tampered(cfg):
            table = run_experiment(cfg)
            table.metadata["within_tolerance"] = False
            table.metadata["max_abs_diff"] = 1.0
            return table

        monkeypatch.setattr(cli_mod, "run_experiment", tampered)
        out = tmp_path / "oracle.csv"
        ini = write_ini(tmp_path / "oracle.ini", ORACLE_INI.format(out=out))
        assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_ORACLE_DIFF


class TestPresets:
    def test_listing_runs(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_all_presets_parse(self):
        for name in PRESETS:
            cfg = preset_config(name)
            assert cfg.kind in ("sweep-rate", "sweep-length", "sudden")

    def test_unknown_preset(self):
        assert main(["run", "--preset", "fig99", "--quiet"]) == EXIT_CONFIG
