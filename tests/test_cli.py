import json
import os
from pathlib import Path

import numpy as np
import pytest

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

    @pytest.mark.parametrize("section, key, value", [
        ("stepping", "purity_tol", "nan"),
        ("stepping", "max_dmu_per_step", "nan"),
        ("protocol", "rate", "nan"),
        ("protocol", "rate", "inf"),
        ("protocol", "rate", "-1"),
        ("grid", "v_list", "1e-2, nan"),
        ("grid", "v_list", "1e-2, -1e-3"),
        ("grid", "v_list", "inf"),
        ("grid", "v_max", "inf"),
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

    def test_threading_matches_serial(self, tmp_path):
        out1, out2 = tmp_path / "s.csv", tmp_path / "t.csv"
        ini1 = write_ini(tmp_path / "s.ini", SWEEP_INI.format(out=out1))
        ini2 = write_ini(tmp_path / "t.ini", SWEEP_INI.format(out=out2))
        assert main(["run", "--config", str(ini1), "--quiet"]) == EXIT_OK
        assert main(["run", "--config", str(ini2), "--threads", "4", "--quiet"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

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
mu_fin = 0.05

[grid]
v_list = 1e-2

[stepping]
steps_per_span = 100
purity_tol = 1e-18

[output]
path = {out}
""".format(out=out))
        code = main(["run", "--config", str(ini), "--quiet"])
        assert code == EXIT_NUMERICAL
        table = read_table(out)  # table still written, row flagged
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["row_status"][0].startswith("failed")
        assert len(table.rows) == 1

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TETRONSIM_OUTDIR", str(tmp_path / "results"))
        ini = write_ini(tmp_path / "walk.ini", WALK_INI.format(out="walk.csv"))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        assert (tmp_path / "results" / "walk.csv").exists()


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
