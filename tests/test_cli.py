import configparser
import copy
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tetronsim
from tetronsim import experiments
from tetronsim.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from tetronsim.dynamics import MAX_ORACLE_SITES
from tetronsim.errors import ConfigError, DegenerateSubspaceError
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


# a config of each kind that reads every key it states
UNREAD_KEY_BASES = {
    "walk": {"walk": {"length_list": "2, 10", "trials": "10"}},
    "sweep-rate": {"model": {"n_sites": "4"}, "protocol": {"mu_fin_list": "0.05, 0.1"},
                   "grid": {"v_list": "1e-2"}, "stepping": {"max_dmu_per_step": "1e-3"}},
    "oracle-check": {"model": {"n_sites": "3"}, "protocol": {"mu_fin_list": "0.05, 0.1"},
                     "grid": {"v_list": "1e-2"}, "stepping": {"max_dmu_per_step": "1e-3"}},
    "ramp": {"model": {"n_sites": "4"}, "protocol": {"mu_fin": "0.05", "rate": "1e-2"},
             "stepping": {"max_dmu_per_step": "1e-3"}, "samples": {"count": "5"}},
    "sweep-length": {"protocol": {"mu_fin": "0.05", "rate": "1e-2"}, "grid": {"n_list": "4, 6"},
                     "stepping": {"max_dmu_per_step": "1e-3"}},
    "sudden": {"protocol": {"mu_fin_list": "0.05, 0.1"}, "grid": {"n_list": "4, 6"}},
}


def _ini_text(value) -> str:
    """A value of a sidecar's config echo as the INI text that reads back to it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ", ".join(map(str, value))
    return str(value)


def fail_plus_state_at_mu_in(monkeypatch):
    """Make every basis resolve at mu = 0, where |+> is built, raise."""
    from tetronsim import dynamics

    resolve = dynamics.resolved_basis

    def failing(chain, mu):
        if mu == 0.0:
            raise DegenerateSubspaceError("no isolated near-zero pair at mu_in")
        return resolve(chain, mu)

    monkeypatch.setattr(dynamics, "resolved_basis", failing)


def spoil_purity_after_t0(monkeypatch):
    """Make every orbital-method record after t = 0 carry a purity defect of 1.0,
    above the fixed tolerance; the records at t = 0, sudden ones included, stay sound."""
    from tetronsim import dynamics

    measure = dynamics.measure_leakage

    def spoiled(orbitals, basis, t=0.0):
        record = measure(orbitals, basis, t=t)
        return replace(record, purity_defect=1.0) if t > 0.0 else record

    monkeypatch.setattr(dynamics, "measure_leakage", spoiled)


def _readme_ini_blocks():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```ini\n(.*?)```", readme, flags=re.S)


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

    def test_empty_walk_length_list(self):
        with pytest.raises(ConfigError, match="walk.length_list: at least one length"):
            config_from_mapping({"experiment": {"kind": "walk"}, "walk": {"length_list": ""}})

    def test_inverted_fit_window(self):
        with pytest.raises(ConfigError, match="need window_min <= window_max, got 0.5 > 0.1"):
            config_from_mapping({
                "experiment": {"kind": "fit"},
                "fit": {"table": "t.csv", "family": "half-lz",
                        "window_min": "0.5", "window_max": "0.1"},
            })

    @pytest.mark.parametrize("key, value, message", [
        ("window_min", "nan", "window_max: a bound is nan"),
        ("window_max", "nan", "window_max: a bound is nan"),
        ("l_inf", "nan", "l_inf: must be finite, got nan"),
        ("l_inf", "inf", "l_inf: must be finite, got inf"),
    ])
    def test_non_finite_fit_setting(self, key, value, message):
        fit = {"table": "t.csv", "family": "power-approach", "l_inf": "0.01", key: value}
        with pytest.raises(ConfigError, match=message):
            config_from_mapping({"experiment": {"kind": "fit"}, "fit": fit})

    def test_open_fit_window(self):
        cfg = config_from_mapping({
            "experiment": {"kind": "fit"},
            "fit": {"table": "t.csv", "family": "half-lz", "window_max": "inf"},
        })
        assert cfg.fit_window == (None, float("inf"))

    @pytest.mark.parametrize("text", [
        b"kind = walk\n",
        b"[experiment]\nkind = walk\nkind = walk\n",
        b"[experiment]\nkind = walk\n\n[experiment]\nseed = 1\n",
        "[experiment]\nkind = walk\n# café\n".encode("latin-1"),
        None,
    ], ids=["no-section-header", "duplicate-key", "duplicate-section", "not-utf8", "missing"])
    def test_malformed_ini_file(self, tmp_path, capsys, text):
        ini = tmp_path / "bad.ini"
        if text is not None:
            ini.write_bytes(text)
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: config file %s: " % ini)

    def test_duplicate_key_in_a_mapping(self):
        with pytest.raises(ConfigError, match="already exists"):
            config_from_mapping({"experiment": {"kind": "walk", "KIND": "walk"}})

    def test_percent_in_a_value_is_read_literally(self, tmp_path):
        # no interpolation: the sidecar's echo of the path parses back as written
        out = tmp_path / "res_100%.csv"
        ini = write_ini(tmp_path / "walk.ini", WALK_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        assert read_table(out).rows
        config = json.loads(out.with_suffix(".csv.meta.json").read_text())["config"]
        assert config["output"] == {"path": str(out)}
        echo = {section: {key: _ini_text(value) for key, value in keys.items()}
                for section, keys in config.items()}
        assert config_from_mapping(echo) == experiments.parse_config(ini)

    def test_non_topological_mu(self):
        with pytest.raises(ConfigError, match="topological"):
            config_from_mapping({
                "experiment": {"kind": "sweep-rate"},
                "model": {"n_sites": "4"},
                "protocol": {"mu_fin": "2.0"},
                "grid": {"v_list": "1e-2"},
            })

    def test_oracle_check_size_limit(self):
        mapping = {
            "experiment": {"kind": "oracle-check"},
            "model": {"n_sites": str(MAX_ORACLE_SITES + 1)},
            "protocol": {"mu_fin": "0.1"},
            "grid": {"v_list": "1e-2"},
        }
        with pytest.raises(ConfigError, match="n_sites <= %d" % MAX_ORACLE_SITES):
            config_from_mapping(mapping)
        mapping["model"]["n_sites"] = str(MAX_ORACLE_SITES)
        assert config_from_mapping(mapping).params.n_sites == MAX_ORACLE_SITES

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
        ("experiment", "seed", "-1"),
        ("model", "n_sites", "four"),
        ("grid", "v_list", "1e-2, fast"),
        ("protocol", "rate", None),
        ("protocol", "mu_fin", None),
        ("grid", "n_step", "0"),
        ("grid", "n_list", None),
        ("stepping", "steps_per_span", "0"),
        ("walk", "trials", "0"),
        ("walk", "length_list", "2, 0"),
        ("fit", "family", "bogus"),
        ("fit", "l_inf", None),
    ])
    def test_bad_numbers_are_config_errors(self, tmp_path, section, key, value):
        # a value of None leaves the key out: a required key, or the only one of its kind
        mapping = {
            "experiment": {"kind": "ramp"},
            "model": {"n_sites": "4"},
            "protocol": {"mu_fin": "0.05", "rate": "1e-2"},
        }
        if section == "walk":
            mapping = {"experiment": {"kind": "walk"}, "walk": {"length_list": "2"}}
        elif section == "fit":
            mapping = {"experiment": {"kind": "fit"},
                       "fit": {"table": "t.csv", "family": "power-approach", "l_inf": "0.01"}}
        elif key in ("n_list", "n_step"):  # read by sweep-length, which takes no n_sites
            mapping.update(experiment={"kind": "sweep-length"}, model={})
            if key == "n_step":
                mapping["grid"] = {"n_min": "2", "n_max": "6"}
        elif section == "grid":  # a rate grid is read by sweep-rate, which takes no rate
            mapping["experiment"]["kind"] = "sweep-rate"
            del mapping["protocol"]["rate"]
            if key == "v_max":
                mapping["grid"] = {"v_min": "1e-3", "v_max": value, "v_count": "3"}
        if value is None:
            mapping.get(section, {}).pop(key, None)
        else:
            mapping.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=key) as exc:
            config_from_mapping(mapping)
        assert "not read" not in str(exc.value)
        ini = tmp_path / "bad.ini"
        ini.write_text("".join("[%s]\n" % sec + "".join("%s = %s\n" % kv for kv in keys.items())
                               for sec, keys in mapping.items()), encoding="utf-8")
        out = tmp_path / "never.csv"
        assert main(["run", "--config", str(ini), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("kind, section, key, value", [
        ("sweep-rate", "stepping", "step_per_span", "1000"),
        ("sweep-rate", "stepping", "richardsn", "true"),
        ("sweep-rate", "smaples", "count", "10"),
        ("sweep-rate", "protocol", "mu_fin", "0.03"),
        ("sweep-rate", "grid", "v_min", "1e-3"),
        ("sweep-rate", "grid", "v_count", "3"),
        ("sweep-rate", "stepping", "steps_per_span", "100"),
        ("walk", "model", "n_sites", "4"),
        ("walk", "walk", "length", "10"),
        ("sudden", "protocol", "rate", "1e-2"),
        ("sudden", "grid", "v_list", "1e-2"),
        ("sudden", "stepping", "richardson", "true"),
        ("sudden", "stepping", "steps_per_span", "10"),
        ("sudden", "samples", "count", "5"),
        ("sudden", "model", "n_sites", "20"),
        ("ramp", "grid", "n_list", "4, 6"),
        ("oracle-check", "protocol", "rate", "1e-2"),
        ("oracle-check", "samples", "count", "5"),
        ("oracle-check", "stepping", "richardson", "true"),
        ("sweep-rate", "protocol", "rate", "1e-2"),
        ("sweep-rate", "samples", "count", "5"),
        ("sweep-length", "model", "n_sites", "4"),
        ("sweep-rate", "stepping", "purity_tol", "1e-6"),
    ])
    def test_unread_keys_are_config_errors(self, tmp_path, kind, section, key, value):
        # a misspelt key, one the kind never reads, or one another key replaces
        mapping = {"experiment": {"kind": kind}, **copy.deepcopy(UNREAD_KEY_BASES[kind])}
        assert config_from_mapping(mapping).kind == kind
        mapping.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=r"\b%s\.%s: not read by a %s run" % (section, key, kind)):
            config_from_mapping(mapping)
        ini = tmp_path / "unread.ini"
        ini.write_text("".join("[%s]\n" % sec + "".join("%s = %s\n" % kv for kv in keys.items())
                               for sec, keys in mapping.items()), encoding="utf-8")
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "x.csv"),
                     "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("kind, extra", [
        ("ramp", {"model": {"n_sites": "4"}}),
        ("sweep-length", {"grid": {"n_list": "4, 6"}}),
    ])
    def test_one_mu_fin_for_ramp_and_sweep_length(self, kind, extra):
        # a second mu_fin would be dropped, and a sweep-length CSV has no mu_fin column
        mapping = {"experiment": {"kind": kind},
                   "protocol": {"mu_fin_list": "0.03, 0.1", "rate": "1e-2"}, **extra}
        with pytest.raises(ConfigError, match="protocol.mu_fin_list: kind %s runs one mu_fin"
                           % kind):
            config_from_mapping(mapping)
        mapping["protocol"]["mu_fin_list"] = "0.03"
        assert config_from_mapping(mapping).mu_fins == (0.03,)

    def test_readme_ini_examples_parse(self):
        blocks = _readme_ini_blocks()
        assert len(blocks) == 2
        for block in blocks:
            cp = configparser.ConfigParser()
            cp.read_string(block)
            experiments.config_from_parser(cp)

    def test_echo_parses_back_to_the_same_config(self):
        # the sidecar's config echo, written as INI, reproduces the run it describes
        configs = {name: preset_config(name) for name in PRESETS}
        for i, block in enumerate(_readme_ini_blocks()):
            cp = configparser.ConfigParser()
            cp.read_string(block)
            configs["README block %d" % i] = experiments.config_from_parser(cp)
        for name, template in [("walk", WALK_INI), ("sweep", SWEEP_INI),
                               ("oracle", ORACLE_INI), ("length", LENGTH_INI)]:
            cp = configparser.ConfigParser()
            cp.read_string(template.format(out="x.csv"))
            configs[name] = experiments.config_from_parser(cp)
        assert {cfg.kind for cfg in configs.values()} >= {
            "sweep-rate", "sweep-length", "sudden", "walk", "fit", "oracle-check"}
        for name, cfg in configs.items():
            echo = {section: {key: _ini_text(value) for key, value in keys.items()}
                    for section, keys in cfg.resolved().items()}
            assert config_from_mapping(echo) == cfg, name

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

    def test_length_grid_kinds_neither_read_nor_echo_n_sites(self, tmp_path):
        # each row takes its length from the grid, so [model] n_sites is a key the run never reads
        out = tmp_path / "length.csv"
        ini = write_ini(tmp_path / "length.ini", LENGTH_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["config"]["model"] == {"hopping": 0.5, "pairing": 0.5}
        assert list(read_table(out).column("n_sites")) == [4, 6]
        stated = write_ini(tmp_path / "stated.ini", LENGTH_INI.format(out=tmp_path / "no.csv")
                           + "\n[model]\nn_sites = 4\n")
        assert main(["run", "--config", str(stated), "--quiet"]) == EXIT_CONFIG
        assert not (tmp_path / "no.csv").exists()
        for name in ("fig2-inset", "fig3"):
            assert "n_sites" not in preset_config(name).resolved()["model"]
            mapping = copy.deepcopy(PRESETS[name]["config"])
            mapping["model"] = {"n_sites": "40"}
            with pytest.raises(ConfigError, match=r"^model\.n_sites: not read by a"):
                config_from_mapping(mapping)
        assert preset_config("fig2-main").resolved()["model"]["n_sites"] == 40

    def test_cli_seed_and_out_show_in_the_echo(self, tmp_path):
        out = tmp_path / "elsewhere.csv"
        ini = write_ini(tmp_path / "s.ini", SWEEP_INI.format(out=tmp_path / "s.csv"))
        assert main(["run", "--config", str(ini), "--seed", "5", "--out", str(out),
                     "--quiet"]) == EXIT_OK
        config = json.loads(out.with_suffix(".csv.meta.json").read_text())["config"]
        assert config["experiment"] == {"kind": "sweep-rate", "seed": 5}
        assert config["output"] == {"path": str(out)}
        assert not (tmp_path / "s.csv").exists()

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
        assert meta["max_purity_defect"] == pytest.approx(max(cells), rel=1e-12, abs=0)
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

    @pytest.mark.parametrize("template, keys", [
        ("""
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

[output]
path = {out}
""", {"v": [1e-2, 1e-2, 3e-2, 3e-2], "mu_fin": [0.05, 0.1, 0.05, 0.1]}),
        (LENGTH_INI, {"n_sites": [4, 6]}),
    ], ids=["rate", "length"])
    def test_per_row_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch,
                                                 template, keys):
        # a purity defect above the tolerance at each final sample trips every sweep point
        spoil_purity_after_t0(monkeypatch)
        out = tmp_path / "sweep.csv"
        ini = write_ini(tmp_path / "bad_purity.ini", template.format(out=out))
        code = main(["run", "--config", str(ini), "--quiet"])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr() == ("", "")
        table = read_table(out)  # table still written, every row flagged
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        rows = len(next(iter(keys.values())))
        assert len(meta["row_status"]) == len(table.rows) == rows
        assert all(s.startswith("failed: purity defect") for s in meta["row_status"])
        assert meta["row_n_steps"] == [None] * rows
        assert meta["row_max_purity_defect"] == [None] * rows
        for name, values in keys.items():
            assert list(table.column(name)) == values
        leakage = [name for name in table.columns if name not in keys]
        assert leakage == ["l_odd", "l_even", "l_g", "parity", "purity_defect"]
        assert all(np.all(np.isnan(table.column(name))) for name in leakage)
        # without --quiet: the rows-written line, then each failed row on stderr
        assert main(["run", "--config", str(ini)]) == EXIT_NUMERICAL
        printed = capsys.readouterr()
        assert printed.out == "wrote %d rows to %s\n" % (rows, out)
        assert printed.err.splitlines() == ["row %d: %s" % (i, status)
                                            for i, status in enumerate(meta["row_status"])]

    def test_ramp_purity_failure_writes_its_table(self, tmp_path, monkeypatch):
        # the ramp's rows are its samples, so each carries the ramp's failure
        spoil_purity_after_t0(monkeypatch)
        out = tmp_path / "ramp.csv"
        ini = write_ini(tmp_path / "ramp.ini", """
[experiment]
kind = ramp

[model]
n_sites = 6

[protocol]
mu_in = 0.0
mu_fin = 0.05
rate = 2e-2

[stepping]
steps_per_span = 100

[samples]
count = 4

[output]
path = {out}
""".format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_NUMERICAL
        table = read_table(out)
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert len(table.rows) == len(meta["row_status"]) == 5
        assert all(s.startswith("failed: purity defect") for s in meta["row_status"])
        assert meta["n_steps"] is None and meta["max_purity_defect"] is None
        assert list(table.column("t")) == list(np.linspace(0.0, 2.5, 5))
        assert table.column("mu")[-1] == 0.05
        for name in ("l_odd", "l_even", "l_g", "parity", "purity_defect"):
            assert np.all(np.isnan(table.column(name)))

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TETRONSIM_OUTDIR", str(tmp_path / "results"))
        ini = write_ini(tmp_path / "walk.ini", WALK_INI.format(out="walk.csv"))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_OK
        assert (tmp_path / "results" / "walk.csv").exists()

    def test_unwritable_output_path_is_a_config_error(self, tmp_path, capsys):
        # the run finishes, then the table cannot be written under a plain file
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        out = blocker / "walk.csv"
        text = WALK_INI.format(out=out).replace("length_list = 2, 100", "length_list = 2")
        ini = write_ini(tmp_path / "walk.ini", text.replace("trials = 5000", "trials = 10"))
        assert main(["run", "--config", str(ini)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write %s: " % out)
        assert "Traceback" not in err
        assert blocker.read_text(encoding="utf-8") == "not a directory"

    def test_runner_exception_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # an exception that no row caught stops the run: exit 3 and no table
        def broken(cfg):
            raise RuntimeError("walk diverged")

        monkeypatch.setitem(experiments.RUNNERS, "walk", broken)
        out = tmp_path / "walk.csv"
        ini = write_ini(tmp_path / "walk.ini", WALK_INI.format(out=out))
        assert main(["run", "--config", str(ini)]) == EXIT_NUMERICAL
        assert capsys.readouterr() == ("", "numerical failure: walk diverged\n")
        assert not out.exists()
        assert not out.with_suffix(".csv.meta.json").exists()

    def test_failed_plus_state_flags_every_sweep_row(self, tmp_path, monkeypatch):
        fail_plus_state_at_mu_in(monkeypatch)
        out = tmp_path / "sweep.csv"
        ini = write_ini(tmp_path / "sweep.ini", SWEEP_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--quiet"]) == EXIT_NUMERICAL
        table = read_table(out)
        statuses = json.loads(out.with_suffix(".csv.meta.json").read_text())["row_status"]
        assert len(table.rows) == 4
        assert statuses == ["failed: no isolated near-zero pair at mu_in"] * 4
        assert all(np.all(np.isnan(row[2:])) for row in table.rows)


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

    @pytest.mark.parametrize("family, columns", [
        ("half-lz", ("k1", "m1", "k2", "m2", "omega", "residual_norm", "r_squared")),
        ("power-approach", ("slope", "intercept", "k", "l_inf", "residual_norm", "r_squared")),
        ("linear-n", ("slope", "intercept", "residual_norm", "r_squared")),
    ], ids=["half-lz", "power-approach", "linear-n"])
    def test_fit_columns_of_each_family(self, tmp_path, family, columns):
        if family == "half-lz":
            x = np.geomspace(4e-4, 1e-3, 30)
            y = 2.0 * x ** 2 + 0.5 * x ** 2 * np.cos(0.03 / x)
        elif family == "power-approach":
            x = np.geomspace(1.0, 30.0, 20)
            y = 0.01 - 0.002 / x ** 1.5
        else:
            x = np.arange(2, 22, 2)
            y = 3e-4 * x + 1e-3
        header, cell = ("n_sites", "%d") if family == "linear-n" else ("v", "%.12e")
        src = tmp_path / "src.csv"
        src.write_text("\n".join(["%s,l_odd" % header]
                                 + [cell % a + ",%.12e" % b for a, b in zip(x, y)]) + "\n")
        out = tmp_path / "fit.csv"
        ini = write_ini(tmp_path / "fit.ini", f"""
[experiment]
kind = fit

[fit]
table = {src}
family = {family}
l_inf = 0.01

[output]
path = {out}
""")
        assert main(["fit", "--config", str(ini), "--quiet"]) == EXIT_OK
        table = read_table(out)
        assert table.columns == columns
        row = dict(zip(table.columns, table.rows[0]))
        assert row["r_squared"] == pytest.approx(1.0, abs=1e-6)
        if family == "power-approach":
            assert row["l_inf"] == 0.01
            assert row["slope"] == pytest.approx(-1.5, rel=1e-9)

    def test_fit_window_keeps_only_the_rows_inside(self, tmp_path):
        # rows below window_min and above window_max leave the fit, as if absent
        n = np.arange(2, 32, 2)
        ell = 3e-4 * n + 1e-3 + 1e-5 * np.sin(n)
        lines = ["%d,%.12e" % row for row in zip(n, ell)]
        inside = (n >= 6) & (n <= 20)
        fits = {}
        for name, rows, window in [("windowed", lines, "window_min = 6\nwindow_max = 20\n"),
                                   ("inside", [r for r, k in zip(lines, inside) if k], "")]:
            src = tmp_path / (name + ".src.csv")
            src.write_text("\n".join(["n_sites,l_even"] + rows) + "\n")
            out = tmp_path / (name + ".csv")
            ini = write_ini(tmp_path / (name + ".ini"),
                            "[experiment]\nkind = fit\n\n[fit]\ntable = %s\nfamily = linear-n\n"
                            "y_column = l_even\n%s\n[output]\npath = %s\n" % (src, window, out))
            assert main(["fit", "--config", str(ini), "--quiet"]) == EXIT_OK
            fits[name] = (read_table(out).rows,
                          json.loads(out.with_suffix(".csv.meta.json").read_text())["fit"])
        (windowed, meta), (alone, alone_meta) = fits["windowed"], fits["inside"]
        assert meta["n_samples"] == alone_meta["n_samples"] == np.count_nonzero(inside) == 8
        assert meta["window"] == [6.0, 20.0] and alone_meta["window"] == [None, None]
        assert meta["domain"] == alone_meta["domain"] == [6.0, 20.0]
        assert windowed == alone

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

    def test_fit_text_column(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        src.write_text("case,v,l_odd\nsudden,nan,1.0\nramp,1e-2,2.0\n")
        ini = write_ini(tmp_path / "fit.ini", f"""
[experiment]
kind = fit

[fit]
table = {src}
family = half-lz
x_column = case
""")
        assert main(["fit", "--config", str(ini), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: fit: input table has no numeric column 'case'" in err

    @pytest.mark.parametrize("text, where", [
        ("", "is empty"),
        ("v,l_odd\n1e-3,1e-4\n2e-3,abc\n", "line 3, column l_odd: cannot parse 'abc'"),
        ("v,l_odd\n1e-3,1e-4\n2e-3\n", "line 3: 1 cells, header has 2"),
        (None, "does not exist"),
    ], ids=["empty", "non-numeric", "short-row", "missing"])
    def test_malformed_input_table_is_a_config_error(self, tmp_path, capsys, text, where):
        src = tmp_path / "src.csv"
        if text is not None:
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

    def test_negative_seed_override_is_a_config_error(self, tmp_path):
        out = tmp_path / "w.csv"
        ini = write_ini(tmp_path / "walk.ini", WALK_INI.format(out=out))
        assert main(["run", "--config", str(ini), "--seed", "-1", "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

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

    def test_every_sample_is_compared(self, tmp_path, monkeypatch):
        # a difference at a middle sample of a ramp fails the check, not only one at T
        from tetronsim.cli import EXIT_ORACLE_DIFF
        from tetronsim.dynamics import FockSpace

        measure, spoiled = FockSpace.measure, []

        def spoil_first_sample_after_zero(self, psi, reference, t):
            record = measure(self, psi, reference, t)
            if t > 0.0 and not spoiled:
                spoiled.append(t)
                record = replace(record, l_odd=record.l_odd + 1e-3)
            return record

        monkeypatch.setattr(FockSpace, "measure", spoil_first_sample_after_zero)
        out = tmp_path / "oracle.csv"
        ini = write_ini(tmp_path / "oracle.ini", ORACLE_INI.format(out=out))
        assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_ORACLE_DIFF
        assert spoiled == [1.0]  # the first of 10 samples of the 10-unit ramp
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["max_abs_diff"] == pytest.approx(1e-3, rel=1e-6)
        assert meta["within_tolerance"] is False

    def _two_groups_ini(self, tmp_path, stepping):
        out = tmp_path / "oracle.csv"
        text = (ORACLE_INI.format(out=out).replace("mu_fin = 0.1", "mu_fin_list = 0.05, 0.1")
                .replace("v_list = 1e-2", "v_list = 1e-2, 0.1")
                .replace("steps_per_span = 200", stepping))
        return write_ini(tmp_path / "oracle.ini", text), out

    def test_failed_purity_fails_only_the_ramp_rows(self, tmp_path, monkeypatch):
        # every orbital-method record after t = 0 carries a defect above the
        # tolerance; the sudden rows are read at t = 0
        spoil_purity_after_t0(monkeypatch)
        ini, out = self._two_groups_ini(tmp_path, "steps_per_span = 100")
        assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_NUMERICAL
        table = read_table(out)
        assert len(table.rows) == 6
        statuses = json.loads(out.with_suffix(".csv.meta.json").read_text())["row_status"]
        # each ramp fails its purity check at its first sample after t = 0, at T / 10
        first_samples = {(0.05, 1e-2): "0.5", (0.05, 0.1): "0.05",
                         (0.1, 1e-2): "1", (0.1, 0.1): "0.1"}
        for row, status in zip(table.rows, statuses):
            case, v, mu_fin = row[:3]
            if case == "sudden":
                assert status == "ok"
                assert np.all(np.isfinite(row[3:]))
                continue
            pattern = (r"failed: purity defect 1 exceeds tolerance 1e-06 at t=%s"
                       % re.escape(first_samples[(mu_fin, v)]))
            assert re.fullmatch(pattern, status), status
            assert np.all(np.isnan(row[3:]))

    def test_an_oracle_failure_fails_only_its_row(self, tmp_path, monkeypatch):
        from tetronsim.dynamics import FockSpace

        measure = FockSpace.measure

        def fail_at_first_sample_of_the_fast_ramp(self, psi, reference, t):
            if t == 0.05:  # T / 10 of the v = 0.1 ramp to mu_fin = 0.05, of no other
                raise ValueError("spoiled sample")
            return measure(self, psi, reference, t)

        monkeypatch.setattr(FockSpace, "measure", fail_at_first_sample_of_the_fast_ramp)
        ini, out = self._two_groups_ini(tmp_path, "steps_per_span = 100")
        assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_NUMERICAL
        statuses = json.loads(out.with_suffix(".csv.meta.json").read_text())["row_status"]
        assert statuses == ["ok", "ok", "failed: spoiled sample", "ok", "ok", "ok"]
        rows = read_table(out).rows
        assert np.all(np.isnan(rows[2][3:]))
        assert all(np.all(np.isfinite(row[3:])) for i, row in enumerate(rows) if i != 2)

    def test_rates_share_ground_states_and_orbital_decompositions(self, tmp_path, monkeypatch):
        # the 0.05 ramps ride the 0.1 stack: chain_eigh decomposes one J S per
        # mu of its grid, and one set of ground states is built per distinct
        # sample mu; the oracle still takes one Hamiltonian per step of each ramp
        from tetronsim import dynamics
        from tetronsim.dynamics import FockSpace

        counts = {"eigh": 0, "ground": 0, "hamiltonian": 0}
        expected = {"ground": 0, "hamiltonian": 0, "samples": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        oracle = dynamics.fock_oracle

        def fock_oracle(params, protocols, policy, sample_times):
            ramps = [dynamics.sample_points(p, ts) for p, ts in zip(protocols, sample_times)]
            expected["ground"] += len({mu for _, mus in ramps for mu in mus})
            expected["samples"] += sum(len(mus) for _, mus in ramps)
            expected["hamiltonian"] += sum(
                len(dynamics._path_steps(mus, policy.resolved_dmu(mus[-1] - mus[0]))[0])
                for _, mus in ramps)
            return oracle(params, protocols, policy, sample_times)

        def fock_quench(params, mu_in, mu_fin):
            expected["ground"] += 2
            return quench(params, mu_in, mu_fin)

        quench = dynamics.fock_quench
        monkeypatch.setattr(dynamics, "fock_oracle", fock_oracle)
        monkeypatch.setattr(dynamics, "fock_quench", fock_quench)
        chain_eigh = dynamics.chain_eigh

        def counted_mus(params, mus):
            counts["eigh"] += len(mus)
            return chain_eigh(params, mus)

        monkeypatch.setattr(dynamics, "chain_eigh", counted_mus)
        for name, method in (("ground", "ground_states"), ("hamiltonian", "hamiltonian")):
            monkeypatch.setattr(FockSpace, method, counted(name, getattr(FockSpace, method)))
        eighs, samples = [], []
        for rates in ("1e-2", "1e-2, 0.1, 0.3"):
            ini, out = self._two_groups_ini(tmp_path, "steps_per_span = 100")
            ini.write_text(ini.read_text().replace("v_list = 1e-2, 0.1", "v_list = " + rates))
            assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_OK
            assert counts["ground"] == expected["ground"]
            assert counts["hamiltonian"] == expected["hamiltonian"] > 0
            eighs.append(counts["eigh"])
            samples.append((counts["ground"], expected["samples"]))
            for tally in (counts, expected):
                tally.update(dict.fromkeys(tally, 0))
        # 100 steps at dmu = 1e-3, less the 15 segment starts that reuse a
        # sample basis: t = 0 and every 5 steps to 50 (the 0.05 ramps' samples),
        # then every 10 steps to 90 (the 0.1 ramps')
        assert eighs == [100 - 15] * 2
        # three rates sample their ramps at mostly the same mus
        (ground_1, samples_1), (ground_3, samples_3) = samples
        assert samples_3 == 3 * samples_1 and ground_3 < 2 * ground_1

    def test_failed_plus_state_flags_every_row(self, tmp_path, monkeypatch):
        fail_plus_state_at_mu_in(monkeypatch)
        ini, out = self._two_groups_ini(tmp_path, "steps_per_span = 100")
        assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_NUMERICAL
        table = read_table(out)
        statuses = json.loads(out.with_suffix(".csv.meta.json").read_text())["row_status"]
        assert [row[0] for row in table.rows] == ["sudden", "ramp", "ramp"] * 2
        assert statuses == ["failed: no isolated near-zero pair at mu_in"] * 6
        assert all(np.all(np.isnan(row[3:])) for row in table.rows)

    def test_one_call_per_engine_matches_each_mu_fin_alone(self, tmp_path, monkeypatch):
        # both mu_fins go through one evolve_ramps and one fock_oracle call; the
        # 0.05 ramps then step with the 0.1 lead's decompositions
        from tetronsim import dynamics

        calls = {"evolve_ramps": 0, "fock_oracle": 0}

        def counted(name):
            fn = getattr(dynamics, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(dynamics, name, counted(name))
        ini, out = self._two_groups_ini(tmp_path, "max_dmu_per_step = 1e-3")
        assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_OK
        assert calls == {"evolve_ramps": 1, "fock_oracle": 1}
        both, text, alone = read_table(out), ini.read_text(), []
        for mu_fin in ("0.05", "0.1"):
            ini.write_text(text.replace("mu_fin_list = 0.05, 0.1", "mu_fin = " + mu_fin))
            assert main(["oracle-check", "--config", str(ini), "--quiet"]) == EXIT_OK
            alone += read_table(out).rows
        assert calls == {"evolve_ramps": 3, "fock_oracle": 3}
        assert len(both.rows) == len(alone) == 6
        for row, ref in zip(both.rows, alone):
            assert row[0] == ref[0]
            np.testing.assert_array_equal(row[1:3], ref[1:3])  # v is NaN on a sudden row
            cells = dict(zip(both.columns, zip(row, ref)))
            for name in ("l_odd_oracle", "l_even_oracle", "l_g_oracle"):
                assert cells[name][0] == cells[name][1]
            for name in ("l_odd_cov", "l_even_cov", "l_g_cov", "max_abs_diff"):
                assert abs(cells[name][0] - cells[name][1]) < 1e-12

    def test_diff_failure_exit_code(self, tmp_path, capsys, monkeypatch):
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
        assert capsys.readouterr().err == ""
        assert main(["oracle-check", "--config", str(ini)]) == EXIT_ORACLE_DIFF
        printed = capsys.readouterr()
        assert printed.out == "wrote 2 rows to %s\n" % out
        assert printed.err == "oracle difference 1 exceeds tolerance 1e-06\n"


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

    @pytest.mark.parametrize("sources", [[], ["--config", "x.ini", "--preset", "fig3"]],
                             ids=["neither", "both"])
    def test_exactly_one_of_config_and_preset(self, capsys, sources):
        assert main(["run", *sources, "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: provide exactly one of --config or --preset\n")
