"""The comparison functions of ``tools/compare_outputs.py`` on small synthetic tables."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

HEADER = "case,v,l_g\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_identical_files_report_no_move(tmp_path):
    text = HEADER + "ramp,1.0e-02,3.0e-04\nsudden,nan,1.0e-02\n"
    result = compare_outputs.compare_csv(write(tmp_path / "a.csv", text),
                                         write(tmp_path / "b.csv", text))
    assert result == {"identical": True, "columns": {}, "shape": None}


def test_moved_cells_give_each_column_its_largest_moves(tmp_path):
    old = write(tmp_path / "a.csv", HEADER + "ramp,1.0e-02,3.0e-04\nramp,2.0e-02,0.0e+00\n"
                                             "sudden,nan,1.0e-02\n")
    new = write(tmp_path / "b.csv", HEADER + "ramp,1.0e-02,3.3e-04\nramp,2.0e-02,1.0e-20\n"
                                             "sudden,nan,1.0e-02\n")
    result = compare_outputs.compare_csv(old, new)
    assert not result["identical"] and result["shape"] is None
    # only l_g moved: 3e-5 absolute, and 1 relative where it left 0; NaN = NaN is no move
    assert list(result["columns"]) == ["l_g"]
    move_abs, move_rel = result["columns"]["l_g"]
    assert move_abs == pytest.approx(3e-5)
    assert move_rel == 1.0


def test_text_nan_and_shape_changes_are_reported(tmp_path):
    old = write(tmp_path / "a.csv", HEADER + "ramp,nan,1.0e-02\n")
    moved = compare_outputs.compare_csv(old, write(tmp_path / "b.csv",
                                                   HEADER + "sudden,1.0e-02,1.0e-02\n"))
    assert moved["columns"] == {"case": (math.inf, math.inf), "v": (math.inf, math.inf)}
    longer = compare_outputs.compare_csv(old, write(tmp_path / "c.csv",
                                                    HEADER + "ramp,nan,1.0e-02\n" * 2))
    assert longer["columns"] == {} and "row count" in longer["shape"]
    # the same numbers written differently are not byte-identical, but nothing moved
    respelled = compare_outputs.compare_csv(old, write(tmp_path / "d.csv",
                                                       HEADER + "ramp,nan,0.01\n"))
    assert respelled == {"identical": False, "columns": {}, "shape": None}


def test_sidecar_diffs_leave_out_timing_and_environment(tmp_path):
    meta = {"config": {"model": {"n_sites": 3}}, "row_status": ["ok", "ok"],
            "environment": {"numpy": "2.4.6"}, "wall_clock_s": 0.05, "dmu": 1e-3}
    old = write(tmp_path / "a.json", json.dumps(meta))
    same = dict(meta, environment={"numpy": "1.26.0"}, wall_clock_s=9.0)
    assert compare_outputs.sidecar_diffs(old, write(tmp_path / "b.json", json.dumps(same))) == []
    moved = dict(meta, config={"model": {"n_sites": 4}}, row_status=["ok", "failed"])
    del moved["dmu"]
    assert compare_outputs.sidecar_diffs(old, write(tmp_path / "c.json", json.dumps(moved))) == [
        "config.model.n_sites", "dmu", "row_status"]
