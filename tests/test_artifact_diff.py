"""The comparator of tools/artifact_diff.py on hand-made output directories;
the full run matrix is left out of the suite."""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TOOL = os.path.join(_ROOT, "tools", "artifact_diff.py")
_SPEC = importlib.util.spec_from_file_location("artifact_diff", _TOOL)
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)

CSV = "t,E1,u_L2\n0.0,2.0,1.0\n0.5,1.0,0.25\n"
SUMMARY = {
    "label": "run",
    "spectral": {"abscissa": -0.5, "n_eigenvalues": 6},
    "levels": [{"h": 0.5}, {"h": 0.25}],
}


def outputs(path, csv=CSV, summary=SUMMARY):
    path.mkdir()
    (path / "trajectory.csv").write_text(csv)
    (path / "summary.json").write_text(json.dumps(summary, indent=1))
    return str(path)


def test_identical_directories_compare_equal(tmp_path):
    a, b = outputs(tmp_path / "a"), outputs(tmp_path / "b")
    equal = {"equal": True}
    assert artifact_diff.compare_dirs(a, b) == {"summary.json": equal, "trajectory.csv": equal}


def test_a_perturbed_csv_value_names_its_column(tmp_path):
    a = outputs(tmp_path / "a")
    b = outputs(tmp_path / "b", csv=CSV.replace("0.5,1.0,", "0.5,1.25,"))
    rep = artifact_diff.compare_dirs(a, b)
    assert rep["summary.json"] == {"equal": True}
    assert rep["trajectory.csv"] == {"equal": False, "max_rel_diff": {"E1": 0.2}, "other": []}


def test_a_changed_json_number_names_its_path(tmp_path):
    changed = json.loads(json.dumps(SUMMARY))
    changed["levels"][1]["h"] = 0.2
    changed["label"] = "other"
    a, b = outputs(tmp_path / "a"), outputs(tmp_path / "b", summary=changed)
    rep = artifact_diff.compare_dirs(a, b)
    assert rep["trajectory.csv"] == {"equal": True}
    assert rep["summary.json"] == {
        "equal": False,
        "max_rel_diff": {"levels/*/h": pytest.approx(0.2, rel=1e-12)},
        "other": ["label"],
    }


def test_a_file_only_one_side_wrote_is_unequal(tmp_path):
    a, b = outputs(tmp_path / "a"), outputs(tmp_path / "b")
    os.remove(os.path.join(b, "trajectory.csv"))
    assert artifact_diff.compare_dirs(a, b)["trajectory.csv"] == {"equal": False, "only_in": "a"}


def test_the_matrix_is_33_runs():
    runs = artifact_diff.matrix()
    assert len(runs) == 33 and len({(name, sub) for name, sub, _ in runs}) == 33
