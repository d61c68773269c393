"""Configuration handling, artifact serialization, CLI exit behavior."""

import errno
import gc
import inspect
import json
import logging
import os
from pathlib import Path
import re
import signal
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest

import mgtstab as M
from mgtstab import cli, energy, reporting, spectral
from mgtstab.config import MAX_STEPS, SCHEMA, canonical_json
from mgtstab.dynamics import _CHUNK_ELEMENTS, record_count
from mgtstab.reporting import sanitize, write_csv_blocks, write_json, write_trajectory_csv

from conftest import interval_config, preset_names


def tiny_config(**over):
    base = {
        "geometry": {"kind": "interval", "x_left": 0.0, "x_right": 1.0, "gamma0_end": "left"},
        "mesh": {"resolution": 16},
        "params": {"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 2.0, "kappa0": 1.0, "kappa1": 1.0},
        "time": {"T": 0.5, "dt": 1e-2},
        "initial": {"kind": "robin-mode"},
    }
    for key, val in over.items():
        if isinstance(val, dict):
            base.setdefault(key, {}).update(val)
        else:
            base[key] = val
    return base


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ----------------------------------------------------------------- config


def test_preset_resolution_and_override():
    cfg = M.load_config({"preset": "interval-1d-damped", "time": {"T": 3.0}})
    assert cfg["time"]["T"] == 3.0
    assert cfg["time"]["dt"] == 1e-3  # preset value survives the deep merge
    assert cfg["params"]["alpha"] == 2.0


def test_preset_dicts_are_isolated():
    a = M.preset("interval-1d-conserved")
    a["params"]["alpha"] = 99.0
    b = M.preset("interval-1d-conserved")
    assert b["params"]["alpha"] != 99.0
    assert set(preset_names()) >= {
        "interval-1d-conserved",
        "interval-1d-damped",
        "interval-1d-unstable",
        "transducer-2d",
        "half-disk-2d",
    }


def test_unknown_preset_rejected():
    with pytest.raises(M.ConfigError):
        M.load_config({"preset": "no-such-scenario"})


def test_schema_is_valid_under_its_meta_schema():
    # load_config validates with a validator built once, without this check
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


def test_schema_violations_rejected():
    msg = "invalid configuration at params/tau: 'one' is not of type 'number'"
    with pytest.raises(M.ConfigError) as info:
        M.load_config(tiny_config(params={"tau": "one"}))
    assert str(info.value) == msg
    with pytest.raises(M.ConfigError):
        M.load_config({"geometry": {"kind": "interval"}, "mesh": {"resolution": 4}})
    cfg = tiny_config()
    cfg["typo_section"] = {}
    with pytest.raises(M.ConfigError):
        M.load_config(cfg)


def test_missing_required_parameter_rejected():
    cfg = tiny_config()
    del cfg["params"]["kappa0"]
    with pytest.raises(M.ConfigError):
        M.load_config(cfg)


def test_config_hash_ignores_key_order():
    cfg = M.load_config(tiny_config())
    flipped = json.loads(json.dumps(cfg))
    flipped["params"] = dict(reversed(list(flipped["params"].items())))
    assert M.config_hash(cfg) == M.config_hash(flipped)
    bumped = json.loads(json.dumps(cfg))
    bumped["params"]["alpha"] = 2.5
    assert M.config_hash(cfg) != M.config_hash(bumped)


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_load_config_file_missing(tmp_path):
    with pytest.raises(M.ConfigError):
        M.load_config_file(str(tmp_path / "absent.json"))


# -------------------------------------------------------------- reporting


def test_sanitize_scalars():
    out = sanitize(
        {
            "flag": np.bool_(True),
            "count": np.int64(3),
            "value": np.float64(0.5),
            "bad": float("nan"),
            "inf": float("inf"),
            "eig": 1.0 + 2.0j,
            "arr": np.arange(3),
            "nested": [{"t": False}],
        }
    )
    assert out["flag"] is True
    assert out["count"] == 3 and isinstance(out["count"], int)
    assert out["value"] == 0.5 and isinstance(out["value"], float)
    assert out["bad"] is None and out["inf"] is None
    assert out["eig"] == [1.0, 2.0]
    assert out["arr"] == [0, 1, 2]
    assert out["nested"][0]["t"] is False


def test_write_json_is_deterministic(tmp_path):
    payload = {"b": [1.0, 2.0], "a": {"y": True, "x": None}}
    p1, p2 = str(tmp_path / "one.json"), str(tmp_path / "two.json")
    write_json(p1, payload)
    write_json(p2, {"a": {"x": None, "y": True}, "b": [1.0, 2.0]})
    b1, b2 = Path(p1).read_bytes(), Path(p2).read_bytes()
    assert b1 == b2
    assert b1.endswith(b"\n")
    assert json.loads(b1) == payload


def test_write_csv_roundtrips_floats(tmp_path):
    path = str(tmp_path / "vals.csv")
    rows = np.array([[1.0 / 3.0, np.pi], [1e-300, 7.0]])
    write_csv_blocks(path, ["left", "right"], [rows])
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back, rows)  # %.17g is lossless for doubles


def test_write_csv_matches_per_value_formatting(tmp_path):
    path = str(tmp_path / "vals.csv")
    rows = np.array(
        [
            [-1.0 / 3.0, 5e-324, 1e300, np.nan],
            [np.inf, -np.inf, -0.0, -2.2250738585072014e-309],
        ]
    )
    write_csv_blocks(path, ["a", "b", "c", "d"], [rows])
    assert Path(path).read_bytes() == per_value_csv(["a", "b", "c", "d"], rows)


def per_value_csv(columns, rows):
    return (",".join(columns) + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)).encode()


def test_write_csv_blocks_match_per_value_formatting(tmp_path):
    # blocks of 2, 1, 0 and 3 rows, with non-finite values, -0.0 and subnormals
    rows = np.array(
        [
            [-1.0 / 3.0, 5e-324, 1e300],
            [np.nan, np.inf, -np.inf],
            [-0.0, -2.2250738585072014e-309, 2.2250738585072014e-308],
            [0.1, -5e-324, 1.0],
            [np.pi, -np.nan, 7.0],
            [1e-310, 2.0**-1074 * 3, -1e16],
        ]
    )
    path = tmp_path / "blocks.csv"
    write_csv_blocks(str(path), ["a", "b", "c"], iter([rows[:2], rows[2:3], rows[3:3], rows[3:]]))
    assert path.read_bytes() == per_value_csv(["a", "b", "c"], rows)
    write_csv_blocks(str(path), ["a", "b", "c"], iter([rows[:0]]))
    assert path.read_bytes() == b"a,b,c\n"


def test_write_csv_blocks_leave_nothing_when_the_blocks_raise(tmp_path):
    def blocks():
        yield np.ones((2, 3))
        raise RuntimeError("no more rows")

    with pytest.raises(RuntimeError, match="no more rows"):
        write_csv_blocks(str(tmp_path / "t.csv"), ["a", "b", "c"], blocks())
    assert os.listdir(tmp_path) == []


def test_each_format_call_takes_at_most_one_chunk(tmp_path, monkeypatch):
    # a streamed table is formatted one block per chunk of recorded samples
    shapes, formatted = [], reporting._formatted
    monkeypatch.setattr(reporting, "_formatted", lambda rows: shapes.append(rows.shape) or formatted(rows))
    monkeypatch.delattr(os, "fork")  # the writer runs inline, in this process
    cli.run(streamed_config(7282), "simulate", out_dir=str(tmp_path / "streamed"))
    chunk = _CHUNK_ELEMENTS // 17
    assert shapes == [(chunk, 9), (7282 - chunk, 9)]


def test_artifacts_take_the_mode_the_umask_gives(tmp_path):
    # a new file's mode, 0o666 less the umask, whatever the temporary file had
    written = {}
    for mask, mode in ((0o022, 0o644), (0o077, 0o600)):
        old = os.umask(mask)
        try:
            write_json(str(tmp_path / ("%o.json" % mask)), {"a": [1.0, None]})
            write_csv_blocks(str(tmp_path / ("%o.csv" % mask)), ["x", "y"], [np.array([[0.5, 2.0]])])
        finally:
            os.umask(old)
        for ext in ("json", "csv"):
            path = tmp_path / ("%o.%s" % (mask, ext))
            assert path.stat().st_mode & 0o777 == mode, (path, oct(path.stat().st_mode))
            written.setdefault(ext, set()).add(path.read_bytes())
    assert written == {"json": {b'{\n  "a": [\n    1.0,\n    null\n  ]\n}\n'}, "csv": {b"x,y\n0.5,2\n"}}


def test_trajectory_csv_columns(tmp_path):
    scen = M.Scenario(interval_config(initial={"kind": "robin-mode"}))
    traj = M.simulate(scen.bundle, scen.initial, T=0.2, dt=1e-2)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv([traj.csv_rows()], path)
    header = Path(path).read_text().splitlines()[0].split(",")
    assert tuple(header) == traj.CSV_COLUMNS
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj.times), len(header))
    np.testing.assert_array_equal(data[:, 0], traj.times)


# --------------------------------------------------------------------- cli


def test_cli_simulate_writes_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out = str(tmp_path / "out")
    code = cli.main(["simulate", "--config", cfg_path, "--out", out])
    assert code == cli.EXIT_OK
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["subcommand"] == "simulate"
    assert summary["classification"] == "stable"
    assert summary["energy"]["identity_residual"] <= 1e-4
    assert len(summary["config_sha256"]) == 64
    assert os.path.exists(os.path.join(out, "trajectory.csv"))


def test_cli_spectrum(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", cfg_path, "--out", out]) == cli.EXIT_OK
    rep = json.loads(Path(out, "spectrum.json").read_text())
    assert rep["spectrum"]["abscissa"] < 0
    assert rep["spectrum"]["stable"] is True
    # eigenvalues serialize as [re, im] pairs
    assert len(rep["spectrum"]["eigenvalues"][0]) == 2
    assert rep["spectrum"]["method"] == "dense"
    assert "converged" not in rep["spectrum"]


def test_cli_spectrum_and_full_name_the_critical_eigensolve(tmp_path):
    # alpha = tau c^2 / b: gamma == 0, so the damped-wave block is solved
    cfg_path = write_config(tmp_path, tiny_config(params={"alpha": 1.0}))
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", cfg_path, "--out", out]) == cli.EXIT_OK
    rep = json.loads(Path(out, "spectrum.json").read_text())["spectrum"]
    assert rep["method"] == "dense-wave-block"
    assert len(rep["eigenvalues"]) == 3 * 17
    assert cli.main(["full", "--config", cfg_path, "--out", out]) == cli.EXIT_OK
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["spectral"]["method"] == "dense-wave-block"
    assert summary["spectral"]["n_eigenvalues"] == 3 * 17


@pytest.mark.parametrize(
    "preset, mesh, solver",
    [("interval-1d-damped", {}, "dense-lu"), ("transducer-2d", {"resolution": 5}, "sparse-lu")],
    ids=["interval-1d-damped", "transducer-2d-resolution-5"],
)
def test_cli_full_reports_the_stage_solver_health(tmp_path, preset, mesh, solver):
    # the health figures do not depend on T, which is cut to keep the run short
    cfg = {"preset": preset, "mesh": mesh, "time": {"T": 0.5}}
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["full", "--config", cfg_path, "--out", out]) == cli.EXIT_OK
    meta = json.loads(Path(out, "summary.json").read_text())["meta"]
    n = {"dense-lu": 65, "sparse-lu": 211}[solver]
    assert meta["stage_solver"] == solver
    assert (meta["stage_factor_nnz"] == n * n) == (solver == "dense-lu")
    assert meta["stage_factor_nnz"] >= n
    assert 0.0 <= meta["stage_residual"] <= 1e-12


def test_cli_certify_geometry(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out = str(tmp_path / "out")
    assert cli.main(["certify-geometry", "--config", cfg_path, "--out", out]) == cli.EXIT_OK
    cert = json.loads(Path(out, "certification.json").read_text())["certification"]
    assert cert["certified"] is True
    assert cert["c0"] > 0
    assert cert["max_normal_trace_on_gamma0"] <= 1e-10


def test_cli_multiplier_check(tmp_path):
    cfg = tiny_config(multiplier={"levels": 2, "n_time": 21, "t_final": 1.0, "window_cut": 0.0})
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["multiplier-check", "--config", cfg_path, "--out", out]) == cli.EXIT_OK
    rep = json.loads(Path(out, "multiplier.json").read_text())["multiplier"]
    assert set(rep["slopes"]) == {"hgradz", "zdivh", "zmul"}
    assert "not_applicable" not in rep
    for slope in rep["slopes"].values():
        assert slope >= 1.8
    assert rep["gamma0_term_max"] <= 1e-9


def test_cli_multiplier_check_on_the_half_disk(tmp_path):
    # the paper's HIFU-like geometry at its preset's three levels (up to
    # 52 224 volume points and 321 times); the slopes are pinned to their
    # values before the separable quadrature, which rounds differently
    cfg_path = write_config(tmp_path, {"preset": "half-disk-2d"})
    out = str(tmp_path / "out")
    assert cli.main(["multiplier-check", "--config", cfg_path, "--out", out]) == cli.EXIT_OK
    rep = json.loads(Path(out, "multiplier.json").read_text())["multiplier"]
    assert rep["gamma0_term_max"] == 0.0
    assert set(rep["slopes"]) == {"hgradz", "zdivh"}
    assert rep["slopes"]["hgradz"] == pytest.approx(1.8304427598255264, abs=1e-9)
    assert rep["slopes"]["zdivh"] == pytest.approx(1.985359186739652, abs=1e-9)


@pytest.mark.parametrize(
    "geometry", [{"gamma0_end": "right"}, {"x_right": 2.0}, {"gamma0_end": None}],
    ids=["gamma0-right", "interval-0-2", "no-gamma0"],
)
def test_cli_multiplier_check_leaves_out_zmul_off_its_field(tmp_path, geometry):
    # the zmul field meets the Robin condition at x = 0 and the feedback at
    # x = 1; elsewhere its residual does not converge, so no slope is given
    cfg = {"preset": "interval-1d-damped", "geometry": geometry, "multiplier": {"levels": 2, "n_time": 21}}
    out = str(tmp_path / "out")
    assert cli.main(["multiplier-check", "--config", write_config(tmp_path, cfg), "--out", out]) == cli.EXIT_OK
    rep = json.loads(Path(out, "multiplier.json").read_text())["multiplier"]
    assert set(rep["slopes"]) == {"hgradz", "zdivh"}
    assert all(set(lv) == {"resolution", "n_time", "mesh_size", "hgradz", "zdivh"} for lv in rep["levels"])
    assert list(rep["not_applicable"]) == ["zmul"]
    assert "(0, 1) with gamma0 at x = 0" in rep["not_applicable"]["zmul"]


@pytest.mark.parametrize("gamma0_end", ["left", "right"])
def test_cli_full_summary_says_why_zmul_is_missing(tmp_path, gamma0_end):
    # summary.json copies multiplier.json's reason for a missing slope
    cfg = {
        "preset": "interval-1d-damped",
        "geometry": {"gamma0_end": gamma0_end},
        "time": {"T": 0.5, "dt": 0.01},
        "multiplier": {"levels": 2, "n_time": 21},
    }
    out = str(tmp_path / "out")
    assert cli.main(["full", "--config", write_config(tmp_path, cfg), "--out", out]) == cli.EXIT_OK
    summary = json.loads(Path(out, "summary.json").read_text())["multiplier"]
    rep = json.loads(Path(out, "multiplier.json").read_text())["multiplier"]
    if gamma0_end == "left":
        assert set(summary) == {"slopes", "gamma0_term_max"}
        assert set(summary["slopes"]) == {"hgradz", "zdivh", "zmul"}
    else:
        assert set(summary["slopes"]) == {"hgradz", "zdivh"}
        assert summary["not_applicable"] == rep["not_applicable"]
        assert list(summary["not_applicable"]) == ["zmul"]


def test_cli_full_says_why_the_curved_cap_gets_no_multiplier_check(tmp_path):
    # the transducer's curved-cap field has no closed form: multiplier-check
    # is a config error, and full reports the check as not applicable
    cfg_path = write_config(
        tmp_path,
        {"preset": "transducer-2d", "mesh": {"resolution": 3}, "time": {"T": 0.2},
         "multiplier": {"levels": 2, "n_time": 21}},
    )
    full, check = str(tmp_path / "full"), str(tmp_path / "check")
    assert cli.main(["full", "--config", cfg_path, "--out", full]) == cli.EXIT_OK
    summary = json.loads(Path(full, "summary.json").read_text())
    assert summary["multiplier"] == {"applicable": False, "reason": cli._NO_CLOSED_FORM}
    assert not Path(full, "multiplier.json").exists()
    assert cli.main(["multiplier-check", "--config", cfg_path, "--out", check]) == cli.EXIT_CONFIG
    assert json.loads(Path(check, "error.json").read_text())["message"] == cli._NO_CLOSED_FORM


def test_cli_full_without_robin_mass_reports_no_adjoint_check(tmp_path):
    # with gamma0 empty the Neumann map is singular: there is no adjoint
    # identity to check, and the run still ends in summary.json
    cfg = {"preset": "interval-1d-damped", "geometry": {"gamma0_end": None}, "time": {"T": 1.0, "dt": 0.01}}
    out = str(tmp_path / "out")
    assert cli.main(["full", "--config", write_config(tmp_path, cfg), "--out", out]) == cli.EXIT_OK
    adj = json.loads(Path(out, "summary.json").read_text())["adjoint_check"]
    assert adj.pop("reason").startswith("Ktilde is singular: no Robin mass on gamma0")
    assert adj == {"applicable": False, "n_pairs": 0, "max_relative_residual": None}


def test_cli_config_error_exit_and_artifact(tmp_path):
    cfg = tiny_config()
    del cfg["time"]
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    code = cli.main(["simulate", "--config", cfg_path, "--out", out])
    assert code == cli.EXIT_CONFIG
    err = json.loads(Path(out, "error.json").read_text())
    assert err["exit_code"] == cli.EXIT_CONFIG
    assert err["error"] == "ConfigError"


def test_cli_geometry_error_exit(tmp_path):
    # x0 strictly inside the interval breaks the star-shape hypothesis
    cfg = tiny_config(geometry={"x0": 0.5})
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    code = cli.main(["certify-geometry", "--config", cfg_path, "--out", out])
    assert code == cli.EXIT_GEOMETRY
    err = json.loads(Path(out, "error.json").read_text())
    assert err["exit_code"] == cli.EXIT_GEOMETRY
    cert = json.loads(Path(out, "certification.json").read_text())["certification"]
    assert cert["certified"] is False


def test_cli_field_certification_failure_writes_both_artifacts(tmp_path):
    # x0 far out makes x - x0 constant to rounding: the field passes both
    # hypotheses, then fails certification with c0 = 0
    cfg_path = write_config(tmp_path, {"preset": "interval-1d-damped", "geometry": {"x0": -1e300}})
    out = tmp_path / "out"
    code = cli.main(["certify-geometry", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_GEOMETRY
    assert sorted(p.name for p in out.iterdir()) == ["certification.json", "error.json"]
    err = json.loads((out / "error.json").read_text())
    assert (err["error"], err["exit_code"]) == ("CertificationError", cli.EXIT_GEOMETRY)
    cert = json.loads((out / "certification.json").read_text())["certification"]
    assert cert["certified"] is False
    assert (cert["c0"], cert["max_normal_trace_on_gamma0"]) == (0.0, 0.0)
    assert cert["reason"].startswith("field certification failed")
    assert err["message"] == cert["reason"]


_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
_SQUARE_TAGS = ["gamma0", "gamma1", "gamma1", "gamma1"]


def _polygon(vertices=_SQUARE, tags=_SQUARE_TAGS, x0=(0.5, -0.7)):
    return {"kind": "polygon", "vertices": vertices, "segment_tags": tags, "x0": list(x0)}


@pytest.mark.parametrize(
    "preset, geometry, expected, message",
    [
        ("interval-1d-damped", {"x0": [0, 0]}, 3, "x0 must be a single coordinate in 1D"),
        ("interval-1d-damped", {"x_left": 1, "x_right": 0}, 3,
         "interval endpoints must be increasing"),
        ("half-disk-2d", _polygon(vertices=_SQUARE[::-1]), 3,
         "polygon must be counterclockwise (signed area > 0)"),
        ("half-disk-2d", _polygon(tags=_SQUARE_TAGS[:3]), 3, "need one tag per polygon segment"),
        ("half-disk-2d", {**_polygon(), "x0": 0.5}, 3, "x0 must be a point in the plane"),
        ("half-disk-2d", _polygon(tags=["gamma0"] * 4), 3, "gamma1 must be nonempty"),
        ("half-disk-2d", _polygon(vertices=_SQUARE[:2] + _SQUARE[1:], tags=_SQUARE_TAGS + ["gamma1"]),
         3, "polygon has a degenerate segment"),
        ("half-disk-2d",
         _polygon(vertices=[[0, 0], [0.5, 0.3], [1, 0], [1, 1], [0, 1]],
                  tags=["gamma0", "gamma0", "gamma1", "gamma1", "gamma1"], x0=(0.5, -2)), 3,
         "gamma0 chain is not convex"),
        ("half-disk-2d", {"kind": "polygon"}, 2,
         "polygon geometry needs 'vertices', 'segment_tags' and 'x0'"),
    ],
    ids=[
        "interval-x0-in-the-plane",
        "interval-reversed",
        "clockwise",
        "tag-per-segment",
        "polygon-scalar-x0",
        "no-gamma1",
        "repeated-vertex",
        "reflex-gamma0",
        "polygon-without-vertices",
    ],
)
def test_cli_malformed_geometry_exits_with_its_message(
    tmp_path, preset, geometry, expected, message
):
    cfg_path = write_config(tmp_path, {"preset": preset, "geometry": geometry})
    out = tmp_path / "out"
    code = cli.main(["certify-geometry", "--config", cfg_path, "--out", str(out)])
    assert code == expected
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == expected
    assert err["message"].startswith(message)


def test_polygon_kind_runs_as_the_named_unit_square():
    # the same square given by its vertices and by its name: every field of
    # the `full` payload but the configuration itself agrees
    over = {"mesh": {"resolution": 4}, "time": {"T": 0.2}}
    payloads = [
        sanitize(cli.run({"preset": "half-disk-2d", "geometry": geometry, **over}, "full", seed=3))
        for geometry in (_polygon(), {"kind": "named", "name": "unit-square"})
    ]
    assert payloads[0]["effective_config"]["geometry"]["kind"] == "polygon"
    for payload in payloads:
        del payload["effective_config"], payload["config_sha256"]
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize(
    "preset, geometry",
    [("half-disk-2d", _polygon()), ("interval-1d-damped", {"kind": "named", "name": "unit-square"})],
    ids=["half-disk-as-polygon", "interval-as-named"],
)
def test_a_geometry_of_another_kind_replaces_the_presets(preset, geometry):
    # the preset's keys of its own kind would be written and hashed, but never read
    assert M.load_config({"preset": preset, "geometry": geometry})["geometry"] == geometry


@pytest.mark.parametrize("geometry", [{"kind": "interval", "x_right": 2.0}, {"x_right": 2.0}])
def test_a_geometry_of_the_same_kind_merges_into_the_presets(geometry):
    cfg = M.load_config({"preset": "interval-1d-damped", "geometry": geometry})
    assert cfg["geometry"] == {**M.preset("interval-1d-damped")["geometry"], "x_right": 2.0}


@pytest.mark.parametrize("subcommand", ["certify-geometry", "full"])
@pytest.mark.parametrize(
    "preset, geometry",
    [
        ("interval-1d-damped", {"kind": "interval", "x_left": -1e200, "x_right": 1e200}),
        ("half-disk-2d", _polygon(vertices=[[0, 0], [2e150, 0], [1, 1], [0, 1]])),
    ],
    ids=["interval", "polygon"],
)
def test_cli_coordinates_beyond_the_bound_are_a_geometry_error(tmp_path, preset, geometry, subcommand):
    # squared distances of such coordinates overflow; the suite turns the
    # RuntimeWarning that would follow into an error, so exit 3 also says none came
    cfg_path = write_config(tmp_path, {"preset": preset, "geometry": geometry})
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", cfg_path, "--out", str(out)]) == cli.EXIT_GEOMETRY
    assert os.listdir(out) == ["error.json"]
    assert json.loads((out / "error.json").read_text()) == {
        "error": "GeometryError",
        "exit_code": cli.EXIT_GEOMETRY,
        "message": "vertex coordinates must lie within [-1e+150, 1e+150]",
    }


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "configuration file is not valid JSON"),
        ("[1, 2]", "configuration must be a JSON object"),
    ],
    ids=["not-json", "json-array"],
)
def test_cli_unreadable_config_file_is_a_config_error(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert (err["error"], err["exit_code"]) == ("ConfigError", cli.EXIT_CONFIG)
    assert err["message"].startswith(message)


def test_cli_spectrum_of_a_conservative_pencil_is_not_stable(tmp_path):
    # kappa0 = kappa1 = 0 leaves the stiffness pencil singular: zero is an
    # eigenvalue, so the dense eigensolve gives an abscissa at rounding
    # level and the spectrum is not reported stable
    cfg = tiny_config(params={"kappa0": 0.0, "kappa1": 0.0})
    cfg["initial"] = {"kind": "zero"}
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    code = cli.main(["spectrum", "--config", cfg_path, "--out", out])
    assert code == cli.EXIT_OK
    rep = json.loads(Path(out, "spectrum.json").read_text())["spectrum"]
    assert rep["stable"] is False
    assert abs(rep["abscissa"]) <= 1e-12


@pytest.mark.parametrize("subcommand", ["spectrum", "full"])
def test_cli_spectrum_above_the_eigensolver_cap_is_a_config_error(
    tmp_path, monkeypatch, subcommand
):
    # tiny_config has 3n = 51; the cap is read when the size is checked
    monkeypatch.setattr(spectral, "DENSE_EIG_CAP", 50)
    cfg_path = write_config(tmp_path, tiny_config())
    out = str(tmp_path / "out")
    assert cli.main([subcommand, "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
    err = json.loads(Path(out, "error.json").read_text())
    assert err["error"] == "ConfigError"
    assert "51" in err["message"] and "50" in err["message"]
    assert not os.path.exists(os.path.join(out, "spectrum.json"))
    assert not os.path.exists(os.path.join(out, "summary.json"))
    # `full` checks the cap before any stage, so none leaves an artifact
    assert not os.path.exists(os.path.join(out, "certification.json"))
    assert not os.path.exists(os.path.join(out, "trajectory.csv"))


def test_cli_rejects_the_removed_spectrum_section(tmp_path):
    # and the removed time.store_states key
    for over, name in (
        ({"spectrum": {"dense_cap": 600}}, "spectrum"),
        ({"time": {"store_states": True}}, "store_states"),
    ):
        cfg_path = write_config(tmp_path, tiny_config(**over), name=name + ".json")
        out = str(tmp_path / name)
        assert cli.main(["spectrum", "--config", cfg_path, "--out", out]) == cli.EXIT_CONFIG
        err = json.loads(Path(out, "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert name in err["message"]


def test_cli_full_solves_the_spectrum_once(tmp_path, monkeypatch):
    # one line per call, appended to a file, so that calls made in the
    # forked spectrum worker are counted too
    calls = tmp_path / "calls"
    calls.touch()
    solve = spectral.spectrum

    def counting(*args, **kwargs):
        with open(calls, "a") as f:
            f.write("spectrum\n")
        return solve(*args, **kwargs)

    # patch every module-level name the full run could reach it through
    monkeypatch.setattr(cli, "spectrum", counting)
    monkeypatch.setattr(spectral, "spectrum", counting)
    payload = cli.run(tiny_config(), "full")
    assert len(calls.read_text().splitlines()) == 1
    assert payload["abscissa_vs_decay"]["applicable"] is True
    assert payload["spectral"]["method"] == "dense"


def test_cli_full_fits_the_decay_once(tmp_path, monkeypatch):
    # the abscissa check compares the run's own fitted rate: counted through
    # a file, as above, and patched under every name a full run could use
    calls = tmp_path / "calls"
    calls.touch()
    fit = energy.fit_decay_rate

    def counting(*args, **kwargs):
        with open(calls, "a") as f:
            f.write("fit\n")
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_decay_rate", counting)
    monkeypatch.setattr(energy, "fit_decay_rate", counting)
    out = tmp_path / "out"
    cli.run(tiny_config(), "full", out_dir=str(out))
    assert len(calls.read_text().splitlines()) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["abscissa_vs_decay"]["applicable"] is True
    fitted, omega = summary["abscissa_vs_decay"]["fitted_omega"], summary["decay_fit"]["omega"]
    assert np.float64(fitted).tobytes() == np.float64(omega).tobytes()


def test_cli_full_worker_error_matches_the_inline_path(tmp_path, monkeypatch):
    # an error in the forked eigensolve is re-raised where the inline
    # solve raises it: after stepping, before spectrum.json
    def failing(generator):
        raise M.NumericalError("eigensolve failed at size %d" % generator.size)

    monkeypatch.setattr(cli, "spectrum", failing)
    cfg_path = write_config(tmp_path, tiny_config())
    forked, inline = str(tmp_path / "forked"), str(tmp_path / "inline")
    assert cli.main(["full", "--config", cfg_path, "--out", forked]) == cli.EXIT_NUMERICAL
    monkeypatch.delattr(os, "fork")
    assert cli.main(["full", "--config", cfg_path, "--out", inline]) == cli.EXIT_NUMERICAL
    for out in (forked, inline):
        assert sorted(os.listdir(out)) == ["certification.json", "error.json", "trajectory.csv"]
    err = Path(forked, "error.json").read_bytes()
    assert err == Path(inline, "error.json").read_bytes()
    assert json.loads(err)["message"] == "eigensolve failed at size 51"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker needs os.fork")
def test_cli_full_worker_without_a_result_is_a_runtime_error(monkeypatch):
    monkeypatch.setattr(cli, "spectrum", lambda generator: os._exit(7))
    with pytest.raises(RuntimeError, match=r"^worker exited without a result \(exit status 7\)$"):
        cli.run(tiny_config(), "full")


@pytest.mark.parametrize(
    "cfg, expected",
    [
        (tiny_config(geometry={"x0": 0.5}), cli.EXIT_GEOMETRY),
        (
            {"preset": "interval-1d-unstable", "time": {"T": 4000, "dt": 0.5}},
            cli.EXIT_NUMERICAL,
        ),
    ],
    ids=["certification-fails", "energy-overflows"],
)
def test_cli_full_reaps_the_worker_when_a_stage_fails(tmp_path, cfg, expected):
    out = str(tmp_path / "out")
    assert cli.main(["full", "--config", write_config(tmp_path, cfg), "--out", out]) == expected
    assert not os.path.exists(os.path.join(out, "spectrum.json"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
def test_cli_full_interrupted_while_collecting_reaps_the_worker(monkeypatch):
    # the parent is interrupted while it waits for a worker that would run
    # for a minute: the worker is killed, not waited for, and the conftest
    # fixture checks that it was reaped
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    monkeypatch.setattr(cli, "spectrum", lambda generator: time.sleep(60))
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        start = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(Interrupted):
            cli.run(tiny_config(), "full")
        assert time.monotonic() - start < 30
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_cli_full_inline_fallback_writes_identical_artifacts(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, tiny_config(multiplier={"levels": 2, "n_time": 21}))
    forked, inline = str(tmp_path / "forked"), str(tmp_path / "inline")
    assert cli.main(["full", "--config", cfg_path, "--out", forked, "--seed", "3"]) == 0
    monkeypatch.delattr(os, "fork")
    assert cli.main(["full", "--config", cfg_path, "--out", inline, "--seed", "3"]) == 0
    names = sorted(os.listdir(forked))
    assert names == sorted(os.listdir(inline))
    assert len(names) == 5
    for name in names:
        assert Path(forked, name).read_bytes() == Path(inline, name).read_bytes(), name


def streamed_config(n_rows):
    # n = 17 nodes and dt = 1e-3: a trajectory table of n_rows rows of 9 values
    cfg = tiny_config(time={"T": (n_rows - 1) * 1e-3, "dt": 1e-3})
    assert record_count(cfg["time"]["T"], cfg["time"]["dt"], 1) == n_rows
    return cfg


def counting_forks(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer needs os.fork")
@pytest.mark.parametrize("n_rows", [7281, 7282])
def test_cli_streamed_csv_matches_the_inline_write(tmp_path, monkeypatch, n_rows):
    # 7282 rows of 9 values is the smallest table above the budget, and the
    # only one here that a forked writer formats; without os.fork the
    # writer runs inline on the same blocks
    forks = counting_forks(monkeypatch)
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    cli.run(streamed_config(n_rows), "simulate", out_dir=str(forked))
    assert len(forks) == (9 * n_rows > _CHUNK_ELEMENTS) == (n_rows == 7282)
    monkeypatch.delattr(os, "fork")
    cli.run(streamed_config(n_rows), "simulate", out_dir=str(inline))
    assert sorted(os.listdir(forked)) == sorted(os.listdir(inline)) == ["summary.json", "trajectory.csv"]
    for name in ("summary.json", "trajectory.csv"):
        assert (forked / name).read_bytes() == (inline / name).read_bytes(), name
    # and the chunks add up to the table written in one piece
    scen = M.Scenario(M.load_config(streamed_config(n_rows)))
    traj = M.simulate(scen.bundle, scen.initial, scen.time["T"], scen.time["dt"])
    write_trajectory_csv([traj.csv_rows()], str(tmp_path / "whole.csv"))
    assert (forked / "trajectory.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers need os.fork")
def test_cli_full_runs_inline_when_fork_fails(tmp_path, monkeypatch):
    # both workers, the eigensolve and the streamed writer, fall back to the
    # inline path and close their pipes (the fixture checks the descriptors)
    cfg_path = write_config(tmp_path, streamed_config(7282))
    forks = counting_forks(monkeypatch)
    forked, failed = tmp_path / "forked", tmp_path / "failed"
    assert cli.main(["full", "--config", cfg_path, "--out", str(forked), "--seed", "3"]) == cli.EXIT_OK
    assert len(forks) == 2

    def no_fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert cli.main(["full", "--config", cfg_path, "--out", str(failed), "--seed", "3"]) == cli.EXIT_OK
    assert len(forks) == 4
    names = sorted(os.listdir(forked))
    assert names == sorted(os.listdir(failed)) and "trajectory.csv" in names
    for name in names:
        assert (forked / name).read_bytes() == (failed / name).read_bytes(), name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers need os.fork")
def test_cli_full_runs_inline_when_a_pipe_fails(tmp_path, monkeypatch):
    # the eigensolve worker's second pipe cannot be made (no descriptor to
    # spare): its first pipe is closed (the fixture checks the descriptors)
    # and the solve runs inline, while the streamed writer still forks
    cfg_path = write_config(tmp_path, streamed_config(7282))
    forked, failed = tmp_path / "forked", tmp_path / "failed"
    assert cli.main(["full", "--config", cfg_path, "--out", str(forked), "--seed", "3"]) == cli.EXIT_OK
    pipes, pipe = [], os.pipe

    def second_pipe_fails():
        pipes.append(1)
        if len(pipes) == 2:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    monkeypatch.setattr(os, "pipe", second_pipe_fails)
    forks = counting_forks(monkeypatch)
    assert cli.main(["full", "--config", cfg_path, "--out", str(failed), "--seed", "3"]) == cli.EXIT_OK
    assert (len(pipes), len(forks)) == (4, 1)
    names = sorted(os.listdir(forked))
    assert names == sorted(os.listdir(failed)) and "trajectory.csv" in names
    for name in names:
        assert (forked / name).read_bytes() == (failed / name).read_bytes(), name


def test_run_rejects_an_unknown_subcommand_before_building_anything(monkeypatch):
    def no_scenario(cfg):
        raise AssertionError("a scenario was built")

    monkeypatch.setattr(cli, "Scenario", no_scenario)
    with pytest.raises(M.ConfigError, match=r"^unknown subcommand 'no-such-subcommand'$"):
        cli.run(tiny_config(), "no-such-subcommand")


def test_main_parses_the_subcommand_table(capsys, monkeypatch):
    # `mgt-stab --help` lists the table's subcommands, in its order, each
    # with its help text
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert re.search(r"\{([^}]*)\}", out).group(1).split(",") == list(cli.SUBCOMMANDS)
    for name, help_text in cli.SUBCOMMANDS.items():
        assert re.search(r"^ +%s +%s$" % (re.escape(name), re.escape(help_text)), out, re.M), name


@pytest.mark.parametrize(
    "subcommand, artifact",
    [
        ("certify-geometry", "certification.json"),
        ("simulate", "summary.json"),
        ("spectrum", "spectrum.json"),
        ("multiplier-check", "multiplier.json"),
        ("full", "summary.json"),
    ],
)
def test_run_returns_what_it_wrote(tmp_path, subcommand, artifact):
    out = tmp_path / "out"
    payload = cli.run(tiny_config(), subcommand, out_dir=str(out), seed=3)
    assert sanitize(payload) == json.loads((out / artifact).read_text())


@pytest.mark.parametrize("subcommand", list(cli.SUBCOMMANDS))
def test_run_leaves_no_reference_cycle(subcommand):
    # a cycle through run's closures would keep each run's scenario, with
    # its operators and factors, alive until a full collection, so repeated
    # runs in one process would grow its peak memory
    cfg = tiny_config(multiplier={"levels": 2, "n_time": 21})
    cli.run(cfg, subcommand)  # imports what the subcommand needs
    gc.disable()
    try:
        gc.collect()
        cli.run(cfg, subcommand)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer needs os.fork")
def test_cli_writer_without_a_result_is_a_runtime_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "write_trajectory_csv", lambda *args: os._exit(7))
    with pytest.raises(RuntimeError, match=r"^worker exited without a result \(exit status 7\)$"):
        cli.run(streamed_config(7282), "simulate", out_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer needs os.fork")
def test_cli_writer_input_without_the_end_marker_is_an_eof_error(tmp_path, monkeypatch):
    # the writer's input ends without the end marker, as when the parent
    # dies while stepping: the writer raises EOFError and writes nothing
    post = cli._Worker._post
    monkeypatch.setattr(cli._Worker, "_post", lambda self, more, obj: more and post(self, more, obj))
    forks = counting_forks(monkeypatch)
    with pytest.raises(EOFError):
        cli.run(streamed_config(7282), "simulate", out_dir=str(tmp_path))
    assert len(forks) == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer needs os.fork")
def test_cli_unwritable_output_raises_as_the_inline_write_does(tmp_path, monkeypatch):
    # the output directory cannot be made under a regular file, whatever
    # the permissions; the writer's error is re-raised in the parent
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "out")
    forks = counting_forks(monkeypatch)
    with pytest.raises(OSError) as forked:
        cli.run(streamed_config(7282), "simulate", out_dir=out)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    with pytest.raises(OSError) as inline:
        cli.run(streamed_config(7282), "simulate", out_dir=out)
    assert type(forked.value) is type(inline.value)
    assert str(forked.value) == str(inline.value)


@pytest.mark.skipif(
    not (hasattr(signal, "setitimer") and hasattr(os, "fork")), reason="needs a timer and os.fork"
)
def test_cli_interrupted_while_stepping_kills_the_writer(tmp_path, monkeypatch):
    # the parent is interrupted after about 0.5 s of 500 000 steps: the
    # writer is killed before it could see the end of its input, leaves no
    # file, and the conftest fixture checks that it was reaped
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    forks = counting_forks(monkeypatch)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        start = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(Interrupted):
            cli.run(streamed_config(500_001), "simulate", out_dir=str(tmp_path))
        assert time.monotonic() - start < 30
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    assert os.listdir(tmp_path) == []


def test_cli_full_logs_the_spectral_stage(caplog):
    with caplog.at_level(logging.INFO, logger="mgtstab.cli"):
        cli.run(tiny_config(), "full")
    lines = [r.getMessage() for r in caplog.records if "spectral stage" in r.getMessage()]
    assert len(lines) == 1
    assert re.fullmatch(r"spectral stage: generator size 51, method dense, \d+\.\d{3} s", lines[0])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer needs os.fork")
def test_cli_logs_the_writer_stage(tmp_path, caplog):
    # only a streamed table has a writer stage: 7282 rows does, 7281 does not
    for n_rows in (7281, 7282):
        with caplog.at_level(logging.INFO, logger="mgtstab.cli"):
            cli.run(streamed_config(n_rows), "simulate", out_dir=str(tmp_path / str(n_rows)))
    lines = [r.getMessage() for r in caplog.records if "writer stage" in r.getMessage()]
    assert len(lines) == 1
    pattern = r"writer stage: 7282 rows, \d+\.\d{3} s waited for it"
    assert re.fullmatch(pattern, lines[0])


@pytest.mark.parametrize("subcommand", ["simulate", "full"])
@pytest.mark.parametrize(
    "over, expected",
    [
        ({"initial": {"kind": "zero"}}, cli.EXIT_OK),
        ({"time": {"T": 0.02, "dt": 1e-2}}, cli.EXIT_OK),
        ({"time": {"T": 0.005, "dt": 1e-2}}, cli.EXIT_CONFIG),
        ({"params": {"kappa0": 0.0}}, cli.EXIT_CONFIG),
        ({"params": {"c": 1e200}}, cli.EXIT_CONFIG),
        ({"params": {"b": 1e-320}}, cli.EXIT_CONFIG),
        ({"params": {"tau": 1e-320}}, cli.EXIT_CONFIG),
        (
            {
                "geometry": {"kind": "named", "name": "half-disk"},
                "mesh": {"resolution": 3},
                "initial": {"kind": "gaussian-bump", "center": [0.1], "width": 0.2},
            },
            cli.EXIT_CONFIG,
        ),
        ({"initial": {"kind": "gaussian-bump", "center": 0.5, "width": 1e-300}}, cli.EXIT_CONFIG),
        ({"params": {"alpha": 1e308}}, cli.EXIT_CONFIG),
        ({"params": {"c": 1e150}}, cli.EXIT_CONFIG),
        ({"time": {"T": float("nan")}}, cli.EXIT_CONFIG),
        ({"time": {"dt": float("nan")}}, cli.EXIT_CONFIG),
        ({"initial": {"kind": "gaussian-bump", "center": float("nan")}}, cli.EXIT_CONFIG),
        ({"multiplier": {"t_final": float("nan")}}, cli.EXIT_CONFIG),
        ({"multiplier": {"window_cut": float("nan")}}, cli.EXIT_CONFIG),
        ({"geometry": {"x0": float("nan")}}, cli.EXIT_CONFIG),
        ({"geometry": {"x_right": float("inf")}}, cli.EXIT_CONFIG),
    ],
    ids=[
        "zero-initial",
        "two-steps",
        "T-below-dt",
        "robin-mode-without-robin",
        "c-squared-overflows",
        "c-squared-over-b-overflows",
        "b-over-tau-overflows",
        "center-length-below-dimension",
        "non-finite-initial-data",
        "alpha-mass-overflows",
        "initial-energy-overflows",
        "T-nan",
        "dt-nan",
        "center-nan",
        "t-final-nan",
        "window-cut-nan",
        "x0-nan",
        "x-right-infinity",
    ],
)
def test_cli_degenerate_configs_exit_cleanly(tmp_path, subcommand, over, expected):
    # schema-valid configs whose decay fit cannot be made run to the end;
    # the inconsistent ones are configuration errors with an error.json
    cfg_path = write_config(tmp_path, tiny_config(**over))
    out = str(tmp_path / "out")
    assert cli.main([subcommand, "--config", cfg_path, "--out", out]) == expected
    if expected == cli.EXIT_CONFIG:
        err = json.loads(Path(out, "error.json").read_text())
        assert err["error"] == "ConfigError"
    else:
        fit = json.loads(Path(out, "summary.json").read_text())["decay_fit"]
        assert fit == {
            "omega": None, "M": None, "fit_residual": None, "n_points": None, "applicable": False
        }


def test_load_config_rejects_non_finite_numbers(tmp_path):
    # the file form is read with json.load, which accepts NaN and Infinity
    cfg = tiny_config(initial={"kind": "gaussian-bump", "center": [float("inf")]})
    assert "Infinity" in Path(write_config(tmp_path, cfg)).read_text()
    with pytest.raises(M.ConfigError, match="at initial/center/0: not a finite number"):
        M.load_config_file(write_config(tmp_path, cfg))
    with pytest.raises(M.ConfigError, match="at time/T: not a finite number"):
        M.load_config({"preset": "interval-1d-damped", "time": {"T": float("nan")}})


def test_load_config_bounds_the_step_count():
    # checked on the config alone: such runs are never started
    for T, dt in ((1e9, 1e-3), (1e300, 1e-300)):
        with pytest.raises(M.ConfigError, match="budget of %d steps" % MAX_STEPS):
            M.load_config({"preset": "interval-1d-damped", "time": {"T": T, "dt": dt}})
    time = {"T": MAX_STEPS * 1e-3, "dt": 1e-3}
    cfg = M.load_config({"preset": "interval-1d-damped", "time": time})
    assert round(cfg["time"]["T"] / cfg["time"]["dt"]) == MAX_STEPS


@pytest.mark.parametrize(
    "resolution, b", [(16, 1e300), (16, 1e200), (24, 1e300), (32, 1e100)]
)
def test_cli_full_reports_undefined_multiplier_slope_as_null(tmp_path, resolution, b):
    # with a huge b the zdivh residuals sit at roundoff (about 1.3e-16 of
    # the largest term, under the float sum's rounding bound), so that
    # identity has no rate; the other two keep theirs
    cfg = {
        "preset": "interval-1d-damped",
        "mesh": {"resolution": resolution},
        "time": {"T": 0.5, "dt": 0.01},
        "params": {"b": b},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["full", "--config", cfg_path, "--out", out]) == cli.EXIT_OK
    slopes = json.loads(Path(out, "summary.json").read_text())["multiplier"]["slopes"]
    assert slopes["zdivh"] is None
    assert slopes["hgradz"] >= 1.9
    assert slopes["zmul"] >= 1.9


def test_cli_energy_overflow_is_a_numerical_error(tmp_path):
    # the states stay finite while their energy quadratic forms overflow;
    # the message names the first non-finite sample at the preset's stride
    # (every 5 time units) and at every step, mid-chunk in both cases
    for stride, t_bad in ((10, "2725"), (1, "2723.5")):
        time = {"T": 4000, "dt": 0.5, "output_stride": stride}
        cfg = {"preset": "interval-1d-unstable", "time": time}
        cfg_path = write_config(tmp_path, cfg)
        out = str(tmp_path / ("out%d" % stride))
        assert cli.main(["simulate", "--config", cfg_path, "--out", out]) == cli.EXIT_NUMERICAL
        err = json.loads(Path(out, "error.json").read_text())
        assert err["error"] == "NumericalError"
        assert err["message"] == "non-finite energy at t=" + t_bad
        assert err["exit_code"] == cli.EXIT_NUMERICAL
        # at stride 1 (8001 rows) the CSV writer was forked: it is killed,
        # so neither the file nor a temporary part of it is left
        assert os.listdir(out) == ["error.json"]


@pytest.mark.parametrize(
    "kappa0, expected, message",
    [
        (1e-300, cli.EXIT_OK, None),
        (1e-30, cli.EXIT_OK, None),
        (1e13, cli.EXIT_OK, None),
        (1e300, cli.EXIT_CONFIG, "the energy of the initial data is not finite"),
    ],
)
def test_cli_robin_mode_accepts_every_positive_kappa0(tmp_path, kappa0, expected, message):
    # the mode frequency is found for any kappa0 > 0; with kappa0 = 1e300
    # the profile's kappa0/omega sin(omega x) term makes E0 overflow
    cfg = {
        "preset": "interval-1d-damped",
        "mesh": {"resolution": 16},
        "time": {"T": 0.5, "dt": 0.01},
        "params": {"kappa0": kappa0},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg_path, "--out", out]) == expected
    if message is None:
        assert Path(out, "summary.json").exists()
    else:
        err = json.loads(Path(out, "error.json").read_text())
        assert (err["error"], err["message"]) == ("ConfigError", message)


def fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this package."""
    src = str(Path(M.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_import_and_presets_do_not_load_scipy_optimize():
    # a fresh interpreter: other tests may have imported scipy.optimize here
    code = (
        "import sys, mgtstab as M\n"
        "for name in %r:\n"
        "    M.Scenario(M.load_config({'preset': name})).initial\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    ) % (preset_names(),)
    run = fresh_python("-c", code)
    assert run.returncode == 0, run.stderr[-2000:]


def test_cli_full_in_development_mode_warns_nothing(tmp_path):
    # both workers run: the eigensolve, and the CSV writer, forked for 7 501
    # rows and inline for 7 281; a ResourceWarning (an unclosed pipe) is
    # raised in a finalizer, so it leaves the exit code at 0 and shows only
    # on stderr
    for T, forked in ((0.75, True), (0.728, False)):
        cfg = tiny_config(mesh={"resolution": 4}, time={"T": T, "dt": 1e-4})
        n_rows = record_count(T, 1e-4, 1)
        assert (n_rows * len(M.Trajectory.CSV_COLUMNS) > _CHUNK_ELEMENTS) == forked
        assert n_rows == (7501 if forked else 7281)
        out = str(tmp_path / str(n_rows))
        run = fresh_python("-X", "dev", "-W", "error", "-m", "mgtstab.cli", "full",
                           "--config", write_config(tmp_path, cfg), "--out", out)
        assert run.returncode == 0, run.stderr[-2000:]
        assert "Warning" not in run.stderr, run.stderr[-2000:]
        assert ("writer stage" in run.stderr) == forked and "spectral stage" in run.stderr
        assert sorted(os.listdir(out)) == ["certification.json", "spectrum.json", "summary.json", "trajectory.csv"]


@pytest.mark.parametrize(
    "subcommand, artifacts",
    [("spectrum", ["error.json"]), ("full", ["certification.json", "error.json", "trajectory.csv"])],
)
def test_cli_non_finite_generator_is_a_numerical_error(tmp_path, subcommand, artifacts):
    # tau = 1e-300 makes the tau-normalized generator overflow; stepping runs
    cfg = {
        "preset": "interval-1d-damped",
        "mesh": {"resolution": 2},
        "time": {"T": 0.1, "dt": 0.1},
        "params": {"tau": 1e-300, "c": 0.001, "alpha": 1e150},
    }
    out = str(tmp_path / "out")
    assert cli.main([subcommand, "--config", write_config(tmp_path, cfg), "--out", out]) == cli.EXIT_NUMERICAL
    assert sorted(os.listdir(out)) == artifacts
    err = json.loads(Path(out, "error.json").read_text())
    assert err["error"] == "NumericalError" and "non-finite" in err["message"]


@pytest.mark.parametrize(
    "subcommand, over",
    [
        ("simulate", {"mesh": {"resolution": 2**40}}),
        # level 14 of resolution 64 is the first over the cap
        ("multiplier-check", {"multiplier": {"levels": 45}}),
        ("full", {"multiplier": {"levels": 45}}),
    ],
)
def test_cli_mesh_above_the_lattice_cap_is_a_mesh_error(tmp_path, subcommand, over):
    cfg = {"preset": "interval-1d-damped", **over}
    out = str(tmp_path / "out")
    assert cli.main([subcommand, "--config", write_config(tmp_path, cfg), "--out", out]) == cli.EXIT_GEOMETRY
    assert os.listdir(out) == ["error.json"]
    err = json.loads(Path(out, "error.json").read_text())
    assert err["error"] == "MeshError" and "above the cap" in err["message"]


@pytest.mark.parametrize("subcommand", ["multiplier-check", "full"])
def test_cli_multiplier_time_grid_above_the_step_budget_is_a_config_error(tmp_path, subcommand):
    # (2**40 - 1) * 4 intervals at the finest of 3 levels: rejected by arithmetic,
    # nothing allocated
    cfg = {"preset": "interval-1d-damped", "multiplier": {"n_time": 2**40}}
    out = str(tmp_path / "out")
    assert cli.main([subcommand, "--config", write_config(tmp_path, cfg), "--out", out]) == cli.EXIT_CONFIG
    assert os.listdir(out) == ["error.json"]
    err = json.loads(Path(out, "error.json").read_text())
    assert err["error"] == "ConfigError" and "time grid" in err["message"]


def test_cli_rejects_curved_geometry_for_identities(tmp_path):
    cfg = {
        "preset": "transducer-2d",
        "mesh": {"resolution": 4},
        "multiplier": {"levels": 1},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    code = cli.main(["multiplier-check", "--config", cfg_path, "--out", out])
    assert code == cli.EXIT_CONFIG


def test_cli_repeat_runs_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert cli.main(["simulate", "--config", cfg_path, "--out", out, "--seed", "5"]) == 0
    for name in ("summary.json", "trajectory.csv"):
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        assert b1 == b2, name


def test_no_public_callable_takes_both_a_bundle_and_params():
    # the material parameters of an operator bundle are ``bundle.params``
    both = []
    for name in M.__all__:
        obj = getattr(M, name)
        targets = [obj] if callable(obj) else []
        if isinstance(obj, type):
            targets += [f for f in vars(obj).values() if inspect.isfunction(f)]
        for f in targets:
            try:
                names = inspect.signature(f).parameters
            except (TypeError, ValueError):
                continue
            if "bundle" in names and "params" in names:
                both.append("%s.%s" % (name, f.__name__))
    assert both == []


def test_run_accepts_preset_dict():
    payload = cli.run({"preset": "interval-1d-damped", "time": {"T": 0.3}}, "simulate")
    assert payload["classification"] == "stable"
    assert payload["energy"]["E1_final"] < payload["energy"]["E1_initial"]
