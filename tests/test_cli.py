import dataclasses
import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import (SCENES, SMALL_PLAN, SPOILED_BUNDLES, load_paths_npy, rewrite_paths_npy,
                      shipped_scene, write_csv_bundle)

from thznirs import cli, reflfit
from thznirs.cli import main
from thznirs.errors import ValidationError
from thznirs.pathloss import CiModel, directional_path_loss, omni_path_loss
from thznirs.pdap import pdap_from_sweeps
from thznirs.reflfit import ReflLossModel, additional_reflection_loss, generate_samples
from thznirs.scene import (
    FrequencySweep,
    Rectangle,
    ScanGrid,
    load_scene,
    nirs_angle_set,
    nirs_panel,
    rx_link_geometry,
    save_scene,
    scene_to_dict,
    specular_point,
)
from thznirs.synthchan import synthesize_sweep, write_sweep_csv

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def mini_scene_file(tmp_path):
    # a trimmed corridor: 3 Rx, 2x2 scan grid keeps file counts tiny
    grid = ScanGrid(azimuth_deg=(140.0, 150.0), elevation_deg=(-10.0, 0.0))
    scene = shipped_scene("corridor_mini.json")
    scene = dataclasses.replace(scene, scan_grid=grid, rx_positions=scene.rx_positions[:3])
    path = tmp_path / "mini.json"
    save_scene(scene, path)
    return path


def test_synth_writes_bundles_per_rx(tmp_path, mini_scene_file, small_plan):
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", str(mini_scene_file), "--out", str(out)]) == 0
    rx_dirs = sorted(p for p in out.iterdir())
    assert [p.name for p in rx_dirs] == ["rx000", "rx001", "rx002"]
    for d in rx_dirs:
        assert sorted(p.name for p in d.iterdir()) == ["manifest.json", "paths.npy"]
        gains, paths = load_paths_npy(d / "paths.npy")
        assert gains.dtype == np.float64 and gains.shape[0] == 4  # 2x2 grid
        assert paths.dtype == np.complex128
        assert paths.shape == (gains.shape[1], small_plan.point_count)
    manifest = json.loads((rx_dirs[0] / "manifest.json").read_text())
    assert manifest["format"] == "paths"
    assert manifest["nirs"] is True
    assert manifest["scenario_id"] == "mini"


def test_synth_and_pipeline_validate_each_scene_rectangle_once(tmp_path, monkeypatch):
    # hallway_mini: 7 walls, 1 panel and its 9 cells, for all 12 receivers.
    validated = []
    post_init = Rectangle.__post_init__
    monkeypatch.setattr(Rectangle, "__post_init__", lambda r: validated.append(post_init(r)))
    scene, bundles = f"{SCENES}/hallway_mini.json", str(tmp_path / "bundles")
    assert main(["synth", "--scene", scene, "--max-bounces", "1", "--out", bundles]) == 0
    assert len(validated) == 17
    validated.clear()
    assert main(["pipeline", "--scene", scene, "--bundle", bundles,
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert len(validated) == 17


def test_synth_full_corridor_has_180_directions(tmp_path):
    out = tmp_path / "bundles"
    rc = main(["synth", "--scene", f"{SCENES}/corridor_mini.json", "--out", str(out)])
    assert rc == 0
    gains, paths = load_paths_npy(out / "rx000" / "paths.npy")
    assert gains.shape[0] == 5 * 36
    assert paths.shape == (gains.shape[1], 101)


def test_synth_three_bounces_leaks_no_numpy_warning(tmp_path):
    # the batched image tree divides by plane parameters of parallel and
    # degenerate crossings; none of that may surface as a RuntimeWarning
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "thznirs", "synth",
         "--scene", f"{SCENES}/hallway_mini.json", "--out", str(tmp_path / "b"),
         "--max-bounces", "3"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(list((tmp_path / "b").iterdir())) == 12


def test_synth_flags_panel_free_scene(tmp_path):
    out = tmp_path / "bundles"
    rc = main(["synth", "--scene", f"{SCENES}/corridor_mini_no_nirs.json", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "rx000" / "manifest.json").read_text())
    assert manifest["nirs"] is False


@pytest.mark.parametrize("bounces", ["4", "-1"])
def test_synth_names_the_max_bounces_flag(tmp_path, capsys, bounces):
    out = tmp_path / "bundles"
    rc = main(["synth", "--scene", f"{SCENES}/corridor_mini.json", "--out", str(out),
               "--max-bounces", bounces])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --max-bounces must lie in [0, 3], got {bounces}\n"
    assert not out.exists()


def test_synth_rejects_nonplanar_wall(tmp_path, capsys):
    data = scene_to_dict(shipped_scene("corridor_mini.json"))
    corners = np.array(data["walls"][0]["corners"])
    normal = np.cross(corners[1] - corners[0], corners[3] - corners[0])
    normal /= np.linalg.norm(normal)
    corners[2] = corners[2] + 0.001 * normal  # bend one corner out of plane
    data["walls"][0]["corners"] = corners.tolist()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main(["synth", "--scene", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count(str(bad)) == 1
    assert "coplanarity" in err


def test_synth_rejects_malformed_material_loss(tmp_path, capsys):
    data = json.loads(Path(SCENES, "corridor_mini.json").read_text())
    data["walls"][0]["material_loss_db"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main(["synth", "--scene", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "material_loss_db" in err


MALFORMED_SCENES = {
    "walls_not_a_list": (lambda d: d.update(walls=5), "walls must be a JSON array, got int"),
    "panels_not_a_list": (
        lambda d: d.update(nirs_panels=7), "nirs_panels must be a JSON array, got int"
    ),
    "rx_positions_not_a_list": (
        lambda d: d["rx"].update(positions=3), "rx.positions must be a JSON array, got int"
    ),
    "tx_not_an_object": (lambda d: d.update(tx=[]), "tx must be a JSON object"),
    "grid_without_elevation": (
        lambda d: d.update(scan_grid={"azimuth_deg": 7}), "'elevation_deg' in scan_grid"
    ),
    "pattern_without_hpbw": (
        lambda d: d["rx"]["pattern"].pop("hpbw_deg"), "'hpbw_deg' in rx.pattern"
    ),
    "unknown_plan_key": (lambda d: d["frequency_plan"].update(f_mid_hz=1), "['f_mid_hz']"),
    "fractional_subdivision": (
        lambda d: d["nirs_panels"][0].update(subdivision=[3.7, True]),
        "nirs_panels[0].subdivision[0] must be a JSON integer, got float",
    ),
    "fractional_active_cell": (
        lambda d: d["nirs_panels"][0].update(active_cells=[[1.9, 0.2]]),
        "nirs_panels[0].active_cells[0][0] must be a JSON integer, got float",
    ),
    "one_entry_subdivision": (
        lambda d: d["nirs_panels"][0].update(subdivision=[3]),
        "panel: subdivision must be [rows, cols], each at least 1, got [3]",
    ),
    "one_entry_active_cell": (
        lambda d: d["nirs_panels"][0].update(active_cells=[[1]]),
        "panel: every active cell must be a [row, col] pair",
    ),
    "overflowing_plan_step": (
        lambda d: d["frequency_plan"].update(f_step_hz=1e-300),
        "frequency plan: span / f_step overflows to infinity",
    ),
    "plan_beyond_one_array": (  # numpy refuses this size before it allocates anything
        lambda d: d["frequency_plan"].update(f_step_hz=1e-290),
        "frequency plan: 2.5e+298 points do not fit in one complex128 array",
    ),
    "plan_starting_at_zero": (
        lambda d: d["frequency_plan"].update(f_start_hz=0),
        "frequency plan: f_start must be positive",
    ),
    "plan_starting_below_zero": (
        lambda d: d["frequency_plan"].update(f_start_hz=-1e9),
        "frequency plan: f_start must be positive",
    ),
    "rx_at_the_tx": (
        lambda d: d["rx"]["positions"].__setitem__(0, d["tx"]["position"]),
        "scene: rx 0 is at the tx position",
    ),
    "bool_rx_gain": (
        lambda d: d["rx"]["pattern"].update(gain_dbi=True),
        "rx.pattern.gain_dbi must be a JSON number, got bool",
    ),
    "bool_tx_hpbw": (
        lambda d: d["tx"]["pattern"].update(hpbw_deg=True),
        "tx.pattern.hpbw_deg must be a JSON number, got bool",
    ),
    "string_plan_step": (
        lambda d: d["frequency_plan"].update(f_step_hz="2.5e6"),
        "frequency_plan.f_step_hz must be a JSON number, got str",
    ),
    "string_azimuths": (
        lambda d: d["scan_grid"].update(azimuth_deg=["0", "10"]),
        "scan_grid.azimuth_deg[0] must be a JSON number, got str",
    ),
    "string_tx_position": (
        lambda d: d["tx"].update(position=["1", "2", "3"]),
        "tx.position[0] must be a JSON number, got str",
    ),
    "string_wall_corner": (
        lambda d: d["walls"][0]["corners"][1].__setitem__(2, "2.5"),
        "walls[0].corners[1][2] must be a JSON number, got str",
    ),
    "string_rx_height": (
        lambda d: d["rx"].update(height_m="1.6"), "rx.height_m must be a JSON number, got str"
    ),
    "four_coordinate_rx_position": (
        lambda d: d["rx"]["positions"][1].append(1.0), "rx.positions[1] must be [x,y] or [x,y,z]"
    ),
    "rx_position_beyond_float64": (
        lambda d: d["rx"]["positions"][0].__setitem__(0, -(10**400)),
        "rx.positions[0][0] must be a finite JSON number, got an integer of 401 digits",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENES))
def test_malformed_scene_file_names_file_and_key(tmp_path, capsys, case):
    spoil, reason = MALFORMED_SCENES[case]
    data = json.loads(Path(SCENES, "corridor_mini.json").read_text())
    spoil(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main(["synth", "--scene", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert reason in err


NAN, INF = float("nan"), float("inf")
NON_FINITE_SCENES = {
    "nan_boresight": (lambda d: d["tx"].update(boresight=[NAN, 1.0, 0.0]), "tx.boresight[0]"),
    "nan_wall_loss": (lambda d: d["walls"][0].update(material_loss_db=NAN), "material_loss"),
    "inf_panel_loss": (
        lambda d: d["nirs_panels"][0].update(material_loss_db=INF), "material_loss"
    ),
    "nan_loss_table_angle": (
        lambda d: d["walls"][1].update(material_loss_db=[[NAN, 12.0]]), "angles"
    ),
    "nan_rx_position": (
        lambda d: d["rx"]["positions"][2].__setitem__(0, NAN), "rx.positions[2][0]"
    ),
    "inf_wall_corner": (lambda d: d["walls"][2]["corners"][1].__setitem__(2, INF), "corner"),
    "nan_scan_elevation": (lambda d: d["scan_grid"].update(elevation_deg=[NAN]), "elevation"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_SCENES))
def test_non_finite_scene_number_exits_2(tmp_path, capsys, case):
    spoil, reason = NON_FINITE_SCENES[case]
    data = json.loads(Path(SCENES, "corridor_mini.json").read_text())
    spoil(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))  # writes NaN and Infinity, which json reads back
    out = tmp_path / "x"
    rc = main(["synth", "--scene", str(bad), "--out", str(out), "--max-bounces", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count(str(bad)) == 1
    assert err.count("\n") == 1
    assert reason in err
    assert not out.exists()


def _utf16(path: Path) -> Path:
    """Re-encode a text file as UTF-16 with its byte-order mark (0xff 0xfe)."""
    path.write_text(path.read_text(encoding="utf-8"), encoding="utf-16")
    return path


def _utf16_scene(tmp_path):
    scene = tmp_path / "scene.json"
    shutil.copy(Path(SCENES, "corridor_mini.json"), scene)
    return _utf16(scene), ["synth", "--scene", str(scene), "--out", str(tmp_path / "o")]


def _mini_bundles(tmp_path) -> Path:
    """Direct-path bundles of every corridor_mini receiver; pipeline reads rx000 first."""
    bundles = tmp_path / "b"
    assert main(["synth", "--scene", f"{SCENES}/corridor_mini.json", "--out", str(bundles),
                 "--max-bounces", "0"]) == 0
    return bundles


def _utf16_manifest(tmp_path):
    scene, bundles = f"{SCENES}/corridor_mini.json", _mini_bundles(tmp_path)
    return _utf16(bundles / "rx000" / "manifest.json"), [
        "pipeline", "--scene", scene, "--bundle", str(bundles), "--out", str(tmp_path / "o")
    ]


def _sweep_csv_input(tmp_path, spoil):
    """A ``--connect`` CSV passed through ``spoil``, and the pipeline argv that reads it."""
    scene, bundles = f"{SCENES}/corridor_mini.json", _mini_bundles(tmp_path)
    connect = tmp_path / "connect.csv"
    write_sweep_csv(FrequencySweep(SMALL_PLAN, np.ones(SMALL_PLAN.point_count)), connect)
    return spoil(connect), ["pipeline", "--scene", scene, "--bundle", str(bundles),
                            "--connect", str(connect), "--out", str(tmp_path / "o")]


def _samples_input(tmp_path, spoil):
    samples = tmp_path / "s.csv"
    rows = [f"{k},{5 + 10 * k},{10 + k}" for k in range(8)]
    samples.write_text("rx_id,reflection_angle_deg,l_ref_db\n" + "\n".join(rows) + "\n")
    return spoil(samples), ["fit", "--samples", str(samples), "--out", str(tmp_path / "o")]


def _results_input(tmp_path, spoil):
    scene = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "r.csv"
    _write_results(results, scene, [105.0] * 9)
    return spoil(results), ["coverage", "--scene", scene, "--results", str(results),
                            "--out", str(tmp_path / "o")]


UTF16_INPUTS = {
    "scene": _utf16_scene,
    "manifest": _utf16_manifest,
    "sweep_csv": lambda t: _sweep_csv_input(t, _utf16),
    "samples_csv": lambda t: _samples_input(t, _utf16),
    "results_csv": lambda t: _results_input(t, _utf16),
}


@pytest.mark.parametrize("reader", sorted(UTF16_INPUTS))
def test_input_not_utf8_names_the_file(tmp_path, capsys, reader):
    named, argv = UTF16_INPUTS[reader](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1
    assert "utf-8" in err
    assert not (tmp_path / "o").exists()


def _long_field(path: Path) -> Path:
    """Append a data row whose first field is longer than csv's 131,072-byte limit."""
    path.write_text(path.read_text() + "9" * 200_000 + ",1,1\n")
    return path


@pytest.mark.parametrize("build", [_sweep_csv_input, _samples_input, _results_input],
                         ids=["sweep_csv", "samples_csv", "results_csv"])
def test_csv_field_over_the_limit_names_the_file(tmp_path, capsys, build):
    named, argv = build(tmp_path, _long_field)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {named}: field larger than field limit (131072)\n"
    assert not (tmp_path / "o").exists()


def _drop_last_field_of_row_3(path: Path) -> Path:
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_short_sweep_row_names_file_and_row(tmp_path, capsys):
    named, argv = _sweep_csv_input(tmp_path, _drop_last_field_of_row_3)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {named}: data row 3: not enough values to unpack (expected 3, got 2)\n"
    )
    assert not (tmp_path / "o").exists()


def _long_header(path: Path) -> Path:
    path.write_text("f" * 200_000 + "\n" + path.read_text().split("\n", 1)[1])
    return path


def test_long_sweep_header_is_echoed_as_a_prefix(tmp_path, capsys):
    named, argv = _sweep_csv_input(tmp_path, _long_header)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: header must be exactly 'freq_hz,s21_re,s21_im', got ")
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert err.endswith("...' (200000 characters)\n")


@pytest.mark.parametrize("field", ["frequency_plan", "scan_grid"])
def test_pipeline_rejects_a_bundle_that_does_not_match_the_scene(tmp_path, capsys, field):
    bundles = _mini_bundles(tmp_path)
    if field == "frequency_plan":  # 306-321 GHz against the bundle's 306-306.25 GHz
        scene = f"{SCENES}/corridor.json"
    else:
        data = json.loads(Path(SCENES, "corridor_mini.json").read_text())
        data["scan_grid"]["azimuth_deg"] = [a + 5.0 for a in data["scan_grid"]["azimuth_deg"]]
        scene = str(tmp_path / "shifted_grid.json")
        Path(scene).write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "r.csv"
    assert main(["pipeline", "--scene", scene, "--bundle", str(bundles), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: bundle {bundles / 'rx000'}: {field} does not match scene {scene}\n"
    )
    assert not out.exists()


def test_pipeline_rejects_a_second_panel(tmp_path, capsys):
    data = json.loads(Path(SCENES, "corridor_mini.json").read_text())
    data["nirs_panels"].append(dict(data["nirs_panels"][0], active_cells=[[0, 0]]))
    scene = tmp_path / "two_panels.json"
    scene.write_text(json.dumps(data))
    bundles = tmp_path / "b"
    assert main(["synth", "--scene", str(scene), "--out", str(bundles),
                 "--max-bounces", "1"]) == 0
    capsys.readouterr()
    out = tmp_path / "r.csv"
    rc = main(["pipeline", "--scene", str(scene), "--bundle", str(bundles), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scene}: pipeline needs a scene with exactly one NIRS panel")
    assert "got 2;" in err and err.count("\n") == 1
    assert not out.exists()


def test_pipeline_rejects_a_panel_with_no_active_cell_in_one_line(tmp_path):
    data = json.loads(Path(SCENES, "hallway_mini.json").read_text())
    data["nirs_panels"][0]["active_cells"] = []
    scene = tmp_path / "no_cells.json"
    scene.write_text(json.dumps(data))
    bundles = tmp_path / "b"
    assert main(["synth", "--scene", str(scene), "--out", str(bundles),
                 "--max-bounces", "0"]) == 0
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "thznirs", "pipeline", "--scene", str(scene), "--bundle",
         str(bundles), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {scene}: ") and proc.stderr.count("\n") == 1
    assert "no active cell" in proc.stderr
    assert not out.exists()


ONE_PANEL_RULE_BREAKS = {
    "no_panel": lambda d: d["nirs_panels"].clear(),
    "two_panels": lambda d: d["nirs_panels"].append(
        dict(d["nirs_panels"][0], active_cells=[[0, 0]])),
    "no_active_cell": lambda d: d["nirs_panels"][0].update(active_cells=[]),
}


@pytest.mark.parametrize("case", sorted(ONE_PANEL_RULE_BREAKS))
def test_geometry_and_pipeline_fail_on_the_one_panel_rule(tmp_path, capsys, case):
    data = json.loads(Path(SCENES, "hallway_mini.json").read_text())
    ONE_PANEL_RULE_BREAKS[case](data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    scene = load_scene(path)
    with pytest.raises(ValidationError) as rule:
        nirs_panel(scene)
    for query in (nirs_angle_set, specular_point, rx_link_geometry):
        with pytest.raises(ValidationError) as exc:
            query(scene, 0)
        assert str(exc.value) == str(rule.value), query.__name__
    out = tmp_path / "r.csv"
    # the rule is checked before any bundle is read, so no bundle need exist
    rc = main(["pipeline", "--scene", str(path), "--bundle", str(tmp_path / "none"),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: pipeline {rule.value}\n"
    assert not out.exists()


def test_manifest_bad_frequency_plan_names_the_file(tmp_path, capsys):
    bundles = _mini_bundles(tmp_path)
    manifest = bundles / "rx000" / "manifest.json"
    raw = json.loads(manifest.read_text())
    raw["frequency_plan"]["f_stop_hz"] = raw["frequency_plan"]["f_start_hz"] - 1e9
    manifest.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(["pipeline", "--scene", f"{SCENES}/corridor_mini.json", "--bundle", str(bundles),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ") and err.count(str(manifest)) == 1
    assert err.count("\n") == 1


def test_scene_file_not_json_names_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc = main(["synth", "--scene", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON")


def test_scene_integer_past_int_digit_limit_exits_2(tmp_path, capsys):
    text = Path(SCENES, "corridor_mini.json").read_text(encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"f_start_hz": 306000000000.0', '"f_start_hz": ' + "9" * 5001))
    assert main(["synth", "--scene", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (f"error: {bad}: invalid JSON (an integer of more than "
                                       f"{sys.get_int_max_str_digits()} digits)\n")
    assert not (tmp_path / "x").exists()


def test_internal_key_error_exits_1(tmp_path, capsys, monkeypatch):
    def broken(groups):
        raise KeyError("b_grid")

    monkeypatch.setattr(reflfit, "fit_refl_models", broken)
    rc = main(["fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: internal: 'b_grid'\n"


def test_internal_value_error_exits_1(tmp_path, capsys, monkeypatch):
    def broken(entries, path):
        raise ValueError("table slip")

    monkeypatch.setattr(reflfit, "write_fit_table_csv", broken)
    rc = main(["fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: internal: table slip\n"


def test_undecodable_scenario_name_exits_2_naming_the_output(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["fit", "--generate", "sc\udcff,306-321GHz,15.79,3.52,0.59,1.51",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_fit_out_through_a_symlink_to_a_device_writes_the_device(tmp_path):
    link = tmp_path / "null"
    link.symlink_to(os.devnull)
    rc = main(["fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
               "--out", str(link)])
    assert rc == 0
    assert link.is_symlink() and os.readlink(link) == os.devnull
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert list(tmp_path.iterdir()) == [link]


def test_missing_scene_file_exits_2(tmp_path, capsys):
    rc = main(["synth", "--scene", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_pipeline_matches_in_memory(tmp_path, mini_scene_file):
    out = tmp_path / "bundles"
    main(["synth", "--scene", str(mini_scene_file), "--out", str(out)])
    results = tmp_path / "results.csv"
    rc = main([
        "pipeline", "--scene", str(mini_scene_file), "--bundle", str(out),
        "--ple", "1.35", "--out", str(results),
    ])
    assert rc == 0
    lines = results.read_text().splitlines()
    assert lines[0] == "rx_id,pl_dir_db,pl_omni_db,reflection_angle_deg,d1_m,d2_m,l_ref_db"

    scene = load_scene(mini_scene_file)
    ci = CiModel(ple=1.35)
    for line in lines[1:]:
        cells = line.split(",")
        k = int(cells[0])
        bundle = synthesize_sweep(scene, k, scenario_id="mini")
        pdap = pdap_from_sweeps(
            bundle.sweeps, scene.scan_grid, scene.frequency_plan.span_hz
        )
        pl_dir = directional_path_loss(pdap, nirs_angle_set(scene, k))
        pl_omni = omni_path_loss(pdap)
        phi, _spec, d1, d2 = rx_link_geometry(scene, k)
        l_ref = additional_reflection_loss(pl_dir, ci, scene.frequency_plan.center_hz, d1, d2)
        expect = [f"{v:.6g}" for v in (pl_dir, pl_omni, phi, d1, d2, l_ref)]
        assert cells[1:] == expect


def _csv_bundles(src, dst):
    for d in sorted(src.iterdir()):
        write_csv_bundle(d, dst / d.name)


def test_pipeline_same_from_npy_and_csv_bundles(tmp_path, mini_scene_file):
    out = tmp_path / "bundles"
    main(["synth", "--scene", str(mini_scene_file), "--out", str(out)])
    _csv_bundles(out, tmp_path / "csv")
    results = {}
    for name in ("bundles", "csv"):
        results[name] = tmp_path / f"{name}.csv"
        assert main([
            "pipeline", "--scene", str(mini_scene_file), "--bundle", str(tmp_path / name),
            "--ple", "1.35", "--out", str(results[name]),
        ]) == 0
    assert results["bundles"].read_bytes() == results["csv"].read_bytes()


def test_pipeline_missing_direction_file(tmp_path, mini_scene_file, capsys):
    main(["synth", "--scene", str(mini_scene_file), "--out", str(tmp_path / "npy")])
    out = tmp_path / "bundles"
    _csv_bundles(tmp_path / "npy", out)
    victim = out / "rx001" / "el0_az1.csv"
    victim.unlink()
    rc = main([
        "pipeline", "--scene", str(mini_scene_file), "--bundle", str(out),
        "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 2
    assert "el0_az1.csv" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(SPOILED_BUNDLES))
def test_pipeline_spoiled_bundle_exits_2(tmp_path, mini_scene_file, capsys, case):
    out = tmp_path / "bundles"
    main(["synth", "--scene", str(mini_scene_file), "--out", str(out)])
    named = SPOILED_BUNDLES[case](out / "rx001")
    capsys.readouterr()
    rc = main([
        "pipeline", "--scene", str(mini_scene_file), "--bundle", str(out),
        "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(named) in lines[0]
    assert not (tmp_path / "r.csv").exists()


def test_pipeline_rejects_duplicate_rx_ids(tmp_path, mini_scene_file, capsys):
    out = tmp_path / "bundles"
    main(["synth", "--scene", str(mini_scene_file), "--out", str(out)])
    copy = out / "copy_of_rx001"
    shutil.copytree(out / "rx001", copy)
    capsys.readouterr()
    rc = main([
        "pipeline", "--scene", str(mini_scene_file), "--bundle", str(out),
        "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"{copy} and {out / 'rx001'}" in lines[0]
    assert not (tmp_path / "r.csv").exists()


# A second synth over corridor_mini's set: a 5-receiver copy of the scene
# file, saved under the file stem (the scenario) and run at the bounces given.
SECOND_RUNS = {
    "scenario_id": ("corridor_mini_no_nirs.json", "five_no_nirs", "2",
                    "'five_no_nirs' and 'corridor_mini'"),
    "nirs": ("corridor_mini_no_nirs.json", "corridor_mini", "2", "False and True"),
    "max_bounces": ("corridor_mini.json", "corridor_mini", "1", "1 and 2"),
}


@pytest.mark.parametrize("key", sorted(SECOND_RUNS))
def test_pipeline_rejects_a_bundle_set_of_two_synth_runs(tmp_path, capsys, key):
    """rx 0-4 from the second run and rx 5-8 from the first match the scene's
    plan and grid, so only the set rule tells them apart."""
    source, stem, bounces, values = SECOND_RUNS[key]
    out = tmp_path / "b"
    assert main(["synth", "--scene", f"{SCENES}/corridor_mini.json", "--out", str(out)]) == 0
    scene = shipped_scene(source)
    copy = tmp_path / "second" / f"{stem}.json"
    copy.parent.mkdir()
    save_scene(dataclasses.replace(scene, rx_positions=scene.rx_positions[:5]), copy)
    assert main(["synth", "--scene", str(copy), "--max-bounces", bounces, "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["pipeline", "--scene", f"{SCENES}/corridor_mini.json", "--bundle", str(out),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: bundles {out / 'rx000'} and {out / 'rx005'} disagree on {key}: {values}\n")
    assert not (tmp_path / "r.csv").exists()


def test_pipeline_names_bundle_whose_rx_the_scene_lacks(tmp_path, capsys):
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", f"{SCENES}/hallway_mini.json", "--out", str(out),
                 "--max-bounces", "1"]) == 0
    scene_file = f"{SCENES}/corridor_mini.json"
    rc = main(["pipeline", "--scene", scene_file, "--bundle", str(out / "rx010"),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: bundle {out / 'rx010'} holds rx 10, "
                   f"but scene {scene_file} has only 9 receivers\n")
    assert not (tmp_path / "r.csv").exists()


def test_pipeline_names_rx_whose_angle_set_is_empty(tmp_path, capsys):
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", f"{SCENES}/hallway_mini.json", "--out", str(out),
                 "--max-bounces", "0"]) == 0
    scene = json.loads(Path(f"{SCENES}/hallway_mini.json").read_text())
    scene["nirs_panels"][0]["active_cells"] = [[1, 1]]  # the centre cell, seen by no direction
    scene_file = tmp_path / "one_cell.json"
    scene_file.write_text(json.dumps(scene))
    capsys.readouterr()
    rc = main(["pipeline", "--scene", str(scene_file), "--bundle", str(out),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: angle set for rx 0 is empty; no scan direction intersects the panel"
    ]
    assert not (tmp_path / "r.csv").exists()


def test_pipeline_names_rx_whose_path_loss_fails(tmp_path, capsys):
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", f"{SCENES}/hallway_mini.json", "--out", str(out),
                 "--max-bounces", "0"]) == 0
    capsys.readouterr()
    rc = main(["pipeline", "--scene", f"{SCENES}/hallway_mini.json", "--bundle", str(out),
               "--out", str(tmp_path / "r.csv"), "--threshold-db", "0"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: rx 0: path loss: every selected entry is noise"
    ]
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-300"])
def test_pipeline_names_a_threshold_not_finite_above_the_sentinel(tmp_path, capsys, threshold):
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", f"{SCENES}/hallway_mini.json", "--out", str(out),
                 "--max-bounces", "0"]) == 0
    capsys.readouterr()
    rc = main(["pipeline", "--scene", f"{SCENES}/hallway_mini.json", "--bundle", str(out),
               "--out", str(tmp_path / "r.csv"), f"--threshold-db={threshold}"])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: noise threshold {threshold} dB must be finite "
                                       "and above the -300 dB sentinel\n")
    assert not (tmp_path / "r.csv").exists()


def test_pipeline_power_sum_overflow_exits_2(tmp_path, capsys):
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", f"{SCENES}/hallway_mini.json", "--out", str(out),
                 "--max-bounces", "1"]) == 0
    rewrite_paths_npy(out / "rx000", lambda gains, paths: (gains, paths * 1e200))
    capsys.readouterr()
    rc = main(["pipeline", "--scene", f"{SCENES}/hallway_mini.json", "--bundle", str(out),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: rx 0: path loss: ")
    assert lines[0].endswith("dB overflows float64")
    assert not (tmp_path / "r.csv").exists()


def test_pipeline_ci_prediction_overflow_exits_2(tmp_path, capsys):
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", f"{SCENES}/corridor_mini.json", "--out", str(out),
                 "--max-bounces", "1"]) == 0
    capsys.readouterr()
    rc = main(["pipeline", "--scene", f"{SCENES}/corridor_mini.json", "--bundle", str(out),
               "--ple", "1e308", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: rx 0: ci model: path-loss exponent 1e+308 overflows the prediction")
    assert not (tmp_path / "r.csv").exists()


def test_pipeline_applies_calibration(tmp_path, mini_scene_file, small_plan):
    out = tmp_path / "bundles"
    main(["synth", "--scene", str(mini_scene_file), "--out", str(out)])
    plan = small_plan
    gain = 10.0 ** ((7.0 + 25.0) / 20.0)
    connect = FrequencySweep(plan, np.ones(plan.point_count, dtype=complex))
    extra = FrequencySweep(plan, np.full(plan.point_count, gain, dtype=complex))
    write_sweep_csv(connect, tmp_path / "connect.csv")
    write_sweep_csv(extra, tmp_path / "extra.csv")

    plain = tmp_path / "plain.csv"
    degained = tmp_path / "degained.csv"
    main(["pipeline", "--scene", str(mini_scene_file), "--bundle", str(out / "rx000"),
          "--out", str(plain)])
    main(["pipeline", "--scene", str(mini_scene_file), "--bundle", str(out / "rx000"),
          "--connect", str(tmp_path / "connect.csv"), "--extra", str(tmp_path / "extra.csv"),
          "--out", str(degained)])
    pl_plain = float(plain.read_text().splitlines()[1].split(",")[2])
    pl_degained = float(degained.read_text().splitlines()[1].split(",")[2])
    assert pl_degained - pl_plain == pytest.approx(32.0, abs=0.01)


def test_pipeline_extra_needs_connect(tmp_path, capsys, small_plan):
    bundles = _mini_bundles(tmp_path)
    extra = tmp_path / "extra.csv"
    write_sweep_csv(FrequencySweep(small_plan, np.ones(small_plan.point_count)), extra)
    capsys.readouterr()
    out = tmp_path / "r.csv"
    rc = main(["pipeline", "--scene", f"{SCENES}/corridor_mini.json", "--bundle", str(bundles),
               "--extra", str(extra), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --extra needs --connect\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "given, off_plan, named",
    [
        (("connect",), ("connect",), "connect"),
        (("connect", "extra"), ("connect",), "connect"),
        (("connect", "extra"), ("extra",), "extra"),
        (("connect", "extra"), ("connect", "extra"), "connect"),
    ],
    ids=["connect", "connect_beside_extra", "extra", "both"],
)
def test_pipeline_names_the_calibration_file_off_the_scene_plan(
    tmp_path, capsys, small_plan, paper_plan, given, off_plan, named
):
    bundles = _mini_bundles(tmp_path)
    argv = ["pipeline", "--scene", f"{SCENES}/corridor_mini.json", "--bundle", str(bundles),
            "--out", str(tmp_path / "r.csv")]
    for fixture in given:
        plan = paper_plan if fixture in off_plan else small_plan
        write_sweep_csv(FrequencySweep(plan, np.ones(plan.point_count)), tmp_path / f"{fixture}.csv")
        argv += [f"--{fixture}", str(tmp_path / f"{fixture}.csv")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / named}.csv: frequency grid does not match the plan\n")
    assert not (tmp_path / "r.csv").exists()


def _spoil_sweep_csv(tmp_path, name, column, value):
    """Calibration fixtures for rx 0 with ``value`` in ``column`` of data row 6 of ``name``."""
    n = SMALL_PLAN.point_count
    for fixture in ("connect", "extra"):
        write_sweep_csv(FrequencySweep(SMALL_PLAN, np.ones(n)), tmp_path / f"{fixture}.csv")
    path = tmp_path / f"{name}.csv"
    lines = path.read_text().splitlines()
    fields = lines[6].split(",")
    fields[column] = value
    lines[6] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return path, "data row 6: frequency and sample must be finite"


def _spoil_paths_npy(bundles, factor, value):
    """rx000's ``paths.npy`` replaced by one unit path whose gains (``factor`` 0)
    or path sweep (1) end in ``value``."""
    def change(gains, paths):
        factors = [np.ones((gains.shape[0], 1)), np.ones((1, paths.shape[1]), dtype=complex)]
        factors[factor][0, -1] = float(value)
        return factors

    return rewrite_paths_npy(bundles / "rx000", change), "every value must be finite"


NON_FINITE_SWEEPS = {
    "connect_sample_nan": lambda t, b: _spoil_sweep_csv(t, "connect", 1, "nan"),
    "connect_frequency_inf": lambda t, b: _spoil_sweep_csv(t, "connect", 0, "inf"),
    "extra_sample_inf": lambda t, b: _spoil_sweep_csv(t, "extra", 2, "-inf"),
    "sweeps_npy_nan": lambda t, b: _spoil_paths_npy(b, 1, "nan"),
    "sweeps_npy_inf": lambda t, b: _spoil_paths_npy(b, 0, "inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_SWEEPS))
def test_pipeline_non_finite_sweep_names_the_file(tmp_path, capsys, case):
    bundles = _mini_bundles(tmp_path)
    named, reason = NON_FINITE_SWEEPS[case](tmp_path, bundles)
    capsys.readouterr()
    out = tmp_path / "r.csv"
    argv = ["pipeline", "--scene", f"{SCENES}/corridor_mini.json", "--bundle", str(bundles),
            "--out", str(out)]
    if case.startswith(("connect", "extra")):
        argv += ["--connect", str(tmp_path / "connect.csv"), "--extra", str(tmp_path / "extra.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {named}: {reason}\n"
    assert not out.exists()


def test_pipeline_byte_determinism(tmp_path, mini_scene_file):
    out = tmp_path / "bundles"
    main(["synth", "--scene", str(mini_scene_file), "--out", str(out)])
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for r in (r1, r2):
        assert main([
            "pipeline", "--scene", str(mini_scene_file), "--bundle", str(out),
            "--out", str(r),
        ]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_fit_generate_recovers_table_row(tmp_path):
    out = tmp_path / "table.csv"
    rc = main([
        "fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
        "--angles", "5:10:75", "--out", str(out),
    ])
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert header == "scenario,band,phi_bar_deg,a,b,c,rmse_db"
    cells = row.split(",")
    assert cells[0] == "hallway" and cells[1] == "306-321GHz"
    got = [float(x) for x in cells[2:6]]
    assert got == pytest.approx([15.79, 3.52, 0.59, 1.51], abs=1e-4)


def test_fit_underdetermined_exits_2(tmp_path, capsys):
    rc = main([
        "fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
        "--angles", "5,15,25", "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("source", ["samples", "generate"])
def test_fit_with_three_samples_says_samples(tmp_path, capsys, source):
    """No fit input is filtered to with-NIRS rows, so the message counts samples."""
    samples = tmp_path / "s.csv"
    samples.write_text("reflection_angle_deg,l_ref_db\n5,10\n15,11\n25,12\n")
    argv = (["--samples", str(samples)] if source == "samples" else
            ["--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51", "--angles", "5,15,25"])
    out = tmp_path / "t.csv"
    assert main(["fit", *argv, "--out", str(out)]) == 2
    where = f"{samples}: group samples/: " if source == "samples" else ""
    assert capsys.readouterr().err == f"error: {where}fit needs at least 4 samples, got 3\n"
    assert not out.exists()


def test_fit_seeded_noise_is_reproducible(tmp_path):
    args = [
        "fit", "--generate", "corridor,306-321GHz,17.51,2.80,0.48,7.4",
        "--angles", "5:10:75", "--noise-sigma", "0.5", "--seed", "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("angle", ["nan", "inf", "145", "-5"])
def test_fit_rejects_angle_outside_domain(tmp_path, capsys, angle):
    samples = tmp_path / "s.csv"
    rows = [f"{k},{5 + 10 * k},{10 + k}" for k in range(7)] + [f"7,{angle},20"]
    samples.write_text("rx_id,reflection_angle_deg,l_ref_db\n" + "\n".join(rows) + "\n")
    out = tmp_path / "t.csv"
    rc = main(["fit", "--samples", str(samples), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "[0, 90]" in err
    assert not out.exists()


@pytest.mark.parametrize("generator", ["s,b,10,1e308,2,1e308", "s,b,1e308,0,2,1"])
def test_fit_generator_whose_losses_are_not_finite_exits_2_in_one_line(tmp_path, capsys, generator):
    out = tmp_path / "t.csv"
    rc = main(["fit", "--generate", generator, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: reflection sample: additional loss must be finite\n"
    assert not out.exists()


def test_fit_overflowing_losses_exit_2(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    rows = [f"{k},{5 + 10 * k},{(k + 1) * 1e200!r}" for k in range(8)]
    samples.write_text("rx_id,reflection_angle_deg,l_ref_db\n" + "\n".join(rows) + "\n")
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["fit", "--samples", str(samples), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "overflow" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "column, value, reason",
    [
        ("rx_id", "x", "invalid literal for int()"),
        ("rx_id", "2.5", "invalid literal for int()"),
        ("reflection_angle_deg", "abc", "could not convert"),
        ("reflection_angle_deg", "145", "[0, 90]"),
        ("l_ref_db", "", "could not convert"),
        ("l_ref_db", "inf", "must be finite"),
    ],
)
def test_fit_bad_sample_row_names_file_and_row(tmp_path, capsys, column, value, reason):
    header = ["rx_id", "reflection_angle_deg", "l_ref_db"]
    rows = [[str(k), str(5 + 10 * k), str(10 + k)] for k in range(7)]
    rows[4][header.index(column)] = value
    samples = tmp_path / "s.csv"
    samples.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    rc = main(["fit", "--samples", str(samples), "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {samples}: data row 5: ") and err.count("\n") == 1
    assert reason in err


def test_fit_short_sample_row_names_file_and_row(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("rx_id,reflection_angle_deg,l_ref_db\n0,5,10\n1,15\n")
    rc = main(["fit", "--samples", str(samples), "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {samples}: data row 2: ")


SPLITS_A_FIELD = "holds a comma, a double quote or a line break"


@pytest.mark.parametrize(
    "column, field, name",
    [("scenario", '"a,b"', "a,b"), ("band", '"x""y"', 'x"y'), ("scenario", '"a\nb"', "a\nb")],
    ids=["comma", "quote", "line_break"],
)
def test_fit_rejects_a_samples_name_that_would_split_a_table_field(
    tmp_path, capsys, column, field, name
):
    rows = [["s", "306-321GHz", str(k), str(5 + 10 * k), str(10 + k)] for k in range(8)]
    rows[2][0 if column == "scenario" else 1] = field
    samples = tmp_path / "s.csv"
    samples.write_text("scenario,band,rx_id,reflection_angle_deg,l_ref_db\n"
                       + "".join(",".join(r) + "\n" for r in rows))
    out = tmp_path / "t.csv"
    assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {samples}: data row 3: {column} {name!r} {SPLITS_A_FIELD}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--scenario", "a,b", "--scenario 'a,b'"),
        ("--band", 'x"y', "--band 'x\"y'"),
        ("--generate", 'c"d,b,17.51,2.80,0.48,7.4', "--generate: scenario 'c\"d'"),
        ("--generate", "c,b\r,17.51,2.80,0.48,7.4", "--generate: band 'b\\r'"),
    ],
    ids=["scenario", "band", "generate_scenario", "generate_band"],
)
def test_fit_rejects_a_flag_name_that_would_split_a_table_field(
    tmp_path, capsys, flag, value, named
):
    out = tmp_path / "t.csv"
    argv = ["fit", flag, value, "--out", str(out)]
    if flag != "--generate":
        argv += ["--samples", str(_samples_input(tmp_path, lambda path: path)[0])]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {named} {SPLITS_A_FIELD}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--scenario", "other"], "--scenario 'other': every row of {} has its own scenario"),
        (["--band", "zz"], "--band 'zz': every row of {} has its own band"),
        (["--scenario", "other", "--band", "zz"],
         "--scenario 'other': every row of {} has its own scenario"),
    ],
    ids=["scenario", "band", "both"],
)
def test_fit_rejects_a_name_flag_that_no_samples_row_needs(tmp_path, capsys, flags, named):
    samples = tmp_path / "s.csv"
    samples.write_text("scenario,band,rx_id,reflection_angle_deg,l_ref_db\n"
                       + "".join(f"s,b,{k},{5 + 10 * k},{10 + k}\n" for k in range(8)))
    out = tmp_path / "t.csv"
    assert main(["fit", "--samples", str(samples), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {named.format(samples)}\n"
    assert not out.exists()


def test_fit_name_flag_fills_the_rows_that_leave_the_column_empty(tmp_path):
    samples = tmp_path / "s.csv"
    samples.write_text("scenario,band,rx_id,reflection_angle_deg,l_ref_db\n"
                       + "".join(f"s,b,{k},{5 + 10 * k},{10 + k}\n" for k in range(8))
                       + "".join(f",b,{k},{5 + 10 * k},{12 + k}\n" for k in range(4)))
    out = tmp_path / "t.csv"
    assert main(["fit", "--samples", str(samples), "--scenario", "other", "--out", str(out)]) == 0
    assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [
        ["other", "b"], ["s", "b"]]


@pytest.mark.parametrize("flag", ["--scenario", "--band"])
def test_fit_generate_rejects_a_name_flag(tmp_path, capsys, flag):
    out = tmp_path / "t.csv"
    argv = ["fit", "--generate", "c,b,17.51,2.80,0.48,7.4", flag, "x", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} 'x' does not apply to --generate\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, shown",
    [("--angles", "1:1:9", "'1:1:9'"), ("--noise-sigma", "0.5", "0.5"), ("--seed", "3", "3")],
)
def test_fit_samples_rejects_a_generator_flag(tmp_path, capsys, flag, value, shown):
    samples = tmp_path / "s.csv"
    samples.write_text("rx_id,reflection_angle_deg,l_ref_db\n"
                       + "".join(f"{k},{5 + 10 * k},{10 + k}\n" for k in range(8)))
    out = tmp_path / "t.csv"
    assert main(["fit", "--samples", str(samples), flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} {shown} does not apply to --samples\n"
    assert not out.exists()


def test_fit_samples_need_the_l_ref_column(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    rows = [f"{k},{5 + 10 * k},{10 + k}" for k in range(8)]
    samples.write_text("rx_id,reflection_angle_deg,additional_loss_db\n" + "\n".join(rows) + "\n")
    out = tmp_path / "t.csv"
    rc = main(["fit", "--samples", str(samples), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {samples}: needs columns reflection_angle_deg and l_ref_db\n"
    )
    assert not out.exists()


def test_fit_samples_without_data_rows_exit_2(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("reflection_angle_deg,l_ref_db\n")
    out = tmp_path / "t.csv"
    rc = main(["fit", "--samples", str(samples), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {samples}: no data rows\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "bad_rows, reason",
    [
        ([(5, 10.0), (15, 11.0), (25, 12.0)], "fit needs at least 4 samples, got 3"),
        ([(35, 10.0 + k) for k in range(5)], "all sample angles are identical"),
    ],
    ids=["too_few", "one_angle"],
)
def test_fit_names_the_failing_group(tmp_path, capsys, bad_rows, reason):
    lines = ["scenario,band,rx_id,reflection_angle_deg,l_ref_db"]
    for g in range(16):
        rows = bad_rows if g == 9 else [(5 + 10 * k, 10.0 + k * k) for k in range(8)]
        lines += [f"s{g:02d},306-321GHz,{k},{angle},{loss}" for k, (angle, loss) in enumerate(rows)]
    samples = tmp_path / "s.csv"
    samples.write_text("\n".join(lines) + "\n")
    out = tmp_path / "t.csv"
    rc = main(["fit", "--samples", str(samples), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {samples}: group s09/306-321GHz: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["-3", "nan", "inf"])
def test_fit_generate_rejects_bad_noise_sigma(tmp_path, capsys, sigma):
    out = tmp_path / "t.csv"
    rc = main([
        "fit", "--generate", "corridor,306-321GHz,17.51,2.80,0.48,7.4",
        "--noise-sigma", sigma, "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: noise sigma must be finite and >= 0") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, reason",
    [
        ("a,b,x,1,1,1", "phi_bar 'x'"),
        ("a,b,1,one,1,1", "a 'one'"),
        ("a,b,1,1,nan,1", "b 'nan'"),
        ("a,b,1,1,1,", "c ''"),
    ],
    ids=["phi_bar", "a", "b_nan", "c_empty"],
)
def test_fit_generate_names_non_numeric_field(tmp_path, capsys, spec, reason):
    rc = main(["fit", "--generate", spec, "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --generate: {reason} is not a finite number\n"


def test_fit_generate_names_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main([
        "fit", "--generate", "corridor,306-321GHz,17.51,2.80,0.48,7.4",
        "--noise-sigma", "0.5", "--seed", "-1", "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_fit_requires_exactly_one_source(tmp_path, capsys):
    rc = main(["fit", "--out", str(tmp_path / "t.csv")])
    assert rc == 2


def test_fit_angle_range_equals_list(tmp_path):
    tables = []
    for angles in ("5:10:75", "5,15,25,35,45,55,65,75"):
        out = tmp_path / f"t{len(tables)}.csv"
        assert main([
            "fit", "--generate", "corridor,306-321GHz,17.51,2.80,0.48,7.4",
            "--angles", angles, "--noise-sigma", "0.5", "--out", str(out),
        ]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_coverage_threshold_range_equals_default(tmp_path):
    scene_file = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "results.csv"
    _write_results(results, scene_file, list(np.linspace(104.0, 130.0, 9)))
    outs = []
    for extra in ([], ["--thresholds=-10:1:30"]):
        out = tmp_path / f"cov{len(outs)}.csv"
        assert main([
            "coverage", "--scene", scene_file, "--results", str(results),
            "--out", str(out), *extra,
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("step", ["0", "-1"])
def test_range_step_not_positive_exits_2(tmp_path, capsys, step):
    scene_file = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "results.csv"
    _write_results(results, scene_file, [105.0] * 9)
    runs = [
        ["fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
         f"--angles=5:{step}:75", "--out", str(tmp_path / "t.csv")],
        ["coverage", "--scene", scene_file, "--results", str(results),
         f"--thresholds=-10:{step}:30", "--out", str(tmp_path / "c.csv")],
    ]
    for argv in runs:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "c.csv").exists()


def _write_results(path, scene_file, pl_values):
    scene = load_scene(scene_file)
    lines = ["rx_id,pl_dir_db,pl_omni_db,reflection_angle_deg,d1_m,d2_m,l_ref_db"]
    for k in range(scene.n_rx):
        lines.append(f"{k},0,{pl_values[k]},45,9,2,0")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "spec", ["", "5:10", "a:1:3", "1,,2", "0:1:inf", "nan,1", "1,inf", "0:inf:30", "nan:1:3",
             "0:1e-15:1",  # 10**15 points, which numpy refuses at once to allocate
             "30:1:10"]  # stop below start: no points
)
def test_malformed_range_names_spec_exits_2(tmp_path, capsys, spec):
    scene_file = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "results.csv"
    _write_results(results, scene_file, [105.0] * 9)
    runs = [
        ["fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
         f"--angles={spec}", "--out", str(tmp_path / "t.csv")],
        ["coverage", "--scene", scene_file, "--results", str(results),
         f"--thresholds={spec}", "--out", str(tmp_path / "c.csv")],
    ]
    for argv in runs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: range '{spec}': ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("spec, value", [("5,5,5", "5.0"), ("3,1,2,1", "1.0")])
def test_repeated_threshold_exits_2_but_repeated_angle_fits(tmp_path, capsys, spec, value):
    scene_file = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "results.csv"
    _write_results(results, scene_file, [105.0] * 9)
    assert main(["coverage", "--scene", scene_file, "--results", str(results),
                 f"--thresholds={spec}", "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == f"error: --thresholds lists {value} dB more than once\n"
    assert not (tmp_path / "c.csv").exists()
    assert main(["fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
                 f"--angles={spec},15,35,55,75", "--out", str(tmp_path / "t.csv")]) == 0


def test_coverage_thresholds_flag_gives_41_rows(tmp_path):
    scene_file = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "results.csv"
    _write_results(results, scene_file, [105.0] * 9)
    out = tmp_path / "cov.csv"
    rc = main([
        "coverage", "--scene", scene_file, "--results", str(results),
        "--thresholds=-10:1:30", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "threshold_db,ratio_with_nirs"
    assert len(lines) - 1 == 41
    # constant PL: step function at snr = 125.07 - 105 = 20.07 dB
    ratios = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert ratios[20.0] == 1.0 and ratios[21.0] == 0.0


def test_coverage_paired_dominance(tmp_path):
    scene_file = f"{SCENES}/corridor_mini.json"
    with_csv, wo_csv = tmp_path / "with.csv", tmp_path / "wo.csv"
    _write_results(with_csv, scene_file, list(np.linspace(104.0, 112.0, 9)))
    _write_results(wo_csv, scene_file, list(np.linspace(114.0, 122.0, 9)))
    out = tmp_path / "cov.csv"
    rc = main([
        "coverage", "--scene", scene_file, "--results", str(with_csv),
        "--results-without", str(wo_csv), "--out", str(out),
    ])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert all(float(rw) >= float(rwo) for _, rw, rwo in rows)


def test_coverage_missing_rx_exits_2(tmp_path, capsys):
    scene_file = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "r.csv"
    results.write_text("rx_id,pl_omni_db\n0,105\n1,106\n")
    rc = main(["coverage", "--scene", scene_file, "--results", str(results),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def test_coverage_duplicate_rx_exits_2(tmp_path, capsys):
    scene_file = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "r.csv"
    rows = [f"{k},{100 + k}" for k in range(9)] + ["0,200"]
    results.write_text("rx_id,pl_omni_db\n" + "\n".join(rows) + "\n")
    out = tmp_path / "c.csv"
    rc = main(["coverage", "--scene", scene_file, "--results", str(results),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(results) in err and "rx_id 0" in err
    assert not out.exists()


@pytest.mark.parametrize("positions, reason", [
    ([[1.0, 2.0, 1.5]], "interpolation needs at least 2 positions, got 1"),
    ([[1.0, 2.0, 1.5]] * 2, "duplicate positions at indices 0 and 1"),
], ids=["one_rx", "two_equal_rx"])
def test_coverage_names_the_scene_whose_receivers_give_no_polyline(
        tmp_path, capsys, positions, reason):
    data = json.loads(Path(f"{SCENES}/corridor_mini.json").read_text())
    data["rx"]["positions"] = positions
    scene_file = tmp_path / "few_rx.json"
    scene_file.write_text(json.dumps(data))
    results = tmp_path / "r.csv"
    _write_results(results, scene_file, [105.0] * len(positions))
    out = tmp_path / "c.csv"
    rc = main(["coverage", "--scene", str(scene_file), "--results", str(results),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {scene_file}: rx positions: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("rx_id", ["-1", "9"])
def test_coverage_unknown_rx_exits_2(tmp_path, capsys, rx_id):
    scene_file = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "r.csv"
    rows = [f"{rx_id},1"] + [f"{k},100" for k in range(9)]
    results.write_text("rx_id,pl_omni_db\n" + "\n".join(rows) + "\n")
    out = tmp_path / "c.csv"
    rc = main(["coverage", "--scene", scene_file, "--results", str(results),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: {results}: data row 1: "
                   f"rx_id {rx_id} is not one of the scene's rx ids 0..8\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "column, value, reason",
    [
        ("rx_id", "x", "invalid literal for int()"),
        ("pl_omni_db", "", "could not convert"),
        ("pl_omni_db", "nan", "must be finite"),
        ("pl_omni_db", "inf", "must be finite"),
    ],
)
def test_coverage_bad_row_names_file_and_row(tmp_path, capsys, column, value, reason):
    scene_file = f"{SCENES}/corridor_mini.json"
    rows = [[str(k), str(100 + k)] for k in range(9)]
    rows[2][["rx_id", "pl_omni_db"].index(column)] = value
    results = tmp_path / "r.csv"
    results.write_text("rx_id,pl_omni_db\n" + "\n".join(",".join(r) for r in rows) + "\n")
    out = tmp_path / "c.csv"
    rc = main(["coverage", "--scene", scene_file, "--results", str(results),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}: data row 3: ") and err.count("\n") == 1
    assert reason in err
    assert not out.exists()


# The four rows of the paper's fit table; groups alternate over them.
FIT_TABLE = (
    ("corridor", "306-321GHz", ReflLossModel(17.51, 2.80, 0.48, 7.40)),
    ("hallway", "306-321GHz", ReflLossModel(15.79, 3.52, 0.59, 1.51)),
    ("corridor", "356-371GHz", ReflLossModel(18.34, 1.34, 0.60, 13.78)),
    ("hallway", "356-371GHz", ReflLossModel(15.58, 2.60, 0.67, 4.01)),
)


def _write_fit_batch(path, n_groups=16, seed=1, bad=()):
    """Noisy groups, the first half on 8 angles and the rest on 24; the
    groups named in ``bad`` get three samples, too few to fit."""
    rng = np.random.default_rng(seed)
    lines = ["scenario,band,rx_id,reflection_angle_deg,l_ref_db"]
    for g in range(n_groups):
        scenario, band, model = FIT_TABLE[g % len(FIT_TABLE)]
        angles = 5.0 + 10.0 * np.arange(8) if g < n_groups // 2 else 3.0 + 3.0 * np.arange(24)
        samples = generate_samples(model, angles, noise_sigma_db=0.5, rng=rng, band_label=band)
        for s in samples[:3] if g in bad else samples:
            lines.append(f"{scenario}-g{g:02d},{band},{s.rx_id},"
                         f"{s.reflection_angle_deg!r},{s.additional_loss_db!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert cli._worker_count() == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._worker_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._worker_count() == 3


def test_fit_pool_gives_the_serial_table(tmp_path, monkeypatch):
    samples = _write_fit_batch(tmp_path / "s.csv")
    tables = {}
    for workers in (None, 1, 3):
        if workers is not None:
            monkeypatch.setattr(cli, "_worker_count", lambda: workers)
        out = tmp_path / f"t{workers}.csv"
        assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 0
        tables[workers] = out.read_bytes()
    assert tables[None] == tables[1] == tables[3]
    assert len(tables[1].decode().splitlines()) == 1 + 16


@pytest.mark.parametrize("workers", [0, 1, 2])  # 0: the CPUs this process may run on
def test_fit_pool_names_the_first_failing_group(tmp_path, capsys, monkeypatch, workers):
    if workers:
        monkeypatch.setattr(cli, "_worker_count", lambda: workers)
    samples = _write_fit_batch(tmp_path / "s.csv", bad=(14, 5))
    out = tmp_path / "t.csv"
    rc = main(["fit", "--samples", str(samples), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    # corridor-g14 sorts before hallway-g05, so it is named although made later
    assert err == (f"error: {samples}: group corridor-g14/356-371GHz: "
                   "fit needs at least 4 samples, got 3\n")
    assert not out.exists()


def test_fit_worker_that_dies_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_worker_count", lambda: 2)
    samples = _write_fit_batch(tmp_path / "s.csv", n_groups=6)
    fit = reflfit.fit_refl_models

    def dies_on_24_angles(groups):  # the fork carries this patch into the workers
        if any(len(group) == 24 for group in groups):
            os._exit(3)
        return fit(groups)

    monkeypatch.setattr(reflfit, "fit_refl_models", dies_on_24_angles)
    out = tmp_path / "t.csv"
    assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: internal: ")
    assert not out.exists()


def test_fit_worker_fault_is_reraised_and_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_worker_count", lambda: 2)
    samples = _write_fit_batch(tmp_path / "s.csv", n_groups=6)

    def faulty(groups):  # fails on its first group, as a per-group fit would
        raise ZeroDivisionError(f"fault on {len(groups[0])} samples")

    monkeypatch.setattr(reflfit, "fit_refl_models", faulty)
    out = tmp_path / "t.csv"
    assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: internal: fault on 8 samples\n"
    assert not out.exists()


def test_one_group_fit_starts_no_pool(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a one-group fit forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cli, "_worker_count", lambda: 4)
    samples = _write_fit_batch(tmp_path / "s.csv", n_groups=1)
    assert main(["fit", "--samples", str(samples), "--out", str(tmp_path / "t.csv")]) == 0
    assert main([
        "fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
        "--noise-sigma", "0.5", "--out", str(tmp_path / "g.csv"),
    ]) == 0


@pytest.mark.parametrize("how", ["raises", "dies"])
def test_fit_worker_failure_leaves_no_child(tmp_path, capsys, monkeypatch, how):
    monkeypatch.setattr(cli, "_worker_count", lambda: 2)
    samples = _write_fit_batch(tmp_path / "s.csv", n_groups=6)

    def fails(groups):
        if how == "dies":
            os._exit(3)
        raise ZeroDivisionError("fault")

    monkeypatch.setattr(reflfit, "fit_refl_models", fails)
    assert main(["fit", "--samples", str(samples), "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: internal: ")
    with pytest.raises(ChildProcessError):  # every worker was waited for
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_returns_results_larger_than_a_pipe_buffer():
    def big(batch):  # 4 MiB a batch: the child blocks on its pipe until it is read
        return [bytes([value]) * (1 << 22) for value in batch]

    def deadlocked(*_):  # raised in the parent, whose cleanup then ends its children
        raise TimeoutError("fork map still waiting after 60 s")

    previous = signal.signal(signal.SIGALRM, deadlocked)
    signal.alarm(60)
    try:
        batches = [[1], [2, 3], [4]]
        assert cli._fork_map(big, batches) == [big(batch) for batch in batches]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_multi_group_fit_loads_no_pool_machinery(tmp_path):
    samples = _write_fit_batch(tmp_path / "s.csv", n_groups=4)
    code = (
        "import os, sys, thznirs.cli as cli\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: (forks.append(1), fork())[1]\n"
        "cli._worker_count = lambda: 2\n"
        f"assert cli.main(['fit', '--samples', {str(samples)!r}, "
        f"'--out', {str(tmp_path / 't.csv')!r}]) == 0\n"
        "print(len(forks), [m for m in ('multiprocessing', 'concurrent.futures')\n"
        "                   if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2 []"


def test_cli_import_loads_no_pool_machinery():
    code = ("import sys, thznirs.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_and_fit_load_only_the_fitter(tmp_path):
    code = (
        "import sys, thznirs.cli\n"
        "others = ('scene', 'synthchan', 'pdap', 'pathloss', 'calibrate', 'coverage')\n"
        "def loaded(): return [m for m in others if f'thznirs.{m}' in sys.modules]\n"
        "print(loaded())\n"
        "assert thznirs.cli.main(['fit', '--generate', 'hallway,306-321GHz,15.79,3.52,0.59,1.51',\n"
        f"                         '--out', {str(tmp_path / 'g.csv')!r}]) == 0\n"
        "print(loaded(), 'json' in sys.modules)\n"
        "from thznirs.reflfit import additional_reflection_loss\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[] False"]


_SYNTH_MODULES = {"cli", "errors", "fileio", "scene", "synthchan"}
SUBCOMMAND_MODULES = {  # the thznirs.* modules each subcommand loads
    "synth": _SYNTH_MODULES,
    # pathloss imports reflfit's additional_reflection_loss
    "pipeline": _SYNTH_MODULES | {"calibrate", "pathloss", "pdap", "reflfit"},
    "fit": {"cli", "errors", "fileio", "reflfit"},
    "coverage": {"cli", "errors", "fileio", "scene", "coverage"},
}


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    scene, bundles, results = f"{SCENES}/corridor_mini.json", tmp_path / "b", tmp_path / "r.csv"
    chain = (
        ["synth", "--scene", scene, "--max-bounces", "1", "--out", str(bundles)],
        ["pipeline", "--scene", scene, "--bundle", str(bundles), "--out", str(results)],
        ["fit", "--samples", str(results), "--out", str(tmp_path / "t.csv")],
        ["coverage", "--scene", scene, "--results", str(results), "--out", str(tmp_path / "c.csv")],
    )
    code = ("import json, sys\n"
            "from thznirs.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(json.dumps([sorted(m[8:] for m in sys.modules if m.startswith('thznirs.')),\n"
            "                  'numpy.ma' in sys.modules]))\n")
    for argv in chain:  # each step in a fresh interpreter, as the shell chain runs it
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr
        modules, numpy_ma = json.loads(proc.stdout)
        assert (argv[0], set(modules), numpy_ma) == (argv[0], SUBCOMMAND_MODULES[argv[0]], False)


@pytest.mark.parametrize("caller", [None, "3"])
def test_cli_import_defaults_openblas_to_one_thread(caller):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    code = "import os, thznirs.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (caller or "1")


def test_coverage_import_loads_no_synthesizer_or_fitter():
    code = ("import sys, thznirs.coverage; "
            "print([m for m in ('thznirs.synthchan', 'thznirs.reflfit') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thznirs", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "coverage" in proc.stdout
