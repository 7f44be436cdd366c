import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import SPOILED_BUNDLES, write_csv_bundle

from thznirs import cli
from thznirs.cli import main
from thznirs.pathloss import CiModel, directional_path_loss, omni_path_loss
from thznirs.pdap import pdap_from_sweeps
from thznirs.presets import PLAN_MINI_306, corridor_scene
from thznirs.reflfit import ReflLossModel, additional_reflection_loss, generate_samples
from thznirs.scene import (
    FrequencySweep,
    ScanGrid,
    load_scene,
    nirs_angle_set,
    rx_link_geometry,
    save_scene,
    scene_to_dict,
)
from thznirs.synthchan import synthesize_sweep, write_sweep_csv

SCENES = str(Path(__file__).resolve().parent.parent / "scenes")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def mini_scene_file(tmp_path):
    # a trimmed corridor: 3 Rx, 2x2 scan grid keeps file counts tiny
    grid = ScanGrid(azimuth_deg=(140.0, 150.0), elevation_deg=(-10.0, 0.0))
    scene = corridor_scene(plan=PLAN_MINI_306, grid=grid)
    import dataclasses

    scene = dataclasses.replace(scene, rx_positions=scene.rx_positions[:3])
    path = tmp_path / "mini.json"
    save_scene(scene, path)
    return path


def test_synth_writes_bundles_per_rx(tmp_path, mini_scene_file):
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", str(mini_scene_file), "--out", str(out)]) == 0
    rx_dirs = sorted(p for p in out.iterdir())
    assert [p.name for p in rx_dirs] == ["rx000", "rx001", "rx002"]
    for d in rx_dirs:
        assert sorted(p.name for p in d.iterdir()) == ["manifest.json", "sweeps.npy"]
        sweeps = np.load(d / "sweeps.npy", allow_pickle=False)
        assert sweeps.shape == (2, 2, PLAN_MINI_306.point_count)  # 2x2 grid
    manifest = json.loads((rx_dirs[0] / "manifest.json").read_text())
    assert manifest["format"] == "npy"
    assert manifest["nirs"] is True
    assert manifest["scenario_id"] == "mini"


def test_synth_full_corridor_has_180_directions(tmp_path):
    out = tmp_path / "bundles"
    rc = main([
        "synth", "--scene", f"{SCENES}/corridor_mini.json", "--out", str(out),
        "--rx-index", "0",
    ])
    assert rc == 0
    sweeps = np.load(out / "rx000" / "sweeps.npy", allow_pickle=False)
    assert sweeps.shape == (5, 36, 101)


def test_synth_three_bounces_leaks_no_numpy_warning(tmp_path):
    # the batched image tree divides by plane parameters of parallel and
    # degenerate crossings; none of that may surface as a RuntimeWarning
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
    rc = main([
        "synth", "--scene", f"{SCENES}/corridor_mini_no_nirs.json", "--out", str(out),
        "--rx-index", "0",
    ])
    assert rc == 0
    manifest = json.loads((out / "rx000" / "manifest.json").read_text())
    assert manifest["nirs"] is False


def test_synth_rejects_nonplanar_wall(tmp_path, capsys):
    data = scene_to_dict(corridor_scene(plan=PLAN_MINI_306))
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
        lambda d: d["rx"].update(positions=3), "positions in rx must be a JSON array, got int"
    ),
    "tx_not_an_object": (lambda d: d.update(tx=[]), "tx must be a JSON object"),
    "grid_without_elevation": (
        lambda d: d.update(scan_grid={"azimuth_deg": 7}), "'elevation_deg' in scan_grid"
    ),
    "pattern_without_hpbw": (lambda d: d["rx"]["pattern"].pop("hpbw_deg"), "'hpbw_deg' in pattern"),
    "unknown_plan_key": (lambda d: d["frequency_plan"].update(f_mid_hz=1), "['f_mid_hz']"),
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
    "nan_boresight": (lambda d: d["tx"].update(boresight=[NAN, 1.0, 0.0]), "tx boresight"),
    "nan_wall_loss": (lambda d: d["walls"][0].update(material_loss_db=NAN), "material_loss"),
    "inf_panel_loss": (
        lambda d: d["nirs_panels"][0].update(material_loss_db=INF), "material_loss"
    ),
    "nan_loss_table_angle": (
        lambda d: d["walls"][1].update(material_loss_db=[[NAN, 12.0]]), "angles"
    ),
    "nan_rx_position": (lambda d: d["rx"]["positions"][2].__setitem__(0, NAN), "rx position"),
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


def _rx0_bundle(tmp_path) -> Path:
    bundles = tmp_path / "b"
    assert main(["synth", "--scene", f"{SCENES}/corridor_mini.json", "--out", str(bundles),
                 "--rx-index", "0", "--max-bounces", "0"]) == 0
    return bundles


def _utf16_manifest(tmp_path):
    scene, bundles = f"{SCENES}/corridor_mini.json", _rx0_bundle(tmp_path)
    return _utf16(bundles / "rx000" / "manifest.json"), [
        "pipeline", "--scene", scene, "--bundle", str(bundles), "--out", str(tmp_path / "o")
    ]


def _utf16_sweep_csv(tmp_path):
    scene, bundles = f"{SCENES}/corridor_mini.json", _rx0_bundle(tmp_path)
    connect = tmp_path / "connect.csv"
    write_sweep_csv(FrequencySweep(PLAN_MINI_306, np.ones(PLAN_MINI_306.point_count)), connect)
    return _utf16(connect), ["pipeline", "--scene", scene, "--bundle", str(bundles),
                             "--connect", str(connect), "--out", str(tmp_path / "o")]


def _utf16_samples(tmp_path):
    samples = tmp_path / "s.csv"
    rows = [f"{k},{5 + 10 * k},{10 + k}" for k in range(8)]
    samples.write_text("rx_id,reflection_angle_deg,l_ref_db\n" + "\n".join(rows) + "\n")
    return _utf16(samples), ["fit", "--samples", str(samples), "--out", str(tmp_path / "o")]


def _utf16_results(tmp_path):
    scene = f"{SCENES}/corridor_mini.json"
    results = tmp_path / "r.csv"
    _write_results(results, scene, [105.0] * 9)
    return _utf16(results), ["coverage", "--scene", scene, "--results", str(results),
                             "--out", str(tmp_path / "o")]


UTF16_INPUTS = {
    "scene": _utf16_scene,
    "manifest": _utf16_manifest,
    "sweep_csv": _utf16_sweep_csv,
    "samples_csv": _utf16_samples,
    "results_csv": _utf16_results,
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


def test_pipeline_rejects_a_second_panel(tmp_path, capsys):
    data = json.loads(Path(SCENES, "corridor_mini.json").read_text())
    data["nirs_panels"].append(dict(data["nirs_panels"][0], active_cells=[[0, 0]]))
    scene = tmp_path / "two_panels.json"
    scene.write_text(json.dumps(data))
    bundles = tmp_path / "b"
    assert main(["synth", "--scene", str(scene), "--out", str(bundles), "--rx-index", "0",
                 "--max-bounces", "1"]) == 0
    capsys.readouterr()
    out = tmp_path / "r.csv"
    rc = main(["pipeline", "--scene", str(scene), "--bundle", str(bundles), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scene}: pipeline needs a scene with exactly one NIRS panel")
    assert "got 2;" in err and err.count("\n") == 1
    assert not out.exists()


def test_manifest_bad_frequency_plan_names_the_file(tmp_path, capsys):
    bundles = _rx0_bundle(tmp_path)
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


def test_internal_key_error_exits_1(tmp_path, capsys, monkeypatch):
    def broken(samples):
        raise KeyError("b_grid")

    monkeypatch.setattr("thznirs.cli.fit_refl_model", broken)
    rc = main(["fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: internal: 'b_grid'\n"


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


def test_pipeline_names_bundle_whose_rx_the_scene_lacks(tmp_path, capsys):
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", f"{SCENES}/hallway_mini.json", "--out", str(out),
                 "--rx-index", "10", "--max-bounces", "1"]) == 0
    scene_file = f"{SCENES}/corridor_mini.json"
    rc = main(["pipeline", "--scene", scene_file, "--bundle", str(out),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: bundle {out / 'rx010'} holds rx 10, "
                   f"but scene {scene_file} has only 9 receivers\n")
    assert not (tmp_path / "r.csv").exists()


def test_pipeline_applies_calibration(tmp_path, mini_scene_file):
    out = tmp_path / "bundles"
    main(["synth", "--scene", str(mini_scene_file), "--out", str(out), "--rx-index", "0"])
    plan = PLAN_MINI_306
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


def test_pipeline_extra_needs_connect(tmp_path, capsys):
    bundles = _rx0_bundle(tmp_path)
    extra = tmp_path / "extra.csv"
    write_sweep_csv(FrequencySweep(PLAN_MINI_306, np.ones(PLAN_MINI_306.point_count)), extra)
    capsys.readouterr()
    out = tmp_path / "r.csv"
    rc = main(["pipeline", "--scene", f"{SCENES}/corridor_mini.json", "--bundle", str(bundles),
               "--extra", str(extra), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --extra needs --connect\n"
    assert not out.exists()


def _spoil_sweep_csv(tmp_path, name, column, value):
    """Calibration fixtures for rx 0 with ``value`` in ``column`` of data row 6 of ``name``."""
    n = PLAN_MINI_306.point_count
    for fixture in ("connect", "extra"):
        write_sweep_csv(FrequencySweep(PLAN_MINI_306, np.ones(n)), tmp_path / f"{fixture}.csv")
    path = tmp_path / f"{name}.csv"
    lines = path.read_text().splitlines()
    fields = lines[6].split(",")
    fields[column] = value
    lines[6] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return path, "data row 6: frequency and sample must be finite"


def _spoil_sweeps_npy(tmp_path, bundles, value):
    path = bundles / "rx000" / "sweeps.npy"
    sweeps = np.load(path)
    sweeps[0, 1, 5] = complex(value)
    np.save(path, sweeps)
    return path, "every value must be finite"


NON_FINITE_SWEEPS = {
    "connect_sample_nan": lambda t, b: _spoil_sweep_csv(t, "connect", 1, "nan"),
    "connect_frequency_inf": lambda t, b: _spoil_sweep_csv(t, "connect", 0, "inf"),
    "extra_sample_inf": lambda t, b: _spoil_sweep_csv(t, "extra", 2, "-inf"),
    "sweeps_npy_nan": lambda t, b: _spoil_sweeps_npy(t, b, "nan"),
    "sweeps_npy_inf": lambda t, b: _spoil_sweeps_npy(t, b, "inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_SWEEPS))
def test_pipeline_non_finite_sweep_names_the_file(tmp_path, capsys, case):
    bundles = _rx0_bundle(tmp_path)
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


@pytest.mark.parametrize(
    "bad_rows, reason",
    [
        ([(5, 10.0), (15, 11.0), (25, 12.0)], "fit needs at least 4 with-NIRS samples, got 3"),
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


@pytest.mark.parametrize("spec", ["5:10", "a:1:3", "1,,2", "0:1:inf"])
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


def test_thread_cap_env(tmp_path, monkeypatch):
    samples = _write_fit_batch(tmp_path / "s.csv", n_groups=4)
    monkeypatch.setenv("THZ_NIRS_THREADS", "1")
    assert main(["fit", "--samples", str(samples), "--out", str(tmp_path / "one.csv")]) == 0
    monkeypatch.setenv("THZ_NIRS_THREADS", "2")
    assert main(["fit", "--samples", str(samples), "--out", str(tmp_path / "two.csv")]) == 0
    assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert len((tmp_path / "two.csv").read_text().splitlines()) == 1 + 4
    monkeypatch.setenv("THZ_NIRS_THREADS", "abc")
    rc = main(["fit", "--samples", str(samples), "--out", str(tmp_path / "y.csv")])
    assert rc == 2


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("THZ_NIRS_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert cli._worker_count() == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._worker_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._worker_count() == 3
    monkeypatch.setenv("THZ_NIRS_THREADS", "7")
    assert cli._worker_count() == 7


def test_fit_pool_gives_the_serial_table(tmp_path, monkeypatch):
    samples = _write_fit_batch(tmp_path / "s.csv")
    tables = {}
    for threads in (None, "1", "3"):
        if threads is None:
            monkeypatch.delenv("THZ_NIRS_THREADS", raising=False)
        else:
            monkeypatch.setenv("THZ_NIRS_THREADS", threads)
        out = tmp_path / f"t{threads}.csv"
        assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 0
        tables[threads] = out.read_bytes()
    assert tables[None] == tables["1"] == tables["3"]
    assert len(tables["1"].decode().splitlines()) == 1 + 16


@pytest.mark.parametrize("threads", ["0", "1", "2"])
def test_fit_pool_names_the_first_failing_group(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("THZ_NIRS_THREADS", threads)
    samples = _write_fit_batch(tmp_path / "s.csv", bad=(14, 5))
    out = tmp_path / "t.csv"
    rc = main(["fit", "--samples", str(samples), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    # corridor-g14 sorts before hallway-g05, so it is named although made later
    assert err == (f"error: {samples}: group corridor-g14/356-371GHz: "
                   "fit needs at least 4 with-NIRS samples, got 3\n")
    assert not out.exists()


def test_fit_worker_that_dies_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THZ_NIRS_THREADS", "2")
    samples = _write_fit_batch(tmp_path / "s.csv", n_groups=6)
    fit = cli.fit_refl_model

    def dies_on_24_angles(group):  # the fork carries this patch into the workers
        if len(group) == 24:
            os._exit(3)
        return fit(group)

    monkeypatch.setattr(cli, "fit_refl_model", dies_on_24_angles)
    out = tmp_path / "t.csv"
    assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: internal: ")
    assert not out.exists()


def test_fit_worker_fault_is_reraised_and_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THZ_NIRS_THREADS", "2")
    samples = _write_fit_batch(tmp_path / "s.csv", n_groups=6)

    def faulty(group):
        raise ZeroDivisionError(f"fault on {len(group)} samples")

    monkeypatch.setattr(cli, "fit_refl_model", faulty)
    out = tmp_path / "t.csv"
    assert main(["fit", "--samples", str(samples), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: internal: fault on 8 samples\n"
    assert not out.exists()


def test_one_group_fit_starts_no_pool(tmp_path, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-group fit started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("THZ_NIRS_THREADS", "4")
    samples = _write_fit_batch(tmp_path / "s.csv", n_groups=1)
    assert main(["fit", "--samples", str(samples), "--out", str(tmp_path / "t.csv")]) == 0
    assert main([
        "fit", "--generate", "hallway,306-321GHz,15.79,3.52,0.59,1.51",
        "--noise-sigma", "0.5", "--out", str(tmp_path / "g.csv"),
    ]) == 0


def test_cli_import_loads_no_pool_machinery():
    code = ("import sys, thznirs.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
