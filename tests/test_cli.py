import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import SPOILED_BUNDLES, write_csv_bundle

from thznirs.cli import main
from thznirs.pathloss import CiModel, directional_path_loss, omni_path_loss
from thznirs.pdap import pdap_from_sweeps
from thznirs.presets import PLAN_MINI_306, corridor_scene
from thznirs.reflfit import additional_reflection_loss
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
    assert err.startswith("error:")
    assert "coplanarity" in err


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


def test_fit_requires_exactly_one_source(tmp_path, capsys):
    rc = main(["fit", "--out", str(tmp_path / "t.csv")])
    assert rc == 2


def _write_results(path, scene_file, pl_values):
    scene = load_scene(scene_file)
    lines = ["rx_id,pl_dir_db,pl_omni_db,reflection_angle_deg,d1_m,d2_m,l_ref_db"]
    for k in range(scene.n_rx):
        lines.append(f"{k},0,{pl_values[k]},45,9,2,0")
    path.write_text("\n".join(lines) + "\n")


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


def test_thread_cap_env(tmp_path, mini_scene_file, monkeypatch):
    monkeypatch.setenv("THZ_NIRS_THREADS", "2")
    out = tmp_path / "bundles"
    assert main(["synth", "--scene", str(mini_scene_file), "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 3
    monkeypatch.setenv("THZ_NIRS_THREADS", "abc")
    rc = main(["synth", "--scene", str(mini_scene_file), "--out", str(tmp_path / "y")])
    assert rc == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thznirs", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "coverage" in proc.stdout
