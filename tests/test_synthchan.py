import dataclasses
import math

import numpy as np
import pytest
from conftest import SPOILED_BUNDLES, write_csv_bundle

from thznirs import synthchan
from thznirs.errors import AliasingError, BundleFormatError, ValidationError
from thznirs.presets import PLAN_306_321, PLAN_MINI_306, corridor_scene
from thznirs.scene import (
    SPEED_OF_LIGHT,
    AntennaPattern,
    FrequencySweep,
    LossTable,
    Rectangle,
    ScanGrid,
    Scene,
    Wall,
    frequency_grid,
)
from thznirs.synthchan import (
    PropagationPath,
    direction_filename,
    enumerate_paths,
    phasor_transfer,
    read_bundle,
    read_sweep_csv,
    synthesize_sweep,
    write_bundle,
    write_sweep_csv,
)


def _open_room(tx, rx, walls=()):
    return Scene(
        walls=tuple(walls),
        nirs_panels=(),
        tx_position=np.asarray(tx, float),
        tx_boresight=np.array([-1.0, 0.0, 0.0]),
        rx_positions=np.asarray([rx], float),
        tx_pattern=AntennaPattern(0.0, 30.0),
        rx_pattern=AntennaPattern(0.0, 8.0),
        frequency_plan=PLAN_MINI_306,
    )


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------
def test_direct_path_10m():
    scene = _open_room([10.0, 0.0, 2.0], [0.0, 0.0, 2.0])
    paths = enumerate_paths(scene, 0, max_bounces=0)
    assert len(paths) == 1
    p = paths[0]
    assert p.bounce_count == 0 and p.surfaces_hit == ()
    assert p.delay_s == pytest.approx(10.0 / SPEED_OF_LIGHT, rel=1e-12)
    assert round(p.delay_s * 1e9, 2) == 33.36
    assert np.allclose(p.departure_direction, [-1, 0, 0])
    assert np.allclose(p.arrival_direction, [1, 0, 0])


def test_direct_path_blocked_by_wall():
    blocker = Wall(
        rectangle=Rectangle(corners=np.array(
            [[5.0, -3.0, 0.0], [5.0, 3.0, 0.0], [5.0, 3.0, 4.0], [5.0, -3.0, 4.0]]
        )),
        material_loss=LossTable.constant(12.0),
    )
    scene = _open_room([10.0, 0.0, 2.0], [0.0, 0.0, 2.0], walls=[blocker])
    assert enumerate_paths(scene, 0, max_bounces=0) == []


def test_single_wall_mirror_path():
    # huge side wall: direct path plus one bounce whose length equals the
    # image distance
    wall = Wall(
        rectangle=Rectangle(corners=np.array(
            [[-500.0, 5.0, -500.0], [500.0, 5.0, -500.0], [500.0, 5.0, 500.0], [-500.0, 5.0, 500.0]]
        )),
        material_loss=LossTable.constant(3.0),
    )
    scene = _open_room([10.0, 0.0, 2.0], [0.0, 0.0, 2.0], walls=[wall])
    paths = enumerate_paths(scene, 0, max_bounces=1)
    assert [p.bounce_count for p in paths] == [0, 1]
    bounced = paths[1]
    image = np.array([10.0, 10.0, 2.0])  # Tx mirrored across y=5
    assert bounced.total_length_m == pytest.approx(
        np.linalg.norm(image - np.array([0.0, 0.0, 2.0])), abs=1e-9
    )
    assert bounced.cumulative_reflection_loss_db == pytest.approx(3.0)


def test_max_bounces_domain():
    scene = _open_room([10.0, 0.0, 2.0], [0.0, 0.0, 2.0])
    with pytest.raises(ValidationError, match="max_bounces"):
        enumerate_paths(scene, 0, max_bounces=4)
    with pytest.raises(ValidationError, match="max_bounces"):
        enumerate_paths(scene, 0, max_bounces=-1)


def test_path_invariants_enforced():
    with pytest.raises(ValidationError, match="delay"):
        PropagationPath(
            delay_s=1e-9, total_length_m=10.0,
            departure_direction=np.array([1.0, 0, 0]),
            arrival_direction=np.array([-1.0, 0, 0]),
            bounce_count=0, cumulative_reflection_loss_db=0.0, surfaces_hit=(),
        )
    with pytest.raises(ValidationError, match="bounce_count"):
        PropagationPath(
            delay_s=10.0 / SPEED_OF_LIGHT, total_length_m=10.0,
            departure_direction=np.array([1.0, 0, 0]),
            arrival_direction=np.array([-1.0, 0, 0]),
            bounce_count=2, cumulative_reflection_loss_db=0.0, surfaces_hit=("wall0",),
        )


def test_reciprocity_of_path_lengths():
    scene = corridor_scene(plan=PLAN_MINI_306)
    forward = enumerate_paths(scene, 0, max_bounces=2)
    swapped = dataclasses.replace(
        scene,
        tx_position=scene.rx_positions[0],
        rx_positions=np.array([scene.tx_position]),
    )
    backward = enumerate_paths(swapped, 0, max_bounces=2)
    assert len(forward) == len(backward)
    assert np.allclose(
        sorted(p.total_length_m for p in forward),
        sorted(p.total_length_m for p in backward),
        atol=1e-9,
    )


# ---------------------------------------------------------------------------
# sweep synthesis
# ---------------------------------------------------------------------------
def test_phasor_transfer_single_unit_path(paper_plan):
    freqs = frequency_grid(paper_plan)
    h = phasor_transfer(freqs, [1e-7], [1.0])
    assert np.allclose(h, np.exp(-2j * np.pi * freqs * 1e-7), rtol=0, atol=1e-12)


def test_two_path_midband_notch(paper_plan):
    freqs = frequency_grid(paper_plan)
    f_mid = paper_plan.center_hz
    dtau = 1.0 / (2.0 * f_mid)  # pi phase difference at midband
    h = phasor_transfer(freqs, [100e-9, 100e-9 + dtau], [1.0, 1.0])
    mid = paper_plan.point_count // 2
    assert freqs[mid] == f_mid
    assert abs(h[mid]) < 1e-10
    assert abs(h[0]) > 1e-3  # away from the notch the paths do not cancel


def test_synthesize_single_path_matches_closed_form():
    scene = _open_room([10.0, 0.0, 2.0], [0.0, 0.0, 2.0])
    bundle = synthesize_sweep(scene, 0, max_bounces=0)
    freqs = frequency_grid(scene.frequency_plan)
    tau = 10.0 / SPEED_OF_LIGHT
    expected = (SPEED_OF_LIGHT / (4 * np.pi * freqs * 10.0)) * np.exp(-2j * np.pi * freqs * tau)
    el0 = scene.scan_grid.elevation_deg.index(0.0)
    az0 = scene.scan_grid.azimuth_deg.index(0.0)
    got = bundle.sweeps[el0, az0]
    assert np.allclose(got, expected, rtol=1e-12)
    # a direction 90 degrees off catches essentially nothing with an 8 deg beam
    az90 = scene.scan_grid.azimuth_deg.index(90.0)
    assert np.max(np.abs(bundle.sweeps[el0, az90])) < 1e-40


def test_synthesize_aliasing_error(paper_plan):
    scene = dataclasses.replace(
        _open_room([120.1, 0.0, 2.0], [0.0, 0.0, 2.0]), frequency_plan=paper_plan
    )
    with pytest.raises(AliasingError, match="120.10 m"):
        synthesize_sweep(scene, 0, max_bounces=0)


def test_synthesize_empty_scene_blocked_gives_zero_bundle():
    blocker = Wall(
        rectangle=Rectangle(corners=np.array(
            [[5.0, -50.0, -50.0], [5.0, 50.0, -50.0], [5.0, 50.0, 50.0], [5.0, -50.0, 50.0]]
        )),
        material_loss=LossTable.constant(12.0),
    )
    scene = _open_room([10.0, 0.0, 2.0], [0.0, 0.0, 2.0], walls=[blocker])
    bundle = synthesize_sweep(scene, 0, max_bounces=0)
    assert np.all(bundle.sweeps == 0)


def test_energy_monotone_in_surface_loss():
    # Lowering the reflector panel's loss never drains energy from any
    # direction; wall changes hold to the band-averaging residual.
    def dir_energy(scene):
        b = synthesize_sweep(scene, 0)
        return np.sum(np.abs(b.sweeps) ** 2, axis=-1)

    e_lossy = dir_energy(corridor_scene(plan=PLAN_306_321, panel_loss_db=3.0))
    e_shiny = dir_energy(corridor_scene(plan=PLAN_306_321, panel_loss_db=1.0))
    assert np.all(e_shiny >= e_lossy * (1.0 - 1e-9))

    base = corridor_scene(plan=PLAN_306_321)
    e_base = dir_energy(base)
    walls = list(base.walls)
    walls[3] = Wall(walls[3].rectangle, LossTable.constant(6.0))
    e_low = dir_energy(dataclasses.replace(base, walls=tuple(walls)))
    assert np.all(e_low >= e_base * (1.0 - 1e-4))


def test_angle_dependent_wall_loss_applied():
    table = LossTable(points=((0.0, 2.0), (90.0, 10.0)))
    wall = Wall(
        rectangle=Rectangle(corners=np.array(
            [[-500.0, 5.0, -500.0], [500.0, 5.0, -500.0], [500.0, 5.0, 500.0], [-500.0, 5.0, 500.0]]
        )),
        material_loss=table,
    )
    scene = _open_room([10.0, 0.0, 2.0], [0.0, 0.0, 2.0], walls=[wall])
    bounced = enumerate_paths(scene, 0, max_bounces=1)[1]
    # incidence angle of the mirror path against the y=5 plane normal
    incidence = math.degrees(math.atan2(10.0 / 2.0, 5.0))
    assert bounced.cumulative_reflection_loss_db == pytest.approx(
        table.loss_db(incidence), abs=1e-9
    )


# ---------------------------------------------------------------------------
# bundle files
# ---------------------------------------------------------------------------
def _two_direction_bundle(scenario_id="synthetic"):
    scene = corridor_scene(plan=PLAN_MINI_306, grid=ScanGrid(azimuth_deg=(140.0, 150.0), elevation_deg=(0.0,)))
    return synthesize_sweep(scene, 0, scenario_id=scenario_id)


def test_bundle_roundtrip_exact(tmp_path):
    bundle = _two_direction_bundle("roundtrip")
    d = tmp_path / "bundle"
    write_bundle(bundle, d)
    assert sorted(p.name for p in d.iterdir()) == ["manifest.json", "sweeps.npy"]
    stored = np.load(d / "sweeps.npy", allow_pickle=False)
    assert stored.dtype == np.complex128 and stored.flags.c_contiguous
    assert stored.shape == (1, 2, PLAN_MINI_306.point_count)
    back = read_bundle(d)
    assert back.manifest == bundle.manifest
    assert np.array_equal(back.sweeps, bundle.sweeps)  # exact float round-trip


def test_csv_bundle_reads_like_npy_bundle(tmp_path):
    bundle = _two_direction_bundle()
    write_bundle(bundle, tmp_path / "npy")
    write_csv_bundle(tmp_path / "npy", tmp_path / "csv")
    assert sorted(p.name for p in (tmp_path / "csv").iterdir()) == [
        "el0_az0.csv", "el0_az1.csv", "manifest.json",
    ]
    back = read_bundle(tmp_path / "csv")
    assert back.manifest == bundle.manifest
    assert np.array_equal(back.sweeps, bundle.sweeps)


def test_sweep_csv_header_and_order(tmp_path, small_plan, rng):
    sweep = FrequencySweep(small_plan, np.exp(1j * rng.normal(size=small_plan.point_count)))
    path = tmp_path / "ref.csv"
    write_sweep_csv(sweep, path)
    first = path.read_text().splitlines()[0]
    assert first == "freq_hz,s21_re,s21_im"
    back = read_sweep_csv(path)
    assert back.plan == small_plan
    assert np.array_equal(back.samples, sweep.samples)


def test_bundle_missing_direction_file(tmp_path):
    write_bundle(_two_direction_bundle(), tmp_path / "npy")
    d = tmp_path / "bundle"
    write_csv_bundle(tmp_path / "npy", d)
    (d / direction_filename(0, 1)).unlink()
    with pytest.raises(BundleFormatError, match="el0_az1.csv"):
        read_bundle(d)


@pytest.mark.parametrize("case", sorted(SPOILED_BUNDLES))
def test_bundle_rejects_spoiled_npy_bundle(tmp_path, case):
    d = tmp_path / "bundle"
    write_bundle(_two_direction_bundle(), d)
    named = SPOILED_BUNDLES[case](d)
    with pytest.raises(BundleFormatError) as info:
        read_bundle(d)
    assert str(named) in str(info.value)


def test_interrupted_bundle_write_leaves_no_manifest(tmp_path, monkeypatch):
    d = tmp_path / "bundle"
    write_bundle(_two_direction_bundle(), d)  # an earlier, complete bundle
    real_write = synthchan.atomic_write

    def fail_on_manifest(path, data):
        if path.name == "manifest.json":
            raise OSError("disk full")
        real_write(path, data)

    monkeypatch.setattr(synthchan, "atomic_write", fail_on_manifest)
    with pytest.raises(OSError, match="disk full"):
        write_bundle(_two_direction_bundle(), d)
    assert sorted(p.name for p in d.iterdir()) == ["sweeps.npy"]


def test_sweep_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frequency,re,im\n1.0,1.0,0.0\n")
    with pytest.raises(BundleFormatError, match="header"):
        read_sweep_csv(path)


def test_manifest_nirs_flag(tmp_path):
    grid = ScanGrid(azimuth_deg=(140.0,), elevation_deg=(0.0,))
    with_panel = synthesize_sweep(corridor_scene(plan=PLAN_MINI_306, grid=grid), 0)
    without = synthesize_sweep(corridor_scene(nirs=False, plan=PLAN_MINI_306, grid=grid), 0)
    assert with_panel.manifest.nirs is True
    assert without.manifest.nirs is False
