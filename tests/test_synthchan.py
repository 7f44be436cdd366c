import dataclasses
import math
import re

import numpy as np
import pytest
import synthchan_oracle as oracle
from conftest import (
    SCENES,
    SMALL_PLAN,
    SPOILED_BUNDLES,
    SPOILED_MANIFEST_KEYS,
    load_paths_npy,
    random_box_scenes,
    replace_panel,
    shipped_scene,
    write_csv_bundle,
)

from thznirs import fileio, synthchan
from thznirs.errors import ValidationError
from thznirs.scene import (
    SPEED_OF_LIGHT,
    AntennaPattern,
    FrequencyPlan,
    FrequencySweep,
    LossTable,
    Rectangle,
    ScanGrid,
    Scene,
    Wall,
    frequency_grid,
    load_scene,
)
from thznirs.synthchan import (
    direction_filename,
    enumerate_paths,
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
        frequency_plan=SMALL_PLAN,
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


def test_reciprocity_of_path_lengths():
    scene = shipped_scene("corridor_mini.json")
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


SHIPPED_SCENES = sorted(SCENES.glob("*.json"))
RANDOM_SCENES = random_box_scenes()


def _assert_paths_equal_brute_force(scene):
    """Path lists ``==`` the brute force for every rx and max_bounces 0..3.

    The brute force enumerates each order on its own and sorts by bounce
    count first, so its list for fewer bounces is the head of its 3-bounce
    list; one oracle run per receiver covers all four bounds.
    """
    for k in range(scene.n_rx):
        expected = [oracle.path_record(p) for p in oracle.enumerate_paths(scene, k, 3)]
        for mb in range(4):
            got = [oracle.path_record(p) for p in enumerate_paths(scene, k, max_bounces=mb)]
            assert got == [r for r in expected if r[1] <= mb], (k, mb)


@pytest.mark.parametrize("path", SHIPPED_SCENES, ids=lambda p: p.stem)
def test_paths_equal_brute_force_on_shipped_scenes(path):
    _assert_paths_equal_brute_force(load_scene(path))


@pytest.mark.parametrize("name", sorted(RANDOM_SCENES))
def test_paths_equal_brute_force_on_random_boxes(name):
    _assert_paths_equal_brute_force(RANDOM_SCENES[name])


def test_random_boxes_reach_every_bounce_order():
    # guards the oracle comparison above against passing on empty lists
    for name, scene in RANDOM_SCENES.items():
        orders = {
            p.bounce_count
            for k in range(scene.n_rx)
            for p in enumerate_paths(scene, k, max_bounces=3)
        }
        assert orders == ({0} if name == "empty" else {0, 1, 2, 3}), name


# ---------------------------------------------------------------------------
# sweep synthesis
# ---------------------------------------------------------------------------
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
    with pytest.raises(ValidationError, match="120.10 m"):
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

    base = shipped_scene("corridor.json")
    e_lossy = dir_energy(replace_panel(base, material_loss=LossTable.constant(3.0)))
    e_shiny = dir_energy(replace_panel(base, material_loss=LossTable.constant(1.0)))
    assert np.all(e_shiny >= e_lossy * (1.0 - 1e-9))

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
    grid = ScanGrid(azimuth_deg=(140.0, 150.0), elevation_deg=(0.0,))
    scene = dataclasses.replace(shipped_scene("corridor_mini.json"), scan_grid=grid)
    return synthesize_sweep(scene, 0, scenario_id=scenario_id)


def test_bundle_roundtrip_exact(tmp_path, small_plan):
    """A bundle reads back with the bytes it was synthesized with: the two-direction
    bundle, and every receiver of each shipped mini scene at 3 bounces."""
    bundle = _two_direction_bundle("roundtrip")
    d = tmp_path / "bundle"
    write_bundle(bundle, d)
    assert sorted(p.name for p in d.iterdir()) == ["manifest.json", "paths.npy"]
    gains, paths = load_paths_npy(d / "paths.npy")
    assert gains.dtype == np.float64 and gains.flags.c_contiguous and gains.shape[0] == 2
    assert paths.dtype == np.complex128 and paths.flags.c_contiguous
    assert paths.shape == (gains.shape[1], small_plan.point_count)
    minis = [shipped_scene(p.name) for p in sorted(SCENES.glob("*_mini*.json"))]
    assert len(minis) == 4
    for bundle in [bundle] + [synthesize_sweep(s, k, 3) for s in minis for k in range(s.n_rx)]:
        write_bundle(bundle, d)
        back = read_bundle(d)
        assert back.manifest == bundle.manifest
        for name in ("sweeps", "gains", "paths"):
            assert getattr(back, name).tobytes() == getattr(bundle, name).tobytes(), name


def test_write_bundle_refuses_a_sounder_bundle(tmp_path):
    write_bundle(_two_direction_bundle(), tmp_path / "npy")
    write_csv_bundle(tmp_path / "npy", tmp_path / "csv")
    sounder = read_bundle(tmp_path / "csv")
    assert sounder.gains is None and sounder.paths is None
    with pytest.raises(ValidationError, match="no path factors"):
        write_bundle(sounder, tmp_path / "out")
    assert not (tmp_path / "out").exists()


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


def test_sweep_csv_bytes_keep_full_precision(tmp_path):
    plan = FrequencyPlan(f_start_hz=306e9, f_stop_hz=306.005e9, f_step_hz=2.5e6)
    path = tmp_path / "ref.csv"
    write_sweep_csv(FrequencySweep(plan, np.array([0.1 + 0.2, -0.0 - 1e-300j, 2 / 3 + 1j])), path)
    assert path.read_bytes() == (
        b"freq_hz,s21_re,s21_im\n306000000000.0,0.30000000000000004,0.0\n"
        b"306002500000.0,-0.0,-1e-300\n306005000000.0,0.6666666666666666,1.0\n"
    )


def test_bundle_missing_direction_file(tmp_path):
    write_bundle(_two_direction_bundle(), tmp_path / "npy")
    d = tmp_path / "bundle"
    write_csv_bundle(tmp_path / "npy", d)
    (d / direction_filename(0, 1)).unlink()
    with pytest.raises(ValidationError, match="el0_az1.csv"):
        read_bundle(d)


@pytest.mark.parametrize("case", sorted(SPOILED_BUNDLES))
def test_bundle_rejects_spoiled_npy_bundle(tmp_path, case):
    d = tmp_path / "bundle"
    write_bundle(_two_direction_bundle(), d)
    named = SPOILED_BUNDLES[case](d)
    with pytest.raises(ValidationError, match=re.escape(str(named))):
        read_bundle(d)


@pytest.mark.parametrize("case", sorted(SPOILED_MANIFEST_KEYS))
def test_bundle_rejects_spoiled_csv_bundle_manifest(tmp_path, case):
    write_bundle(_two_direction_bundle(), tmp_path / "npy")
    d = tmp_path / "bundle"
    write_csv_bundle(tmp_path / "npy", d)
    named = SPOILED_MANIFEST_KEYS[case](d)
    with pytest.raises(ValidationError, match=re.escape(str(named))):
        read_bundle(d)


def test_interrupted_bundle_write_leaves_no_manifest(tmp_path, monkeypatch):
    d = tmp_path / "bundle"
    write_bundle(_two_direction_bundle(), d)  # an earlier, complete bundle
    real_write = fileio.atomic_write

    def fail_on_manifest(path, data):
        if path.name == "manifest.json":
            raise OSError("disk full")
        real_write(path, data)

    monkeypatch.setattr(fileio, "atomic_write", fail_on_manifest)  # write_json's, not the npy's
    with pytest.raises(OSError, match="disk full"):
        write_bundle(_two_direction_bundle(), d)
    assert sorted(p.name for p in d.iterdir()) == ["paths.npy"]


def test_sweep_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frequency,re,im\n1.0,1.0,0.0\n")
    with pytest.raises(ValidationError, match="header"):
        read_sweep_csv(path)


def test_manifest_nirs_flag(tmp_path):
    grid = ScanGrid(azimuth_deg=(140.0,), elevation_deg=(0.0,))

    def first_rx(name):
        return synthesize_sweep(dataclasses.replace(shipped_scene(name), scan_grid=grid), 0)

    with_panel = first_rx("corridor_mini.json")
    without = first_rx("corridor_mini_no_nirs.json")
    assert with_panel.manifest.nirs is True
    assert without.manifest.nirs is False
