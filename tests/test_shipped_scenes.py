"""The scene files under scenes/ stay loadable and geometrically usable."""

import dataclasses

import pytest
from conftest import SCENES, shipped_scene

from thznirs.scene import nirs_angle_set, save_scene
from thznirs.synthchan import read_bundle, synthesize_sweep, write_bundle

EXPECTED = {
    "corridor.json": (9, True, 6001),
    "corridor_no_nirs.json": (9, False, 6001),
    "corridor_mini.json": (9, True, 101),
    "corridor_mini_no_nirs.json": (9, False, 101),
    "hallway.json": (12, True, 6001),
    "hallway_no_nirs.json": (12, False, 6001),
    "hallway_mini.json": (12, True, 101),
    "hallway_mini_no_nirs.json": (12, False, 101),
}

def _assert_saves_as(scene, name, tmp_path):
    save_scene(scene, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (SCENES / name).read_bytes()


# Six files are a sibling with one change: the panel taken out, or the mini
# plan put in.  corridor.json and hallway.json are the two roots.
@pytest.mark.parametrize("stem", ["corridor", "corridor_mini", "hallway", "hallway_mini"])
def test_no_nirs_file_is_its_sibling_without_the_panel(tmp_path, stem):
    scene = dataclasses.replace(shipped_scene(f"{stem}.json"), nirs_panels=())
    _assert_saves_as(scene, f"{stem}_no_nirs.json", tmp_path)


@pytest.mark.parametrize("stem", ["corridor", "hallway"])
def test_mini_file_is_its_sibling_on_the_mini_plan(tmp_path, stem):
    plan = shipped_scene(f"{stem}_mini.json").frequency_plan
    scene = dataclasses.replace(shipped_scene(f"{stem}.json"), frequency_plan=plan)
    _assert_saves_as(scene, f"{stem}_mini.json", tmp_path)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_shipped_scene_round_trips_bytes(tmp_path, name):
    _assert_saves_as(shipped_scene(name), name, tmp_path)


def test_bundle_manifest_round_trips_bytes(tmp_path):
    bundle = synthesize_sweep(shipped_scene("hallway_mini.json"), 3, scenario_id="rt")
    write_bundle(bundle, tmp_path / "a")
    write_bundle(read_bundle(tmp_path / "a"), tmp_path / "b")
    assert (tmp_path / "b" / "manifest.json").read_bytes() == (
        tmp_path / "a" / "manifest.json"
    ).read_bytes()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_shipped_scene_loads(name):
    n_rx, has_panel, n_points = EXPECTED[name]
    scene = shipped_scene(name)
    assert scene.n_rx == n_rx
    assert bool(scene.nirs_panels) is has_panel
    assert scene.frequency_plan.point_count == n_points
    assert len(scene.walls) == 7
    assert scene.scan_grid.n_azimuth == 36 and scene.scan_grid.n_elevation == 5


@pytest.mark.parametrize(
    "name", [n for n, (_, panel, _) in EXPECTED.items() if panel]
)
def test_every_receiver_sees_the_panel(name):
    scene = shipped_scene(name)
    for k in range(scene.n_rx):
        assert nirs_angle_set(scene, k), f"rx {k} has an empty angle window"


def test_corridor_receiver_1_window():
    scene = shipped_scene("corridor.json")
    window = nirs_angle_set(scene, 0)
    azimuths = sorted({scene.scan_grid.azimuth_deg[j] for _, j in window})
    assert azimuths == [140.0, 150.0, 160.0, 170.0]
