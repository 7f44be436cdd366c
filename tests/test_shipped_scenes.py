"""The scene files under scenes/ stay loadable and geometrically usable."""

from pathlib import Path

import pytest

from thznirs.presets import PLAN_MINI_306, corridor_scene, hallway_scene
from thznirs.scene import load_scene, nirs_angle_set, save_scene
from thznirs.synthchan import read_bundle, synthesize_sweep, write_bundle

SCENES = Path(__file__).resolve().parent.parent / "scenes"

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


# The preset calls demos/regenerate_scenes.py makes for each shipped file.
PRESETS = {
    "corridor.json": lambda: corridor_scene(),
    "corridor_no_nirs.json": lambda: corridor_scene(nirs=False),
    "corridor_mini.json": lambda: corridor_scene(plan=PLAN_MINI_306),
    "corridor_mini_no_nirs.json": lambda: corridor_scene(nirs=False, plan=PLAN_MINI_306),
    "hallway.json": lambda: hallway_scene(),
    "hallway_no_nirs.json": lambda: hallway_scene(nirs=False),
    "hallway_mini.json": lambda: hallway_scene(plan=PLAN_MINI_306),
    "hallway_mini_no_nirs.json": lambda: hallway_scene(nirs=False, plan=PLAN_MINI_306),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_presets_regenerate_shipped_scene_bytes(tmp_path, name):
    save_scene(PRESETS[name](), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (SCENES / name).read_bytes()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_shipped_scene_round_trips_bytes(tmp_path, name):
    save_scene(load_scene(SCENES / name), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (SCENES / name).read_bytes()


def test_bundle_manifest_round_trips_bytes(tmp_path):
    bundle = synthesize_sweep(load_scene(SCENES / "hallway_mini.json"), 3, scenario_id="rt")
    write_bundle(bundle, tmp_path / "a")
    write_bundle(read_bundle(tmp_path / "a"), tmp_path / "b")
    assert (tmp_path / "b" / "manifest.json").read_bytes() == (
        tmp_path / "a" / "manifest.json"
    ).read_bytes()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_shipped_scene_loads(name):
    n_rx, has_panel, n_points = EXPECTED[name]
    scene = load_scene(SCENES / name)
    assert scene.n_rx == n_rx
    assert bool(scene.nirs_panels) is has_panel
    assert scene.frequency_plan.point_count == n_points
    assert len(scene.walls) == 7
    assert scene.scan_grid.n_azimuth == 36 and scene.scan_grid.n_elevation == 5


@pytest.mark.parametrize(
    "name", [n for n, (_, panel, _) in EXPECTED.items() if panel]
)
def test_every_receiver_sees_the_panel(name):
    scene = load_scene(SCENES / name)
    for k in range(scene.n_rx):
        assert nirs_angle_set(scene, k), f"rx {k} has an empty angle window"


def test_corridor_receiver_1_window():
    scene = load_scene(SCENES / "corridor.json")
    window = nirs_angle_set(scene, 0)
    azimuths = sorted({scene.scan_grid.azimuth_deg[j] for _, j in window})
    assert azimuths == [140.0, 150.0, 160.0, 170.0]
