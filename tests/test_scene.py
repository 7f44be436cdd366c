import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import synthchan_oracle as oracle
from conftest import random_box_scenes

from thznirs.errors import (
    NoNirsPanelWarning,
    NoSpecularGeometryError,
    SceneValidationError,
    ValidationError,
)
from thznirs.presets import PLAN_MINI_306, corridor_scene, hallway_scene
from thznirs.scene import (
    AntennaPattern,
    FrequencyPlan,
    LossTable,
    NirsPanel,
    Rectangle,
    RectangleStack,
    ScanGrid,
    Scene,
    frequency_grid,
    load_scene,
    nirs_angle_set,
    rx_link_geometry,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    specular_point,
)


# ---------------------------------------------------------------------------
# frequency plan / grid
# ---------------------------------------------------------------------------
def test_frequency_grid_paper_plan(paper_plan):
    grid = frequency_grid(paper_plan)
    assert paper_plan.point_count == 6001
    assert grid.shape == (6001,)
    assert grid[0] == 306e9
    assert grid[-1] == 321e9
    assert np.allclose(np.diff(grid), 2.5e6, rtol=1e-12)


def test_frequency_grid_three_points():
    plan = FrequencyPlan(306e9, 306.000005e9, 2.5e3)
    grid = frequency_grid(plan)
    assert grid.tolist() == [306e9, 306.0000025e9, 306.000005e9]


@pytest.mark.parametrize(
    "start, stop, step, needle",
    [
        (321e9, 306e9, 2.5e6, "f_stop"),
        (306e9, 321e9, -1.0, "f_step"),
        (306e9, 321e9, 0.0, "f_step"),
        (306e9, 306.0000051e9, 2.5e6, "integer multiple"),
    ],
)
def test_frequency_plan_validation(start, stop, step, needle):
    with pytest.raises(ValidationError, match=needle):
        FrequencyPlan(start, stop, step)


def test_band_label(paper_plan):
    assert paper_plan.band_label == "306-321GHz"
    assert FrequencyPlan(356e9, 371e9, 2.5e6).band_label == "356-371GHz"


# ---------------------------------------------------------------------------
# scan grid
# ---------------------------------------------------------------------------
def test_scan_grid_default():
    grid = ScanGrid.default()
    assert grid.n_azimuth == 36
    assert grid.n_elevation == 5
    assert grid.azimuth_deg[0] == 0.0 and grid.azimuth_deg[-1] == 350.0
    assert grid.elevation_deg == (-20.0, -10.0, 0.0, 10.0, 20.0)


@pytest.mark.parametrize(
    "az, el",
    [
        ((10.0, 10.0), (0.0,)),        # not strictly increasing
        ((0.0, 360.0), (0.0,)),        # azimuth out of [0, 360)
        ((0.0,), (-95.0, 0.0)),        # elevation out of range
        ((), (0.0,)),                  # empty
    ],
)
def test_scan_grid_validation(az, el):
    with pytest.raises(ValidationError):
        ScanGrid(azimuth_deg=az, elevation_deg=el)


def test_scan_direction_vectors():
    grid = ScanGrid.default()
    vs = grid.direction_vectors()
    v = vs[2, 9]  # el 0, az 90
    assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-15)
    assert vs.shape == (5, 36, 3)
    assert np.allclose(np.linalg.norm(vs, axis=-1), 1.0)


# ---------------------------------------------------------------------------
# antenna pattern
# ---------------------------------------------------------------------------
def test_pattern_boresight_and_half_power():
    p = AntennaPattern(boresight_gain_dbi=7.0, hpbw_deg=30.0)
    assert p.gain_dbi(0.0) == 7.0
    assert abs(p.gain_dbi(15.0) - 4.0) < 0.01  # -3 dB at hpbw/2
    rx = AntennaPattern(boresight_gain_dbi=25.0, hpbw_deg=8.0)
    assert abs(rx.gain_dbi(4.0) - 22.0) < 0.01


@pytest.mark.parametrize("gain, hpbw", [(float("nan"), 30.0), (7.0, 0.0), (7.0, 180.0)])
def test_pattern_validation(gain, hpbw):
    with pytest.raises(ValidationError):
        AntennaPattern(boresight_gain_dbi=gain, hpbw_deg=hpbw)


# ---------------------------------------------------------------------------
# rectangles and loss tables
# ---------------------------------------------------------------------------
def test_rectangle_coplanarity_error():
    corners = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0.001], [0, 1, 0]], float)
    with pytest.raises(SceneValidationError, match="coplanarity"):
        Rectangle(corners=corners)


def test_rectangle_geometry():
    r = Rectangle.from_center([0, 0, 1.0], [0, 1, 0], [0, 0, 1], 2.0, 2.0)
    assert np.allclose(r.center, [0, 0, 1.0])
    assert oracle.contains(r, [0, 0.5, 1.2])
    assert not oracle.contains(r, [0, 1.5, 1.2])
    assert not oracle.contains(r, [0.3, 0.0, 1.0])  # off the plane
    p = np.array([2.0, 0.3, 1.1])
    assert np.allclose(oracle.mirror(r, oracle.mirror(r, p)), p, atol=1e-12)
    assert np.allclose(oracle.mirror(r, p), [-2.0, 0.3, 1.1])


def test_loss_table():
    const = LossTable.constant(12.0)
    assert const.loss_db(0.0) == 12.0
    assert const.loss_db(85.0) == 12.0
    table = LossTable(points=((0.0, 10.0), (90.0, 20.0)))
    assert table.loss_db(45.0) == pytest.approx(15.0)
    with pytest.raises(SceneValidationError, match="increasing"):
        LossTable(points=((10.0, 1.0), (10.0, 2.0)))
    with pytest.raises(SceneValidationError, match=">= 0"):
        LossTable.constant(-1.0)


# ---------------------------------------------------------------------------
# scene JSON files
# ---------------------------------------------------------------------------
def test_scene_json_roundtrip(tmp_path):
    scene = corridor_scene(plan=PLAN_MINI_306)
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert np.array_equal(back.rx_positions, scene.rx_positions)
    assert np.array_equal(back.tx_position, scene.tx_position)
    assert back.frequency_plan == scene.frequency_plan
    assert back.scan_grid == scene.scan_grid
    for a, b in zip(back.walls, scene.walls):
        assert np.array_equal(a.rectangle.corners, b.rectangle.corners)
        assert a.material_loss == b.material_loss
    assert back.nirs_panels[0].subdivision == (3, 3)


def test_scene_json_rejects_unknown_keys(tmp_path):
    data = scene_to_dict(corridor_scene(plan=PLAN_MINI_306))
    data["surprise"] = 1
    with pytest.raises(SceneValidationError, match="surprise"):
        scene_from_dict(data)
    data.pop("surprise")
    data["tx"]["color"] = "red"
    with pytest.raises(SceneValidationError, match="color"):
        scene_from_dict(data)


def test_scene_json_missing_required():
    with pytest.raises(SceneValidationError, match="walls"):
        scene_from_dict({"tx": {}, "rx": {}, "frequency_plan": {}})


def test_scene_json_roundtrips_angle_dependent_loss(tmp_path):
    scene = corridor_scene(plan=PLAN_MINI_306)
    table = LossTable(points=((0.0, 10.0), (45.0, 13.0), (90.0, 19.0)))
    walls = list(scene.walls)
    walls[0] = dataclasses.replace(walls[0], material_loss=table)
    scene = dataclasses.replace(scene, walls=tuple(walls))
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert back.walls[0].material_loss == table
    assert back.walls[1].material_loss == LossTable.constant(12.0)


@pytest.mark.parametrize("value", [None, "12", True, [[0.0, None]], [[0.0]], [5.0], {"0": 1}])
@pytest.mark.parametrize("owner", ["walls", "nirs_panels"])
def test_scene_json_rejects_malformed_material_loss(owner, value):
    data = scene_to_dict(corridor_scene(plan=PLAN_MINI_306))
    data[owner][0]["material_loss_db"] = value
    with pytest.raises(SceneValidationError, match="material_loss_db"):
        scene_from_dict(data)


def test_scene_json_heights_fill_missing_z(tmp_path):
    data = scene_to_dict(hallway_scene(plan=PLAN_MINI_306))
    data["rx"]["positions"] = [[1.5, 4.5], [1.25, 4.5], [1.75, 4.5]]
    data["rx"]["height_m"] = 1.6
    scene = scene_from_dict(data)
    assert np.allclose(scene.rx_positions[:, 2], 1.6)


# ---------------------------------------------------------------------------
# nirs_angle_set
# ---------------------------------------------------------------------------
def test_angle_set_corridor_rx_point_1():
    # Receiver point 1 sees the panel across the 140..170 degree bins.
    scene = corridor_scene(plan=PLAN_MINI_306)
    found = nirs_angle_set(scene, 0)
    azimuths = sorted({scene.scan_grid.azimuth_deg[j] for _, j in found})
    assert azimuths == [140.0, 150.0, 160.0, 170.0]


def test_angle_set_without_panels_warns():
    scene = corridor_scene(nirs=False, plan=PLAN_MINI_306)
    with pytest.warns(NoNirsPanelWarning):
        found = nirs_angle_set(scene, 0)
    assert found == frozenset()


def test_angle_set_frontal_panel_matches_tangent_oracle():
    # Rx 1 m in front of a panel spanning +-45 degrees of azimuth: a grid
    # ray hits iff |tan(az)| <= 1 on the forward side.
    panel = NirsPanel(
        rectangle=Rectangle(corners=np.array(
            [[1.0, -1.0, 0.75], [1.0, 1.0, 0.75], [1.0, 1.0, 2.75], [1.0, -1.0, 2.75]]
        )),
        material_loss=LossTable.constant(1.0),
        subdivision=(1, 1),
    )
    scene = Scene(
        walls=(), nirs_panels=(panel,),
        tx_position=np.array([5.0, 0.0, 2.0]),
        tx_boresight=np.array([-1.0, 0.0, 0.0]),
        rx_positions=np.array([[0.0, 0.0, 1.75]]),
        frequency_plan=PLAN_MINI_306,
    )
    found = nirs_angle_set(scene, 0)
    azimuths = {scene.scan_grid.azimuth_deg[j] for _, j in found}
    expected = set()
    for az in scene.scan_grid.azimuth_deg:
        r = math.radians(az)
        if math.cos(r) > 0 and abs(math.tan(r)) <= 1.0:
            expected.add(az)
    assert azimuths == expected
    # every elevation row participates at these distances
    assert {i for i, _ in found} == set(range(scene.scan_grid.n_elevation))


PANEL_SCENES = {
    **{p.stem: load_scene(p)
       for p in sorted(Path(__file__).resolve().parent.parent.glob("scenes/*.json"))
       if "no_nirs" not in p.stem},
    **{name: s for name, s in random_box_scenes().items() if s.nirs_panels},
}
CELL_VARIANTS = {"all": None, "one": [(1, 1)], "corners": [(0, 0), (0, 2), (2, 0), (2, 2)]}


@pytest.mark.parametrize("cells", sorted(CELL_VARIANTS))
@pytest.mark.parametrize("name", sorted(PANEL_SCENES))
def test_angle_set_equals_ray_loop(name, cells):
    scene = PANEL_SCENES[name].with_panel_cells(CELL_VARIANTS[cells])
    for k in range(scene.n_rx):
        assert nirs_angle_set(scene, k) == oracle.nirs_angle_set(scene, k), k


def test_rectangle_stack_equals_scalar_methods(rng):
    # random planes, including segments parallel to them and ending on them
    rects = [
        Rectangle.from_center(rng.normal(size=3), u, np.cross(u, rng.normal(size=3)), 2.0, 1.5)
        for u in rng.normal(size=(6, 3))
    ]
    stack = RectangleStack.of(rects)
    p = rng.normal(size=(200, 3)) * 2.0
    q = rng.normal(size=(200, 3)) * 2.0
    q[:20] = p[:20] + np.cross(rects[0].normal, rng.normal(size=(20, 3)))
    q[20:40] = rects[1].center
    assert stack.mirror(p[:, None, :]).tobytes() == np.array(
        [[oracle.mirror(r, x) for r in rects] for x in p]
    ).tobytes()
    t, point, hit = stack.cross(p[:, None, :], (q - p)[:, None, :])
    hit &= (0.0 <= t) & (t <= 1.0)
    for i in range(p.shape[0]):
        for j, r in enumerate(rects):
            found = oracle.intersect_segment(r, p[i], q[i])
            assert hit[i, j] == (found is not None), (i, j)
            if found is not None:
                assert (t[i, j], point[i, j].tobytes()) == (found[0], found[1].tobytes())
    assert hit.any() and not hit[:20, 0].any()


def test_rectangle_stack_hit_equals_scalar_oracle_at_edges():
    # Lines aimed within rounding of the padded edges, kept where computing
    # the in-plane coordinates with (w * u).sum(-1) instead of np.dot flips
    # the hit: the stack must decide those points as the scalar oracle does.
    rng = np.random.default_rng(2024)
    sensitive = 0
    for u in rng.normal(size=(6, 3)):
        v = np.cross(u, rng.normal(size=3))
        rect = Rectangle.from_center(rng.normal(size=3), u, v, 2.0, 1.5)
        stack = RectangleStack.of([rect])
        _, pad_s, pad_t = rect._margins()
        s, r = rng.uniform(0.0, 1.0, size=(2, 1000))
        edge = rng.integers(0, 4, size=1000)
        s = np.select([edge == 0, edge == 1], [-pad_s, 1.0 + pad_s], s)
        r = np.select([edge == 2, edge == 3], [-pad_t, 1.0 + pad_t], r)
        target = rect.origin + s[:, None] * rect.u + r[:, None] * rect.v
        target *= 1.0 + rng.uniform(-4e-16, 4e-16, size=target.shape)
        p = target + rect.normal * rng.uniform(0.5, 2.0, size=(1000, 1))
        p += rng.normal(size=(1000, 3)) * 0.3
        q = 2.0 * target - p
        _, point, hit = stack.cross(p, q - p)
        w = point - rect.origin
        s_sum = (w * rect.u).sum(-1) / rect.u.dot(rect.u)
        r_sum = (w * rect.v).sum(-1) / rect.v.dot(rect.v)
        inside_sum = (
            (-pad_s <= s_sum) & (s_sum <= 1.0 + pad_s) & (-pad_t <= r_sum) & (r_sum <= 1.0 + pad_t)
        )
        for i in range(1000):
            if inside_sum[i] != oracle.contains(rect, point[i]):
                sensitive += 1
                assert hit[i] == (oracle.intersect_segment(rect, p[i], q[i]) is not None), i
    assert sensitive >= 100


def test_angle_set_monotone_in_panel_area(rng):
    scene = hallway_scene(plan=PLAN_MINI_306)
    all_cells = [(r, c) for r in range(3) for c in range(3)]
    for _ in range(10):
        k = int(rng.integers(1, 9))
        subset_cells = [all_cells[i] for i in rng.choice(9, size=k, replace=False)]
        extra = [all_cells[i] for i in rng.choice(9, size=min(9, k + 2), replace=False)]
        superset_cells = sorted(set(subset_cells) | set(extra))
        small = nirs_angle_set(scene.with_panel_cells(subset_cells), 0)
        big = nirs_angle_set(scene.with_panel_cells(superset_cells), 0)
        assert small <= big


# ---------------------------------------------------------------------------
# link geometry
# ---------------------------------------------------------------------------
def _panel_scene(tx, rx, width=2.0, height=2.0):
    panel = NirsPanel(
        rectangle=Rectangle.from_center([0, 0, 2.0], [0, 1, 0], [0, 0, 1], width, height),
        material_loss=LossTable.constant(1.0),
        subdivision=(1, 1),
    )
    return Scene(
        walls=(), nirs_panels=(panel,),
        tx_position=np.asarray(tx, float),
        tx_boresight=np.array([-1.0, 0.0, 0.0]),
        rx_positions=np.asarray([rx], float),
        frequency_plan=PLAN_MINI_306,
    )


def _specular_angle(scene, rx_index):
    phi, spec, _, _ = rx_link_geometry(scene, rx_index)
    assert spec is True
    return phi


def test_reflection_angle_symmetric_30_degrees():
    d, a = 3.0, math.radians(30.0)
    scene = _panel_scene([d * math.cos(a), -d * math.sin(a), 2.0],
                         [d * math.cos(a), d * math.sin(a), 2.0])
    assert _specular_angle(scene, 0) == pytest.approx(30.0, abs=1e-9)


def test_reflection_angle_on_normal_is_zero():
    scene = _panel_scene([4.0, 0.0, 2.0], [1.5, 0.0, 2.0])
    assert _specular_angle(scene, 0) == pytest.approx(0.0, abs=1e-9)


def test_reflection_angle_off_panel_raises_then_falls_back():
    # Rx placed so the mirror ray crosses the plane outside the 2 m panel.
    scene = _panel_scene([4.0, -8.0, 2.0], [1.0, 12.0, 2.0])
    with pytest.raises(NoSpecularGeometryError):
        specular_point(scene, 0)
    phi, spec, d1, d2 = rx_link_geometry(scene, 0)
    # panel-center fallback: incidence angle of the Tx->center ray
    expected = math.degrees(math.atan2(8.0, 4.0))
    assert phi == pytest.approx(expected, abs=1e-9)
    assert not spec
    assert d1 == pytest.approx(math.hypot(4.0, 8.0), abs=1e-12)


def test_link_geometry_without_panel_raises():
    scene = corridor_scene(nirs=False, plan=PLAN_MINI_306)
    with pytest.raises(SceneValidationError, match="no NIRS panel"):
        rx_link_geometry(scene, 0)


def test_specular_point_opposite_sides_error():
    scene = _panel_scene([4.0, 0.0, 2.0], [-4.0, 0.0, 2.0])
    with pytest.raises(NoSpecularGeometryError, match="opposite"):
        specular_point(scene, 0)


def _specular_outcome(fn, scene, k):
    """The point's bytes, or the message of the NoSpecularGeometryError."""
    try:
        return fn(scene, k).tobytes()
    except NoSpecularGeometryError as exc:
        return str(exc)


def test_specular_point_equals_scalar_oracle(rng):
    # Each scene's own receivers, plus receivers on lines from the Tx image
    # through random points of the panel plane (s, t in [-0.25, 1.25]): the
    # line parameter mu > 1 keeps the Rx on the Tx side, mu < 1 puts it
    # across the plane.
    kinds = {"hit": 0, "misses": 0, "opposite": 0}
    for name, base in sorted(PANEL_SCENES.items()):
        rect = base.nirs_panels[0].rectangle
        on_plane = rect.origin + rng.uniform(-0.25, 1.25, size=(300, 2)) @ np.stack([rect.u, rect.v])
        image = oracle.mirror(rect, base.tx_position)
        rx = image + rng.uniform(0.5, 3.0, size=(300, 1)) * (on_plane - image)
        scene = dataclasses.replace(base, rx_positions=np.vstack([base.rx_positions, rx]))
        outcomes = [_specular_outcome(specular_point, scene, k) for k in range(scene.n_rx)]
        assert outcomes == [
            _specular_outcome(oracle.specular_point, scene, k) for k in range(scene.n_rx)
        ], name
        for o in outcomes:
            kinds["hit" if isinstance(o, bytes) else "opposite" if "opposite" in o else "misses"] += 1
    assert min(kinds.values()) > 500, kinds


def test_reflection_angle_rigid_motion_invariant():
    base = corridor_scene(plan=PLAN_MINI_306)
    ref = [_specular_angle(base, k) for k in range(base.n_rx)]
    # rotate about z and translate; tilting would change the azimuth plane
    ang = math.radians(37.0)
    rot = np.array(
        [[math.cos(ang), -math.sin(ang), 0.0],
         [math.sin(ang), math.cos(ang), 0.0],
         [0.0, 0.0, 1.0]]
    )
    shift = np.array([12.0, -7.0, 3.0])

    def move_rect(rect):
        return Rectangle(corners=rect.corners @ rot.T + shift)

    moved = Scene(
        walls=tuple(dataclasses.replace(w, rectangle=move_rect(w.rectangle)) for w in base.walls),
        nirs_panels=tuple(
            dataclasses.replace(p, rectangle=move_rect(p.rectangle)) for p in base.nirs_panels
        ),
        tx_position=rot @ base.tx_position + shift,
        tx_boresight=rot @ base.tx_boresight,
        rx_positions=base.rx_positions @ rot.T + shift,
        frequency_plan=base.frequency_plan,
        scan_grid=base.scan_grid,
    )
    out = [_specular_angle(moved, k) for k in range(moved.n_rx)]
    assert np.allclose(out, ref, atol=1e-9)


def test_reflection_angle_half_angle_property():
    d, a = 5.0, math.radians(22.0)
    scene = _panel_scene([d * math.cos(a), -d * math.sin(a), 2.0],
                         [d * math.cos(a), d * math.sin(a), 2.0])
    s = specular_point(scene, 0)
    tx_dir = (scene.tx_position - s)[:2]
    rx_dir = (scene.rx_positions[0] - s)[:2]
    cosang = tx_dir @ rx_dir / (np.linalg.norm(tx_dir) * np.linalg.norm(rx_dir))
    full = math.degrees(math.acos(cosang))
    assert _specular_angle(scene, 0) == pytest.approx(full / 2.0, abs=1e-9)


def test_reflection_angle_matches_2d_image_oracle():
    # independent 2-D construction: mirror Tx across the panel line in the
    # azimuth plane, intersect with Rx, measure against the line normal
    for scene in (corridor_scene(plan=PLAN_MINI_306), hallway_scene(plan=PLAN_MINI_306)):
        rect = scene.nirs_panels[0].rectangle
        p0 = rect.corners[0][:2]
        d = rect.u[:2] / np.linalg.norm(rect.u[:2])
        n = np.array([-d[1], d[0]])
        tx = scene.tx_position[:2]
        for k in range(scene.n_rx):
            rx = scene.rx_positions[k][:2]
            image = tx - 2.0 * np.dot(tx - p0, n) * n
            t = np.dot(p0 - image, n) / np.dot(rx - image, n)
            s2d = image + t * (rx - image)
            refl = rx - s2d
            cosang = abs(np.dot(refl, n)) / np.linalg.norm(refl)
            expected = math.degrees(math.acos(min(1.0, cosang)))
            assert _specular_angle(scene, k) == pytest.approx(expected, abs=1e-9)


def test_scene_rx_index_out_of_range():
    scene = corridor_scene(plan=PLAN_MINI_306)
    with pytest.raises(SceneValidationError, match="out of range"):
        scene.rx_position(99)


def test_preset_scenes_claiming_benefit_have_shinier_panels():
    # scenes built to show a reflector benefit must make the panel strictly
    # less lossy than every wall
    for scene in (corridor_scene(plan=PLAN_MINI_306), hallway_scene(plan=PLAN_MINI_306)):
        min_wall = min(w.material_loss.min_loss_db() for w in scene.walls)
        for panel in scene.nirs_panels:
            assert panel.material_loss.min_loss_db() < min_wall
        assert scene.tx_position[2] == 2.0 and np.all(scene.rx_positions[:, 2] == 1.75)
