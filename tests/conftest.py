import json
from pathlib import Path

import numpy as np
import pytest

from thznirs.scene import (
    FrequencyPlan,
    FrequencySweep,
    LossTable,
    NirsPanel,
    Rectangle,
    ScanGrid,
    Scene,
    Wall,
)
from thznirs.synthchan import direction_filename, read_bundle, write_sweep_csv


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def smooth_sweep(plan: FrequencyPlan, rng: np.random.Generator, scale: float = 0.4) -> FrequencySweep:
    """Random smooth complex sweep with magnitude bounded away from zero.

    exp(polynomial) keeps |s| > 0 for any coefficient draw.
    """
    x = np.linspace(-1.0, 1.0, plan.point_count)
    logmag = np.polyval(rng.normal(0.0, scale, size=6), x)
    phase = np.polyval(rng.normal(0.0, scale, size=6), x) * np.pi
    return FrequencySweep(plan, np.exp(logmag + 1j * phase))


def single_direction_grid() -> ScanGrid:
    return ScanGrid(azimuth_deg=(0.0,), elevation_deg=(0.0,))


@pytest.fixture
def small_plan():
    return FrequencyPlan(f_start_hz=306e9, f_stop_hz=306.25e9, f_step_hz=2.5e6)


@pytest.fixture
def paper_plan():
    return FrequencyPlan(f_start_hz=306e9, f_stop_hz=321e9, f_step_hz=2.5e6)


def write_csv_bundle(src: Path, dst: Path) -> None:
    """Copy the bundle at ``src`` into the sounder's layout at ``dst``.

    That is one ``el<i>_az<j>.csv`` per scan direction and the same manifest
    without its ``format`` key.
    """
    bundle = read_bundle(src)
    manifest = json.loads((src / "manifest.json").read_text(encoding="utf-8"))
    del manifest["format"]
    dst.mkdir(parents=True, exist_ok=True)
    grid = bundle.manifest.grid
    for i in range(grid.n_elevation):
        for j in range(grid.n_azimuth):
            write_sweep_csv(bundle.sweep_at(i, j), dst / direction_filename(i, j))
    (dst / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _rewrite_sweeps(d: Path, change) -> Path:
    path = d / "sweeps.npy"
    np.save(path, change(np.load(path)), allow_pickle=True)
    return path


def _truncate_sweeps(d: Path) -> Path:
    path = d / "sweeps.npy"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return path


def _unknown_format(d: Path) -> Path:
    path = d / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["format"] = "hdf5"
    path.write_text(json.dumps(manifest))
    return path


def _remove_sweeps(d: Path) -> Path:
    path = d / "sweeps.npy"
    path.unlink()
    return path


def _edit_manifest(change):
    def spoil(d: Path) -> Path:
        path = d / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        change(manifest)
        path.write_text(json.dumps(manifest))
        return path

    return spoil


def _truncate_manifest(d: Path) -> Path:
    path = d / "manifest.json"
    path.write_text(path.read_text(encoding="utf-8")[:40])
    return path


# Ways to spoil a written bundle directory; each returns the file the
# resulting error must name.
SPOILED_BUNDLES = {
    "missing": _remove_sweeps,
    "truncated": _truncate_sweeps,
    "pickled": lambda d: _rewrite_sweeps(d, lambda a: a.astype(object)),
    "wrong_dtype": lambda d: _rewrite_sweeps(d, lambda a: a.astype(np.complex64)),
    "wrong_shape": lambda d: _rewrite_sweeps(d, lambda a: a[:, :1]),
    "unknown_format": _unknown_format,
    "manifest_not_json": _truncate_manifest,
    "manifest_no_scan_grid": _edit_manifest(lambda m: m.pop("scan_grid")),
    "manifest_int_scan_grid": _edit_manifest(lambda m: m.update(scan_grid=5)),
    "manifest_unknown_plan_key": _edit_manifest(lambda m: m["frequency_plan"].update(f_mid_hz=1.0)),
    "manifest_missing_plan_key": _edit_manifest(lambda m: m["frequency_plan"].pop("f_step_hz")),
    "manifest_misspelt_grid_key": _edit_manifest(
        lambda m: m["scan_grid"].update(azimuth=m["scan_grid"].pop("azimuth_deg"))
    ),
    "manifest_no_rx_index": _edit_manifest(lambda m: m.pop("rx_index")),
}


def _box_faces(length: float, width: float, height: float) -> list[np.ndarray]:
    """Floor, ceiling and the four side walls of [0, L] x [0, W] x [0, H]."""
    x, y, z = length, width, height
    return [np.array(c, dtype=float) for c in (
        [[0, 0, 0], [x, 0, 0], [x, y, 0], [0, y, 0]],
        [[0, 0, z], [x, 0, z], [x, y, z], [0, y, z]],
        [[0, 0, 0], [x, 0, 0], [x, 0, z], [0, 0, z]],
        [[0, y, 0], [x, y, 0], [x, y, z], [0, y, z]],
        [[0, 0, 0], [0, y, 0], [0, y, z], [0, 0, z]],
        [[x, 0, 0], [x, y, 0], [x, y, z], [x, 0, z]],
    )]


def random_box_scenes(seed: int = 2024, count: int = 10) -> dict[str, Scene]:
    """Seeded rooms off the shipped geometry, for the image-method oracle tests.

    Each is a box of 6 walls, a free-standing blocker and a 3x3 reflector
    panel 5 cm in front of one side wall, with Tx and two Rx inside.  Every
    second one is turned by a random rotation, so that no plane is
    axis-aligned.  Two edge cases close the set: a scene without any
    surface, and one with the Tx on a wall and an Rx on another wall's plane.
    """
    rng = np.random.default_rng(seed)
    angled = LossTable(((0.0, 4.0), (45.0, 7.0), (90.0, 15.0)))
    scenes = {}

    def box(length, width, height, tx, rx, rotation=None, shift=np.zeros(3)):
        def place(points):
            points = np.asarray(points, dtype=float)
            return points if rotation is None else points @ rotation.T + shift

        rects = [Rectangle(place(c)) for c in _box_faces(length, width, height)]
        blocker = Rectangle.from_center(
            [rng.uniform(0.3, 0.7) * length, rng.uniform(0.2, 0.5) * width, 0.6],
            [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], rng.uniform(0.3, 1.0) * width / 2, 1.2,
        )
        panel = Rectangle.from_center(
            [rng.uniform(0.3, 0.7) * length, width - 0.05, rng.uniform(1.0, height - 1.0)],
            [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5),
        )
        walls = [Wall(r, angled if k % 2 else LossTable.constant(6.0 + k))
                 for k, r in enumerate(rects + [Rectangle(place(blocker.corners))])]
        return Scene(
            walls=tuple(walls),
            nirs_panels=(NirsPanel(Rectangle(place(panel.corners)), LossTable.constant(1.0)),),
            tx_position=place(tx),
            tx_boresight=np.array([1.0, 0.0, 0.0]),
            rx_positions=place(rx),
        )

    for k in range(count):
        size = np.array([rng.uniform(4.0, 12.0), rng.uniform(3.0, 8.0), rng.uniform(2.5, 4.0)])
        inside = lambda n: rng.uniform(0.1, 0.9, size=(n, 3)) * size
        rotation = None
        if k % 2:
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            rotation = q * np.sign(np.diag(r))
            rotation[:, 0] *= np.linalg.det(rotation)
        name = f"{'tilted' if k % 2 else 'box'}{k}"
        scenes[name] = box(*size, inside(1)[0], inside(2), rotation, rng.normal(size=3))
    scenes["empty"] = Scene(
        walls=(), nirs_panels=(),
        tx_position=np.array([0.0, 0.0, 2.0]),
        tx_boresight=np.array([1.0, 0.0, 0.0]),
        rx_positions=np.array([[5.0, 1.0, 1.75]]),
    )
    scenes["on_wall"] = box(8.0, 5.0, 3.0, [0.0, 2.0, 2.0], [[4.0, 0.0, 1.5], [6.0, 3.0, 1.75]])
    return scenes
