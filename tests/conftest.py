import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from thznirs.scene import (
    AntennaPattern,
    FrequencyPlan,
    FrequencySweep,
    LossTable,
    NirsPanel,
    Rectangle,
    ScanGrid,
    Scene,
    Wall,
    load_scene,
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


# The shipped *_mini scenes' plan, and the paper's 306-321 GHz plan of the
# full-band scenes; both step 2.5 MHz, so the 400 ns delay range is the same.
SMALL_PLAN = FrequencyPlan(f_start_hz=306e9, f_stop_hz=306.25e9, f_step_hz=2.5e6)
PAPER_PLAN = FrequencyPlan(f_start_hz=306e9, f_stop_hz=321e9, f_step_hz=2.5e6)


@pytest.fixture
def small_plan():
    return SMALL_PLAN


@pytest.fixture
def paper_plan():
    return PAPER_PLAN


SCENES = Path(__file__).resolve().parent.parent / "scenes"


def shipped_scene(name: str) -> Scene:
    """The scene file ``scenes/<name>``."""
    return load_scene(SCENES / name)


def replace_panel(scene: Scene, **changes) -> Scene:
    """``scene`` with ``changes`` to the fields of its first NIRS panel."""
    first = dataclasses.replace(scene.nirs_panels[0], **changes)
    return dataclasses.replace(scene, nirs_panels=(first,) + scene.nirs_panels[1:])


def los_scene(distance_m: float, plan: FrequencyPlan) -> Scene:
    """Free-space link: Tx on the receiver's azimuth-0 bearing, no surfaces,
    unity-gain antennas."""
    return Scene(
        walls=(),
        nirs_panels=(),
        tx_position=np.array([distance_m, 0.0, 2.0]),
        tx_boresight=np.array([-1.0, 0.0, 0.0]),
        rx_positions=np.array([[0.0, 0.0, 2.0]]),
        tx_pattern=AntennaPattern(boresight_gain_dbi=0.0, hpbw_deg=30.0),
        rx_pattern=AntennaPattern(boresight_gain_dbi=0.0, hpbw_deg=8.0),
        frequency_plan=plan,
    )


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


def load_paths_npy(path: Path) -> list[np.ndarray]:
    """Every array ``path`` holds, in order: a bundle's gains, then its path sweeps."""
    arrays = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            arrays.append(np.load(fh, allow_pickle=True))
    return arrays


def rewrite_paths_npy(d: Path, change) -> Path:
    """Store the arrays ``change(gains, paths)`` returns back to back as ``d/paths.npy``."""
    path = d / "paths.npy"
    arrays = change(*load_paths_npy(path))
    with open(path, "wb") as fh:
        for array in arrays:
            np.save(fh, array, allow_pickle=True)
    return path


def _truncate_paths(d: Path) -> Path:
    path = d / "paths.npy"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return path


def _append_to_paths(d: Path) -> Path:
    path = d / "paths.npy"
    path.write_bytes(path.read_bytes() + b"\0")
    return path


def _set_format(name: str):
    """A spoiler that sets the manifest's ``format`` to ``name``."""
    def spoil(d: Path) -> Path:
        path = d / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["format"] = name
        path.write_text(json.dumps(manifest))
        return path

    return spoil


def _remove_paths(d: Path) -> Path:
    path = d / "paths.npy"
    path.unlink()
    return path


def _edit_manifest(change, key_path=""):
    """A spoiler that edits the manifest; the error names it, then ``key_path`` if given."""
    def spoil(d: Path) -> Path | str:
        path = d / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        change(manifest)
        path.write_text(json.dumps(manifest))
        return f"{path}: {key_path}" if key_path else path

    return spoil


def _truncate_manifest(d: Path) -> Path:
    path = d / "manifest.json"
    path.write_text(path.read_text(encoding="utf-8")[:40])
    return path


def _long_manifest_integer(d: Path) -> str:
    """Give the manifest's f_start_hz more digits than int() converts."""
    path = d / "manifest.json"
    text = path.read_text(encoding="utf-8")
    start = f'"f_start_hz": {json.loads(text)["frequency_plan"]["f_start_hz"]!r}'
    assert start in text
    path.write_text(text.replace(start, '"f_start_hz": ' + "9" * 5001))
    return f"{path}: invalid JSON (an integer of more than {sys.get_int_max_str_digits()} digits)"


# Manifest values outside the manifest's key table; both bundle layouts read
# their manifest alike, so each must fail the same way in either.
SPOILED_MANIFEST_KEYS = {
    "manifest_fractional_rx_index": _edit_manifest(lambda m: m.update(rx_index=5.7)),
    "manifest_bool_rx_index": _edit_manifest(lambda m: m.update(rx_index=True)),
    "manifest_string_nirs": _edit_manifest(lambda m: m.update(nirs="false")),
    "manifest_unknown_key": _edit_manifest(lambda m: m.update(rx_gain_dbi=25.0)),
    "manifest_band_label_off_plan": _edit_manifest(lambda m: m.update(band_label="356-371GHz")),
    "manifest_string_plan_step": _edit_manifest(
        lambda m: m["frequency_plan"].update(f_step_hz=str(m["frequency_plan"]["f_step_hz"]))
    ),
    "manifest_string_elevation": _edit_manifest(
        lambda m: m["scan_grid"].update(elevation_deg=list(map(str, m["scan_grid"]["elevation_deg"])))
    ),
    "manifest_plan_start_beyond_float64": _edit_manifest(
        lambda m: m["frequency_plan"].update(f_start_hz=10**400), "frequency_plan.f_start_hz"
    ),
}

# Ways to spoil a written bundle directory; each returns the file the
# resulting error must name, or that file's name and the text after it.
SPOILED_BUNDLES = {
    "missing": _remove_paths,
    "truncated": _truncate_paths,
    "pickled": lambda d: rewrite_paths_npy(d, lambda g, p: (g, p.astype(object))),
    "wrong_dtype": lambda d: rewrite_paths_npy(d, lambda g, p: (g, p.astype(np.complex64))),
    "wrong_shape": lambda d: rewrite_paths_npy(d, lambda g, p: (g[:1], p)),
    "gains_not_float64": lambda d: rewrite_paths_npy(d, lambda g, p: (g.astype(np.float32), p)),
    "gain_columns_not_path_rows": lambda d: rewrite_paths_npy(d, lambda g, p: (g, p[:-1])),
    "third_array": lambda d: rewrite_paths_npy(d, lambda g, p: (g, p, p)),
    "trailing_bytes": _append_to_paths,
    "product_overflow": lambda d: rewrite_paths_npy(d, lambda g, p: (g * 1e200, p * 1e200)),
    "unknown_format": _set_format("hdf5"),
    "retired_npy_format": _set_format("npy"),
    "manifest_not_json": _truncate_manifest,
    "manifest_integer_past_int_digit_limit": _long_manifest_integer,
    "manifest_no_scan_grid": _edit_manifest(lambda m: m.pop("scan_grid")),
    "manifest_int_scan_grid": _edit_manifest(lambda m: m.update(scan_grid=5)),
    "manifest_unknown_plan_key": _edit_manifest(lambda m: m["frequency_plan"].update(f_mid_hz=1.0)),
    "manifest_missing_plan_key": _edit_manifest(lambda m: m["frequency_plan"].pop("f_step_hz")),
    "manifest_misspelt_grid_key": _edit_manifest(
        lambda m: m["scan_grid"].update(azimuth=m["scan_grid"].pop("azimuth_deg"))
    ),
    "manifest_no_rx_index": _edit_manifest(lambda m: m.pop("rx_index")),
    **SPOILED_MANIFEST_KEYS,
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
