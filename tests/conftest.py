import json
from pathlib import Path

import numpy as np
import pytest

from thznirs.scene import FrequencyPlan, FrequencySweep, ScanGrid
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


# Ways to spoil a written bundle directory; each returns the file the
# resulting error must name.
SPOILED_BUNDLES = {
    "missing": _remove_sweeps,
    "truncated": _truncate_sweeps,
    "pickled": lambda d: _rewrite_sweeps(d, lambda a: a.astype(object)),
    "wrong_dtype": lambda d: _rewrite_sweeps(d, lambda a: a.astype(np.complex64)),
    "wrong_shape": lambda d: _rewrite_sweeps(d, lambda a: a[:, :1]),
    "unknown_format": _unknown_format,
}
