"""Image-method synthetic channel generator.

Enumerates specular propagation paths (up to 3 bounces) in a scene of
opaque rectangular surfaces, then synthesizes per-direction frequency
sweeps on the measurement scan grid.  Doubles as the brute-force oracle
the rest of the pipeline is verified against.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AliasingError, BundleFormatError, ValidationError
from .fileio import atomic_write
from .scene import (
    SPEED_OF_LIGHT,
    AntennaPattern,
    FrequencyPlan,
    FrequencySweep,
    ScanGrid,
    Scene,
    Surface,
    frequency_grid,
)

_SEG_EPS = 1e-9  # segment-parameter margin excluding the endpoints


@dataclass(frozen=True)
class PropagationPath:
    """One specular path from Tx to Rx."""

    delay_s: float
    total_length_m: float
    departure_direction: np.ndarray  # unit, from Tx toward the first hit
    arrival_direction: np.ndarray  # unit, from Rx toward the last hit
    bounce_count: int
    cumulative_reflection_loss_db: float
    surfaces_hit: tuple[str, ...]
    points: tuple = ()  # reflection points, Tx->Rx order

    def __post_init__(self):
        if abs(self.delay_s - self.total_length_m / SPEED_OF_LIGHT) > 1e-12 * max(
            self.delay_s, 1e-30
        ):
            raise ValidationError("path: delay must equal total_length / c")
        if self.bounce_count != len(self.surfaces_hit):
            raise ValidationError("path: bounce_count must match surfaces_hit")
        if self.cumulative_reflection_loss_db < 0:
            raise ValidationError("path: cumulative reflection loss must be >= 0 dB")
        for name in ("departure_direction", "arrival_direction"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class BundleManifest:
    scenario_id: str
    band_label: str
    plan: FrequencyPlan
    grid: ScanGrid
    rx_index: int
    nirs: bool
    max_bounces: int


@dataclass(frozen=True)
class SweepBundle:
    """Per-direction sweeps for one Rx position, indexed (elevation, azimuth)."""

    manifest: BundleManifest
    sweeps: np.ndarray  # complex, (n_elevation, n_azimuth, n_freq)

    def __post_init__(self):
        s = np.array(self.sweeps, dtype=complex)
        expect = (
            self.manifest.grid.n_elevation,
            self.manifest.grid.n_azimuth,
            self.manifest.plan.point_count,
        )
        if s.shape != expect:
            raise ValidationError(f"bundle: sweep array must have shape {expect}")
        s.setflags(write=False)
        object.__setattr__(self, "sweeps", s)

    def sweep_at(self, el_index: int, az_index: int) -> FrequencySweep:
        return FrequencySweep(self.manifest.plan, self.sweeps[el_index, az_index])


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------
def _segment_blocked(p, q, surfaces: list[Surface]) -> bool:
    """True if any surface crosses the open segment p->q.

    Crossings at the endpoints themselves (the reflecting surfaces) land at
    parameter 0 or 1 and are excluded by the epsilon margin.
    """
    for s in surfaces:
        if s.rectangle.intersect_segment(p, q, lo=_SEG_EPS, hi=1.0 - _SEG_EPS):
            return True
    return False


def _incidence_deg(direction: np.ndarray, normal: np.ndarray) -> float:
    c = abs(float(np.dot(direction, normal)))
    return math.degrees(math.acos(min(1.0, c)))


def _build_path(tx, rx, hits: list[tuple[Surface, np.ndarray]]) -> PropagationPath:
    points = [tx] + [p for _, p in hits] + [rx]
    length = float(sum(np.linalg.norm(b - a) for a, b in zip(points, points[1:])))
    loss = 0.0
    for (surface, point), prev in zip(hits, points):
        d_in = point - prev
        d_in = d_in / np.linalg.norm(d_in)
        loss += surface.material_loss.loss_db(_incidence_deg(d_in, surface.rectangle.normal))
    departure = points[1] - tx
    arrival = points[-2] - rx
    return PropagationPath(
        delay_s=length / SPEED_OF_LIGHT,
        total_length_m=length,
        departure_direction=departure / np.linalg.norm(departure),
        arrival_direction=arrival / np.linalg.norm(arrival),
        bounce_count=len(hits),
        cumulative_reflection_loss_db=loss,
        surfaces_hit=tuple(s.surface_id for s, _ in hits),
        points=tuple(p for _, p in hits),
    )


def enumerate_paths(scene: Scene, rx_index: int, max_bounces: int = 2) -> list[PropagationPath]:
    """All unobstructed image-method paths with at most ``max_bounces`` bounces.

    Surfaces are opaque: a path dies if any intermediate surface crosses one
    of its segments.  The direct path is included iff the Tx-Rx line is clear.
    Output order is deterministic: by bounce count, then length, then ids.
    """
    if not (0 <= max_bounces <= 3):
        raise ValidationError("enumerate_paths: max_bounces must lie in [0, 3]")
    tx = scene.tx_position
    rx = scene.rx_position(rx_index)
    surfaces = scene.surfaces()
    paths: list[PropagationPath] = []

    if not _segment_blocked(tx, rx, surfaces):
        paths.append(_build_path(tx, rx, []))

    n = len(surfaces)
    for order in range(1, max_bounces + 1):
        for seq in itertools.product(range(n), repeat=order):
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue
            chain = [surfaces[k] for k in seq]
            # Mirror Tx through the surface planes in bounce order.
            images = []
            img = tx
            for s in chain:
                img = s.rectangle.mirror(img)
                images.append(img)
            # Backtrack reflection points from the Rx end.
            hits: list[tuple[Surface, np.ndarray]] = []
            target = rx
            ok = True
            for s, img in zip(reversed(chain), reversed(images)):
                found = s.rectangle.intersect_segment(img, target, lo=_SEG_EPS, hi=1.0 - _SEG_EPS)
                if found is None:
                    ok = False
                    break
                target = found[1]
                hits.append((s, target))
            if not ok:
                continue
            hits.reverse()
            waypoints = [tx] + [p for _, p in hits] + [rx]
            if any(
                _segment_blocked(a, b, surfaces) for a, b in zip(waypoints, waypoints[1:])
            ):
                continue
            paths.append(_build_path(tx, rx, hits))

    paths.sort(key=lambda p: (p.bounce_count, p.total_length_m, p.surfaces_hit))
    return paths


# ---------------------------------------------------------------------------
# Sweep synthesis
# ---------------------------------------------------------------------------
def phasor_transfer(freqs_hz: np.ndarray, delays_s, amplitudes) -> np.ndarray:
    """Sum of path phasors: H(f) = sum_p A_p(f) exp(-j 2 pi f tau_p).

    ``amplitudes`` is (P,) for frequency-flat paths or (P, N) per-frequency.
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    delays = np.atleast_1d(np.asarray(delays_s, dtype=float))
    amps = np.asarray(amplitudes, dtype=float)
    if amps.ndim == 1:
        amps = amps[:, None] * np.ones_like(freqs)[None, :]
    phase = np.exp(-2j * np.pi * freqs[None, :] * delays[:, None])
    return (amps * phase).sum(axis=0)


def _angle_between_deg(a: np.ndarray, b: np.ndarray) -> float:
    c = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def path_amplitudes(
    paths: list[PropagationPath],
    freqs_hz: np.ndarray,
    tx_pattern: AntennaPattern,
    tx_boresight: np.ndarray,
) -> np.ndarray:
    """Per-path, per-frequency amplitudes before the Rx pattern, shape (P, N).

    Combines the free-space factor c / (4 pi f L), the cumulative reflection
    loss, and the Tx pattern gain at the departure direction.
    """
    amps = np.empty((len(paths), freqs_hz.shape[0]))
    for k, p in enumerate(paths):
        friis = SPEED_OF_LIGHT / (4.0 * np.pi * freqs_hz * p.total_length_m)
        refl = 10.0 ** (-p.cumulative_reflection_loss_db / 20.0)
        tx_gain = tx_pattern.amplitude(_angle_between_deg(p.departure_direction, tx_boresight))
        amps[k] = friis * refl * float(tx_gain)
    return amps


def rx_gain_matrix(
    paths: list[PropagationPath], grid: ScanGrid, rx_pattern: AntennaPattern
) -> np.ndarray:
    """Rx pattern amplitude per (direction, path), shape (n_el * n_az, P)."""
    dirs = grid.direction_vectors().reshape(-1, 3)
    gains = np.empty((dirs.shape[0], len(paths)))
    for k, p in enumerate(paths):
        cosang = dirs @ p.arrival_direction
        theta = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        gains[:, k] = rx_pattern.amplitude(theta)
    return gains


def synthesize_sweep(
    scene: Scene,
    rx_index: int,
    plan: FrequencyPlan | None = None,
    grid: ScanGrid | None = None,
    max_bounces: int = 2,
    scenario_id: str = "synthetic",
) -> SweepBundle:
    """Synthesize the per-direction channel transfer functions for one Rx.

    Every path delay must stay below 1/f_step (the unambiguous delay range);
    a longer path raises AliasingError naming the offending path rather than
    wrapping around silently.
    """
    plan = plan or scene.frequency_plan
    if plan is None:
        raise ValidationError("synthesize_sweep: no frequency plan given")
    grid = grid or scene.scan_grid

    paths = enumerate_paths(scene, rx_index, max_bounces=max_bounces)
    limit = 1.0 / plan.f_step_hz
    for p in paths:
        if p.delay_s >= limit:
            raise AliasingError(
                f"path delay {p.delay_s * 1e9:.2f} ns (length {p.total_length_m:.2f} m, "
                f"surfaces {list(p.surfaces_hit)}) reaches the {limit * 1e9:.2f} ns "
                f"unambiguous range of a {plan.f_step_hz / 1e6:g} MHz step"
            )

    freqs = frequency_grid(plan)
    n_dir = grid.n_elevation * grid.n_azimuth
    if paths:
        amps = path_amplitudes(paths, freqs, scene.tx_pattern, scene.tx_boresight)
        delays = np.array([p.delay_s for p in paths])
        base = amps * np.exp(-2j * np.pi * freqs[None, :] * delays[:, None])  # (P, N)
        gains = rx_gain_matrix(paths, grid, scene.rx_pattern)  # (D, P)
        sweeps = (gains @ base).reshape(grid.n_elevation, grid.n_azimuth, -1)
    else:
        sweeps = np.zeros((grid.n_elevation, grid.n_azimuth, plan.point_count), dtype=complex)

    manifest = BundleManifest(
        scenario_id=scenario_id,
        band_label=plan.band_label,
        plan=plan,
        grid=grid,
        rx_index=rx_index,
        nirs=len(scene.nirs_panels) > 0,
        max_bounces=max_bounces,
    )
    return SweepBundle(manifest=manifest, sweeps=sweeps)


# ---------------------------------------------------------------------------
# Bundle and sweep files
# ---------------------------------------------------------------------------
SWEEP_CSV_HEADER = "freq_hz,s21_re,s21_im"
SWEEPS_FILE = "sweeps.npy"
BUNDLE_FORMAT = "npy"


def write_sweep_csv(sweep: FrequencySweep, path) -> None:
    """One direction as CSV; full float precision so round-trips are exact."""
    lines = [SWEEP_CSV_HEADER]
    for f, s in zip(sweep.frequencies, sweep.samples):
        lines.append(f"{float(f)!r},{float(s.real)!r},{float(s.imag)!r}")
    atomic_write(path, "\n".join(lines) + "\n")


def read_sweep_csv(path, plan: FrequencyPlan | None = None) -> FrequencySweep:
    path = Path(path)
    if not path.exists():
        raise BundleFormatError(f"missing sweep file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != SWEEP_CSV_HEADER:
            raise BundleFormatError(
                f"{path}: header must be exactly '{SWEEP_CSV_HEADER}', got '{header}'"
            )
        rows = list(csv.reader(fh))
    try:
        freqs = np.array([float(r[0]) for r in rows])
        samples = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    except (IndexError, ValueError) as exc:
        raise BundleFormatError(f"{path}: malformed row ({exc})") from exc
    if freqs.shape[0] < 2:
        raise BundleFormatError(f"{path}: needs at least 2 rows")
    if np.any(np.diff(freqs) <= 0):
        raise BundleFormatError(f"{path}: frequencies must be strictly ascending")
    if plan is None:
        step = (freqs[-1] - freqs[0]) / (freqs.shape[0] - 1)
        plan = FrequencyPlan(f_start_hz=float(freqs[0]), f_stop_hz=float(freqs[-1]), f_step_hz=float(step))
    expected = frequency_grid(plan)
    if freqs.shape[0] != expected.shape[0] or np.max(np.abs(freqs - expected)) > 1e-3:
        raise BundleFormatError(f"{path}: frequency grid does not match the plan")
    return FrequencySweep(plan=plan, samples=samples)


def direction_filename(el_index: int, az_index: int) -> str:
    return f"el{el_index}_az{az_index}.csv"


def write_bundle(bundle: SweepBundle, dirpath) -> None:
    """Bundle directory: ``sweeps.npy`` plus ``manifest.json``, written last.

    The manifest is what marks a directory as a bundle, so an old one is
    removed first and the new one is committed only once the sweeps are in
    place: an interrupted write never leaves a directory that reads as a
    complete bundle.
    """
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    manifest_path = d / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    m = bundle.manifest
    manifest = {
        "format": BUNDLE_FORMAT,
        "scenario_id": m.scenario_id,
        "band_label": m.band_label,
        "frequency_plan": {
            "f_start_hz": m.plan.f_start_hz,
            "f_stop_hz": m.plan.f_stop_hz,
            "f_step_hz": m.plan.f_step_hz,
        },
        "scan_grid": {
            "azimuth_deg": list(m.grid.azimuth_deg),
            "elevation_deg": list(m.grid.elevation_deg),
        },
        "rx_index": m.rx_index,
        "nirs": m.nirs,
        "max_bounces": m.max_bounces,
    }
    atomic_write(d / SWEEPS_FILE, lambda fh: np.save(fh, bundle.sweeps, allow_pickle=False))
    atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_sweeps_npy(path: Path, shape: tuple[int, int, int]) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            sweeps = np.lib.format.read_array(fh, allow_pickle=False)
    except FileNotFoundError:
        raise BundleFormatError(f"missing sweep file: {path}") from None
    except (OSError, ValueError, EOFError) as exc:
        reason = " ".join(str(exc).split())
        raise BundleFormatError(f"{path}: not a readable .npy array ({reason})") from exc
    if sweeps.dtype != np.complex128:
        raise BundleFormatError(f"{path}: dtype must be complex128, got {sweeps.dtype}")
    if sweeps.shape != shape:
        raise BundleFormatError(f"{path}: shape must be {shape}, got {sweeps.shape}")
    return sweeps


def read_bundle(dirpath) -> SweepBundle:
    """Read a bundle directory; the manifest's ``format`` key picks the layout.

    ``"npy"`` is the single ``sweeps.npy`` array ``write_bundle`` writes.  A
    manifest without the key is the sounder's layout of one CSV per scan
    direction (``el<i>_az<j>.csv``).
    """
    d = Path(dirpath)
    manifest_path = d / "manifest.json"
    if not manifest_path.exists():
        raise BundleFormatError(f"missing bundle manifest: {manifest_path}")
    raw = json.loads(manifest_path.read_text(encoding="utf-8"))
    plan = FrequencyPlan(
        f_start_hz=float(raw["frequency_plan"]["f_start_hz"]),
        f_stop_hz=float(raw["frequency_plan"]["f_stop_hz"]),
        f_step_hz=float(raw["frequency_plan"]["f_step_hz"]),
    )
    grid = ScanGrid(
        azimuth_deg=tuple(float(a) for a in raw["scan_grid"]["azimuth_deg"]),
        elevation_deg=tuple(float(e) for e in raw["scan_grid"]["elevation_deg"]),
    )
    manifest = BundleManifest(
        scenario_id=str(raw["scenario_id"]),
        band_label=str(raw["band_label"]),
        plan=plan,
        grid=grid,
        rx_index=int(raw["rx_index"]),
        nirs=bool(raw["nirs"]),
        max_bounces=int(raw["max_bounces"]),
    )
    shape = (grid.n_elevation, grid.n_azimuth, plan.point_count)
    if "format" not in raw:
        sweeps = np.empty(shape, dtype=complex)
        for i in range(grid.n_elevation):
            for j in range(grid.n_azimuth):
                sweep = read_sweep_csv(d / direction_filename(i, j), plan=plan)
                sweeps[i, j] = sweep.samples
    elif raw["format"] == BUNDLE_FORMAT:
        sweeps = _read_sweeps_npy(d / SWEEPS_FILE, shape)
    else:
        raise BundleFormatError(f"{manifest_path}: unknown bundle format {raw['format']!r}")
    return SweepBundle(manifest=manifest, sweeps=sweeps)
