"""Image-method synthetic channel generator.

Enumerates specular propagation paths (up to ``MAX_BOUNCES``) in a scene of
opaque rectangular surfaces with a breadth-first image tree, then
synthesizes per-direction frequency sweeps on the measurement scan grid.
Doubles as the oracle the rest of the pipeline is verified against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .fileio import (atomic_write, json_errors, json_parse, json_read, open_csv, parse_rows,
                     write_csv, write_json)
from .scene import (
    GRID_JSON,
    PLAN_JSON,
    SPEED_OF_LIGHT,
    AntennaPattern,
    FrequencyPlan,
    FrequencySweep,
    RectangleStack,
    ScanGrid,
    Scene,
    Surface,
    frequency_grid,
    grid_to_json,
    plan_to_json,
)

_SEG_EPS = 1e-9  # segment-parameter margin excluding the endpoints
MAX_BOUNCES = 3  # the image tree's depth limit


@dataclass(frozen=True)
class PropagationPath:
    """One specular path from Tx to Rx."""

    total_length_m: float
    departure_direction: np.ndarray  # unit, from Tx toward the first hit
    arrival_direction: np.ndarray  # unit, from Rx toward the last hit
    cumulative_reflection_loss_db: float
    surfaces_hit: tuple[str, ...]
    points: tuple = ()  # reflection points, Tx->Rx order

    @property
    def delay_s(self) -> float:
        return self.total_length_m / SPEED_OF_LIGHT

    @property
    def bounce_count(self) -> int:
        return len(self.surfaces_hit)

    def __post_init__(self):
        if self.cumulative_reflection_loss_db < 0:
            raise ValidationError("path: cumulative reflection loss must be >= 0 dB")
        for name in ("departure_direction", "arrival_direction"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class BundleManifest:
    scenario_id: str
    plan: FrequencyPlan
    grid: ScanGrid
    rx_index: int
    nirs: bool
    max_bounces: int

    @property
    def band_label(self) -> str:
        return self.plan.band_label


@dataclass(frozen=True)
class SweepBundle:
    """Per-direction sweeps for one Rx position, indexed (elevation, azimuth).

    A synthesized bundle also keeps the two factors its sweeps are the
    product of (``sweep_cube``): ``gains``, the Rx pattern amplitude per
    (direction, path), and ``paths``, each path's sweep before the Rx
    pattern.  They are what ``write_bundle`` stores.  A bundle read from the
    sounder's layout has neither.
    """

    manifest: BundleManifest
    sweeps: np.ndarray  # complex, (n_elevation, n_azimuth, n_freq)
    gains: np.ndarray | None = None  # float64, (n_elevation * n_azimuth, P)
    paths: np.ndarray | None = None  # complex128, (P, n_freq)

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
        for factor in (self.gains, self.paths):
            if factor is not None:
                factor.setflags(write=False)

    def sweep_at(self, el_index: int, az_index: int) -> FrequencySweep:
        return FrequencySweep(self.manifest.plan, self.sweeps[el_index, az_index])


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------
def _segment_hits(rects: RectangleStack, p: np.ndarray, q: np.ndarray):
    """(point, hit) of the open segments p->q with the rectangles, broadcast.

    Crossings at the endpoints themselves (the reflecting surfaces) land at
    parameter 0 or 1 and are excluded by the epsilon margin.
    """
    t, point, hit = rects.cross(p, q - p)
    return point, hit & (_SEG_EPS <= t) & (t <= 1.0 - _SEG_EPS)


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
        total_length_m=length,
        departure_direction=departure / np.linalg.norm(departure),
        arrival_direction=arrival / np.linalg.norm(arrival),
        cumulative_reflection_loss_db=loss,
        surfaces_hit=tuple(s.surface_id for s, _ in hits),
        points=tuple(p for _, p in hits),
    )


def enumerate_paths(scene: Scene, rx_index: int, max_bounces: int = 2) -> list[PropagationPath]:
    """All unobstructed image-method paths with at most ``max_bounces`` bounces.

    Surfaces are opaque: a path dies if any intermediate surface crosses one
    of its segments.  The direct path is included iff the Tx-Rx line is clear.
    Output order is deterministic: by bounce count, then length, then ids.

    The image tree is built breadth-first: order k+1 mirrors the order-k
    images through every surface but the one they were last mirrored in.
    Each order's reflection points are then backtracked from the Rx and
    occlusion-tested as array operations over all its sequences at once.
    """
    if not (0 <= max_bounces <= MAX_BOUNCES):
        raise ValidationError(f"enumerate_paths: max_bounces must lie in [0, {MAX_BOUNCES}]")
    tx = scene.tx_position
    rx = scene.rx_position(rx_index)
    surfaces, rects = scene.surfaces(), scene.surface_stack
    paths: list[PropagationPath] = []

    if not _segment_hits(rects, tx, rx)[1].any():
        paths.append(_build_path(tx, rx, []))

    n = len(surfaces)
    seqs = np.zeros((1, 0), dtype=np.intp)  # (m, order) surface indices, bounce order
    images = tx[None, None, :]  # (m, order + 1, 3): Tx, then its image after each bounce
    for order in range(1, max_bounces + 1):
        parent, child = np.divmod(np.arange(seqs.shape[0] * n), n)
        if order > 1:
            keep = child != seqs[parent, -1]
            parent, child = parent[keep], child[keep]
        mirrored = rects.take(child).mirror(images[parent, -1])
        seqs = np.concatenate([seqs[parent], child[:, None]], axis=1)
        images = np.concatenate([images[parent], mirrored[:, None]], axis=1)

        # Backtrack the reflection points from the Rx end.
        rows = np.arange(seqs.shape[0])
        points = np.empty((rows.shape[0], order, 3))
        target = np.broadcast_to(rx, (rows.shape[0], 3))
        for i in range(order - 1, -1, -1):
            point, hit = _segment_hits(rects.take(seqs[rows, i]), images[rows, i + 1], target)
            rows, target = rows[hit], point[hit]
            points[rows, i] = target

        # Occlusion: every segment of every surviving path against every surface.
        m = rows.shape[0]
        waypoints = np.concatenate(
            [np.broadcast_to(tx, (m, 1, 3)), points[rows], np.broadcast_to(rx, (m, 1, 3))], axis=1
        )[:, :, None, :]
        blocked = _segment_hits(rects, waypoints[:, :-1], waypoints[:, 1:])[1].any(axis=(1, 2))
        for r in rows[~blocked]:
            hits = [(surfaces[k], points[r, i]) for i, k in enumerate(seqs[r])]
            paths.append(_build_path(tx, rx, hits))

    paths.sort(key=lambda p: (p.bounce_count, p.total_length_m, p.surfaces_hit))
    return paths


# ---------------------------------------------------------------------------
# Sweep synthesis
# ---------------------------------------------------------------------------
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


def sweep_cube(gains: np.ndarray, paths: np.ndarray, grid: ScanGrid) -> np.ndarray:
    """The (n_elevation, n_azimuth, n_freq) sweeps of Rx gains (D, P) and path sweeps (P, N).

    Synthesis and ``read_bundle`` both form a bundle's sweeps here, so a
    bundle read back holds the bytes it was synthesized with.  A product that
    overflows float64 is left for the caller to find as a non-finite entry.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (gains @ paths).reshape(grid.n_elevation, grid.n_azimuth, -1)


def synthesize_sweep(
    scene: Scene,
    rx_index: int,
    max_bounces: int = 2,
    scenario_id: str = "synthetic",
) -> SweepBundle:
    """Synthesize the per-direction channel transfer functions for one Rx on
    the scene's frequency plan and scan grid.

    Every path delay must stay below 1/f_step (the unambiguous delay range);
    a longer path raises ValidationError naming the offending path rather than
    wrapping around silently.
    """
    plan, grid = scene.frequency_plan, scene.scan_grid
    if plan is None:
        raise ValidationError("synthesize_sweep: the scene has no frequency plan")

    paths = enumerate_paths(scene, rx_index, max_bounces=max_bounces)
    limit = 1.0 / plan.f_step_hz
    for p in paths:
        if p.delay_s >= limit:
            raise ValidationError(
                f"path delay {p.delay_s * 1e9:.2f} ns (length {p.total_length_m:.2f} m, "
                f"surfaces {list(p.surfaces_hit)}) reaches the {limit * 1e9:.2f} ns "
                f"unambiguous range of a {plan.f_step_hz / 1e6:g} MHz step"
            )

    freqs = frequency_grid(plan)
    amps = path_amplitudes(paths, freqs, scene.tx_pattern, scene.tx_boresight)
    delays = np.array([p.delay_s for p in paths])
    base = amps * np.exp(-2j * np.pi * freqs[None, :] * delays[:, None])  # (P, N)
    gains = rx_gain_matrix(paths, grid, scene.rx_pattern)  # (D, P); with no path, all +0

    manifest = BundleManifest(
        scenario_id=scenario_id,
        plan=plan,
        grid=grid,
        rx_index=rx_index,
        nirs=len(scene.nirs_panels) > 0,
        max_bounces=max_bounces,
    )
    return SweepBundle(manifest=manifest, sweeps=sweep_cube(gains, base, grid), gains=gains,
                       paths=base)


# ---------------------------------------------------------------------------
# Bundle and sweep files
# ---------------------------------------------------------------------------
SWEEP_CSV_HEADER = "freq_hz,s21_re,s21_im"
PATHS_FILE = "paths.npy"
MANIFEST_FILE = "manifest.json"  # written last: its presence marks a complete bundle
BUNDLE_FORMAT = "paths"
# The manifest's keys besides its plan and grid, each with its exact JSON type.
# A key that is a BundleManifest property, not a field (band_label), must equal it.
MANIFEST_KEYS = {"scenario_id": str, "band_label": str, "rx_index": int, "nirs": bool,
                 "max_bounces": int}
MANIFEST_JSON = {**MANIFEST_KEYS, "frequency_plan": PLAN_JSON, "scan_grid": GRID_JSON,
                 "format?": str}
# The manifest keys every bundle of one set shares: a set is one synth run.
RUN_KEYS = ("scenario_id", "nirs", "max_bounces")


def write_sweep_csv(sweep: FrequencySweep, path) -> None:
    """One direction as CSV; full float precision so round-trips are exact."""
    write_csv(path, SWEEP_CSV_HEADER, ((repr(float(f)), repr(float(s.real)), repr(float(s.imag)))
                                       for f, s in zip(sweep.frequencies, sweep.samples)))


def _sweep_row(_: int, row: list[str]) -> tuple[float, complex]:
    f, real, imag = map(float, row)
    if not (math.isfinite(f) and math.isfinite(real) and math.isfinite(imag)):
        raise ValueError("frequency and sample must be finite")
    return f, complex(real, imag)


def read_sweep_csv(path, plan: FrequencyPlan | None = None) -> FrequencySweep:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"missing sweep file: {path}")
    with open_csv(path) as fh:
        header = fh.readline().rstrip("\r\n")
        if header != SWEEP_CSV_HEADER:
            got = f"'{header}'" if len(header) <= 80 else f"'{header[:40]}...' ({len(header)} characters)"
            raise ValidationError(f"{path}: header must be exactly '{SWEEP_CSV_HEADER}', got {got}")
        rows = parse_rows(path, list(csv.reader(fh)), _sweep_row)
    if len(rows) < 2:
        raise ValidationError(f"{path}: needs at least 2 rows")
    freqs, samples = (np.array(column) for column in zip(*rows))
    if np.any(np.diff(freqs) <= 0):
        raise ValidationError(f"{path}: frequencies must be strictly ascending")
    if plan is None:
        step = (freqs[-1] - freqs[0]) / (freqs.shape[0] - 1)
        plan = FrequencyPlan(f_start_hz=float(freqs[0]), f_stop_hz=float(freqs[-1]), f_step_hz=float(step))
    expected = frequency_grid(plan)
    if freqs.shape[0] != expected.shape[0] or np.max(np.abs(freqs - expected)) > 1e-3:
        raise ValidationError(f"{path}: frequency grid does not match the plan")
    return FrequencySweep(plan=plan, samples=samples)


def direction_filename(el_index: int, az_index: int) -> str:
    return f"el{el_index}_az{az_index}.csv"


def write_bundle(bundle: SweepBundle, dirpath) -> None:
    """Bundle directory: ``paths.npy`` plus ``manifest.json``, written last.

    ``paths.npy`` holds the bundle's two factors back to back, each as one
    ``np.save`` array: the Rx gains, then the path sweeps.  A bundle without
    them (one read from the sounder's layout) is refused.

    The manifest is what marks a directory as a bundle, so an old one is
    removed first and the new one is committed only once the factors are in
    place: an interrupted write never leaves a directory that reads as a
    complete bundle.
    """
    if bundle.gains is None or bundle.paths is None:
        raise ValidationError("write_bundle: the bundle has no path factors to store "
                              "(a bundle read from the sounder's layout has none)")
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    manifest_path = d / MANIFEST_FILE
    manifest_path.unlink(missing_ok=True)
    m = bundle.manifest
    manifest = {key: getattr(m, key) for key in MANIFEST_KEYS}
    manifest.update(format=BUNDLE_FORMAT, frequency_plan=plan_to_json(m.plan),
                    scan_grid=grid_to_json(m.grid))

    def save_factors(fh):
        np.save(fh, bundle.gains, allow_pickle=False)
        np.save(fh, bundle.paths, allow_pickle=False)

    atomic_write(d / PATHS_FILE, save_factors)
    write_json(manifest_path, manifest)


def _read_paths_npy(path: Path, manifest: BundleManifest) -> SweepBundle:
    """The bundle whose factors ``path`` holds; any fault names ``path``."""
    grid, n_freq = manifest.grid, manifest.plan.point_count
    try:
        with open(path, "rb") as fh:
            gains = np.lib.format.read_array(fh, allow_pickle=False)
            paths = np.lib.format.read_array(fh, allow_pickle=False)
            trailing = fh.read(1)
    except FileNotFoundError:
        raise ValidationError(f"missing sweep file: {path}") from None
    except (OSError, ValueError, EOFError) as exc:
        reason = " ".join(str(exc).split())
        raise ValidationError(f"{path}: not two readable .npy arrays ({reason})") from exc
    if trailing:
        raise ValidationError(f"{path}: holds more than the gains and the path sweeps")
    for name, array, dtype in (("gains", gains, "float64"), ("path sweeps", paths, "complex128")):
        if array.dtype != dtype:
            raise ValidationError(f"{path}: {name} dtype must be {dtype}, got {array.dtype}")
    n_dir = grid.n_elevation * grid.n_azimuth
    if gains.ndim != 2 or gains.shape[0] != n_dir:
        raise ValidationError(f"{path}: gains shape must be ({n_dir}, P), got {gains.shape}")
    if paths.shape != (gains.shape[1], n_freq):
        raise ValidationError(f"{path}: path sweeps shape must be ({gains.shape[1]}, {n_freq}) "
                              f"for {gains.shape[1]} gain columns, got {paths.shape}")
    if not (np.isfinite(gains).all() and np.isfinite(paths).all()):
        raise ValidationError(f"{path}: every value must be finite")
    sweeps = sweep_cube(gains, paths, grid)
    if not np.isfinite(sweeps).all():
        raise ValidationError(f"{path}: the product of the gains and the path sweeps "
                              "overflows float64")
    return SweepBundle(manifest=manifest, sweeps=sweeps, gains=gains, paths=paths)


def bundle_dirs(root: Path) -> list[Path]:
    """``[root]`` if it is a bundle, else its bundle subdirectories in name order."""
    if (root / MANIFEST_FILE).exists():
        return [root]
    subs = sorted(p for p in root.iterdir() if (p / MANIFEST_FILE).exists())
    if not subs:
        raise ValidationError(f"no sweep bundles under {root}")
    return subs


def read_bundle(dirpath) -> SweepBundle:
    """Read a bundle directory; the manifest's ``format`` key picks the layout.

    ``"paths"`` is the ``paths.npy`` that ``write_bundle`` writes; its sweeps
    are formed by ``sweep_cube``.  A manifest without the key is the
    sounder's layout of one CSV per scan direction (``el<i>_az<j>.csv``).
    """
    d = Path(dirpath)
    manifest_path = d / MANIFEST_FILE
    if not manifest_path.exists():
        raise ValidationError(f"missing bundle manifest: {manifest_path}")
    with json_errors(manifest_path):
        raw = json_read(json_parse(manifest_path.read_text(encoding="utf-8")), MANIFEST_JSON)
        plan = FrequencyPlan(**raw["frequency_plan"])
        grid = ScanGrid(**raw["scan_grid"])
        manifest = BundleManifest(plan=plan, grid=grid, **{
            f.name: raw[f.name] for f in fields(BundleManifest) if f.name in MANIFEST_KEYS})
        for key in MANIFEST_KEYS:  # band_label is derived from the plan, not stored
            if raw[key] != getattr(manifest, key):
                raise ValidationError(f"{key} {raw[key]!r} is not the plan's {getattr(manifest, key)!r}")
    if "format" not in raw:
        sweeps = np.empty((grid.n_elevation, grid.n_azimuth, plan.point_count), dtype=complex)
        for i in range(grid.n_elevation):
            for j in range(grid.n_azimuth):
                sweep = read_sweep_csv(d / direction_filename(i, j), plan=plan)
                sweeps[i, j] = sweep.samples
        return SweepBundle(manifest=manifest, sweeps=sweeps)
    if raw["format"] == BUNDLE_FORMAT:
        return _read_paths_npy(d / PATHS_FILE, manifest)
    raise ValidationError(f"{manifest_path}: unknown bundle format {raw['format']!r}")
