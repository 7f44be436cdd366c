"""Measurement geometry: frequency plans, scan grids, antenna patterns, scenes.

Everything here is immutable after construction and safe to share between
threads.  Angles are degrees, lengths meters, losses dB throughout.

Conventions:
  * x/y span the azimuth plane, z points up.
  * A direction at azimuth ``a`` and elevation ``e`` is the unit vector
    (cos e cos a, cos e sin a, sin e), azimuth counterclockwise from +x.
  * Scan directions and arrival directions point from the receiver toward
    the incoming wave.
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    NoNirsPanelWarning,
    NoSpecularGeometryError,
    SceneValidationError,
    ThzNirsError,
    ValidationError,
)
from .fileio import atomic_write

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

DEFAULT_TX_HEIGHT = 2.0
DEFAULT_RX_HEIGHT = 1.75

_PLANARITY_TOL = 1e-9  # m, coplanarity residual bound
_PARALLEL_EPS = 1e-15  # |direction . normal| below this: parallel to the plane


def _vec3(value, what: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape == (2,):
        raise SceneValidationError(f"{what} must have 3 components, got 2")
    if arr.shape != (3,):
        raise SceneValidationError(f"{what} must have 3 components")
    if not np.all(np.isfinite(arr)):
        raise SceneValidationError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise SceneValidationError("zero-length direction vector")
    return v / n


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Frequency plan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FrequencyPlan:
    """Uniform frequency sweep: first point f_start, last point f_stop."""

    f_start_hz: float
    f_stop_hz: float
    f_step_hz: float

    def __post_init__(self):
        if not (self.f_stop_hz > self.f_start_hz):
            raise ValidationError("frequency plan: f_stop must exceed f_start")
        if not (self.f_step_hz > 0):
            raise ValidationError("frequency plan: f_step must be positive")
        ratio = (self.f_stop_hz - self.f_start_hz) / self.f_step_hz
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio):
            raise ValidationError(
                "frequency plan: span must be an integer multiple of f_step"
            )
        if round(ratio) + 1 < 2:
            raise ValidationError("frequency plan: needs at least 2 points")

    @property
    def point_count(self) -> int:
        return int(round((self.f_stop_hz - self.f_start_hz) / self.f_step_hz)) + 1

    @property
    def span_hz(self) -> float:
        return self.f_stop_hz - self.f_start_hz

    @property
    def band_label(self) -> str:
        return f"{self.f_start_hz / 1e9:g}-{self.f_stop_hz / 1e9:g}GHz"

    @property
    def center_hz(self) -> float:
        return 0.5 * (self.f_start_hz + self.f_stop_hz)


def frequency_grid(plan: FrequencyPlan) -> np.ndarray:
    """Return the plan's frequencies; first sample f_start, last f_stop."""
    grid = np.linspace(plan.f_start_hz, plan.f_stop_hz, plan.point_count)
    grid.setflags(write=False)
    return grid


# ---------------------------------------------------------------------------
# Frequency sweep (one scan direction worth of complex transfer function)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FrequencySweep:
    """Complex transfer-function samples over a frequency plan."""

    plan: FrequencyPlan
    samples: np.ndarray

    def __post_init__(self):
        s = np.array(self.samples, dtype=complex)
        if s.ndim != 1 or s.shape[0] != self.plan.point_count:
            raise ValidationError(
                "sweep: sample count must equal the plan's point count"
            )
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def frequencies(self) -> np.ndarray:
        return frequency_grid(self.plan)


# ---------------------------------------------------------------------------
# Scan grid
# ---------------------------------------------------------------------------
def _strictly_increasing(seq: Sequence[float]) -> bool:
    return all(b > a for a, b in zip(seq, seq[1:]))


@dataclass(frozen=True)
class ScanGrid:
    """Receiver scan directions: elevation rows x azimuth columns."""

    azimuth_deg: tuple[float, ...]
    elevation_deg: tuple[float, ...]

    def __post_init__(self):
        az = tuple(float(a) for a in self.azimuth_deg)
        el = tuple(float(e) for e in self.elevation_deg)
        if len(az) == 0 or len(el) == 0:
            raise ValidationError("scan grid: angle lists must be non-empty")
        if not _strictly_increasing(az):
            raise ValidationError("scan grid: azimuth angles must be strictly increasing")
        if not _strictly_increasing(el):
            raise ValidationError("scan grid: elevation angles must be strictly increasing")
        if not (0.0 <= az[0] and az[-1] < 360.0):  # NaN fails too
            raise ValidationError("scan grid: azimuth must lie in [0, 360)")
        if not (-90.0 <= el[0] and el[-1] <= 90.0):
            raise ValidationError("scan grid: elevation must lie in [-90, 90]")
        object.__setattr__(self, "azimuth_deg", az)
        object.__setattr__(self, "elevation_deg", el)

    @classmethod
    def default(cls) -> "ScanGrid":
        # 10 degree steps: azimuth full circle, elevation -20..20
        return cls(
            azimuth_deg=tuple(float(a) for a in range(0, 360, 10)),
            elevation_deg=tuple(float(e) for e in range(-20, 30, 10)),
        )

    @property
    def n_azimuth(self) -> int:
        return len(self.azimuth_deg)

    @property
    def n_elevation(self) -> int:
        return len(self.elevation_deg)

    def direction_vectors(self) -> np.ndarray:
        """All scan directions, shape (n_elevation, n_azimuth, 3)."""
        el = np.deg2rad(np.asarray(self.elevation_deg))[:, None]
        az = np.deg2rad(np.asarray(self.azimuth_deg))[None, :]
        out = np.stack(
            [
                np.cos(el) * np.cos(az),
                np.cos(el) * np.sin(az),
                np.sin(el) * np.ones_like(az),
            ],
            axis=-1,
        )
        out.setflags(write=False)
        return out


# ---------------------------------------------------------------------------
# Antenna pattern
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AntennaPattern:
    """Gaussian mainlobe in dB: gain(theta) = G0 - 12 (theta/hpbw)^2.

    The quadratic coefficient puts the -3 dB point exactly at hpbw/2.
    No sidelobes and no floor; far off boresight the gain keeps falling.
    """

    boresight_gain_dbi: float
    hpbw_deg: float

    def __post_init__(self):
        if not math.isfinite(self.boresight_gain_dbi):
            raise ValidationError("antenna pattern: boresight gain must be finite")
        if not (0.0 < self.hpbw_deg < 180.0):
            raise ValidationError("antenna pattern: hpbw must lie in (0, 180) degrees")

    def gain_dbi(self, theta_deg):
        theta = np.asarray(theta_deg, dtype=float)
        g = self.boresight_gain_dbi - 12.0 * (theta / self.hpbw_deg) ** 2
        return float(g) if np.isscalar(theta_deg) else g

    def amplitude(self, theta_deg):
        """Linear field amplitude factor 10^(gain/20)."""
        return 10.0 ** (np.asarray(self.gain_dbi(theta_deg)) / 20.0)


# Measurement-default antennas: WR2.8 waveguide at the Tx, horn at the Rx.
DEFAULT_TX_PATTERN = AntennaPattern(boresight_gain_dbi=7.0, hpbw_deg=30.0)
DEFAULT_RX_PATTERN = AntennaPattern(boresight_gain_dbi=25.0, hpbw_deg=8.0)


# ---------------------------------------------------------------------------
# Reflection loss (constant or piecewise-linear in incidence angle)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LossTable:
    """Per-reflection loss vs incidence angle; one entry means constant loss.

    Lookup clamps outside the tabulated angle range.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(a), float(l)) for a, l in self.points)
        if len(pts) == 0:
            raise SceneValidationError("loss table: needs at least one entry")
        angles = [a for a, _ in pts]
        if not _strictly_increasing(angles):
            raise SceneValidationError("loss table: angles must be strictly increasing")
        if not (0.0 <= angles[0] and angles[-1] <= 90.0):  # NaN fails too
            raise SceneValidationError("loss table: angles must lie in [0, 90]")
        if not all(0.0 <= l < math.inf for _, l in pts):
            raise SceneValidationError("loss table: material_loss must be finite and >= 0 dB")
        object.__setattr__(self, "points", pts)

    @classmethod
    def constant(cls, loss_db: float) -> "LossTable":
        return cls(points=((0.0, float(loss_db)),))

    def loss_db(self, incidence_deg: float) -> float:
        angles = [a for a, _ in self.points]
        losses = [l for _, l in self.points]
        return float(np.interp(incidence_deg, angles, losses))

    def min_loss_db(self) -> float:
        return min(l for _, l in self.points)


def _as_loss(value) -> LossTable:
    if isinstance(value, LossTable):
        return value
    if _is_number(value):
        return LossTable.constant(float(value))
    if isinstance(value, (list, tuple)) and all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_number, p)) for p in value
    ):
        return LossTable(points=tuple((a, l) for a, l in value))
    raise SceneValidationError(
        f"material_loss_db: expected a number or a list of [angle, loss] pairs, got {value!r}"
    )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Planar rectangle
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Rectangle:
    """Planar rectangle given by 4 corners in perimeter order.

    ``origin`` is corner 0, ``u`` and ``v`` the edges from it to corners 1
    and 3, and ``normal`` the unit normal; all are read-only arrays.
    """

    corners: np.ndarray  # (4, 3)

    def __post_init__(self):
        c = np.array(self.corners, dtype=float)
        if c.shape != (4, 3):
            raise SceneValidationError("rectangle: needs exactly 4 corner points in 3-D")
        c = np.array([_vec3(p, "rectangle corner") for p in c])
        u = c[1] - c[0]
        v = c[3] - c[0]
        lu, lv = np.linalg.norm(u), np.linalg.norm(v)
        if lu == 0.0 or lv == 0.0:
            raise SceneValidationError("rectangle: degenerate (zero-length edge)")
        n = np.cross(u, v)
        ln = np.linalg.norm(n)
        if ln == 0.0:
            raise SceneValidationError("rectangle: degenerate (collinear edges)")
        n = n / ln
        residual = abs(float(np.dot(c[2] - c[0], n)))
        if residual > _PLANARITY_TOL:
            raise SceneValidationError(
                f"rectangle: coplanarity residual {residual:.3e} m exceeds 1e-9 m"
            )
        if np.linalg.norm(c[2] - (c[0] + u + v)) > 1e-6 * max(lu, lv):
            raise SceneValidationError("rectangle: corners do not form a parallelogram")
        if abs(float(np.dot(u, v))) > 1e-7 * lu * lv:
            raise SceneValidationError("rectangle: adjacent edges are not perpendicular")
        c.setflags(write=False)
        object.__setattr__(self, "corners", c)
        object.__setattr__(self, "origin", _readonly(c[0]))
        object.__setattr__(self, "u", _readonly(u))
        object.__setattr__(self, "v", _readonly(v))
        object.__setattr__(self, "normal", _readonly(n))

    @classmethod
    def from_center(cls, center, u_dir, v_dir, width: float, height: float) -> "Rectangle":
        """Rectangle centered at ``center``; width along u_dir, height along v_dir."""
        center = np.asarray(center, dtype=float)
        u = _unit(np.asarray(u_dir, dtype=float)) * (width / 2.0)
        v = _unit(np.asarray(v_dir, dtype=float)) * (height / 2.0)
        return cls(corners=np.array([center - u - v, center + u - v, center + u + v, center - u + v]))

    @property
    def center(self) -> np.ndarray:
        return self.origin + 0.5 * self.u + 0.5 * self.v

    def _margins(self, tol: float = 1e-9) -> tuple[float, float, float]:
        """(plane-distance cut, s pad, t pad) a point may stray and still lie on it."""
        lu, lv = np.linalg.norm(self.u), np.linalg.norm(self.v)
        return max(tol, 1e-12 * max(lu, lv)), tol / lu, tol / lv


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3-vector dot products along the last axis, broadcast over the others.

    Stacked ``matmul`` hands every pair to the same BLAS kernel as ``np.dot``,
    so each product equals a scalar ``np.dot`` bit for bit;
    ``(a * b).sum(-1)`` and ``einsum`` round differently.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class RectangleStack:
    """n rectangles as arrays: the one mirror and ray-crossing kernel.

    Vectors are (n, 3) and scalars (n,); they broadcast against leading
    axes of the query points.  Each operation repeats the arithmetic of the
    scalar reference in ``tests/synthchan_oracle.py`` step for step, so the
    results equal it bit for bit.
    """

    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray
    normal: np.ndarray
    uu: np.ndarray  # u . u and v . v, the in-plane coordinate divisors
    vv: np.ndarray
    cut: np.ndarray  # Rectangle._margins
    pad_s: np.ndarray
    pad_t: np.ndarray

    @classmethod
    def of(cls, rects: Sequence[Rectangle]) -> "RectangleStack":
        def stack(name):
            return np.array([getattr(r, name) for r in rects], dtype=float).reshape(-1, 3)

        u, v = stack("u"), stack("v")
        cut, pad_s, pad_t = np.array([r._margins() for r in rects], dtype=float).reshape(-1, 3).T
        return cls(stack("origin"), u, v, stack("normal"), _dot(u, u), _dot(v, v), cut, pad_s, pad_t)

    def take(self, index) -> "RectangleStack":
        """The rectangles at ``index``, e.g. one per query row."""
        return RectangleStack(*(getattr(self, f.name)[index] for f in fields(self)))

    def mirror(self, points: np.ndarray) -> np.ndarray:
        """Mirror images of ``points`` across the planes."""
        d = _dot(points - self.origin, self.normal)
        return points - (2.0 * d)[..., None] * self.normal

    def cross(self, p: np.ndarray, d: np.ndarray):
        """Where the lines p + t d meet the rectangles: (t, point, hit).

        ``hit`` is False where the line is parallel to the plane or the
        crossing lies outside the rectangle; ``t`` and ``point`` are finite
        but meaningless there.  Callers bound ``t`` themselves.
        """
        denom = _dot(d, self.normal)
        parallel = np.abs(denom) < _PARALLEL_EPS
        t = _dot(self.origin - p, self.normal) / np.where(parallel, 1.0, denom)
        point = p + t[..., None] * d
        w = point - self.origin
        s = _dot(w, self.u) / self.uu
        r = _dot(w, self.v) / self.vv
        hit = (
            ~parallel
            & (np.abs(_dot(w, self.normal)) <= self.cut)
            & (-self.pad_s <= s) & (s <= 1.0 + self.pad_s)
            & (-self.pad_t <= r) & (r <= 1.0 + self.pad_t)
        )
        return t, point, hit


# ---------------------------------------------------------------------------
# Walls and reflector panels
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Wall:
    rectangle: Rectangle
    material_loss: LossTable

    def __post_init__(self):
        object.__setattr__(self, "material_loss", _as_loss(self.material_loss))


@dataclass(frozen=True)
class NirsPanel:
    """Reflector panel subdivided into activatable sub-panels.

    Sub-panel (row, col): rows run along the rectangle's v edge, columns
    along u.  Default subdivision is 3x3 with every cell active.
    """

    rectangle: Rectangle
    material_loss: LossTable
    subdivision: tuple[int, int] = (3, 3)
    active_cells: frozenset[tuple[int, int]] | None = None  # None = all

    def __post_init__(self):
        object.__setattr__(self, "material_loss", _as_loss(self.material_loss))
        rows, cols = self.subdivision
        if rows < 1 or cols < 1:
            raise SceneValidationError("panel: subdivision must be at least 1x1")
        if self.active_cells is not None:
            cells = frozenset((int(r), int(c)) for r, c in self.active_cells)
            for r, c in cells:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise SceneValidationError(
                        f"panel: active cell ({r},{c}) outside subdivision {rows}x{cols}"
                    )
            object.__setattr__(self, "active_cells", cells)

    def active_rectangles(self) -> list[tuple[tuple[int, int], Rectangle]]:
        """((row, col), sub-panel rectangle) of every active cell, in (row, col) order."""
        rect = self.rectangle
        rows, cols = self.subdivision
        cells = self.active_cells
        if cells is None:
            cells = [(r, c) for r in range(rows) for c in range(cols)]
        u, v = rect.u / cols, rect.v / rows
        out = []
        for r, c in sorted(cells):
            o = rect.origin + rect.u * (c / cols) + rect.v * (r / rows)
            out.append(((r, c), Rectangle(corners=np.array([o, o + u, o + u + v, o + v]))))
        return out


# ---------------------------------------------------------------------------
# Scene
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Surface:
    """A reflecting (and blocking) rectangle with an id, used by ray tracing."""

    surface_id: str
    rectangle: Rectangle
    material_loss: LossTable


@dataclass(frozen=True)
class Scene:
    walls: tuple[Wall, ...]
    nirs_panels: tuple[NirsPanel, ...]
    tx_position: np.ndarray
    tx_boresight: np.ndarray
    rx_positions: np.ndarray  # (n, 3)
    tx_pattern: AntennaPattern = DEFAULT_TX_PATTERN
    rx_pattern: AntennaPattern = DEFAULT_RX_PATTERN
    frequency_plan: FrequencyPlan | None = None
    scan_grid: ScanGrid = field(default_factory=ScanGrid.default)
    tx_height: float = DEFAULT_TX_HEIGHT
    rx_height: float = DEFAULT_RX_HEIGHT

    def __post_init__(self):
        object.__setattr__(self, "walls", tuple(self.walls))
        object.__setattr__(self, "nirs_panels", tuple(self.nirs_panels))
        object.__setattr__(self, "tx_position", _vec3(self.tx_position, "tx position"))
        object.__setattr__(self, "tx_boresight", _readonly(_unit(_vec3(self.tx_boresight, "tx boresight"))))
        rx = np.array(self.rx_positions, dtype=float)
        if rx.ndim != 2 or rx.shape[1] != 3 or rx.shape[0] < 1:
            raise SceneValidationError("scene: rx positions must be an (n, 3) array, n >= 1")
        object.__setattr__(self, "rx_positions", _readonly([_vec3(p, "rx position") for p in rx]))

    @property
    def n_rx(self) -> int:
        return int(self.rx_positions.shape[0])

    def rx_position(self, rx_index: int) -> np.ndarray:
        if not (0 <= rx_index < self.n_rx):
            raise SceneValidationError(
                f"scene: rx index {rx_index} out of range (n_rx={self.n_rx})"
            )
        return self.rx_positions[rx_index]

    def surfaces(self) -> list[Surface]:
        """Walls plus every active sub-panel, in a stable id order."""
        out = [
            Surface(f"wall{i}", w.rectangle, w.material_loss)
            for i, w in enumerate(self.walls)
        ]
        for p_idx, panel in enumerate(self.nirs_panels):
            for (r, c), rect in panel.active_rectangles():
                out.append(Surface(f"panel{p_idx}[{r},{c}]", rect, panel.material_loss))
        return out

    def with_panel_cells(self, active: Iterable[tuple[int, int]] | None) -> "Scene":
        """Same scene with panel 0 restricted to the given cells (None: all)."""
        cells = None if active is None else frozenset(active)
        first = replace(self.nirs_panels[0], active_cells=cells)
        return replace(self, nirs_panels=(first,) + self.nirs_panels[1:])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------
def nirs_angle_set(
    scene: Scene, rx_index: int, grid: ScanGrid | None = None
) -> frozenset[tuple[int, int]]:
    """Scan-grid directions whose ray from the Rx hits an active sub-panel.

    Returns (elevation_index, azimuth_index) pairs.  A scene without panels
    yields the empty set and a NoNirsPanelWarning rather than an error.
    Occlusion by walls is not considered; this is the pure view geometry.
    All directions meet all cells in one batched ray test; a ray counts from
    1e-9 m past the Rx.
    """
    grid = grid or scene.scan_grid
    rx = scene.rx_position(rx_index)
    rects = [rect for panel in scene.nirs_panels for _, rect in panel.active_rectangles()]
    if not rects:
        warnings.warn("scene has no NIRS panel; angle set is empty", NoNirsPanelWarning)
        return frozenset()
    r, _, hit = RectangleStack.of(rects).cross(rx, grid.direction_vectors()[..., None, :])
    el, az = np.nonzero((hit & (r > 1e-9)).any(axis=-1))
    return frozenset(zip(el.tolist(), az.tolist()))


def _azimuth_angle_to_normal(direction: np.ndarray, normal: np.ndarray) -> float:
    """Unsigned azimuth-plane angle between a direction and a surface normal."""
    d = np.array([direction[0], direction[1]])
    n = np.array([normal[0], normal[1]])
    nd, nn = np.linalg.norm(d), np.linalg.norm(n)
    if nn < 1e-12:
        raise SceneValidationError(
            "reflection angle: panel normal has no azimuth-plane component"
        )
    if nd < 1e-12:
        return 0.0
    c = abs(float(np.dot(d, n)) / (nd * nn))
    return math.degrees(math.acos(min(1.0, c)))


def specular_point(scene: Scene, rx_index: int) -> np.ndarray:
    """Specular reflection point of Tx -> panel 0 -> Rx on the panel rectangle.

    Raises NoSpecularGeometryError when the mirror construction misses the
    panel or Tx and Rx sit on opposite sides of its plane.
    """
    if not scene.nirs_panels:
        raise SceneValidationError("scene has no NIRS panel")
    panel = RectangleStack.of([scene.nirs_panels[0].rectangle])
    tx = scene.tx_position
    rx = scene.rx_position(rx_index)
    side_tx, side_rx = _dot(np.stack([tx, rx]) - panel.origin, panel.normal)
    if side_tx * side_rx < 0:
        raise NoSpecularGeometryError(
            "no specular geometry: Tx and Rx on opposite sides of the panel plane"
        )
    image = panel.mirror(tx)
    t, point, hit = panel.cross(image, rx - image)
    if not (hit[0] and 0.0 <= t[0] <= 1.0):
        raise NoSpecularGeometryError(
            "no specular geometry: mirror ray misses the panel rectangle"
        )
    return point[0]


def rx_link_geometry(scene: Scene, rx_index: int) -> tuple[float, bool, float, float]:
    """(reflection angle deg, specular?, d1 Tx->point, d2 point->Rx) via panel 0.

    The angle is the azimuth-plane angle between the reflected direction and
    the panel normal at the specular point, in [0, 90) degrees; elevation
    offsets are projected out.  When the mirror construction misses the
    panel, the panel center stands in, flagged non-specular, and the angle is
    the incidence of the Tx ray there.  specular_point is the strict check.
    """
    if not scene.nirs_panels:
        raise SceneValidationError("scene has no NIRS panel")
    rect = scene.nirs_panels[0].rectangle
    try:
        point = specular_point(scene, rx_index)
        spec = True
        phi = _azimuth_angle_to_normal(scene.rx_position(rx_index) - point, rect.normal)
    except NoSpecularGeometryError:
        point = rect.center
        spec = False
        phi = _azimuth_angle_to_normal(point - scene.tx_position, rect.normal)
    d1 = float(np.linalg.norm(point - scene.tx_position))
    d2 = float(np.linalg.norm(scene.rx_position(rx_index) - point))
    return phi, spec, d1, d2


# ---------------------------------------------------------------------------
# JSON: scene files, and the plan and grid objects bundle manifests share
# ---------------------------------------------------------------------------
@contextmanager
def json_errors(source, error: type[ThzNirsError]):
    """Re-raise any fault met while reading ``source``'s JSON as ``error`` naming it.

    A toolkit error keeps its type and gains the ``source`` prefix once, so
    nested readers of the same file name it a single time.
    """
    prefix = f"{source}: "
    try:
        yield
    except ThzNirsError as exc:
        if not str(exc).startswith(prefix):
            exc.args = (prefix + str(exc),)
        raise
    except Exception as exc:
        if isinstance(exc, json.JSONDecodeError):
            reason = f"invalid JSON ({exc})"
        elif isinstance(exc, KeyError):
            reason = f"missing key {exc}"
        else:
            reason = str(exc)
        raise error(prefix + reason) from exc


def _json_object(obj, context: str, required: Sequence[str], optional: Sequence[str] = ()) -> dict:
    """``obj`` if it is a JSON object holding every required and no unknown key."""
    if not isinstance(obj, dict):
        raise TypeError(f"{context} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} in {context}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing required key '{key}' in {context}")
    return obj


def _json_list(obj, context: str) -> list:
    """``obj`` if it is a JSON array."""
    if not isinstance(obj, list):
        raise TypeError(f"{context} must be a JSON array, got {type(obj).__name__}")
    return obj


def _position3(value, height: float, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape == (2,):
        arr = np.array([arr[0], arr[1], height])
    if arr.shape != (3,):
        raise SceneValidationError(f"scene file: {what} must be [x,y] or [x,y,z]")
    return arr


def plan_from_json(obj) -> FrequencyPlan:
    fp = _json_object(obj, "frequency_plan", ("f_start_hz", "f_stop_hz", "f_step_hz"))
    return FrequencyPlan(
        f_start_hz=float(fp["f_start_hz"]),
        f_stop_hz=float(fp["f_stop_hz"]),
        f_step_hz=float(fp["f_step_hz"]),
    )


def plan_to_json(plan: FrequencyPlan) -> dict:
    return {
        "f_start_hz": plan.f_start_hz,
        "f_stop_hz": plan.f_stop_hz,
        "f_step_hz": plan.f_step_hz,
    }


def grid_from_json(obj) -> ScanGrid:
    sg = _json_object(obj, "scan_grid", ("azimuth_deg", "elevation_deg"))
    return ScanGrid(azimuth_deg=sg["azimuth_deg"], elevation_deg=sg["elevation_deg"])


def grid_to_json(grid: ScanGrid) -> dict:
    return {
        "azimuth_deg": list(grid.azimuth_deg),
        "elevation_deg": list(grid.elevation_deg),
    }


def _pattern_from_json(obj, default: AntennaPattern) -> AntennaPattern:
    if obj is None:
        return default
    p = _json_object(obj, "pattern", ("gain_dbi", "hpbw_deg"))
    return AntennaPattern(
        boresight_gain_dbi=float(p["gain_dbi"]), hpbw_deg=float(p["hpbw_deg"])
    )


def _pattern_to_json(pattern: AntennaPattern) -> dict:
    return {"gain_dbi": pattern.boresight_gain_dbi, "hpbw_deg": pattern.hpbw_deg}


def scene_from_dict(data: dict, source="scene file") -> Scene:
    """The scene a parsed scene file describes; any fault names ``source``."""
    with json_errors(source, SceneValidationError):
        _json_object(
            data, "top level", ("walls", "tx", "rx", "frequency_plan"), ("nirs_panels", "scan_grid")
        )
        walls = []
        for w in _json_list(data["walls"], "walls"):
            _json_object(w, "wall", ("corners", "material_loss_db"))
            walls.append(
                Wall(
                    rectangle=Rectangle(corners=np.asarray(w["corners"], dtype=float)),
                    material_loss=w["material_loss_db"],
                )
            )

        panels = []
        for p in _json_list(data.get("nirs_panels", []), "nirs_panels"):
            _json_object(
                p, "nirs panel", ("corners", "material_loss_db"), ("subdivision", "active_cells")
            )
            active = p.get("active_cells", "all")
            cells = None if active == "all" else frozenset((int(r), int(c)) for r, c in active)
            panels.append(
                NirsPanel(
                    rectangle=Rectangle(corners=np.asarray(p["corners"], dtype=float)),
                    material_loss=p["material_loss_db"],
                    subdivision=tuple(int(x) for x in p.get("subdivision", (3, 3))),
                    active_cells=cells,
                )
            )

        tx = _json_object(data["tx"], "tx", ("position", "boresight"), ("height_m", "pattern"))
        tx_height = float(tx.get("height_m", DEFAULT_TX_HEIGHT))
        tx_pos = _position3(tx["position"], tx_height, "tx position")
        boresight = np.asarray(tx["boresight"], dtype=float)
        if boresight.shape == (2,):
            boresight = np.array([boresight[0], boresight[1], 0.0])

        rx = _json_object(data["rx"], "rx", ("positions",), ("height_m", "pattern"))
        rx_height = float(rx.get("height_m", DEFAULT_RX_HEIGHT))
        rx_pos = np.array([
            _position3(p, rx_height, "rx position")
            for p in _json_list(rx["positions"], "positions in rx")
        ])

        return Scene(
            walls=tuple(walls),
            nirs_panels=tuple(panels),
            tx_position=tx_pos,
            tx_boresight=boresight,
            rx_positions=rx_pos,
            tx_pattern=_pattern_from_json(tx.get("pattern"), DEFAULT_TX_PATTERN),
            rx_pattern=_pattern_from_json(rx.get("pattern"), DEFAULT_RX_PATTERN),
            frequency_plan=plan_from_json(data["frequency_plan"]),
            scan_grid=(
                grid_from_json(data["scan_grid"]) if "scan_grid" in data else ScanGrid.default()
            ),
            tx_height=tx_height,
            rx_height=rx_height,
        )


def scene_to_dict(scene: Scene) -> dict:
    def loss_json(loss: LossTable):
        if len(loss.points) == 1 and loss.points[0][0] == 0.0:
            return loss.points[0][1]
        return [[a, l] for a, l in loss.points]

    return {
        "walls": [
            {"corners": w.rectangle.corners.tolist(), "material_loss_db": loss_json(w.material_loss)}
            for w in scene.walls
        ],
        "nirs_panels": [
            {
                "corners": p.rectangle.corners.tolist(),
                "material_loss_db": loss_json(p.material_loss),
                "subdivision": list(p.subdivision),
                "active_cells": "all" if p.active_cells is None else sorted([list(c) for c in p.active_cells]),
            }
            for p in scene.nirs_panels
        ],
        "tx": {
            "position": scene.tx_position.tolist(),
            "boresight": scene.tx_boresight.tolist(),
            "height_m": scene.tx_height,
            "pattern": _pattern_to_json(scene.tx_pattern),
        },
        "rx": {
            "positions": scene.rx_positions.tolist(),
            "height_m": scene.rx_height,
            "pattern": _pattern_to_json(scene.rx_pattern),
        },
        "frequency_plan": plan_to_json(scene.frequency_plan),
        "scan_grid": grid_to_json(scene.scan_grid),
    }


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh, json_errors(path, SceneValidationError):
        return scene_from_dict(json.loads(fh.read()), source=path)


def save_scene(scene: Scene, path) -> None:
    atomic_write(path, json.dumps(scene_to_dict(scene), indent=2, sort_keys=True) + "\n")
