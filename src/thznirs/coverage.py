"""Link budget, SNR, path-loss interpolation and coverage ratios.

Coverage is evaluated along the polyline through the receiver positions in
measurement order.  Path loss between adjacent anchors is blended linearly
in dB over arc length; the ratio counts equal-weight cell-midpoint samples
at the map resolution, so two equal-length segments on either side of a
threshold give exactly one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicatePositionError, ValidationError
from .fileio import atomic_write

BOLTZMANN_W_S_PER_K = 1.381e-23


@dataclass(frozen=True)
class LinkBudget:
    """Link-budget constants for SNR evaluation; defaults model a realistic
    THz link: 13 dBm transmit power, 25 dBi antennas, 10 dB noise figure,
    300 K, 15 GHz bandwidth."""

    p_t_dbm: float = 13.0
    g_t_dbi: float = 25.0
    g_r_dbi: float = 25.0
    noise_figure_db: float = 10.0
    temperature_k: float = 300.0
    bandwidth_hz: float = 15e9
    boltzmann: float = BOLTZMANN_W_S_PER_K

    def __post_init__(self):
        if not (self.temperature_k > 0):
            raise ValidationError("link budget: temperature must be positive")
        if not (self.bandwidth_hz > 0):
            raise ValidationError("link budget: bandwidth must be positive")

    def noise_floor_dbm(self) -> float:
        return 10.0 * math.log10(self.boltzmann * self.temperature_k * self.bandwidth_hz / 1e-3)


def snr_db(budget: LinkBudget, pl_omni_db):
    """SNR in dB: Pt + Gt + Gr - PL - NF - 10 log10(kTB / 1 mW).

    Affine in the path loss with slope -1; with the default budget this is
    125.07 - PL.
    """
    pl = np.asarray(pl_omni_db, dtype=float)
    out = (
        budget.p_t_dbm
        + budget.g_t_dbi
        + budget.g_r_dbi
        - pl
        - budget.noise_figure_db
        - budget.noise_floor_dbm()
    )
    return float(out) if np.isscalar(pl_omni_db) else out


@dataclass(frozen=True)
class CoverageMap:
    """Linear path-loss interpolation along the receiver polyline.

    Anchors reproduce the measured values exactly; cell midpoints are the
    equal-weight samples that coverage ratios count.
    """

    anchor_arc_m: np.ndarray  # (n,)
    anchor_pl_db: np.ndarray  # (n,)
    sample_arc_m: np.ndarray  # (m,) cell midpoints
    sample_pl_db: np.ndarray  # (m,)
    resolution_m: float

    def __post_init__(self):
        for name in ("anchor_arc_m", "anchor_pl_db", "sample_arc_m", "sample_pl_db"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def total_length_m(self) -> float:
        return float(self.anchor_arc_m[-1])

    def pl_at(self, arc_m: float) -> float:
        """Path loss at an arc-length position; exact at the anchors."""
        s = float(arc_m)
        if s < self.anchor_arc_m[0] or s > self.anchor_arc_m[-1]:
            raise ValidationError("coverage map: query outside the polyline")
        idx = int(np.searchsorted(self.anchor_arc_m, s))
        if idx < self.anchor_arc_m.shape[0] and self.anchor_arc_m[idx] == s:
            return float(self.anchor_pl_db[idx])
        a, b = idx - 1, idx
        t = (s - self.anchor_arc_m[a]) / (self.anchor_arc_m[b] - self.anchor_arc_m[a])
        return float((1.0 - t) * self.anchor_pl_db[a] + t * self.anchor_pl_db[b])


def interpolate_path_loss(
    positions, pl_db: Sequence[float], resolution_m: float = 0.05
) -> CoverageMap:
    """Build a coverage map from ordered receiver positions and their PL.

    ``positions`` is (n,) arc-length stations or (n, 2)/(n, 3) points whose
    polyline arc length is computed.  Exact duplicate positions are an error.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 1:
        pos = pos[:, None]
    if pos.shape[0] < 2:
        raise ValidationError("interpolation needs at least 2 positions")
    pl = np.asarray(pl_db, dtype=float)
    if pl.shape[0] != pos.shape[0]:
        raise ValidationError("positions and path-loss values must pair up")
    if not (resolution_m > 0):
        raise ValidationError("resolution must be positive")
    for i in range(pos.shape[0]):
        for j in range(i + 1, pos.shape[0]):
            if np.array_equal(pos[i], pos[j]):
                raise DuplicatePositionError(f"duplicate positions at indices {i} and {j}")

    seg_len = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg_len)])

    mids: list[float] = []
    vals: list[float] = []
    for k in range(seg_len.shape[0]):
        n_cells = max(1, int(math.ceil(seg_len[k] / resolution_m)))
        t = (np.arange(n_cells) + 0.5) / n_cells
        mids.extend(arc[k] + t * seg_len[k])
        vals.extend((1.0 - t) * pl[k] + t * pl[k + 1])

    return CoverageMap(
        anchor_arc_m=arc,
        anchor_pl_db=pl,
        sample_arc_m=np.array(mids),
        sample_pl_db=np.array(vals),
        resolution_m=float(resolution_m),
    )


def interpolate_path_loss_grid(
    x_m: Sequence[float], y_m: Sequence[float], pl_db, resolution_m: float = 0.05
) -> CoverageMap:
    """Optional 2-D mode: bilinear blend over a rectangular anchor grid.

    Samples are cell midpoints at the resolution; the returned map reuses the
    CoverageMap container with the cell index line as its arc axis.
    """
    x = np.asarray(x_m, dtype=float)
    y = np.asarray(y_m, dtype=float)
    pl = np.asarray(pl_db, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or pl.shape != (y.shape[0], x.shape[0]):
        raise ValidationError("grid interpolation needs pl shaped (len(y), len(x))")
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise ValidationError("grid interpolation needs at least 2x2 anchors")
    if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
        raise ValidationError("grid coordinates must be strictly increasing")

    vals = []
    for iy in range(y.shape[0] - 1):
        for ix in range(x.shape[0] - 1):
            nx = max(1, int(math.ceil((x[ix + 1] - x[ix]) / resolution_m)))
            ny = max(1, int(math.ceil((y[iy + 1] - y[iy]) / resolution_m)))
            tx = (np.arange(nx) + 0.5) / nx
            ty = (np.arange(ny) + 0.5) / ny
            txg, tyg = np.meshgrid(tx, ty)
            blend = (
                (1 - txg) * (1 - tyg) * pl[iy, ix]
                + txg * (1 - tyg) * pl[iy, ix + 1]
                + (1 - txg) * tyg * pl[iy + 1, ix]
                + txg * tyg * pl[iy + 1, ix + 1]
            )
            vals.append(blend.ravel())
    samples = np.concatenate(vals)
    anchor = np.array([0.0, float(samples.shape[0])])
    return CoverageMap(
        anchor_arc_m=anchor,
        anchor_pl_db=np.array([pl.ravel()[0], pl.ravel()[-1]]),
        sample_arc_m=np.arange(samples.shape[0], dtype=float) + 0.5,
        sample_pl_db=samples,
        resolution_m=float(resolution_m),
    )


def coverage_ratio(cmap: CoverageMap, budget: LinkBudget, threshold_db: float) -> float:
    """Fraction of equal-weight samples whose SNR meets the threshold."""
    snr = snr_db(budget, cmap.sample_pl_db)
    return float(np.count_nonzero(snr >= threshold_db) / snr.shape[0])


def coverage_curve(
    cmap: CoverageMap, budget: LinkBudget, thresholds_db: Iterable[float]
) -> list[tuple[float, float]]:
    """(threshold, ratio) pairs sorted by threshold."""
    return [
        (float(t), coverage_ratio(cmap, budget, float(t)))
        for t in sorted(float(t) for t in thresholds_db)
    ]


def default_thresholds() -> np.ndarray:
    """The default sweep: -10 dB to 30 dB in 1 dB steps."""
    return np.arange(-10.0, 31.0, 1.0)


def write_coverage_csv(
    path,
    thresholds_db: Sequence[float],
    ratio_with: Sequence[float],
    ratio_without: Sequence[float] | None = None,
) -> None:
    if ratio_without is None:
        lines = ["threshold_db,ratio_with_nirs"]
        for t, rw in zip(thresholds_db, ratio_with):
            lines.append(f"{t:.6g},{rw:.6g}")
    else:
        lines = ["threshold_db,ratio_with_nirs,ratio_without_nirs"]
        for t, rw, rwo in zip(thresholds_db, ratio_with, ratio_without):
            lines.append(f"{t:.6g},{rw:.6g},{rwo:.6g}")
    atomic_write(path, "\n".join(lines) + "\n")
