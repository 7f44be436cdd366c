"""Directional and omnidirectional path loss, and the close-in reference model.

Path losses are minus the dB of a linear power sum over profile entries.
Sentinel entries never enter the sum.  Antenna gains are not deducted here:
the profile carries whatever gains the synthesis or measurement embedded,
and the link budget applies its own gains explicitly.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Iterable

import numpy as np

from .errors import NoSignalError, ThzNirsError, ValidationError
from .fileio import write_csv
from .pdap import DEFAULT_NOISE_THRESHOLD_DB, Pdap, pdap_from_sweeps
from .reflfit import additional_reflection_loss
from .scene import SPEED_OF_LIGHT, Scene, nirs_angle_set, rx_link_geometry


@dataclass(frozen=True)
class CiModel:
    """Close-in free-space reference-distance path-loss model.

    PL(f, d) = 20 log10(4 pi d0 f / c) + 10 n log10(d / d0), d0 = 1 m.
    At d = d0 the model equals free-space path loss at 1 m by construction.
    """

    ple: float

    def __post_init__(self):
        if not (math.isfinite(self.ple) and self.ple > 0):
            raise ValidationError("ci model: path-loss exponent must be finite and positive")


def ci_path_loss(model: CiModel, f_hz: float, d_m: float) -> float:
    """Evaluate the CI model; distances below d0 = 1 m are out of domain."""
    if d_m < 1.0:
        raise ValidationError(f"ci model: distance {d_m} m below the 1.0 m reference")
    fspl_ref = 20.0 * math.log10(4.0 * math.pi * f_hz / SPEED_OF_LIGHT)
    loss = fspl_ref + 10.0 * model.ple * math.log10(d_m)
    if not math.isfinite(loss):
        raise ValidationError(f"ci model: path-loss exponent {model.ple:g} overflows "
                              f"the prediction at {d_m:g} m")
    return loss


def _linear_power_sum(pdap: Pdap, where=...) -> float:
    """Linear power summed over the signal entries of ``pdap.power_db[where]``."""
    power_db = pdap.power_db[where][pdap.signal_mask(where)]
    if not power_db.size:
        raise NoSignalError("path loss: every selected entry is noise")
    with np.errstate(over="ignore"):
        total = float(np.sum(10.0 ** (power_db / 10.0)))
    if not math.isfinite(total):
        raise ValidationError(f"path loss: the linear power sum of entries up to "
                              f"{power_db.max():.6g} dB overflows float64")
    return total


def directional_path_loss(pdap: Pdap, angle_set: Iterable[tuple[int, int]]) -> float:
    """-10 log10 of the power summed over the angle set and all delay bins."""
    pairs = sorted(set((int(i), int(j)) for i, j in angle_set))
    if not pairs:
        raise ValidationError("directional path loss: angle_set is empty")
    for i, j in pairs:
        if not (0 <= i < pdap.grid.n_elevation and 0 <= j < pdap.grid.n_azimuth):
            raise ValidationError(
                f"directional path loss: angle index ({i},{j}) outside the scan grid"
            )
    return -10.0 * math.log10(_linear_power_sum(pdap, tuple(np.array(pairs).T)))


def omni_path_loss(pdap: Pdap) -> float:
    """Directional path loss with the full scan grid as the angle set."""
    return -10.0 * math.log10(_linear_power_sum(pdap))


@dataclass(frozen=True)
class RxPathLossRow:
    """One receiver's results for the pipeline CSV."""

    rx_id: int
    pl_dir_db: float
    pl_omni_db: float
    reflection_angle_deg: float
    d1_m: float
    d2_m: float
    l_ref_db: float


def rx_path_loss(scene: Scene, rx_index: int, sweeps: np.ndarray, divisor, ci: CiModel,
                 threshold_db: float = DEFAULT_NOISE_THRESHOLD_DB) -> RxPathLossRow:
    """One receiver's row from its sweeps on the scene's plan and grid: divided
    by the calibration ``divisor`` (unless None), profiled, summed over the
    panel's angle set, and compared with the CI model at d1 + d2 for l_ref."""
    plan = scene.frequency_plan
    if divisor is not None:
        sweeps = sweeps / divisor
    pdap = pdap_from_sweeps(sweeps, scene.scan_grid, plan.span_hz, noise_threshold_db=threshold_db)
    angles = nirs_angle_set(scene, rx_index)
    if not angles:
        raise ValidationError(f"angle set for rx {rx_index} is empty; "
                              "no scan direction intersects the panel")
    try:
        pl_dir = directional_path_loss(pdap, angles)
        pl_omni = omni_path_loss(pdap)
        phi, _spec, d1, d2 = rx_link_geometry(scene, rx_index)
        l_ref = additional_reflection_loss(pl_dir, ci, plan.center_hz, d1, d2)
    except ThzNirsError as exc:
        exc.args = (f"rx {rx_index}: {exc}",)
        raise
    return RxPathLossRow(rx_index, pl_dir, pl_omni, phi, d1, d2, l_ref)


def write_pathloss_csv(rows: Iterable[RxPathLossRow], path) -> None:
    """The pipeline results file: one row per receiver, sorted by rx id."""
    write_csv(path, ",".join(f.name for f in fields(RxPathLossRow)),
              map(astuple, sorted(rows, key=lambda r: r.rx_id)))
