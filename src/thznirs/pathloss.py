"""Directional and omnidirectional path loss, and the close-in reference model.

Path losses are minus the dB of a linear power sum over profile entries.
Sentinel entries never enter the sum.  Antenna gains are not deducted here:
the profile carries whatever gains the synthesis or measurement embedded,
and the link budget applies its own gains explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ModelDomainError, NoSignalError, ValidationError
from .fileio import atomic_write
from .pdap import Pdap
from .scene import SPEED_OF_LIGHT


@dataclass(frozen=True)
class CiModel:
    """Close-in free-space reference-distance path-loss model.

    PL(f, d) = 20 log10(4 pi d0 f / c) + 10 n log10(d / d0), d0 = 1 m.
    At d = d0 the model equals free-space path loss at 1 m by construction.
    """

    ple: float
    reference_distance_m: float = 1.0
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if not (self.ple > 0):
            raise ValidationError("ci model: path-loss exponent must be positive")
        if not (self.reference_distance_m > 0):
            raise ValidationError("ci model: reference distance must be positive")


def ci_path_loss(model: CiModel, f_hz: float, d_m: float) -> float:
    """Evaluate the CI model; distances below the reference are out of domain."""
    if d_m < model.reference_distance_m:
        raise ModelDomainError(
            f"ci model: distance {d_m} m below the {model.reference_distance_m} m reference"
        )
    fspl_ref = 20.0 * math.log10(4.0 * math.pi * model.reference_distance_m * f_hz / model.c)
    return fspl_ref + 10.0 * model.ple * math.log10(d_m / model.reference_distance_m)


def _linear_power_sum(pdap: Pdap, el_idx: np.ndarray, az_idx: np.ndarray) -> float:
    block = pdap.power_db[el_idx, az_idx, :]
    mask = block != pdap.sentinel_db
    if not np.any(mask):
        raise NoSignalError("path loss: every selected entry is noise")
    return float(np.sum(10.0 ** (block[mask] / 10.0)))


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
    el = np.array([i for i, _ in pairs])
    az = np.array([j for _, j in pairs])
    return -10.0 * math.log10(_linear_power_sum(pdap, el, az))


def omni_path_loss(pdap: Pdap) -> float:
    """Directional path loss with the full scan grid as the angle set."""
    el, az = np.meshgrid(
        np.arange(pdap.grid.n_elevation), np.arange(pdap.grid.n_azimuth), indexing="ij"
    )
    return -10.0 * math.log10(_linear_power_sum(pdap, el.ravel(), az.ravel()))


@dataclass(frozen=True)
class RxPathLossRow:
    """One receiver's results for the batch CSV."""

    rx_id: int
    pl_dir_db: float
    pl_omni_db: float
    reflection_angle_deg: float
    d1_m: float
    d2_m: float


def write_pathloss_csv(rows: Iterable[RxPathLossRow], path) -> None:
    lines = ["rx_id,pl_dir_db,pl_omni_db,reflection_angle_deg,d1_m,d2_m"]
    for r in sorted(rows, key=lambda r: r.rx_id):
        lines.append(
            f"{r.rx_id},{r.pl_dir_db:.6g},{r.pl_omni_db:.6g},"
            f"{r.reflection_angle_deg:.6g},{r.d1_m:.6g},{r.d2_m:.6g}"
        )
    atomic_write(path, "\n".join(lines) + "\n")
