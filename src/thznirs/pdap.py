"""Power-delay-angular profiles.

A calibrated sweep becomes a channel impulse response through the inverse
DFT with the 1/N factor on the inverse (numpy's convention):

    h[k] = (1/N) sum_m H[m] exp(+j 2 pi m k / N)

No window, no zero padding.  Merging the per-direction CIR magnitudes in dB
gives the profile; entries below the noise threshold are replaced by the
-300 dB sentinel and excluded from every downstream power sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvalidThresholdError, ValidationError
from .fileio import atomic_write
from .scene import ScanGrid, grid_to_json

SENTINEL_DB = -300.0
DEFAULT_NOISE_THRESHOLD_DB = -160.0


@dataclass(frozen=True)
class Pdap:
    """Power cube over (elevation, azimuth, delay) in dB with noise sentinels."""

    power_db: np.ndarray  # (n_el, n_az, n_delay)
    noise_threshold_db: float
    grid: ScanGrid
    delay_step_s: float

    def __post_init__(self):
        p = np.array(self.power_db, dtype=float)
        if p.ndim != 3:
            raise ValidationError("pdap: power must be a 3-D array")
        if p.shape[0] != self.grid.n_elevation or p.shape[1] != self.grid.n_azimuth:
            raise ValidationError(
                f"pdap: power dimensions {p.shape[0]}x{p.shape[1]} must match the scan "
                f"grid's {self.grid.n_elevation} elevation x {self.grid.n_azimuth} azimuth"
            )
        if not np.all((p == SENTINEL_DB) | (p >= self.noise_threshold_db)):
            raise ValidationError(
                "pdap: every entry must be >= the noise threshold or the sentinel"
            )
        p.setflags(write=False)
        object.__setattr__(self, "power_db", p)

    @property
    def n_delay(self) -> int:
        return int(self.power_db.shape[2])

    def signal_mask(self) -> np.ndarray:
        """Boolean cube: True where the entry is signal, False where sentinel."""
        return self.power_db != SENTINEL_DB


def cir_array(sweeps: np.ndarray) -> np.ndarray:
    """Inverse DFT along the last axis; grids are uniform by construction."""
    return np.fft.ifft(np.asarray(sweeps, dtype=complex), axis=-1)


def _power_db(samples: np.ndarray) -> np.ndarray:
    mags = np.abs(samples)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mags)


def _threshold(power_db: np.ndarray, noise_threshold_db: float) -> np.ndarray:
    """``power_db`` with every entry below the threshold set to the sentinel."""
    if not (noise_threshold_db > SENTINEL_DB):
        raise InvalidThresholdError("noise threshold must exceed the -300 dB sentinel")
    return np.where(power_db < noise_threshold_db, SENTINEL_DB, power_db)


def pdap_from_sweeps(
    sweeps: np.ndarray,
    grid: ScanGrid,
    span_hz: float,
    noise_threshold_db: float = DEFAULT_NOISE_THRESHOLD_DB,
) -> Pdap:
    """Thresholded profile of a (n_el, n_az, n_freq) sweep array.

    The delay axis is labelled in steps of 1 / span_hz, the nominal time
    resolution of the sweep.  Entries below the threshold become the sentinel.
    """
    h = cir_array(sweeps)
    power = _power_db(h)
    return Pdap(
        power_db=_threshold(power, noise_threshold_db),
        noise_threshold_db=noise_threshold_db,
        grid=grid,
        delay_step_s=1.0 / span_hz,
    )


def eliminate_noise(pdap: Pdap, noise_threshold_db: float) -> Pdap:
    """Idempotent re-thresholding; the stored threshold only ever rises."""
    return replace(
        pdap,
        power_db=_threshold(pdap.power_db, noise_threshold_db),
        noise_threshold_db=max(pdap.noise_threshold_db, noise_threshold_db),
    )


def export_pdap_csv(pdap: Pdap, path) -> None:
    """CSV of surviving entries plus a ``.json`` sidecar beside it with the metadata.

    Sentinel rows are omitted.  Column order follows the cube layout:
    elevation, azimuth, delay.
    """
    path = Path(path)
    lines = ["el_deg,az_deg,delay_ns,power_db"]
    el = pdap.grid.elevation_deg
    az = pdap.grid.azimuth_deg
    for i in range(pdap.grid.n_elevation):
        for j in range(pdap.grid.n_azimuth):
            for k in range(pdap.n_delay):
                p = pdap.power_db[i, j, k]
                if p == SENTINEL_DB:
                    continue
                delay_ns = k * pdap.delay_step_s * 1e9
                lines.append(f"{el[i]:g},{az[j]:g},{delay_ns:.6g},{p:.6g}")
    atomic_write(path, "\n".join(lines) + "\n")
    meta = {
        "scan_grid": grid_to_json(pdap.grid),
        "noise_threshold_db": pdap.noise_threshold_db,
        "sentinel_db": SENTINEL_DB,
        "delay_step_s": pdap.delay_step_s,
        "n_delay": pdap.n_delay,
    }
    atomic_write(path.with_suffix(".json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")
