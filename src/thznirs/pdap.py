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
from .scene import FrequencySweep, ScanGrid

SENTINEL_DB = -300.0
DEFAULT_NOISE_THRESHOLD_DB = -160.0


@dataclass(frozen=True)
class Cir:
    """Channel impulse response samples with the delay-axis label step.

    ``delay_step_s`` is 1 / (f_stop - f_start): the nominal time resolution
    of the sweep, used to label delay bins.
    """

    samples: np.ndarray
    delay_step_s: float

    def __post_init__(self):
        s = np.array(self.samples, dtype=complex)
        if s.ndim != 1:
            raise ValidationError("cir: samples must be a 1-D complex array")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)
        if not (self.delay_step_s > 0):
            raise ValidationError("cir: delay step must be positive")


@dataclass(frozen=True)
class Pdap:
    """Power cube over (elevation, azimuth, delay) in dB with noise sentinels."""

    power_db: np.ndarray  # (n_el, n_az, n_delay)
    noise_threshold_db: float
    grid: ScanGrid
    delay_step_s: float
    sentinel_db: float = SENTINEL_DB

    def __post_init__(self):
        p = np.array(self.power_db, dtype=float)
        if p.ndim != 3:
            raise ValidationError("pdap: power must be a 3-D array")
        if p.shape[0] != self.grid.n_elevation or p.shape[1] != self.grid.n_azimuth:
            raise ValidationError("pdap: power dimensions must match the scan grid")
        if self.sentinel_db != SENTINEL_DB:
            raise ValidationError("pdap: sentinel is fixed at -300 dB")
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
        return self.power_db != self.sentinel_db


def to_cir(sweep: FrequencySweep) -> Cir:
    """Inverse DFT of one sweep; grids are uniform by construction."""
    return Cir(
        samples=np.fft.ifft(sweep.samples),
        delay_step_s=1.0 / sweep.plan.span_hz,
    )


def cir_array(sweeps: np.ndarray) -> np.ndarray:
    """Batch inverse DFT along the last axis; same convention as to_cir."""
    return np.fft.ifft(np.asarray(sweeps, dtype=complex), axis=-1)


def _power_db(samples: np.ndarray) -> np.ndarray:
    mags = np.abs(samples)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mags)


def assemble_pdap(
    cirs,
    grid: ScanGrid,
    noise_threshold_db: float = DEFAULT_NOISE_THRESHOLD_DB,
) -> Pdap:
    """Merge per-direction CIRs into a thresholded profile.

    ``cirs`` is a nested (n_el x n_az) sequence of Cir objects sharing one
    length and delay step.  Entries below the threshold become the sentinel.
    """
    if noise_threshold_db <= SENTINEL_DB:
        raise InvalidThresholdError("noise threshold must exceed the -300 dB sentinel")
    rows = list(cirs)
    if len(rows) != grid.n_elevation:
        raise ValidationError("assemble_pdap: elevation count mismatch")
    first: Cir | None = None
    cube = []
    for row in rows:
        row = list(row)
        if len(row) != grid.n_azimuth:
            raise ValidationError("assemble_pdap: azimuth count mismatch")
        for c in row:
            if first is None:
                first = c
            else:
                if c.samples.shape != first.samples.shape:
                    raise ValidationError("assemble_pdap: CIR length mismatch")
                if abs(c.delay_step_s - first.delay_step_s) > 1e-12 * first.delay_step_s:
                    raise ValidationError("assemble_pdap: CIR delay step mismatch")
        cube.append([c.samples for c in row])
    power = _power_db(np.asarray(cube))
    power = np.where(power < noise_threshold_db, SENTINEL_DB, power)
    return Pdap(
        power_db=power,
        noise_threshold_db=noise_threshold_db,
        grid=grid,
        delay_step_s=first.delay_step_s,
    )


def pdap_from_sweeps(
    sweeps: np.ndarray,
    grid: ScanGrid,
    span_hz: float,
    noise_threshold_db: float = DEFAULT_NOISE_THRESHOLD_DB,
) -> Pdap:
    """Vectorized assemble for a (n_el, n_az, n_freq) sweep array."""
    if noise_threshold_db <= SENTINEL_DB:
        raise InvalidThresholdError("noise threshold must exceed the -300 dB sentinel")
    h = cir_array(sweeps)
    power = _power_db(h)
    power = np.where(power < noise_threshold_db, SENTINEL_DB, power)
    return Pdap(
        power_db=power,
        noise_threshold_db=noise_threshold_db,
        grid=grid,
        delay_step_s=1.0 / span_hz,
    )


def eliminate_noise(pdap: Pdap, noise_threshold_db: float) -> Pdap:
    """Idempotent re-thresholding; the stored threshold only ever rises."""
    if noise_threshold_db <= SENTINEL_DB:
        raise InvalidThresholdError("noise threshold must exceed the -300 dB sentinel")
    power = np.where(pdap.power_db < noise_threshold_db, SENTINEL_DB, pdap.power_db)
    return replace(
        pdap,
        power_db=power,
        noise_threshold_db=max(pdap.noise_threshold_db, noise_threshold_db),
    )


def export_pdap_csv(pdap: Pdap, path, sidecar_path=None) -> None:
    """CSV of surviving entries plus a JSON sidecar with the metadata.

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
                if p == pdap.sentinel_db:
                    continue
                delay_ns = k * pdap.delay_step_s * 1e9
                lines.append(f"{el[i]:g},{az[j]:g},{delay_ns:.6g},{p:.6g}")
    atomic_write(path, "\n".join(lines) + "\n")
    sidecar = Path(sidecar_path) if sidecar_path else path.with_suffix(".json")
    meta = {
        "scan_grid": {
            "azimuth_deg": list(pdap.grid.azimuth_deg),
            "elevation_deg": list(pdap.grid.elevation_deg),
        },
        "noise_threshold_db": pdap.noise_threshold_db,
        "sentinel_db": pdap.sentinel_db,
        "delay_step_s": pdap.delay_step_s,
        "n_delay": pdap.n_delay,
    }
    atomic_write(sidecar, json.dumps(meta, indent=2, sort_keys=True) + "\n")
