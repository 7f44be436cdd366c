"""System-response calibration: plain elementwise division, and its inverse.

The measured S21 of a sounder contains cable/amplifier effects captured by a
through-connection reference and a setup-difference factor.  Dividing them
out recovers the channel transfer function; multiplying them back in builds
raw-measurement fixtures for round-trip tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, SingularCalibrationError, ValidationError
from .scene import FrequencyPlan, FrequencySweep, frequency_grid

_MAG_FLOOR = 1e-12


def _above_floor(samples: np.ndarray, plan: FrequencyPlan, error: type[Exception], what: str):
    """``samples``; ``error`` naming the first frequency where |samples| < 1e-12."""
    low = np.abs(samples) < _MAG_FLOOR
    if np.any(low):
        k = int(np.argmax(low))
        raise error(f"{what} below 1e-12 at {frequency_grid(plan)[k]:.6e} Hz")
    return samples


@dataclass(frozen=True)
class SystemResponse:
    """Through-connection reference plus optional setup-difference factor.

    ``extra`` defaults to all-ones when the measurement and the reference
    share the same setup (the usual case for synthetic data).
    """

    connect: FrequencySweep
    extra: FrequencySweep | None = None

    def __post_init__(self):
        if self.extra is not None and self.extra.plan != self.connect.plan:
            raise GridMismatchError("system response: connect and extra grids differ")
        for name, sweep in (("connect", self.connect), ("extra", self.extra)):
            if sweep is not None:
                _above_floor(sweep.samples, sweep.plan, ValidationError, f"system response: |{name}|")

    def extra_samples(self) -> np.ndarray:
        if self.extra is None:
            return np.ones(self.connect.plan.point_count, dtype=complex)
        return self.extra.samples

    def divisor(self, plan: FrequencyPlan) -> np.ndarray:
        """extra[k] * connect[k]: what a measurement on ``plan`` is divided by.

        Raises GridMismatchError unless ``plan`` is the system response's
        grid, and SingularCalibrationError, naming the frequency, where the
        product's magnitude is below 1e-12.
        """
        if plan != self.connect.plan:
            raise GridMismatchError("calibrate: measurement and system response grids differ")
        return _above_floor(
            self.extra_samples() * self.connect.samples, plan, SingularCalibrationError,
            "calibration singular: |extra*connect|",
        )


def calibrate(measured: FrequencySweep, sys: SystemResponse) -> FrequencySweep:
    """H[k] = measured[k] / (extra[k] * connect[k])."""
    return FrequencySweep(
        plan=measured.plan, samples=measured.samples / sys.divisor(measured.plan)
    )


def apply_system(channel: FrequencySweep, sys: SystemResponse) -> FrequencySweep:
    """Inverse of calibrate: measured[k] = channel[k] * extra[k] * connect[k]."""
    if channel.plan != sys.connect.plan:
        raise GridMismatchError("apply_system: channel and system response grids differ")
    return FrequencySweep(
        plan=channel.plan,
        samples=channel.samples * sys.extra_samples() * sys.connect.samples,
    )
