import re

import numpy as np
import pytest

from conftest import smooth_sweep
from thznirs.calibrate import SystemResponse, apply_system, calibrate
from thznirs.errors import ValidationError
from thznirs.scene import FrequencyPlan, FrequencySweep, frequency_grid


def _ones(plan):
    return FrequencySweep(plan, np.ones(plan.point_count, dtype=complex))


def test_identity_channel(small_plan, rng):
    extra = smooth_sweep(small_plan, rng)
    connect = smooth_sweep(small_plan, rng)
    sysr = SystemResponse(connect=connect, extra=extra)
    measured = FrequencySweep(small_plan, extra.samples * connect.samples)
    h = calibrate(measured, sysr)
    assert np.allclose(h.samples, 1.0 + 0.0j, rtol=0, atol=1e-12)


def test_scaled_delayed_channel(small_plan, rng):
    extra = smooth_sweep(small_plan, rng)
    connect = smooth_sweep(small_plan, rng)
    freqs = frequency_grid(small_plan)
    target = 2.0 * np.exp(-2j * np.pi * freqs * 1e-7)
    measured = FrequencySweep(small_plan, target * extra.samples * connect.samples)
    h = calibrate(measured, SystemResponse(connect=connect, extra=extra))
    assert np.allclose(h.samples, target, rtol=1e-12)


def test_roundtrip_identity(small_plan, rng):
    freqs = frequency_grid(small_plan)
    h_true = FrequencySweep(small_plan, np.exp(1j * 2 * np.pi * freqs * 40e-9) * 1.7)
    for _ in range(20):
        sysr = SystemResponse(connect=smooth_sweep(small_plan, rng), extra=smooth_sweep(small_plan, rng))
        recovered = calibrate(apply_system(h_true, sysr), sysr)
        rel = np.abs(recovered.samples - h_true.samples) / np.abs(h_true.samples)
        assert np.max(rel) < 1e-12


def test_homogeneity(small_plan, rng):
    sysr = SystemResponse(connect=smooth_sweep(small_plan, rng))
    measured = smooth_sweep(small_plan, rng)
    alpha = 0.3 - 1.8j
    scaled = FrequencySweep(small_plan, alpha * measured.samples)
    assert np.allclose(
        calibrate(scaled, sysr).samples,
        alpha * calibrate(measured, sysr).samples,
        rtol=1e-12,
    )


def test_apply_system_examples(small_plan):
    sysr = SystemResponse(connect=_ones(small_plan))
    assert np.all(apply_system(_ones(small_plan), sysr).samples == 1.0)
    sysr = SystemResponse(
        connect=FrequencySweep(small_plan, np.full(small_plan.point_count, 0.5 + 0j)),
        extra=FrequencySweep(small_plan, np.full(small_plan.point_count, 3.0 + 0j)),
    )
    assert np.allclose(apply_system(_ones(small_plan), sysr).samples, 1.5)


def test_extra_defaults_to_ones(small_plan, rng):
    connect = smooth_sweep(small_plan, rng)
    sysr = SystemResponse(connect=connect)
    measured = smooth_sweep(small_plan, rng)
    expected = measured.samples / connect.samples
    assert np.allclose(calibrate(measured, sysr).samples, expected, rtol=1e-14)


def test_grid_mismatch_rejected(small_plan, rng):
    other = FrequencyPlan(306e9, 306.5e9, 2.5e6)
    sysr = SystemResponse(connect=smooth_sweep(small_plan, rng))
    with pytest.raises(ValidationError, match="grids differ"):
        calibrate(smooth_sweep(other, rng), sysr)
    with pytest.raises(ValidationError, match="grids differ"):
        apply_system(smooth_sweep(other, rng), sysr)
    with pytest.raises(ValidationError, match="grids differ"):
        SystemResponse(connect=smooth_sweep(small_plan, rng), extra=smooth_sweep(other, rng))


def test_singular_calibration_names_frequency(small_plan, rng):
    samples = np.ones(small_plan.point_count, dtype=complex)
    bad = 37
    samples[bad] = 1e-13
    with pytest.raises(ValidationError, match="1e-12"):
        SystemResponse(connect=FrequencySweep(small_plan, samples))
    # a product that dips below the floor even though each factor is valid
    a = np.full(small_plan.point_count, 1e-5, dtype=complex)
    b = np.full(small_plan.point_count, 1e-5, dtype=complex)
    b[bad] = 1e-8
    sysr = SystemResponse(
        connect=FrequencySweep(small_plan, a), extra=FrequencySweep(small_plan, b)
    )
    freqs = frequency_grid(small_plan)
    with pytest.raises(ValidationError, match=re.escape(f"{freqs[bad]:.6e}")):
        calibrate(smooth_sweep(small_plan, rng), sysr)
