import json

import numpy as np
import pytest

from conftest import los_scene, single_direction_grid, smooth_sweep
from thznirs.errors import ValidationError
from thznirs.pdap import (
    SENTINEL_DB,
    Pdap,
    cir_array,
    eliminate_noise,
    export_pdap_csv,
    pdap_from_sweeps,
)
from thznirs.scene import SPEED_OF_LIGHT, FrequencySweep, ScanGrid
from thznirs.synthchan import synthesize_sweep


def _flat_cir_sweeps(mag, n=64):
    """One direction's sweep whose CIR has magnitude ``mag`` at every delay."""
    return np.fft.fft(np.full(n, mag, dtype=complex))[None, None, :]


def _pdap_from_powers(powers, threshold=-299.9):
    powers = np.asarray(powers, dtype=float)
    return Pdap(
        power_db=powers,
        noise_threshold_db=threshold,
        grid=ScanGrid(
            azimuth_deg=tuple(10.0 * j for j in range(powers.shape[1])),
            elevation_deg=tuple(10.0 * i for i in range(powers.shape[0])),
        ),
        delay_step_s=1e-9,
    )


# ---------------------------------------------------------------------------
# inverse transform
# ---------------------------------------------------------------------------
def test_flat_spectrum_is_delta_at_zero(small_plan):
    sweep = FrequencySweep(small_plan, np.ones(small_plan.point_count, dtype=complex))
    cir = cir_array(sweep.samples)
    assert abs(cir[0] - 1.0) < 1e-12
    assert np.max(np.abs(cir[1:])) < 1e-12


def test_phase_ramp_is_shifted_delta(small_plan):
    n = small_plan.point_count
    k0 = 17
    sweep = FrequencySweep(small_plan, np.exp(-2j * np.pi * np.arange(n) * k0 / n))
    cir = cir_array(sweep.samples)
    assert abs(abs(cir[k0]) - 1.0) < 1e-12
    rest = np.delete(np.abs(cir), k0)
    assert np.max(rest) < 1e-12


def _delay_step(plan):
    sweeps = np.ones((1, 1, plan.point_count), dtype=complex)
    return pdap_from_sweeps(sweeps, single_direction_grid(), plan.span_hz).delay_step_s


def test_delay_step_is_inverse_span(paper_plan, small_plan):
    assert _delay_step(paper_plan) == pytest.approx(1.0 / 15e9, rel=1e-12)
    assert _delay_step(paper_plan) * 1e12 == pytest.approx(66.7, abs=0.05)
    assert _delay_step(small_plan) == pytest.approx(1.0 / 0.25e9, rel=1e-12)


def test_parseval(small_plan, rng):
    for _ in range(10):
        sweep = smooth_sweep(small_plan, rng)
        lhs = float(np.sum(np.abs(cir_array(sweep.samples)) ** 2))
        rhs = float(np.sum(np.abs(sweep.samples) ** 2)) / small_plan.point_count
        assert abs(lhs - rhs) / rhs < 1e-10


def test_single_path_peak_bin_1500(paper_plan):
    # path delay aligned to delay bin 1500 of the 66.7 ps axis
    n_times_step = paper_plan.point_count * paper_plan.f_step_hz
    distance = SPEED_OF_LIGHT * 1500.0 / n_times_step
    scene = los_scene(distance, plan=paper_plan)
    bundle = synthesize_sweep(scene, 0, max_bounces=0)
    pdap = pdap_from_sweeps(bundle.sweeps, scene.scan_grid, paper_plan.span_hz)
    peak = np.unravel_index(np.argmax(pdap.power_db), pdap.power_db.shape)
    assert peak[2] == 1500


# ---------------------------------------------------------------------------
# assembly and thresholding
# ---------------------------------------------------------------------------
def test_assemble_keeps_levels_above_threshold():
    pdap = pdap_from_sweeps(_flat_cir_sweeps(1e-5), single_direction_grid(), 1e9, -160.0)
    assert np.allclose(pdap.power_db, -100.0)
    assert np.all(pdap.signal_mask())


def test_assemble_eliminates_below_threshold():
    pdap = pdap_from_sweeps(_flat_cir_sweeps(1e-9), single_direction_grid(), 1e9, -160.0)
    assert np.all(pdap.power_db == SENTINEL_DB)


def test_assemble_validates_shapes():
    grid = ScanGrid(azimuth_deg=(0.0, 10.0), elevation_deg=(0.0,))
    with pytest.raises(ValidationError, match="azimuth"):
        pdap_from_sweeps(_flat_cir_sweeps(1e-5), grid, 1e9, -160.0)


def test_eliminate_matches_brute_force(rng):
    powers = rng.uniform(-220.0, -80.0, size=(3, 5, 40))
    pdap = _pdap_from_powers(powers)
    out = eliminate_noise(pdap, -160.0)
    expected = np.where(powers < -160.0, SENTINEL_DB, powers)
    assert np.array_equal(out.power_db, expected)


def test_signal_mask_at_an_index_is_the_cube_masks_entries_there(rng):
    pdap = eliminate_noise(_pdap_from_powers(rng.uniform(-220.0, -80.0, size=(3, 5, 40))), -160.0)
    pairs = (np.array([0, 0, 2, 2]), np.array([1, 4, 0, 3]))  # (el, az) rows, as path loss reads them
    for where in (pairs, (1,), (slice(None), 2), ...):
        assert np.array_equal(pdap.signal_mask(where), pdap.signal_mask()[where])
    assert pdap.signal_mask().shape == (3, 5, 40)


def test_eliminate_idempotent(rng):
    powers = rng.uniform(-220.0, -80.0, size=(2, 4, 30))
    once = eliminate_noise(_pdap_from_powers(powers), -160.0)
    twice = eliminate_noise(once, -160.0)
    assert np.array_equal(once.power_db, twice.power_db)
    assert once.noise_threshold_db == twice.noise_threshold_db


def test_eliminate_monotone_composition(rng):
    powers = rng.uniform(-220.0, -80.0, size=(2, 4, 30))
    stepped = eliminate_noise(eliminate_noise(_pdap_from_powers(powers), -160.0), -150.0)
    direct = eliminate_noise(_pdap_from_powers(powers), -150.0)
    assert np.array_equal(stepped.power_db, direct.power_db)
    assert stepped.noise_threshold_db == -150.0


def test_eliminate_never_raises_total_power_and_preserves_at_floor(rng):
    powers = rng.uniform(-250.0, -80.0, size=(2, 3, 20))
    pdap = _pdap_from_powers(powers)
    total = np.sum(10.0 ** (powers / 10.0))
    kept = eliminate_noise(pdap, -299.0)
    kept_total = np.sum(10.0 ** (kept.power_db[kept.signal_mask()] / 10.0))
    assert kept_total == total  # nothing eliminated at the floor
    cut = eliminate_noise(pdap, -160.0)
    cut_total = np.sum(10.0 ** (cut.power_db[cut.signal_mask()] / 10.0))
    assert cut_total <= total


def test_threshold_domain():
    pdap = _pdap_from_powers(np.full((1, 1, 4), -100.0))
    with pytest.raises(ValidationError, match="-300 dB sentinel"):
        eliminate_noise(pdap, -300.0)
    with pytest.raises(ValidationError, match="-300 dB sentinel"):
        pdap_from_sweeps(_flat_cir_sweeps(1e-5), single_direction_grid(), 1e9, -301.0)


def test_pdap_invariant_enforced():
    with pytest.raises(ValidationError, match="sentinel"):
        Pdap(
            power_db=np.full((1, 1, 4), -200.0),
            noise_threshold_db=-160.0,
            grid=single_direction_grid(),
            delay_step_s=1e-9,
        )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------
def test_export_omits_sentinels(tmp_path):
    powers = np.full((2, 2, 4), SENTINEL_DB)
    powers[0, 0, 1] = -100.0
    powers[0, 1, 3] = -120.0
    powers[1, 0, 2] = -99.1234567
    pdap = Pdap(
        power_db=powers,
        noise_threshold_db=-160.0,
        grid=ScanGrid(azimuth_deg=(0.0, 10.0), elevation_deg=(0.0, 10.0)),
        delay_step_s=1e-9,
    )
    out = tmp_path / "pdap.csv"
    export_pdap_csv(pdap, out)
    assert out.read_bytes() == (
        b"el_deg,az_deg,delay_ns,power_db\n0,0,1,-100\n0,10,3,-120\n10,0,2,-99.1235\n")
    meta = json.loads((tmp_path / "pdap.json").read_text())
    assert meta["noise_threshold_db"] == -160.0
    assert meta["sentinel_db"] == SENTINEL_DB
    assert meta["delay_step_s"] == 1e-9
