import math

import numpy as np
import pytest

from thznirs.coverage import (
    LinkBudget,
    coverage_curve,
    coverage_ratio,
    default_thresholds,
    interpolate_path_loss,
    snr_db,
    write_coverage_csv,
)
from thznirs.errors import ValidationError


# ---------------------------------------------------------------------------
# link budget / snr
# ---------------------------------------------------------------------------
def test_snr_at_default_budget():
    budget = LinkBudget()
    # kTB for 300 K and 15 GHz
    ktb_dbm = 10 * math.log10(1.381e-23 * 300.0 * 15e9 / 1e-3)
    assert budget.noise_floor_dbm() == pytest.approx(ktb_dbm, abs=1e-12)
    assert snr_db(budget, 100.0) == pytest.approx(25.07, abs=0.01)
    assert snr_db(budget, 125.07) == pytest.approx(0.0, abs=0.01)


def test_snr_affine_slope_minus_one():
    budget = LinkBudget()
    pls = np.array([90.0, 100.0, 111.5])
    vals = snr_db(budget, pls)
    assert np.allclose(np.diff(vals), -np.diff(pls), atol=1e-12)


def test_snr_bandwidth_doubling_costs_3_01_db():
    base = snr_db(LinkBudget(), 100.0)
    doubled = snr_db(LinkBudget(bandwidth_hz=30e9), 100.0)
    assert base - doubled == pytest.approx(10 * math.log10(2.0), abs=1e-12)


def test_budget_validation():
    with pytest.raises(ValidationError):
        LinkBudget(temperature_k=0.0)
    with pytest.raises(ValidationError):
        LinkBudget(bandwidth_hz=-1.0)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------
def test_midpoint_interpolation():
    cmap = interpolate_path_loss([0.0, 2.0], [100.0, 110.0], resolution_m=1.0)
    assert cmap.pl_at(1.0) == pytest.approx(105.0, abs=1e-12)
    assert cmap.pl_at(0.0) == 100.0  # anchors exact
    assert cmap.pl_at(2.0) == 110.0


def test_anchor_exactness_random(rng):
    positions = np.cumsum(rng.uniform(0.5, 2.0, size=8))
    pls = rng.uniform(90.0, 130.0, size=8)
    cmap = interpolate_path_loss(positions, pls, resolution_m=0.3)
    for s, pl in zip(cmap.anchor_arc_m, pls):
        assert cmap.pl_at(float(s)) == pl


def test_three_anchor_brute_force_oracle():
    positions = np.array([0.0, 1.0, 3.5])
    pls = np.array([100.0, 91.0, 118.0])
    cmap = interpolate_path_loss(positions, pls, resolution_m=0.01)
    for s in np.linspace(0.0, 3.5, 351):
        if s <= 1.0:
            expected = (1 - s / 1.0) * 100.0 + (s / 1.0) * 91.0
        else:
            t = (s - 1.0) / 2.5
            expected = (1 - t) * 91.0 + t * 118.0
        assert cmap.pl_at(float(s)) == pytest.approx(expected, abs=1e-12)


def test_samples_stay_within_anchor_range(rng):
    positions = np.cumsum(rng.uniform(0.5, 2.0, size=6))
    pls = rng.uniform(90.0, 130.0, size=6)
    cmap = interpolate_path_loss(positions, pls, resolution_m=0.2)
    for k in range(5):
        lo, hi = sorted((pls[k], pls[k + 1]))
        in_seg = (cmap.sample_arc_m >= cmap.anchor_arc_m[k]) & (
            cmap.sample_arc_m <= cmap.anchor_arc_m[k + 1]
        )
        seg = cmap.sample_pl_db[in_seg]
        assert np.all(seg >= lo - 1e-12) and np.all(seg <= hi + 1e-12)


def test_polyline_from_3d_positions():
    positions = np.array([[0.0, 0.0, 1.75], [3.0, 4.0, 1.75], [3.0, 10.0, 1.75]])
    cmap = interpolate_path_loss(positions, [100.0, 105.0, 110.0], resolution_m=0.5)
    assert cmap.anchor_arc_m[-1] == pytest.approx(5.0 + 6.0, abs=1e-12)


def test_duplicate_positions_rejected():
    with pytest.raises(ValidationError, match="duplicate positions"):
        interpolate_path_loss([0.0, 1.0, 1.0], [100.0, 101.0, 102.0])
    with pytest.raises(ValidationError):
        interpolate_path_loss([0.0], [100.0])


# ---------------------------------------------------------------------------
# coverage ratio
# ---------------------------------------------------------------------------
def test_ratio_saturates():
    budget = LinkBudget()
    cmap = interpolate_path_loss([0.0, 2.0], [100.0, 101.0], resolution_m=0.1)
    assert coverage_ratio(cmap, budget, -50.0) == 1.0
    assert coverage_ratio(cmap, budget, 80.0) == 0.0


def test_two_equal_segments_one_clears_gives_exactly_half():
    budget = LinkBudget()
    # SNR anchors 20 / 12 / 0 dB; with one cell per segment the midpoint
    # samples are 16 dB (clears 10 dB) and 6 dB (does not)
    pl = [125.07 - 20.0, 125.07 - 12.0, 125.07 - 0.0]
    cmap = interpolate_path_loss([0.0, 1.0, 2.0], pl, resolution_m=1.0)
    assert coverage_ratio(cmap, budget, 10.0) == 0.5


def test_curve_on_constant_snr_map():
    budget = LinkBudget()
    pl_for_5db = 125.07 - 5.0  # constant SNR just above 5 dB
    cmap = interpolate_path_loss([0.0, 1.0], [pl_for_5db, pl_for_5db], resolution_m=0.5)
    curve = coverage_curve(cmap, budget, [10.0, -10.0, 0.0])
    assert [t for t, _ in curve] == [-10.0, 0.0, 10.0]
    assert [r for _, r in curve] == [1.0, 1.0, 0.0]


def test_ratio_non_increasing_in_threshold(rng):
    budget = LinkBudget()
    for _ in range(10):
        n = int(rng.integers(2, 7))
        positions = np.cumsum(rng.uniform(0.5, 2.0, size=n))
        pls = rng.uniform(95.0, 135.0, size=n)
        cmap = interpolate_path_loss(positions, pls, resolution_m=0.1)
        ratios = [r for _, r in coverage_curve(cmap, budget, default_thresholds())]
        assert all(b <= a + 1e-15 for a, b in zip(ratios, ratios[1:]))


def test_ratio_non_decreasing_in_tx_power():
    cmap = interpolate_path_loss([0.0, 3.0], [110.0, 130.0], resolution_m=0.1)
    weak = coverage_ratio(cmap, LinkBudget(p_t_dbm=10.0), 10.0)
    strong = coverage_ratio(cmap, LinkBudget(p_t_dbm=16.0), 10.0)
    assert strong >= weak


def test_default_thresholds_span():
    ths = default_thresholds()
    assert ths[0] == -10.0 and ths[-1] == 30.0 and len(ths) == 41


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------
def test_write_coverage_csv(tmp_path):
    out = tmp_path / "cov.csv"
    write_coverage_csv(out, [-10.0, 0.0], [1.0, 0.75], [0.5, 0.25])
    assert out.read_bytes() == (
        b"threshold_db,ratio_with_nirs,ratio_without_nirs\n-10,1,0.5\n0,0.75,0.25\n")
    write_coverage_csv(out, [0.0], [0.125])
    assert out.read_bytes() == b"threshold_db,ratio_with_nirs\n0,0.125\n"
