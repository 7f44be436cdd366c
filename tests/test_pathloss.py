import math

import numpy as np
import pytest
from conftest import los_scene

from thznirs.errors import NoSignalError, ValidationError
from thznirs.pathloss import (
    CiModel,
    RxPathLossRow,
    ci_path_loss,
    directional_path_loss,
    omni_path_loss,
    write_pathloss_csv,
)
from thznirs.pdap import SENTINEL_DB, Pdap, pdap_from_sweeps
from thznirs.scene import (
    SPEED_OF_LIGHT,
    AntennaPattern,
    LossTable,
    NirsPanel,
    Rectangle,
    ScanGrid,
    Scene,
    nirs_angle_set,
)
from thznirs.synthchan import synthesize_sweep


def _pdap(powers, threshold=-299.9):
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


def _random_pdap(rng, shape=(3, 6, 25), sentinel_fraction=0.3):
    powers = rng.uniform(-200.0, -80.0, size=shape)
    mask = rng.random(shape) < sentinel_fraction
    powers[mask] = SENTINEL_DB
    if np.all(mask):
        powers[0, 0, 0] = -100.0
    return _pdap(powers)


# ---------------------------------------------------------------------------
# directional / omni
# ---------------------------------------------------------------------------
def test_single_entry_path_loss():
    powers = np.full((1, 1, 8), SENTINEL_DB)
    powers[0, 0, 3] = -100.0
    assert directional_path_loss(_pdap(powers), {(0, 0)}) == pytest.approx(100.0, abs=1e-12)
    assert omni_path_loss(_pdap(powers)) == pytest.approx(100.0, abs=1e-12)


def test_two_entry_path_loss_is_96_99():
    powers = np.full((1, 2, 4), SENTINEL_DB)
    powers[0, 0, 0] = -100.0
    powers[0, 1, 2] = -100.0
    got = directional_path_loss(_pdap(powers), {(0, 0), (0, 1)})
    assert got == pytest.approx(-10.0 * math.log10(2e-10), abs=1e-12)
    assert round(got, 2) == 96.99


def test_empty_and_out_of_range_angle_sets():
    pdap = _pdap(np.full((2, 2, 4), -100.0))
    with pytest.raises(ValidationError, match="empty"):
        directional_path_loss(pdap, set())
    with pytest.raises(ValidationError, match="outside"):
        directional_path_loss(pdap, {(5, 0)})


def test_all_sentinel_is_no_signal_not_a_number():
    powers = np.full((2, 2, 4), SENTINEL_DB)
    powers[1, 1, 0] = -90.0
    pdap = _pdap(powers)
    with pytest.raises(NoSignalError):
        directional_path_loss(pdap, {(0, 0), (0, 1)})
    assert directional_path_loss(pdap, {(1, 1)}) == pytest.approx(90.0)


def test_subset_property(rng):
    grid_pairs = [(i, j) for i in range(3) for j in range(6)]
    for _ in range(50):
        pdap = _random_pdap(rng)
        k_small = int(rng.integers(1, len(grid_pairs)))
        small_idx = rng.choice(len(grid_pairs), size=k_small, replace=False)
        small = {grid_pairs[i] for i in small_idx}
        extra_idx = rng.choice(len(grid_pairs), size=min(len(grid_pairs), k_small + 3), replace=False)
        big = small | {grid_pairs[i] for i in extra_idx}
        try:
            pl_small = directional_path_loss(pdap, small)
        except NoSignalError:
            continue
        pl_big = directional_path_loss(pdap, big)
        pl_omni = omni_path_loss(pdap)
        assert pl_small >= pl_big - 1e-12
        assert pl_big >= pl_omni - 1e-12


def test_adding_entry_strictly_decreases_loss():
    powers = np.full((1, 2, 4), SENTINEL_DB)
    powers[0, 0, 0] = -100.0
    before = omni_path_loss(_pdap(powers))
    powers[0, 1, 1] = -130.0
    after = omni_path_loss(_pdap(powers))
    assert after < before


# ---------------------------------------------------------------------------
# CI model
# ---------------------------------------------------------------------------
def test_ci_anchor_at_one_meter():
    model = CiModel(ple=1.35)
    got = ci_path_loss(model, 313.5e9, 1.0)
    expected = 20.0 * math.log10(4.0 * math.pi * 313.5e9 / SPEED_OF_LIGHT)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(82.37, abs=0.01)


def test_ci_free_space_exponent():
    got = ci_path_loss(CiModel(ple=2.0), 313.5e9, 10.0)
    anchor = ci_path_loss(CiModel(ple=2.0), 313.5e9, 1.0)
    assert got - anchor == pytest.approx(20.0, abs=1e-12)


def test_ci_corridor_ple():
    got = ci_path_loss(CiModel(ple=1.35), 313.5e9, 10.0)
    assert got == pytest.approx(95.87, abs=0.01)


def test_ci_monotone_in_distance_and_frequency():
    model = CiModel(ple=1.39)
    assert ci_path_loss(model, 313.5e9, 5.0) < ci_path_loss(model, 313.5e9, 5.1)
    assert ci_path_loss(model, 313.5e9, 5.0) < ci_path_loss(model, 363.5e9, 5.0)


def test_ci_domain_and_invariants():
    with pytest.raises(ValidationError, match="below the 1.0 m reference"):
        ci_path_loss(CiModel(ple=2.0), 313.5e9, 0.5)
    for ple in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="exponent must be finite and positive"):
            CiModel(ple=ple)


# ---------------------------------------------------------------------------
# synthetic closed-form budgets
# ---------------------------------------------------------------------------
def test_omni_matches_friis_for_los_scene(small_plan):
    plan = small_plan
    scene = los_scene(10.0, plan=plan)
    bundle = synthesize_sweep(scene, 0, max_bounces=0)
    pdap = pdap_from_sweeps(bundle.sweeps, scene.scan_grid, plan.span_hz)
    pl = omni_path_loss(pdap)
    friis = 20.0 * math.log10(4.0 * math.pi * plan.center_hz * 10.0 / SPEED_OF_LIGHT)
    assert pl == pytest.approx(friis, abs=0.5)


def test_directional_matches_reflected_budget(small_plan):
    # one panel, no walls: the only path in the panel window is the bounce
    plan = small_plan
    panel = NirsPanel(
        rectangle=Rectangle.from_center([0, 0, 2.0], [0, 1, 0], [0, 0, 1], 2.0, 2.0),
        material_loss=LossTable.constant(5.0),
        subdivision=(1, 1),
    )
    d = 4.0
    a = math.radians(30.0)
    scene = Scene(
        walls=(), nirs_panels=(panel,),
        tx_position=np.array([d * math.cos(a), -d * math.sin(a), 2.0]),
        tx_boresight=np.array([-math.cos(a), math.sin(a), 0.0]),
        rx_positions=np.array([[d * math.cos(a), d * math.sin(a), 2.0]]),
        tx_pattern=AntennaPattern(0.0, 30.0),
        rx_pattern=AntennaPattern(0.0, 8.0),
        frequency_plan=plan,
    )
    bundle = synthesize_sweep(scene, 0, max_bounces=1)
    pdap = pdap_from_sweeps(bundle.sweeps, scene.scan_grid, plan.span_hz)
    window = nirs_angle_set(scene, 0)
    pl = directional_path_loss(pdap, window)
    budget = (
        20.0 * math.log10(4.0 * math.pi * plan.center_hz * 2.0 * d / SPEED_OF_LIGHT) + 5.0
    )
    assert pl == pytest.approx(budget, abs=0.5)


# ---------------------------------------------------------------------------
# batch CSV
# ---------------------------------------------------------------------------
def test_write_pathloss_csv(tmp_path):
    rows = [
        RxPathLossRow(1, 101.25, 100.5, 45.0382, 9.00144, 1.59444, 7.5),
        RxPathLossRow(0, 99.123456, 98.7654321, 44.0, 8.5, 1.25, -0.1234567),
    ]
    out = tmp_path / "batch.csv"
    write_pathloss_csv(rows, out)
    assert out.read_bytes() == (
        b"rx_id,pl_dir_db,pl_omni_db,reflection_angle_deg,d1_m,d2_m,l_ref_db\n"
        b"0,99.1235,98.7654,44,8.5,1.25,-0.123457\n"
        b"1,101.25,100.5,45.0382,9.00144,1.59444,7.5\n"
    )
