import math

import numpy as np
import pytest
import reflfit_oracle

import thznirs.reflfit as reflfit
from thznirs.errors import (
    DegenerateFitError,
    ModelDomainError,
    UnderdeterminedFitError,
    ValidationError,
)
from thznirs.pathloss import CiModel, ci_path_loss
from thznirs.reflfit import (
    FitResult,
    ReflLossModel,
    ReflSample,
    additional_reflection_loss,
    eval_refl_model,
    fit_refl_model,
    generate_samples,
    write_fit_table_csv,
)

TABLE_ROWS = {
    ("corridor", "306-321GHz"): ReflLossModel(17.51, 2.80, 0.48, 7.40),
    ("hallway", "306-321GHz"): ReflLossModel(15.79, 3.52, 0.59, 1.51),
    ("corridor", "356-371GHz"): ReflLossModel(18.34, 1.34, 0.60, 13.78),
    ("hallway", "356-371GHz"): ReflLossModel(15.58, 2.60, 0.67, 4.01),
}
EIGHT_ANGLES = [5.0 + 10.0 * k for k in range(8)]
TWENTY_FOUR_ANGLES = [3.0 + 3.0 * k for k in range(24)]
DENSE_ANGLES = np.arange(5.0, 75.01, 0.25)


# ---------------------------------------------------------------------------
# additional reflection loss
# ---------------------------------------------------------------------------
def test_zero_when_matching_reference():
    ci = CiModel(ple=1.35)
    pl = ci_path_loss(ci, 313.5e9, 10.0)
    assert additional_reflection_loss(pl, ci, 313.5e9, 4.0, 6.0) == pytest.approx(0.0, abs=1e-12)


def test_excess_over_reference():
    ci = CiModel(ple=1.35)
    got = additional_reflection_loss(110.0, ci, 313.5e9, 4.0, 6.0)
    assert got == pytest.approx(14.13, abs=0.005)


def test_domain_error_propagates():
    with pytest.raises(ModelDomainError):
        additional_reflection_loss(110.0, CiModel(ple=1.35), 313.5e9, 0.3, 0.3)


def test_recovers_panel_material_loss_against_free_space_reference():
    # one 5 dB panel, free-space exponent reference: the virtual-LoS excess
    # is the panel loss up to pattern-gain and leakage residue
    from thznirs.pathloss import directional_path_loss
    from thznirs.pdap import pdap_from_sweeps
    from thznirs.presets import PLAN_MINI_306
    from thznirs.scene import (
        AntennaPattern,
        LossTable,
        NirsPanel,
        Rectangle,
        Scene,
        nirs_angle_set,
        rx_link_geometry,
    )
    from thznirs.synthchan import synthesize_sweep

    panel = NirsPanel(
        rectangle=Rectangle.from_center([0, 0, 2.0], [0, 1, 0], [0, 0, 1], 2.0, 2.0),
        material_loss=LossTable.constant(5.0),
        subdivision=(1, 1),
    )
    d, ang = 4.0, math.radians(30.0)
    scene = Scene(
        walls=(), nirs_panels=(panel,),
        tx_position=np.array([d * math.cos(ang), -d * math.sin(ang), 2.0]),
        tx_boresight=np.array([-math.cos(ang), math.sin(ang), 0.0]),
        rx_positions=np.array([[d * math.cos(ang), d * math.sin(ang), 2.0]]),
        tx_pattern=AntennaPattern(0.0, 30.0),
        rx_pattern=AntennaPattern(0.0, 8.0),
        frequency_plan=PLAN_MINI_306,
    )
    bundle = synthesize_sweep(scene, 0, max_bounces=1)
    pdap = pdap_from_sweeps(bundle.sweeps, scene.scan_grid, PLAN_MINI_306.span_hz)
    pl_dir = directional_path_loss(pdap, nirs_angle_set(scene, 0))
    _phi, _spec, d1, d2 = rx_link_geometry(scene, 0)
    l_ref = additional_reflection_loss(pl_dir, CiModel(ple=2.0), PLAN_MINI_306.center_hz, d1, d2)
    assert l_ref == pytest.approx(5.0, abs=1.0)


def test_nirs_benefit_mean_l_ref():
    # with the panel present, mean additional reflection loss drops
    from thznirs.pathloss import directional_path_loss
    from thznirs.pdap import pdap_from_sweeps
    from thznirs.presets import PLAN_MINI_306, corridor_scene
    from thznirs.scene import nirs_angle_set, rx_link_geometry
    from thznirs.synthchan import synthesize_sweep

    ci = CiModel(ple=1.35)
    with_scene = corridor_scene(plan=PLAN_MINI_306)

    def l_refs(scene):
        out = []
        for k in range(scene.n_rx):
            bundle = synthesize_sweep(scene, k)
            pdap = pdap_from_sweeps(bundle.sweeps, scene.scan_grid, PLAN_MINI_306.span_hz)
            pl = directional_path_loss(pdap, nirs_angle_set(with_scene, k))
            _phi, _spec, d1, d2 = rx_link_geometry(with_scene, k)
            out.append(additional_reflection_loss(pl, ci, PLAN_MINI_306.center_hz, d1, d2))
        return np.array(out)

    lref_with = l_refs(with_scene)
    lref_without = l_refs(corridor_scene(nirs=False, plan=PLAN_MINI_306))
    assert np.mean(lref_with) < np.mean(lref_without)
    assert np.all(lref_with < lref_without)


# ---------------------------------------------------------------------------
# model evaluation
# ---------------------------------------------------------------------------
def test_eval_at_phi_bar_is_c():
    m = TABLE_ROWS[("corridor", "306-321GHz")]
    assert eval_refl_model(m, 17.51) == pytest.approx(7.40, abs=1e-12)
    m356 = TABLE_ROWS[("hallway", "356-371GHz")]
    assert eval_refl_model(m356, 15.58) == pytest.approx(4.01, abs=1e-12)


def test_eval_corridor_at_47_51():
    m = TABLE_ROWS[("corridor", "306-321GHz")]
    got = eval_refl_model(m, 47.51)
    assert got == pytest.approx(2.80 * 30.0**0.48 + 7.40, abs=1e-12)
    assert got == pytest.approx(21.73, abs=0.005)


def test_eval_domain():
    m = TABLE_ROWS[("corridor", "306-321GHz")]
    with pytest.raises(ModelDomainError):
        eval_refl_model(m, -1.0)
    with pytest.raises(ModelDomainError):
        eval_refl_model(m, 90.5)


def test_model_invariants():
    with pytest.raises(ValidationError):
        ReflLossModel(10.0, -0.1, 0.5, 1.0)
    with pytest.raises(ValidationError):
        ReflLossModel(10.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        ReflLossModel(10.0, 1.0, 0.5, -0.2)


def test_eval_minimized_at_phi_bar():
    m = ReflLossModel(20.0, 1.5, 0.7, 3.0)
    phis = np.linspace(0.0, 90.0, 901)
    vals = eval_refl_model(m, phis)
    assert np.min(vals) == pytest.approx(3.0, abs=1e-12)
    assert phis[int(np.argmin(vals))] == pytest.approx(20.0, abs=0.1)
    left = eval_refl_model(m, np.array([10.0, 5.0]))
    right = eval_refl_model(m, np.array([30.0, 35.0]))
    assert left[0] < left[1] and right[0] < right[1]


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------
def test_noiseless_recovery_corridor_row():
    gen = TABLE_ROWS[("corridor", "306-321GHz")]
    fit = fit_refl_model(generate_samples(gen, EIGHT_ANGLES))
    m = fit.model
    assert m.phi_bar_deg == pytest.approx(gen.phi_bar_deg, abs=1e-6)
    assert m.a == pytest.approx(gen.a, abs=1e-6)
    assert m.b == pytest.approx(gen.b, abs=1e-6)
    assert m.c == pytest.approx(gen.c, abs=1e-6)
    assert fit.rmse_db < 1e-9
    assert fit.b_identifiable


def test_flat_samples_give_zero_slope():
    samples = [
        ReflSample(rx_id=k, reflection_angle_deg=angle, additional_loss_db=7.4)
        for k, angle in enumerate(EIGHT_ANGLES)
    ]
    fit = fit_refl_model(samples)
    assert fit.model.a == 0.0
    assert fit.model.c == pytest.approx(7.4, abs=1e-12)
    assert not fit.b_identifiable
    assert fit.model.b == 0.05  # smallest grid value, flagged unidentifiable


def _fixed_loss_samples(losses):
    return [ReflSample(k, a, l) for k, (a, l) in enumerate(zip(EIGHT_ANGLES, losses))]


def _oracle_sets():
    """Noiseless table rows, seeded noisy sets and clamp-hitting sets."""
    sets = {}
    for (scenario, band), gen in TABLE_ROWS.items():
        for name, design in (("8", EIGHT_ANGLES), ("24", TWENTY_FOUR_ANGLES)):
            sets[f"{scenario}-{band}-{name}"] = generate_samples(gen, design)
    rows = list(TABLE_ROWS.values())
    designs = (("8", EIGHT_ANGLES), ("24", TWENTY_FOUR_ANGLES), ("dense", DENSE_ANGLES))
    for seed in range(200):
        name, design = designs[seed % 3]
        sets[f"noisy-{name}-seed{seed}"] = generate_samples(
            rows[seed % 4], design, noise_sigma_db=0.5, rng=np.random.default_rng(seed)
        )
    sets["flat"] = _fixed_loss_samples([7.4] * 8)
    sets["all-negative"] = _fixed_loss_samples([-1.0 - k for k in range(8)])
    sets["falling"] = _fixed_loss_samples([20.0 - 2.0 * k for k in range(8)])
    return sets


ORACLE_SETS = _oracle_sets()


@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_fit_equals_scalar_search_oracle(name):
    samples = ORACLE_SETS[name]
    assert fit_refl_model(samples) == reflfit_oracle.fit_refl_model(samples)


def test_fit_does_not_depend_on_block_size(monkeypatch):
    names = ["corridor-306-321GHz-8", "noisy-24-seed1", "noisy-dense-seed2", "falling"]
    for name in names:
        samples = ORACLE_SETS[name]
        default = fit_refl_model(samples)
        for block in (1, 1 << 62):  # one row per block; every row in one block
            monkeypatch.setattr(reflfit, "_BLOCK_ELEMS", block)
            assert fit_refl_model(samples) == default, (name, block)
        monkeypatch.undo()


def test_fit_errors():
    gen = TABLE_ROWS[("corridor", "306-321GHz")]
    with pytest.raises(UnderdeterminedFitError):
        fit_refl_model(generate_samples(gen, [5.0, 15.0, 25.0]))
    two_angles = [
        ReflSample(0, 10.0, 5.0), ReflSample(1, 10.0, 5.1),
        ReflSample(2, 20.0, 6.0), ReflSample(3, 20.0, 6.1),
    ]
    with pytest.raises(DegenerateFitError, match="distinct"):
        fit_refl_model(two_angles)
    identical = [ReflSample(k, 10.0, 5.0 + k) for k in range(5)]
    with pytest.raises(DegenerateFitError, match="identical"):
        fit_refl_model(identical)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -0.5, 90.5, 145.0])
def test_sample_angle_must_lie_in_domain(angle):
    with pytest.raises(ValidationError, match=r"\[0, 90\]"):
        ReflSample(rx_id=0, reflection_angle_deg=angle, additional_loss_db=1.0)


def test_fit_uses_only_with_nirs_samples():
    gen = TABLE_ROWS[("hallway", "306-321GHz")]
    clean = generate_samples(gen, EIGHT_ANGLES)
    noise = [
        ReflSample(rx_id=100 + k, reflection_angle_deg=a, additional_loss_db=40.0, with_nirs=False)
        for k, a in enumerate(EIGHT_ANGLES)
    ]
    assert fit_refl_model(clean + noise) == fit_refl_model(clean)
    with pytest.raises(UnderdeterminedFitError):
        fit_refl_model(noise)


def test_fit_is_permutation_invariant(rng):
    gen = TABLE_ROWS[("corridor", "356-371GHz")]
    samples = generate_samples(gen, EIGHT_ANGLES, noise_sigma_db=0.5, rng=rng)
    shuffled = list(samples)
    np.random.default_rng(7).shuffle(shuffled)
    assert fit_refl_model(samples) == fit_refl_model(shuffled)


def test_generated_noise_is_seed_deterministic():
    gen = TABLE_ROWS[("corridor", "306-321GHz")]
    a = generate_samples(gen, EIGHT_ANGLES, noise_sigma_db=0.5, rng=np.random.default_rng(3))
    b = generate_samples(gen, EIGHT_ANGLES, noise_sigma_db=0.5, rng=np.random.default_rng(3))
    assert a == b


@pytest.mark.parametrize("sigma", [-3.0, -1e-300, math.nan, math.inf])
def test_generate_rejects_bad_noise_sigma(sigma):
    gen = TABLE_ROWS[("corridor", "306-321GHz")]
    with pytest.raises(ValidationError, match="noise sigma must be finite and >= 0"):
        generate_samples(gen, EIGHT_ANGLES, noise_sigma_db=sigma, rng=np.random.default_rng(3))


def test_pairwise_sum_follows_numpy_summation_order():
    # The fitter's means must equal ndarray.mean bit for bit (its oracle uses
    # it); n = 1..300 covers the one-by-one, 8-sum and split branches.
    rng = np.random.default_rng(8)
    for n in range(1, 301):
        v = 10.0 ** rng.uniform(-8.0, 8.0, size=(16, n)) * rng.choice([-1.0, 1.0], size=(16, n))
        v[rng.random((16, n)) < 0.1] = -0.0
        v[0] = -0.0
        x = np.ascontiguousarray(v.T)
        out, work = np.empty(16), np.empty_like(x)
        got = reflfit._pairwise_sum(x, out, work).tobytes()
        assert got == v.sum(axis=-1).tobytes(), (
            f"n={n}: numpy's summation order changed; reflfit._pairwise_sum no longer "
            "matches ndarray.sum, and the fitter will drift from its oracle"
        )
        assert reflfit._mean(x, out, work).tobytes() == v.mean(axis=-1).tobytes(), n
        assert reflfit._mean(x, out, x).tobytes() == v.mean(axis=-1).tobytes(), n  # in place


def test_noisy_fit_on_dense_design_recovers():
    # one seed of the estimator-consistency setting: angles at 0.25 deg
    gen = TABLE_ROWS[("corridor", "306-321GHz")]
    angles = np.arange(5.0, 75.01, 0.25)
    samples = generate_samples(gen, angles, noise_sigma_db=0.5, rng=np.random.default_rng(1))
    m = fit_refl_model(samples).model
    assert abs(m.c - gen.c) <= 0.5
    assert abs(m.phi_bar_deg - gen.phi_bar_deg) <= 2.0
    assert abs(m.a - gen.a) <= 0.15 * gen.a
    assert abs(m.b - gen.b) <= 0.1


def test_write_fit_table_csv(tmp_path):
    fit = FitResult(
        model=ReflLossModel(17.51, 2.80, 0.48, 7.40),
        rmse_db=0.123456,
        b_identifiable=True,
        n_samples=8,
    )
    out = tmp_path / "table.csv"
    write_fit_table_csv([("corridor", "306-321GHz", fit)], out)
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,band,phi_bar_deg,a,b,c,rmse_db"
    assert lines[1] == "corridor,306-321GHz,17.51,2.8,0.48,7.4,0.123456"
