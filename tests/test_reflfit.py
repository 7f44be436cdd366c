import math

import numpy as np
import pytest
import reflfit_oracle
from conftest import shipped_scene

import thznirs.reflfit as reflfit
from thznirs.errors import ValidationError
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
    with pytest.raises(ValidationError, match="below the 1.0 m reference"):
        additional_reflection_loss(110.0, CiModel(ple=1.35), 313.5e9, 0.3, 0.3)


def test_recovers_panel_material_loss_against_free_space_reference(small_plan):
    # one 5 dB panel, free-space exponent reference: the virtual-LoS excess
    # is the panel loss up to pattern-gain and leakage residue
    from thznirs.pathloss import rx_path_loss
    from thznirs.scene import AntennaPattern, LossTable, NirsPanel, Rectangle, Scene
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
        frequency_plan=small_plan,
    )
    sweeps = synthesize_sweep(scene, 0, max_bounces=1).sweeps
    row = rx_path_loss(scene, 0, sweeps, None, CiModel(ple=2.0))
    assert row.l_ref_db == pytest.approx(5.0, abs=1.0)


def test_nirs_benefit_mean_l_ref():
    # with the panel present, mean additional reflection loss drops
    from thznirs.pathloss import rx_path_loss
    from thznirs.synthchan import synthesize_sweep

    ci = CiModel(ple=1.35)
    with_scene = shipped_scene("corridor_mini.json")

    def l_refs(scene):
        # the with-panel scene defines the angle set and geometry for both
        return np.array([
            rx_path_loss(with_scene, k, synthesize_sweep(scene, k).sweeps, None, ci).l_ref_db
            for k in range(scene.n_rx)
        ])

    lref_with = l_refs(with_scene)
    lref_without = l_refs(shipped_scene("corridor_mini_no_nirs.json"))
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
    with pytest.raises(ValidationError, match=r"\[0, 90\]"):
        eval_refl_model(m, -1.0)
    with pytest.raises(ValidationError, match=r"\[0, 90\]"):
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


B_EDGE_SEEDS = (3, 5, 8, 32, 42, 44)


def _b_edge_samples(seed):
    """Seeded groups whose fit lands on b = 2.0, the b grid's clip edge, where
    numpy's pow has a scalar fast path (a square) besides the vector one."""
    design = np.arange(5.0, 75.01, 10.0) if seed % 2 else np.arange(3.0, 72.01, 3.0)
    model = ReflLossModel(37.3, 0.02, 2.6 if seed % 3 == 0 else 2.0, 5.0)
    return generate_samples(model, design, 0.3, np.random.default_rng(seed))


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
    for seed in B_EDGE_SEEDS:
        sets[f"noisy-b-edge-seed{seed}"] = _b_edge_samples(seed)
    return sets


ORACLE_SETS = _oracle_sets()


@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_fit_equals_scalar_search_oracle(name):
    samples = ORACLE_SETS[name]
    assert fit_refl_model(samples) == reflfit_oracle.fit_refl_model(samples)


def test_fit_does_not_depend_on_block_size(monkeypatch):
    names = ["corridor-306-321GHz-8", "noisy-24-seed1", "noisy-dense-seed2", "falling"]
    names += [f"noisy-b-edge-seed{seed}" for seed in B_EDGE_SEEDS]
    for name in names:
        samples = ORACLE_SETS[name]
        default = fit_refl_model(samples)
        for block in (1, 1 << 62):  # one row per block; every row in one block
            monkeypatch.setattr(reflfit, "_BLOCK_ELEMS", block)
            assert fit_refl_model(samples) == default, (name, block)
        monkeypatch.undo()


@pytest.mark.parametrize("shared_grid", [True, False], ids=["shared-grid", "per-row-grid"])
def test_kernel_row_does_not_depend_on_the_rows_beside_it(shared_grid):
    # b = 2.0 alone in its block, and beside another exponent: numpy's pow
    # must not switch to its scalar fast path for the lone row
    angles, losses, lo, hi = reflfit._window(_b_edge_samples(32))
    grid = reflfit._coarse_grid(lo, hi)
    if not shared_grid:
        phi = fit_refl_model(_b_edge_samples(32)).model.phi_bar_deg
        grid = np.linspace(phi - 0.01, phi + 0.01, 21)[None, :]
    alone = reflfit._best_over_phi(angles, losses, np.array([2.0]), grid)
    beside = reflfit._best_over_phi(angles, losses, np.array([1.95, 2.0]),
                                    grid if shared_grid else np.repeat(grid, 2, axis=0))
    assert beside[:, 1].tobytes() == alone[:, 0].tobytes()


def _lockstep_groups():
    """Noisy groups on 4, 8 and 24 angles, with phi_bar windows far apart,
    plus fits clamped at a = 0 (so the b refinement is skipped) and at c = 0."""
    rng = np.random.default_rng(5)
    rows = [*TABLE_ROWS.values(), ReflLossModel(60.0, 2.0, 0.8, 5.0)]
    designs = [[5.0, 25.0, 45.0, 65.0], EIGHT_ANGLES, TWENTY_FOUR_ANGLES] * 3
    groups = [generate_samples(rows[k % 5], design, noise_sigma_db=0.5, rng=rng)
              for k, design in enumerate(designs)]
    groups.append(ORACLE_SETS["all-negative"])
    groups.append(_fixed_loss_samples([0.2 * a - 2.0 for a in EIGHT_ANGLES]))
    return groups


def test_lockstep_fits_equal_single_fits():
    groups = _lockstep_groups()
    fits = reflfit.fit_refl_models(groups)
    assert fits == [fit_refl_model(g) for g in groups]
    assert {len(g) for g in groups} == {4, 8, 24}
    assert fits[-2].model.a == 0.0 and not fits[-2].b_identifiable
    assert fits[-1].model.c == 0.0 and fits[-1].model.a > 0.0


def test_no_window_fits_the_same_exponent_twice(monkeypatch):
    exponents = {}  # window (by its angles array) -> every b fitted for it
    conditional = reflfit._phi_conditional

    def recording(tasks):
        for angles, _, _, _, b, _ in tasks:
            exponents.setdefault(id(angles), []).extend(b.tolist())
        return conditional(tasks)

    monkeypatch.setattr(reflfit, "_phi_conditional", recording)
    groups = _lockstep_groups()
    reflfit.fit_refl_models(groups)
    assert len(exponents) == len(groups)
    for fitted in exponents.values():
        assert len(fitted) == len(set(fitted))


def test_lockstep_gives_each_bad_group_its_own_error():
    good = _lockstep_groups()[:3]
    small = good[0][:3]
    huge = [ReflSample(k, a, 1e200 * (k + 1)) for k, a in enumerate(EIGHT_ANGLES)]
    fits = reflfit.fit_refl_models([good[0], small, good[1], huge, good[2]])
    assert fits[0::2] == [fit_refl_model(g) for g in good]
    for bad, error in ((small, fits[1]), (huge, fits[3])):
        assert isinstance(error, ValidationError)
        with pytest.raises(ValidationError) as single:
            fit_refl_model(bad)
        assert str(error) == str(single.value)
    assert str(fits[1]) == "fit needs at least 4 samples, got 3"
    assert str(fits[3]).startswith("fit: losses up to 8e+200 dB overflow float64")


# ---------------------------------------------------------------------------
# the phi_bar cut of the coarse scans
# ---------------------------------------------------------------------------
def _bound_sets():
    """Noiseless table rows (rmse ~ 0 at the optimum), seeded noise up to
    8 dB on 4, 8, 24 and 281 angles, and the clamp-hitting sets."""
    sets = {name: ORACLE_SETS[name] for name in ORACLE_SETS if not name.startswith("noisy")}
    rows = list(TABLE_ROWS.values())
    designs = ([5.0, 25.0, 45.0, 65.0], EIGHT_ANGLES, TWENTY_FOUR_ANGLES, DENSE_ANGLES)
    for k, (sigma, design) in enumerate((s, d) for s in (0.5, 2.0, 8.0) for d in designs):
        sets[f"sigma{sigma}-{len(design)}"] = generate_samples(
            rows[k % 4], design, noise_sigma_db=sigma, rng=np.random.default_rng(k)
        )
    return sets


BOUND_SETS = _bound_sets()


def _fits_at_each_point(angles, losses, b, grid):
    """The kernel's (rmse, a) at every exponent and grid point, each a
    (len(b), len(grid)) array: one row per (exponent, point) on a one-point grid."""
    rows = reflfit._best_over_phi(angles, losses, np.repeat(b, grid.size), np.tile(grid, b.size)[:, None])
    return rows[0].reshape(b.size, grid.size), rows[2].reshape(b.size, grid.size)


@pytest.mark.parametrize("name", list(BOUND_SETS))
def test_cut_keeps_every_point_at_or_below_its_rmse(name):
    # If the kernel's rmse at a point, for any exponent in [b1, b2], is at
    # most r_max, _cut must keep the point; r_max = that rmse is the tightest
    # case.  Checked at b1, b2 and a point between, over widths from the
    # first b-refinement stage's down to the last's and a single exponent.
    # The bound on a that _cut uses, a (x_p - x_q) <= |y_p - y_q| +
    # sqrt(2n) rmse with x_p - x_q >= D, is checked on its own.
    samples = BOUND_SETS[name]
    angles, losses, lo, hi = reflfit._window(samples)
    grid = reflfit._coarse_grid(lo, hi)
    b_fit = fit_refl_model(samples).model.b
    for half in (0.05, 0.005, 5e-8, 0.0):
        b1, b2 = max(b_fit - half, 0.05), min(b_fit + half, 2.0)
        terms = reflfit._bound_terms(angles, losses, np.array([b1, b2]), grid)
        _, _, dy, den = terms
        rmse, a = _fits_at_each_point(angles, losses, np.array([b1, 0.3 * b1 + 0.7 * b2, b2]), grid)
        for rmse_b, a_b in zip(rmse, a):
            assert not reflfit._cut(terms, losses, rmse_b).any(), (name, half)
            assert np.all((den <= 0.0) | (a_b * den <= dy + math.sqrt(2 * len(losses)) * rmse_b)), (name, half)


def _coarse_scans(monkeypatch, samples):
    """(scanned, whole) coarse grid points of each b-refinement stage's
    scans of one window."""
    grid_size = reflfit._coarse_grid(*reflfit._window(samples)[2:]).size
    scans = []
    kernel = reflfit._best_over_phi

    def recording(angles, losses, b, grid):
        if grid.ndim == 1 and b.size < 40:  # a stage's coarse scan, not the coarse b grid's
            scans.append(grid.size)
        return kernel(angles, losses, b, grid)

    monkeypatch.setattr(reflfit, "_best_over_phi", recording)
    fit = fit_refl_model(samples)
    monkeypatch.undo()
    return fit, sum(scans), grid_size * len(scans)


def test_cut_leaves_under_a_tenth_of_an_8_angle_groups_stage_points(monkeypatch):
    # the 5:10:75 deg design puts samples on the grid, so the bound meets u = 0
    gen = TABLE_ROWS[("corridor", "306-321GHz")]
    samples = generate_samples(gen, EIGHT_ANGLES, noise_sigma_db=0.5, rng=np.random.default_rng(5))
    fit, scanned, whole = _coarse_scans(monkeypatch, samples)
    assert fit == reflfit_oracle.fit_refl_model(samples)
    assert whole > 0 and scanned < 0.1 * whole, (scanned, whole)


def _identity_sets(count=300):
    """Seeded table rows and random laws on random designs of 4-12 angles
    over 6-16 deg, at sigma = 0, 0.5, 2, 4 and 8 dB."""
    rng = np.random.default_rng(26)
    rows = list(TABLE_ROWS.values())
    sets = []
    for k in range(count):
        n = int(rng.integers(4, 13))
        start, span = rng.uniform(0.0, 60.0), rng.uniform(6.0, 16.0)
        design = np.linspace(start, start + span, n) + rng.uniform(-0.3, 0.3, n) * span / n
        law = rows[k % 4] if k % 2 == 0 else ReflLossModel(
            rng.uniform(start, start + span), rng.uniform(0.1, 5.0), rng.uniform(0.1, 1.95),
            rng.uniform(0.0, 20.0))
        sets.append(generate_samples(law, np.clip(np.round(design, 2), 0.0, 90.0),
                                     noise_sigma_db=(0.0, 0.5, 2.0, 4.0, 8.0)[k % 5], rng=rng))
    return sets


def test_cut_changes_no_fit(monkeypatch):
    sets = _identity_sets()
    pruned = reflfit.fit_refl_models(sets)
    # rho3 = 0 everywhere: the bound cuts nothing, and every point is scanned
    monkeypatch.setattr(reflfit, "_bound_terms", lambda angles, losses, b, grid: np.zeros((4, grid.size)))
    assert pruned == reflfit.fit_refl_models(sets)
    assert all(fit.b_identifiable for fit in pruned)  # every set ran the b refinement


def _bound_calls(monkeypatch):
    """(b1, b2, sample count, grid size) of every _bound_terms call."""
    calls = []
    terms = reflfit._bound_terms

    def recording(angles, losses, b, grid):
        calls.append((float(b.min()), float(b.max()), angles.size, grid.size))
        return terms(angles, losses, b, grid)

    monkeypatch.setattr(reflfit, "_bound_terms", recording)
    return calls


def test_no_bound_covers_the_coarse_b_grid(monkeypatch):
    calls = _bound_calls(monkeypatch)
    groups = _lockstep_groups()
    assert reflfit.fit_refl_models(groups) == [fit_refl_model(g) for g in groups]
    # every span is one b refinement stage's, [b - 0.05, b + 0.05] at most
    assert calls and max(b2 - b1 for b1, b2, *_ in calls) <= 2 * reflfit.B_GRID_STEP + 1e-12


def test_later_b_refinement_stages_bound_fewer_points_than_one_coarse_grid(monkeypatch):
    # stage 1 bounds its window's whole grid over its span; stages 2-7 lie
    # inside the span before them and bound only the points left by its terms
    gen = TABLE_ROWS[("corridor", "306-321GHz")]
    samples = generate_samples(gen, EIGHT_ANGLES, noise_sigma_db=0.5, rng=np.random.default_rng(5))
    grid_size = reflfit._coarse_grid(*reflfit._window(samples)[2:]).size
    calls = _bound_calls(monkeypatch)
    assert fit_refl_model(samples) == reflfit_oracle.fit_refl_model(samples)
    assert len(calls) == reflfit.REFINE_STAGES and calls[0][3] == grid_size
    assert sum(size for *_, size in calls[1:]) < grid_size, calls


def test_kept_bound_that_misses_the_next_span_is_recomputed(monkeypatch):
    # kept terms one ulp short of each stage's span: every stage bounds its
    # whole grid afresh, and the fits stay those of the scalar search
    groups = _lockstep_groups()[:3]  # 4, 8 and 24 angles
    grid_size = {len(g): reflfit._coarse_grid(*reflfit._window(g)[2:]).size for g in groups}
    calls = _bound_calls(monkeypatch)
    conditional = reflfit._phi_conditional
    missed = []

    def shrinking(tasks):
        for *_, bound in tasks:
            if bound is not None and bound[2].terms is not None:
                bound[2].b2 = math.nextafter(bound[1], -math.inf)
                missed.append(bound)
        return conditional(tasks)

    monkeypatch.setattr(reflfit, "_phi_conditional", shrinking)
    assert reflfit.fit_refl_models(groups) == [reflfit_oracle.fit_refl_model(g) for g in groups]
    assert len(missed) == len(groups) * (reflfit.REFINE_STAGES - 1)
    assert len(calls) == len(groups) * reflfit.REFINE_STAGES
    assert all(size == grid_size[n] for *_, n, size in calls)


@pytest.mark.parametrize("design", [EIGHT_ANGLES, TWENTY_FOUR_ANGLES], ids=len)
def test_shared_design_rows_equal_each_loss_sets_own_call(monkeypatch, design):
    groups = [generate_samples(row, design, noise_sigma_db=2.0, rng=np.random.default_rng(k))
              for k, row in enumerate(TABLE_ROWS.values())]
    if design is EIGHT_ANGLES:  # clamped at a = 0 and at c = 0
        groups += [ORACLE_SETS[name] for name in ("flat", "all-negative", "falling")]
    angles, _, lo, hi = reflfit._window(groups[0])
    losses = np.stack([reflfit._window(g)[1] for g in groups], axis=1)  # (n, sets)
    b = reflfit.B_GRID_START + reflfit.B_GRID_STEP * np.arange(40)
    grid = reflfit._coarse_grid(lo, hi)
    for block in (1, reflfit._BLOCK_ELEMS, 1 << 62):  # one row per block; every row in one block
        monkeypatch.setattr(reflfit, "_BLOCK_ELEMS", block)
        shared = reflfit._best_over_phi(angles, losses, b, grid)
        alone = np.stack([reflfit._best_over_phi(angles, y.copy(), b, grid) for y in losses.T])
        assert shared.shape == (len(groups), 4, b.size)
        assert shared.tobytes() == alone.tobytes(), block


def test_groups_that_share_a_design_fit_as_alone(monkeypatch):
    near, far = TABLE_ROWS[("corridor", "306-321GHz")], ReflLossModel(60.0, 2.0, 0.8, 5.0)
    rng = np.random.default_rng(30)
    same = [generate_samples(near, EIGHT_ANGLES, noise_sigma_db=0.5, rng=rng) for _ in range(3)]
    other_window = generate_samples(far, EIGHT_ANGLES, noise_sigma_db=0.5, rng=rng)
    lone = generate_samples(near, TWENTY_FOUR_ANGLES, noise_sigma_db=0.5, rng=rng)
    groups = [same[0], other_window, same[0][:3], same[1], lone, same[2]]
    windows = [reflfit._window(g)[2:] for g in (*same, other_window)]
    assert windows[0] == windows[1] == windows[2] != windows[3]
    loss_sets = []
    kernel = reflfit._best_over_phi

    def recording(angles, losses, b, grid):
        if losses.ndim > angles.ndim:
            loss_sets.append(losses.shape[1])
        return kernel(angles, losses, b, grid)

    monkeypatch.setattr(reflfit, "_best_over_phi", recording)
    fits = reflfit.fit_refl_models(groups)
    monkeypatch.undo()
    assert sorted(loss_sets) == [1, 1, 3]  # the three same-window groups share one design
    assert isinstance(fits[2], ValidationError)
    valid = [g for k, g in enumerate(groups) if k != 2]
    assert [f for k, f in enumerate(fits) if k != 2] == [fit_refl_model(g) for g in valid]
    assert [fit_refl_model(g) for g in valid] == [reflfit_oracle.fit_refl_model(g) for g in valid]


@pytest.mark.parametrize("scale", [1e149, 1e150])
def test_losses_near_float64_overflow_still_fit(scale):
    # sum(y^2) is 1.5e299 and 1.5e301, below _window's 2^1020 rule, so the
    # bound runs on both; 1e200 fails the rule
    # (test_lockstep_gives_each_bad_group_its_own_error)
    near = [ReflSample(k, a, scale * (1.0 + 0.1 * k)) for k, a in enumerate(EIGHT_ANGLES)]
    assert fit_refl_model(near) == reflfit_oracle.fit_refl_model(near)


@pytest.mark.parametrize("design", [[5.0, 25.0, 45.0, 65.0], EIGHT_ANGLES, TWENTY_FOUR_ANGLES,
                                    DENSE_ANGLES], ids=len)
def test_losses_just_below_the_overflow_rule_fit_as_the_oracle(design):
    # sum(y^2) = 0.99 * 2^1020: fit_refl_model's search raises FloatingPointError on overflow
    gen = TABLE_ROWS[("hallway", "306-321GHz")]
    noisy = generate_samples(gen, design, noise_sigma_db=3.0, rng=np.random.default_rng(29))
    y = np.array([s.additional_loss_db for s in noisy])
    scale = math.sqrt(0.99 * 2.0 ** 1020 / np.sum(y * y))
    near = [ReflSample(s.rx_id, s.reflection_angle_deg, scale * v) for s, v in zip(noisy, y)]
    assert np.sum((scale * y) ** 2) < 2.0 ** 1020
    assert fit_refl_model(near) == reflfit_oracle.fit_refl_model(near)


def _power_of_two_losses(log2_sum_squares):
    """Seven samples whose sum(y^2) is exactly 2^log2_sum_squares (even)."""
    half = log2_sum_squares // 2
    losses = [2.0 ** (half - 1)] * 2 + [2.0 ** (half - 2)] * 4 + [2.0 ** (half - 1)]
    assert math.fsum(v * v for v in losses) == 2.0 ** log2_sum_squares
    return [ReflSample(k, a, v) for k, (a, v) in enumerate(zip(EIGHT_ANGLES, losses))]


@pytest.mark.parametrize("log2_sum_squares", [1020, 1022])
def test_losses_at_the_overflow_rule_fail_alone_and_among_good_groups(log2_sum_squares):
    bad = _power_of_two_losses(log2_sum_squares)
    message = (f"fit: losses up to {2.0 ** (log2_sum_squares // 2 - 1):.3g} dB overflow "
               "float64 in the least-squares search")
    with pytest.raises(ValidationError) as single:
        fit_refl_model(bad)
    assert str(single.value) == message
    good = _lockstep_groups()[:2]
    fits = reflfit.fit_refl_models([good[0], bad, good[1]])
    assert isinstance(fits[1], ValidationError) and str(fits[1]) == message
    assert fits[0::2] == [fit_refl_model(g) for g in good]


def test_search_overflow_is_not_caught(monkeypatch):
    # without _window's rule, the search's own errstate raises: never an inf fit
    monkeypatch.setattr(reflfit, "_SQUARES_MAX", math.inf)
    huge = [ReflSample(k, a, 1e200 * (k + 1)) for k, a in enumerate(EIGHT_ANGLES)]
    with pytest.raises(FloatingPointError):
        reflfit.fit_refl_models([_lockstep_groups()[0], huge])


def test_fit_errors():
    gen = TABLE_ROWS[("corridor", "306-321GHz")]
    with pytest.raises(ValidationError, match="at least 4 samples"):
        fit_refl_model(generate_samples(gen, [5.0, 15.0, 25.0]))
    two_angles = [
        ReflSample(0, 10.0, 5.0), ReflSample(1, 10.0, 5.1),
        ReflSample(2, 20.0, 6.0), ReflSample(3, 20.0, 6.1),
    ]
    with pytest.raises(ValidationError, match="distinct"):
        fit_refl_model(two_angles)
    identical = [ReflSample(k, 10.0, 5.0 + k) for k in range(5)]
    with pytest.raises(ValidationError, match="identical"):
        fit_refl_model(identical)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -0.5, 90.5, 145.0])
def test_sample_angle_must_lie_in_domain(angle):
    with pytest.raises(ValidationError, match=r"\[0, 90\]"):
        ReflSample(rx_id=0, reflection_angle_deg=angle, additional_loss_db=1.0)


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
    assert out.read_bytes() == (
        b"scenario,band,phi_bar_deg,a,b,c,rmse_db\ncorridor,306-321GHz,17.51,2.8,0.48,7.4,0.123456\n"
    )
