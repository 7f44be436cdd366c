"""Reference fitter: the scalar grid search that reflfit's blocked search replaces.

One Python call per exponent and refinement stage.  Kept only so that the
tests can require the array search to return exactly (``==``) the same
``FitResult``; it shares the grids, constants and input checks of
``thznirs.reflfit``.
"""

from __future__ import annotations

import numpy as np

from thznirs.errors import DegenerateFitError, UnderdeterminedFitError
from thznirs.reflfit import (
    B_GRID_START,
    B_GRID_STEP,
    B_GRID_STOP,
    PHI_GRID_STEP_DEG,
    REFINE_STAGES,
    _TIE_TOL,
    FitResult,
    ReflLossModel,
)


def _best_over_phi(angles: np.ndarray, losses: np.ndarray, b: float, phi_grid: np.ndarray):
    x = np.abs(angles[None, :] - phi_grid[:, None]) ** b  # (n_phi, n)
    y = losses
    my = float(y.mean())
    mx = x.mean(axis=-1)
    mxx = (x * x).mean(axis=-1)
    mxy = (x * y).mean(axis=-1)
    var = mxx - mx * mx
    cov = mxy - mx * my

    a = np.where(var > 0, cov / np.where(var > 0, var, 1.0), 0.0)
    c = my - a * mx
    neg_a = a < 0
    a = np.where(neg_a, 0.0, a)
    c = np.where(neg_a, my, c)
    neg_c = c < 0
    a_zero_c = np.maximum(np.where(mxx > 0, mxy / np.where(mxx > 0, mxx, 1.0), 0.0), 0.0)
    a = np.where(neg_c, a_zero_c, a)
    c = np.where(neg_c, 0.0, c)

    resid = y[None, :] - a[:, None] * x - c[:, None]
    rmse = np.sqrt((resid * resid).mean(axis=-1))
    k = int(np.argwhere(rmse <= rmse.min() + _TIE_TOL)[0][0])
    return float(rmse[k]), float(phi_grid[k]), float(a[k]), float(c[k])


def _phi_conditional(angles: np.ndarray, losses: np.ndarray, b: float, lo: float, hi: float):
    n_phi = max(1, int(round((hi - lo) / PHI_GRID_STEP_DEG)) + 1)
    grid = lo + PHI_GRID_STEP_DEG * np.arange(n_phi)
    grid = grid[grid <= hi + 1e-12]
    best = _best_over_phi(angles, losses, b, grid)
    step = PHI_GRID_STEP_DEG
    for _ in range(REFINE_STAGES):
        local = np.unique(np.clip(np.linspace(best[1] - step, best[1] + step, 21), lo, hi))
        cand = _best_over_phi(angles, losses, b, local)
        if cand[0] < best[0] - _TIE_TOL:
            best = cand
        step /= 10.0
    return best


def _search(angles: np.ndarray, losses: np.ndarray, b_values: np.ndarray, lo: float, hi: float, best=None):
    for b in b_values:
        rmse, phi, a, c = _phi_conditional(angles, losses, float(b), lo, hi)
        if best is None or rmse < best[4] - _TIE_TOL:
            best = (float(b), phi, a, c, rmse)
    return best


def fit_refl_model(samples) -> FitResult:
    kept = sorted(
        (s for s in samples if s.with_nirs),
        key=lambda s: (s.reflection_angle_deg, s.additional_loss_db, s.rx_id),
    )
    if len(kept) < 4:
        raise UnderdeterminedFitError(
            f"fit needs at least 4 with-NIRS samples, got {len(kept)}"
        )
    angles = np.array([s.reflection_angle_deg for s in kept])
    losses = np.array([s.additional_loss_db for s in kept])
    uniq = np.unique(angles)
    if uniq.shape[0] == 1:
        raise DegenerateFitError("all sample angles are identical")
    if uniq.shape[0] < 3:
        raise DegenerateFitError("fit needs at least 3 distinct angles")

    gap = float(np.max(np.diff(uniq)))
    argmin_angle = float(angles[int(np.argmin(losses))])
    lo = max(float(uniq[0]), argmin_angle - gap)
    hi = min(float(uniq[-1]), argmin_angle + gap)
    n_b = int(round((B_GRID_STOP - B_GRID_START) / B_GRID_STEP)) + 1
    b_grid = B_GRID_START + B_GRID_STEP * np.arange(n_b)

    best = _search(angles, losses, b_grid, lo, hi)
    best_b, best_phi, best_a, best_c, best_rmse = best

    if best_a > 0:
        step_b = B_GRID_STEP
        for _ in range(REFINE_STAGES):
            rb = np.unique(
                np.clip(np.linspace(best_b - step_b, best_b + step_b, 21),
                        B_GRID_START, B_GRID_STOP)
            )
            best = _search(angles, losses, rb, lo, hi, best=best)
            best_b, best_phi, best_a, best_c, best_rmse = best
            step_b /= 10.0

    model = ReflLossModel(phi_bar_deg=best_phi, a=best_a, b=best_b, c=best_c)
    return FitResult(
        model=model,
        rmse_db=best_rmse,
        b_identifiable=best_a > 0,
        n_samples=len(kept),
    )
