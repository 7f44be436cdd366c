"""Additional reflection loss extraction and the polynomial angle-law fit.

A reflected link is treated as a virtual line-of-sight link: the excess of
its directional path loss over the close-in model at the unfolded distance
d1 + d2 is the additional reflection loss.  Loss-vs-angle samples are fitted
with

    L(phi) = a |phi - phi_bar|^b + c

by a deterministic two-parameter grid search over (b, phi_bar) with a
closed-form least-squares solve for (a, c) at every grid point, followed by
nested grid refinement so that noiseless generators are recovered to 1e-6
even when their b falls between coarse grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    ModelDomainError,
    UnderdeterminedFitError,
    ValidationError,
)
from .fileio import atomic_write
from .pathloss import CiModel, ci_path_loss

B_GRID_START = 0.05
B_GRID_STOP = 2.00
B_GRID_STEP = 0.05
PHI_GRID_STEP_DEG = 0.01
REFINE_STAGES = 7
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class ReflLossModel:
    """Fitted parameters of the polynomial reflection-loss law."""

    phi_bar_deg: float
    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a < 0:
            raise ValidationError("reflection-loss model: a must be >= 0")
        if not (self.b > 0):
            raise ValidationError("reflection-loss model: b must be > 0")
        if self.c < 0:
            raise ValidationError("reflection-loss model: c must be >= 0")


@dataclass(frozen=True)
class ReflSample:
    """One measured/synthesized loss sample at a reflection angle."""

    rx_id: int
    reflection_angle_deg: float
    additional_loss_db: float
    with_nirs: bool = True
    band_label: str = ""

    def __post_init__(self):
        if not math.isfinite(self.additional_loss_db):
            raise ValidationError("reflection sample: additional loss must be finite")


@dataclass(frozen=True)
class FitResult:
    model: ReflLossModel
    rmse_db: float
    b_identifiable: bool
    n_samples: int


def additional_reflection_loss(
    pl_dir_db: float, ci: CiModel, f_hz: float, d1_m: float, d2_m: float
) -> float:
    """Excess of the directional path loss over the virtual-LoS prediction."""
    return pl_dir_db - ci_path_loss(ci, f_hz, d1_m + d2_m)


def eval_refl_model(model: ReflLossModel, phi_deg):
    """a |phi - phi_bar|^b + c for phi in [0, 90] degrees."""
    phi = np.asarray(phi_deg, dtype=float)
    if np.any(phi < 0.0) or np.any(phi > 90.0):
        raise ModelDomainError("reflection angle must lie in [0, 90] degrees")
    val = model.a * np.abs(phi - model.phi_bar_deg) ** model.b + model.c
    return float(val) if np.isscalar(phi_deg) else val


def _best_over_phi(angles: np.ndarray, losses: np.ndarray, b: float, phi_grid: np.ndarray):
    """Best (rmse, phi, a, c) for one exponent over a phi_bar grid.

    (a, c) come from the closed-form least squares at each grid point and
    are clamped non-negative with a re-solve.  Ties within 1e-12 RMSE pick
    the smallest phi_bar.
    """
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
    """Optimal phi_bar for a fixed exponent: coarse 0.01 deg grid over the
    window, then local grid refinement down to ~1e-9 deg."""
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
    return best  # (rmse, phi, a, c)


def _search(angles: np.ndarray, losses: np.ndarray, b_values: np.ndarray, lo: float, hi: float, best=None):
    """Scan exponents ascending, re-optimizing phi_bar for each; ties keep
    the smaller b (scanned first)."""
    for b in b_values:
        rmse, phi, a, c = _phi_conditional(angles, losses, float(b), lo, hi)
        if best is None or rmse < best[4] - _TIE_TOL:
            best = (float(b), phi, a, c, rmse)
    return best


def fit_refl_model(samples: Iterable[ReflSample]) -> FitResult:
    """Fit the polynomial law to the with-NIRS samples.

    Needs at least 4 samples over at least 3 distinct angles.  Deterministic:
    samples are sorted internally, grids are fixed, ties break toward the
    smallest b then the smallest phi_bar.
    """
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

    # phi_bar search window: the sample-angle range, narrowed to one
    # angle-gap around the empirical minimum-loss angle.
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


def generate_samples(
    model: ReflLossModel,
    angles_deg: Sequence[float],
    noise_sigma_db: float = 0.0,
    rng: np.random.Generator | None = None,
    with_nirs: bool = True,
    band_label: str = "",
) -> list[ReflSample]:
    """Samples drawn from the model, optionally with Gaussian dB noise."""
    values = eval_refl_model(model, np.asarray(angles_deg, dtype=float))
    if noise_sigma_db > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        values = values + rng.normal(0.0, noise_sigma_db, size=values.shape)
    return [
        ReflSample(
            rx_id=k,
            reflection_angle_deg=float(angle),
            additional_loss_db=float(val),
            with_nirs=with_nirs,
            band_label=band_label,
        )
        for k, (angle, val) in enumerate(zip(angles_deg, values))
    ]


def write_fit_table_csv(entries: Iterable[tuple[str, str, FitResult]], path) -> None:
    """Table-style CSV: one row per scenario/band."""
    lines = ["scenario,band,phi_bar_deg,a,b,c,rmse_db"]
    for scenario, band, fit in entries:
        m = fit.model
        lines.append(
            f"{scenario},{band},{m.phi_bar_deg:.6g},{m.a:.6g},{m.b:.6g},"
            f"{m.c:.6g},{fit.rmse_db:.6g}"
        )
    atomic_write(path, "\n".join(lines) + "\n")
