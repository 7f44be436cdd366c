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
_BLOCK_ELEMS = 1 << 16  # (samples, rows, k) elements per array op: temporaries stay in cache


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
        if not 0.0 <= self.reflection_angle_deg <= 90.0:
            raise ValidationError(
                f"reflection sample: angle {self.reflection_angle_deg} deg "
                "is not in [0, 90]"
            )
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


def _pairwise_sum(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """x.sum(axis=0) into out, bit for bit as numpy sums a contiguous last axis.

    Every add runs over whole contiguous x[i] slices.  The order is numpy's
    pairwise summation: fewer than 8 terms one by one; up to 128 terms in 8
    running sums joined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    rest one by one; more terms split at n//2 rounded down to a multiple of
    8.  work is scratch shaped like x (x itself, if x may be overwritten).
    """
    _pairwise_tree(x, out, work)
    out += 0.0  # numpy starts from the identity +0.0, so all -0.0 terms sum to +0.0
    return out


def _pairwise_tree(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """_pairwise_sum without the starting identity."""
    n = x.shape[0]
    if n < 8:
        np.copyto(out, x[0])
        for i in range(1, n):
            out += x[i]
    elif n <= 128:
        n8 = n - n % 8
        r = x[0:8]
        if n8 > 8:
            r = np.add(r, x[8:16], out=work[0:8])
            for i in range(16, n8, 8):
                r += x[i:i + 8]
        p = np.add(r[0::2], r[1::2], out=work[0:8:2])
        q = np.add(p[0::2], p[1::2], out=work[0:8:4])
        np.add(q[0], q[1], out=out)
        for i in range(n8, n):
            out += x[i]
    else:
        n2 = n // 2
        n2 -= n2 % 8
        _pairwise_tree(x[:n2], out, work)
        rest = np.empty_like(out)
        _pairwise_tree(x[n2:], rest, work)
        out += rest


def _mean(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """x.mean(axis=0) into out, equal bit for bit to numpy's mean over a
    contiguous last axis: the pairwise sum divided by the count.  work is
    as for _pairwise_sum."""
    return np.divide(_pairwise_sum(x, out, work), x.shape[0], out=out)


def _best_over_phi(angles: np.ndarray, losses: np.ndarray, b: np.ndarray, grid: np.ndarray):
    """Best (rmse, phi, a, c) for each exponent b[i] over its phi_bar grid.

    b has shape (m,); grid is either (k,), shared by every exponent, or
    (m, k), one row per exponent.  The result is a (4, m) array.  (a, c)
    come from the closed-form least squares at each grid point and are
    clamped non-negative with a re-solve.  Ties within 1e-12 RMSE pick the
    smallest phi_bar (the first grid point).

    Rows are evaluated in blocks of about _BLOCK_ELEMS (sample, row, grid
    point) elements, sample-major, so that every array op and every mean
    over the samples runs over contiguous (row, grid point) slices.  The
    temporaries live in buffers allocated once per call.
    """
    m, k, n = b.shape[0], grid.shape[-1], angles.shape[0]
    my = float(losses.mean())
    y = losses[:, None, None]
    rows = min(m, max(1, _BLOCK_ELEMS // (k * n)))
    if grid.ndim == 1:
        dist = np.abs(angles[:, None] - grid)[:, None, :]  # (n, 1, k), once per call
    x_buf, t_buf = np.empty((2, n, rows, k))
    small = np.empty((9, rows, k))  # mx, mxx, mxy, var, cov, a, c, a at c = 0, rmse
    mask_buf, neg_buf = np.empty((2, rows, k), dtype=bool)
    out = np.empty((4, m))
    for s in range(0, m, rows):
        e = min(m, s + rows)
        r = e - s
        x, t = x_buf[:, :r], t_buf[:, :r]
        mx, mxx, mxy, var, cov, a, c, az, rmse = small[:, :r]
        mask, neg = mask_buf[:r], neg_buf[:r]
        be = b[None, s:e, None]
        if grid.ndim == 1:
            np.power(dist, be, out=x)
        else:
            np.subtract(angles[:, None, None], grid[s:e], out=x)
            np.power(np.abs(x, out=x), be, out=x)
        _mean(x, mx, t)
        _mean(np.multiply(x, x, out=t), mxx, t)
        _mean(np.multiply(x, y, out=t), mxy, t)
        np.subtract(mxx, np.multiply(mx, mx, out=var), out=var)
        np.subtract(mxy, np.multiply(mx, my, out=cov), out=cov)

        # a = cov / var (0 where var <= 0) and c = my - a mx; a < 0 clamps
        # to (0, my); c < 0 re-solves with c = 0, a = max(mxy / mxx, 0)
        a.fill(0.0)
        np.divide(cov, var, out=a, where=np.greater(var, 0.0, out=mask))
        np.subtract(my, np.multiply(a, mx, out=c), out=c)
        np.less(a, 0.0, out=neg)
        np.copyto(a, 0.0, where=neg)
        np.copyto(c, my, where=neg)
        az.fill(0.0)
        np.divide(mxy, mxx, out=az, where=np.greater(mxx, 0.0, out=mask))
        np.maximum(az, 0.0, out=az)
        np.less(c, 0.0, out=neg)
        np.copyto(a, az, where=neg)
        np.copyto(c, 0.0, where=neg)

        np.subtract(y, np.multiply(a, x, out=t), out=t)
        np.subtract(t, c, out=t)
        np.sqrt(_mean(np.multiply(t, t, out=t), rmse, t), out=rmse)
        j = np.argmax(rmse <= rmse.min(axis=-1, keepdims=True) + _TIE_TOL, axis=-1)
        i = np.arange(r)
        phi = grid[j] if grid.ndim == 1 else grid[s + i, j]
        out[:, s:e] = rmse[i, j], phi, a[i, j], c[i, j]
    return out


def _phi_conditional(angles: np.ndarray, losses: np.ndarray, b: np.ndarray, lo: float, hi: float):
    """Optimal phi_bar for each exponent in b: coarse 0.01 deg grid over the
    window, then local grid refinement down to ~1e-9 deg.  Returns the
    (4, len(b)) rows (rmse, phi, a, c)."""
    n_phi = max(1, int(round((hi - lo) / PHI_GRID_STEP_DEG)) + 1)
    grid = lo + PHI_GRID_STEP_DEG * np.arange(n_phi)
    grid = grid[grid <= hi + 1e-12]
    best = _best_over_phi(angles, losses, b, grid)
    step = PHI_GRID_STEP_DEG
    for _ in range(REFINE_STAGES):
        # sorted already; clipped duplicates tie and the first one wins
        local = np.clip(np.linspace(best[1] - step, best[1] + step, 21, axis=-1), lo, hi)
        cand = _best_over_phi(angles, losses, b, local)
        best = np.where(cand[0] < best[0] - _TIE_TOL, cand, best)
        step /= 10.0
    return best


def _search(angles: np.ndarray, losses: np.ndarray, b_values: np.ndarray, lo: float, hi: float, best=None):
    """Scan exponents ascending, re-optimizing phi_bar for each; ties keep
    the smaller b (scanned first)."""
    rmse, phi, a, c = _phi_conditional(angles, losses, b_values, lo, hi)
    for i, b in enumerate(b_values):
        if best is None or rmse[i] < best[4] - _TIE_TOL:
            best = (float(b), float(phi[i]), float(a[i]), float(c[i]), float(rmse[i]))
    return best


def _refined_search(angles: np.ndarray, losses: np.ndarray, lo: float, hi: float):
    """Coarse b grid, then (if a > 0) nested b refinement around the best b.
    Returns (b, phi, a, c, rmse)."""
    n_b = int(round((B_GRID_STOP - B_GRID_START) / B_GRID_STEP)) + 1
    b_grid = B_GRID_START + B_GRID_STEP * np.arange(n_b)
    best = _search(angles, losses, b_grid, lo, hi)
    if best[2] > 0:
        step_b = B_GRID_STEP
        for _ in range(REFINE_STAGES):
            rb = np.unique(
                np.clip(np.linspace(best[0] - step_b, best[0] + step_b, 21),
                        B_GRID_START, B_GRID_STOP)
            )
            best = _search(angles, losses, rb, lo, hi, best=best)
            step_b /= 10.0
    return best


def fit_refl_model(samples: Iterable[ReflSample]) -> FitResult:
    """Fit the polynomial law to the with-NIRS samples.

    Needs at least 4 samples over at least 3 distinct angles, with losses
    small enough that the search's squares and products stay finite in
    float64.  Deterministic: samples are sorted internally, grids are fixed,
    ties break toward the smallest b then the smallest phi_bar.
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
    try:
        with np.errstate(over="raise", invalid="raise"):
            best_b, best_phi, best_a, best_c, best_rmse = _refined_search(angles, losses, lo, hi)
    except FloatingPointError:
        raise ValidationError(
            f"fit: losses up to {float(np.max(np.abs(losses))):.3g} dB overflow "
            "float64 in the least-squares search"
        ) from None

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
    if not (math.isfinite(noise_sigma_db) and noise_sigma_db >= 0):
        raise ValidationError(f"noise sigma must be finite and >= 0 dB, got {noise_sigma_db}")
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
