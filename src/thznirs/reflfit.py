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

Each stage of the b refinement scans only the coarse phi_bar points that a
lower bound on the rmse cannot rule out.  The bound covers every exponent of
the stage at once: u^b is convex in b, and a >= 0 is bounded by the fit's own
residuals (a branch-and-bound cut, with (a, c) profiled out as in variable
projection).  A point is skipped only if no exponent's fit there can come
within the 1e-12 tie tolerance of the best, so the fits are the same bit for
bit as those of the full scan.  A bound proved for a range of b holds on any
subrange, so each window keeps its terms from stage to stage and recomputes
them only at the points they leave.  The coarse b grid, too wide a range to
cut, scans every point, and groups with the same angles and phi_bar window
share its design u^b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .fileio import write_csv

if TYPE_CHECKING:
    from .pathloss import CiModel

B_GRID_START = 0.05
B_GRID_STOP = 2.00
B_GRID_STEP = 0.05
PHI_GRID_STEP_DEG = 0.01
REFINE_STAGES = 7
_TIE_TOL = 1e-12
_BLOCK_ELEMS = 1 << 16  # (samples, rows, k) elements per array op: temporaries stay in cache
_BOUND_RTOL = 1e-9  # rounding margin of the phi_bar cut, relative to the losses' scale
_SQUARES_MAX = math.nextafter(2.0 ** 1020, 0.0)  # largest sum(y^2) fitted; _window says why


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
    from .pathloss import ci_path_loss  # imported here: fit needs no geometry modules

    return pl_dir_db - ci_path_loss(ci, f_hz, d1_m + d2_m)


def eval_refl_model(model: ReflLossModel, phi_deg):
    """a |phi - phi_bar|^b + c for phi in [0, 90] degrees."""
    phi = np.asarray(phi_deg, dtype=float)
    if np.any(phi < 0.0) or np.any(phi > 90.0):
        raise ValidationError("reflection angle must lie in [0, 90] degrees")
    val = model.a * np.abs(phi - model.phi_bar_deg) ** model.b + model.c
    return float(val) if np.isscalar(phi_deg) else val


def _power(u: np.ndarray, b, out: np.ndarray) -> np.ndarray:
    """u^b elementwise into out, which must not overlap u, always by numpy's
    vector pow.  An exponent operand that gives the ufunc loop one value (a
    float, or one broadcast row) takes numpy's scalar fast path instead: an
    exact sqrt at b = 0.5 and a square at 2.0, whose last bits differ.  So b
    is first copied out to the result's full shape, and each u^b is the same
    whichever exponents share its call."""
    np.copyto(out, b)
    return np.power(u, out, out=out)


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
    (m, k), one row per exponent.  angles and losses are the samples, either
    (n,), shared by every exponent, or (n, m), one column per exponent; a
    shared grid takes shared samples.  The result is a (4, m) array.  (a, c)
    come from the closed-form least squares at each grid point and are
    clamped non-negative with a re-solve.  Ties within 1e-12 RMSE pick the
    smallest phi_bar (the first grid point).  Each row's result depends on
    that row's inputs alone, so x = u^b goes through _power.

    Shared angles may come with losses (n, L): L loss sets fitted on one
    design, each as if alone, and the result is (L, 4, m).  x = u^b and its
    means are formed once per block, then the loss-dependent rest once per
    set.

    Rows are evaluated in blocks of about _BLOCK_ELEMS (sample, row, grid
    point) elements, sample-major, so that every array op and every mean
    over the samples runs over contiguous (row, grid point) slices.  The
    temporaries live in buffers allocated once per call.
    """
    m, k, n = b.shape[0], grid.shape[-1], angles.shape[0]
    sets = losses.ndim > angles.ndim
    # shared samples as zero-stride views: each row reads its own column
    angles = np.broadcast_to(angles.reshape(n, -1), (n, m))
    losses = losses.reshape(n, 1, -1) if sets else losses.reshape(n, -1, 1)
    n_sets = losses.shape[2]
    losses = np.broadcast_to(losses, (n, m, n_sets))  # (n, m, L)
    my = _mean(losses, np.empty((m, n_sets)), np.empty((n, m, n_sets)))
    rows = min(m, max(1, _BLOCK_ELEMS // (k * n)))
    if grid.ndim == 1:
        dist = np.abs(angles[:, :1] - grid)[:, None, :]  # (n, 1, k), once per call
    x_buf, t_buf = np.empty((2, n, rows, k))
    small = np.empty((9, rows, k))  # mx, mxx, mxy, var, cov, a, c, a at c = 0, rmse
    mask_buf, neg_buf = np.empty((2, rows, k), dtype=bool)
    out = np.empty((n_sets, 4, m))
    for s in range(0, m, rows):
        e = min(m, s + rows)
        r = e - s
        x, t = x_buf[:, :r], t_buf[:, :r]
        mx, mxx, mxy, var, cov, a, c, az, rmse = small[:, :r]
        mask, neg = mask_buf[:r], neg_buf[:r]
        if grid.ndim == 1:
            u = dist
        else:
            u = np.abs(np.subtract(angles[:, s:e, None], grid[s:e], out=t), out=t)
        _power(u, b[None, s:e, None], out=x)
        _mean(x, mx, t)
        _mean(np.multiply(x, x, out=t), mxx, t)
        np.subtract(mxx, np.multiply(mx, mx, out=var), out=var)
        for v in range(n_sets):
            y, my_r = losses[:, s:e, v, None], my[s:e, v, None]
            _mean(np.multiply(x, y, out=t), mxy, t)
            np.subtract(mxy, np.multiply(mx, my_r, out=cov), out=cov)

            # a = cov / var (0 where var <= 0) and c = my - a mx; a < 0 clamps
            # to (0, my); c < 0 re-solves with c = 0, a = max(mxy / mxx, 0)
            a.fill(0.0)
            np.divide(cov, var, out=a, where=np.greater(var, 0.0, out=mask))
            np.subtract(my_r, np.multiply(a, mx, out=c), out=c)
            np.less(a, 0.0, out=neg)
            np.copyto(a, 0.0, where=neg)
            np.copyto(c, my_r, where=neg)
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
            out[v, :, s:e] = rmse[i, j], phi, a[i, j], c[i, j]
    return out if sets else out[0]


def _coarse_grid(lo: float, hi: float) -> np.ndarray:
    """The 0.01 deg phi_bar grid over [lo, hi]."""
    n_phi = max(1, int(round((hi - lo) / PHI_GRID_STEP_DEG)) + 1)
    grid = lo + PHI_GRID_STEP_DEG * np.arange(n_phi)
    return grid[grid <= hi + 1e-12]


def _bound_terms(angles: np.ndarray, losses: np.ndarray, b: np.ndarray,
                 grid: np.ndarray) -> np.ndarray:
    """Per grid point phi_bar, the terms (rho3, |G|, |y_p - y_q|, D) of a
    lower bound on the kernel's rmse at every exponent in [b1, b2], the
    range of b; _cut says how they combine.  A (4, k) array.

    With u = |phi - phi_bar| and x(b) = u^b, e = x(b2) - x(b1) comes from
    expm1, so that its direction survives b2 - b1 down to 1e-7.  rho3 is the
    norm of the residual vector of y on {1, x(b1), e} after Gram-Schmidt,
    with e orthogonalised twice.  A point whose basis vectors keep less than
    1e-4 of their norm there, where rounding could move rho3 by more than
    _cut's margin, gets rho3 = 0, which is never cut.  Columns go in blocks
    of about _BLOCK_ELEMS / 4 elements."""
    n, k = angles.shape[0], grid.shape[0]
    b1, b2 = float(b.min()), float(b.max())
    terms = np.zeros((4, k))
    with np.errstate(all="ignore"):
        yc = (losses - np.mean(losses))[:, None]
        cols = max(1, _BLOCK_ELEMS // (4 * n))
        for s in range(0, k, cols):
            u = np.abs(angles[:, None] - grid[s:s + cols])  # (n, cols), as the kernel's dist
            log_u = np.log(u, out=np.zeros_like(u), where=u > 0.0)  # u = 0 has x = G = 0
            x = _power(u, b1, np.empty_like(u))
            e = x * np.expm1((b2 - b1) * log_u)
            top = x + np.maximum(e, 0.0)  # max over [b1, b2] of u^b
            g = (b2 - b1) ** 2 / 8.0 * _norm(log_u * log_u * top)

            i = np.arange(u.shape[1])
            p, q = np.argmax(u, axis=0), np.argmin(u, axis=0)
            dy = np.abs(losses[p] - losses[q])
            # min over [b1, b2] of x_p less max of x_q, widened past the rounding of u^b
            den = (x[p, i] + np.minimum(e[p, i], 0.0)) * (1.0 - 1e-12) - top[q, i] * (1.0 + 1e-12)

            q1, ok = _unit(x - np.sum(x, axis=0) / n, x)
            r = _drop(yc, q1)
            if b2 > b1:
                q2, ok2 = _unit(_drop(_drop(e - np.sum(e, axis=0) / n, q1), q1), e)
                r = _drop(r, q2)
                ok &= ok2
            terms[:, s:s + cols] = np.where(ok, _norm(r), 0.0), g, dy, den
    return terms


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(v * v, axis=0))


def _unit(v: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v with unit columns, and where v kept more than 1e-4 of the norm of
    raw, the column it came from: elsewhere its direction is rounding."""
    size = _norm(v)
    return v / np.where(size > 0.0, size, 1.0), size > 1e-4 * _norm(raw)


def _drop(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """v less its component along q, column by column; q has unit columns."""
    return v - q * np.sum(q * v, axis=0)


def _cut(terms: np.ndarray, losses: np.ndarray, r_max: float) -> np.ndarray:
    """Mask of the grid points where the kernel's rmse exceeds r_max at every
    exponent of the range that _bound_terms covered.

    0 <= a, and u^b is convex in b, so that x(b) lies below the chord through
    x(b1) and x(b2) by at most G = (b2 - b1)^2 / 8 (ln u)^2 max(x(b1), x(b2)):
    sqrt(n) rmse >= rho3 - a |G|.  A fit with rmse <= r_max has residuals of
    norm <= sqrt(n) r_max, so a (x_p - x_q) <= |y_p - y_q| + sqrt(2n) r_max,
    with p and q the samples farthest from and nearest to phi_bar and
    x_p - x_q >= D.  Where the fit is unclamped the bound is tight, so it
    needs a rounding margin: _BOUND_RTOL (max|y| + sqrt(n) r_max), where the
    kernel's rmse and rho3 round by some n eps of that scale."""
    rho3, g, dy, den = terms
    n = losses.shape[0]
    with np.errstate(all="ignore"):
        margin = _BOUND_RTOL * (float(np.max(np.abs(losses))) + math.sqrt(n) * r_max)
        a_max = (dy + math.sqrt(2 * n) * (r_max + margin)) / den
        return (den > 0.0) & ((rho3 - a_max * g) / math.sqrt(n) - margin > r_max)


@dataclass
class _Kept:
    """A window's bound terms over its coarse grid, kept from one b
    refinement stage to the next; they hold for every exponent in [b1, b2]."""

    b1: float = math.inf
    b2: float = -math.inf
    terms: np.ndarray | None = None


def _phi_conditional(tasks: list[tuple]) -> list[np.ndarray]:
    """Optimal phi_bar for each exponent of each task (angles, losses, lo,
    hi, b, bound): a coarse 0.01 deg grid over the task's [lo, hi] window,
    then local grid refinement down to ~1e-9 deg.  Returns per task the
    (4, len(b)) rows (rmse, phi, a, c).

    bound is None on the coarse b grid, a range too wide for the cut to skip
    anything: each task scans its whole grid, and tasks with bit-equal
    (angles, lo, hi, b) share one kernel call, so one design.

    In the b refinement bound is (b1, b2, kept): the stage's span, which
    holds b, and the window's _Kept, which this call updates.  The coarse
    scan skips each grid point where _cut proves that every exponent's rmse
    exceeds r_max, the largest over the task's rows of the rmse at the kept
    point of least rho3, plus _TIE_TOL: no such point can win or tie, and
    the kernel's rmse at a point does not depend on the other points
    scanned, so the result is the same bit for bit.  A bound over a range
    holds on its subranges, so a span inside kept's range first cuts with
    the kept terms, then recomputes them for its own span at the points left
    and cuts again; any other span recomputes them at every point.

    The rows of all tasks with the same sample count share one kernel call
    for r_max and one per refinement stage."""
    best = [None] * len(tasks)
    by_count: dict[int, list[int]] = {}
    for t, task in enumerate(tasks):
        by_count.setdefault(task[0].shape[0], []).append(t)
    for members in by_count.values():
        angles, losses, lo, hi, b, bound = zip(*(tasks[t] for t in members))
        sizes = [len(bt) for bt in b]
        grids = [_coarse_grid(*w) for w in zip(lo, hi)]
        task_of_row = np.repeat(np.arange(len(members)), sizes)
        rows_of = np.cumsum(sizes)[:-1]
        a_rows = np.stack(angles, axis=1)[:, task_of_row]  # (n, rows): one column per row
        y_rows = np.stack(losses, axis=1)[:, task_of_row]
        b_rows = np.concatenate(b)
        if bound[0] is None:
            designs: dict[bytes, list[int]] = {}  # tasks by their bits of (angles, lo, hi, b)
            for i, (at, lt, ht, bt) in enumerate(zip(angles, lo, hi, b)):
                designs.setdefault(np.concatenate([at, [lt, ht], bt]).tobytes(), []).append(i)
            for shared in designs.values():
                i = shared[0]
                found = _best_over_phi(angles[i], np.stack([losses[j] for j in shared], axis=1),
                                       b[i], grids[i])
                for j, rows in zip(shared, found):
                    best[members[j]] = rows
        else:
            reuse = [kp.b1 <= b1 and b2 <= kp.b2 for b1, b2, kp in bound]
            for i, (b1, b2, kp) in enumerate(bound):
                if not reuse[i]:
                    kp.b1, kp.b2 = b1, b2
                    kp.terms = _bound_terms(angles[i], losses[i], np.array([b1, b2]), grids[i])
            phi0 = np.array([g[np.argmin(kp.terms[0])] for g, (*_, kp) in zip(grids, bound)])
            r0 = np.split(_best_over_phi(a_rows, y_rows, b_rows, phi0[task_of_row, None])[0],
                          rows_of)
            for i, (t, (b1, b2, kp)) in enumerate(zip(members, bound)):
                r_max = float(np.max(r0[i])) + _TIE_TOL
                cut = _cut(kp.terms, losses[i], r_max)
                if reuse[i]:
                    kp.b1, kp.b2 = b1, b2
                    kp.terms[:, ~cut] = _bound_terms(angles[i], losses[i], np.array([b1, b2]),
                                                     grids[i][~cut])
                    cut = _cut(kp.terms, losses[i], r_max)
                best[t] = _best_over_phi(angles[i], losses[i], b[i], grids[i][~cut])

        lo, hi = np.array(lo)[task_of_row, None], np.array(hi)[task_of_row, None]
        cur = np.concatenate([best[t] for t in members], axis=1)
        step = PHI_GRID_STEP_DEG
        for _ in range(REFINE_STAGES):
            # sorted already; clipped duplicates tie and the first one wins
            local = np.clip(np.linspace(cur[1] - step, cur[1] + step, 21, axis=-1), lo, hi)
            cand = _best_over_phi(a_rows, y_rows, b_rows, local)
            cur = np.where(cand[0] < cur[0] - _TIE_TOL, cand, cur)
            step /= 10.0
        for t, rows in zip(members, np.split(cur, rows_of, axis=1)):
            best[t] = rows
    return best


def _pick(b_values: np.ndarray, rows: np.ndarray, best=None):
    """Scan exponents ascending; ties keep the smaller b (scanned first)."""
    rmse, phi, a, c = rows
    for i, b in enumerate(b_values):
        if best is None or rmse[i] < best[4] - _TIE_TOL:
            best = (float(b), float(phi[i]), float(a[i]), float(c[i]), float(rmse[i]))
    return best


def _refined_search(windows: list[tuple]) -> list[tuple]:
    """Coarse b grid, then (if a > 0) nested b refinement around the best b,
    for each (angles, losses, lo, hi) window.  Returns per window
    (b, phi, a, c, rmse).  A refinement stage skips each b its window has
    fitted: the fit would repeat bit for bit, and _pick rejected it or holds
    it as the best, which only falls, so it would be rejected again."""
    n_b = int(round((B_GRID_STOP - B_GRID_START) / B_GRID_STEP)) + 1
    b_grid = B_GRID_START + B_GRID_STEP * np.arange(n_b)
    rows = _phi_conditional([(*w, b_grid, None) for w in windows])
    best = [_pick(b_grid, r) for r in rows]
    refine = [w for w, found in enumerate(best) if found[2] > 0]
    fitted = {w: set(b_grid.tolist()) for w in refine}
    kept = {w: _Kept() for w in refine}
    step_b = B_GRID_STEP
    for _ in range(REFINE_STAGES):
        stage = []
        for w in refine:
            rb = np.clip(np.linspace(best[w][0] - step_b, best[w][0] + step_b, 21),
                         B_GRID_START, B_GRID_STOP)  # ascending: a clipped end repeats
            span = (float(rb[0]), float(rb[-1]))
            rb = rb[(np.diff(rb, prepend=-np.inf) > 0) & [b not in fitted[w] for b in rb.tolist()]]
            fitted[w].update(rb.tolist())
            if rb.size:
                stage.append((w, rb, (*span, kept[w])))
        rows = _phi_conditional([(*windows[w], rb, bound) for w, rb, bound in stage])
        for (w, rb, _), r in zip(stage, rows):
            best[w] = _pick(rb, r, best[w])
        step_b /= 10.0
    return best


def _window(samples: Iterable[ReflSample]) -> tuple:
    """Sorted (angles, losses) and their phi_bar search window (lo, hi);
    raises ValidationError if the samples cannot be fitted."""
    kept = sorted(samples, key=lambda s: (s.reflection_angle_deg, s.additional_loss_db, s.rx_id))
    if len(kept) < 4:
        raise ValidationError(f"fit needs at least 4 samples, got {len(kept)}")
    angles = np.array([s.reflection_angle_deg for s in kept])
    losses = np.array([s.additional_loss_db for s in kept])
    gaps = np.diff(angles)  # the angles ascend, so a zero gap is a repeated angle
    if not gaps.any():
        raise ValidationError("all sample angles are identical")
    if np.count_nonzero(gaps) < 2:
        raise ValidationError("fit needs at least 3 distinct angles")

    # phi_bar search window: the sample-angle range, narrowed to one
    # angle-gap around the empirical minimum-loss angle.
    gap = float(np.max(gaps))
    argmin_angle = float(angles[int(np.argmin(losses))])
    lo = max(float(angles[0]), argmin_angle - gap)
    hi = min(float(angles[-1]), argmin_angle + gap)

    # The search is finite if sum(y^2) < 2^1020 (an overflowed sum, inf, fails):
    # every fit the kernel can pick (unclamped least squares, (0, mean y),
    # (max(mxy / mxx, 0), 0)) has a residual sum of squares <= sum(y^2);
    # x = u^b <= 90^2, so x y stays far below the float64 limit; the bound's
    # sums are linear in y or bounded by sum(y^2); and the factor of 16 below
    # float64's largest value covers rounding.
    with np.errstate(over="ignore"):
        if not np.sum(losses * losses) <= _SQUARES_MAX:
            raise ValidationError(f"fit: losses up to {float(np.max(np.abs(losses))):.3g} dB "
                                  "overflow float64 in the least-squares search")
    return angles, losses, lo, hi


def fit_refl_models(groups: Iterable[Iterable[ReflSample]]) -> list[FitResult | ValidationError]:
    """fit_refl_model of each group, run together: the phi_bar refinement of
    all groups with the same sample count shares its kernel calls, and
    groups with bit-equal angles and phi_bar window share the coarse scan's
    design, which changes no bit of any fit.  Returns per group its
    FitResult, or the ValidationError that fit_refl_model would raise for
    it; the other groups still fit."""
    results: list = []
    windows: dict[int, tuple] = {}
    for g, samples in enumerate(groups):
        try:
            windows[g] = _window(samples)
            results.append(None)
        except ValidationError as exc:
            results.append(exc)
    with np.errstate(over="raise", invalid="raise"):  # _window's rule keeps this finite
        found = _refined_search(list(windows.values()))
    for (g, w), (b, phi, a, c, rmse) in zip(windows.items(), found):
        model = ReflLossModel(phi_bar_deg=phi, a=a, b=b, c=c)
        results[g] = FitResult(model, rmse_db=rmse, b_identifiable=a > 0, n_samples=w[0].shape[0])
    return results


def fit_refl_model(samples: Iterable[ReflSample]) -> FitResult:
    """Fit the polynomial law to the samples.

    Needs at least 4 samples over at least 3 distinct angles, with a sum of
    squared losses below 2^1020, so that the search stays finite in
    float64.  Deterministic: samples are sorted internally, grids are fixed,
    ties break toward the smallest b then the smallest phi_bar.
    """
    (fit,) = fit_refl_models([samples])
    if isinstance(fit, ValidationError):
        raise fit
    return fit


def generate_samples(
    model: ReflLossModel,
    angles_deg: Sequence[float],
    noise_sigma_db: float = 0.0,
    rng: np.random.Generator | None = None,
    band_label: str = "",
) -> list[ReflSample]:
    """Samples drawn from the model, optionally with Gaussian dB noise."""
    if not (math.isfinite(noise_sigma_db) and noise_sigma_db >= 0):
        raise ValidationError(f"noise sigma must be finite and >= 0 dB, got {noise_sigma_db}")
    with np.errstate(over="ignore", invalid="ignore"):  # each ReflSample rejects a non-finite loss
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
            band_label=band_label,
        )
        for k, (angle, val) in enumerate(zip(angles_deg, values))
    ]


def write_fit_table_csv(entries: Iterable[tuple[str, str, FitResult]], path) -> None:
    """Table-style CSV: one row per scenario/band."""
    write_csv(path, "scenario,band,phi_bar_deg,a,b,c,rmse_db",
              ((scenario, band, fit.model.phi_bar_deg, fit.model.a, fit.model.b, fit.model.c,
                fit.rmse_db) for scenario, band, fit in entries))
