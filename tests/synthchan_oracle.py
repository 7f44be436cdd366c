"""Reference geometry: the brute-force path enumeration and angle-set loop.

``enumerate_paths`` walks every surface sequence, rebuilds its image chain
from scratch and tests each segment against each surface, one scalar
``Rectangle`` call at a time.  ``nirs_angle_set`` casts one ray per scan
direction and panel cell.  Both are what ``thznirs.synthchan`` and
``thznirs.scene`` computed before their batched image tree and ray test;
they are kept only so that the tests can require the batched code to return
exactly (``==``) the same paths and sets.  They share ``_build_path``, the
margins and the ``Rectangle`` methods of the package.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from thznirs.errors import NoNirsPanelWarning, ValidationError
from thznirs.scene import Rectangle, ScanGrid, Scene, Surface
from thznirs.synthchan import _SEG_EPS, PropagationPath, _build_path


def _segment_blocked(p, q, surfaces: list[Surface]) -> bool:
    """True if any surface crosses the open segment p->q.

    Crossings at the endpoints themselves (the reflecting surfaces) land at
    parameter 0 or 1 and are excluded by the epsilon margin.
    """
    for s in surfaces:
        if s.rectangle.intersect_segment(p, q, lo=_SEG_EPS, hi=1.0 - _SEG_EPS):
            return True
    return False


def enumerate_paths(scene: Scene, rx_index: int, max_bounces: int = 2) -> list[PropagationPath]:
    """All unobstructed image-method paths with at most ``max_bounces`` bounces."""
    if not (0 <= max_bounces <= 3):
        raise ValidationError("enumerate_paths: max_bounces must lie in [0, 3]")
    tx = scene.tx_position
    rx = scene.rx_position(rx_index)
    surfaces = scene.surfaces()
    paths: list[PropagationPath] = []

    if not _segment_blocked(tx, rx, surfaces):
        paths.append(_build_path(tx, rx, []))

    n = len(surfaces)
    for order in range(1, max_bounces + 1):
        for seq in itertools.product(range(n), repeat=order):
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue
            chain = [surfaces[k] for k in seq]
            # Mirror Tx through the surface planes in bounce order.
            images = []
            img = tx
            for s in chain:
                img = s.rectangle.mirror(img)
                images.append(img)
            # Backtrack reflection points from the Rx end.
            hits: list[tuple[Surface, np.ndarray]] = []
            target = rx
            ok = True
            for s, img in zip(reversed(chain), reversed(images)):
                found = s.rectangle.intersect_segment(img, target, lo=_SEG_EPS, hi=1.0 - _SEG_EPS)
                if found is None:
                    ok = False
                    break
                target = found[1]
                hits.append((s, target))
            if not ok:
                continue
            hits.reverse()
            waypoints = [tx] + [p for _, p in hits] + [rx]
            if any(
                _segment_blocked(a, b, surfaces) for a, b in zip(waypoints, waypoints[1:])
            ):
                continue
            paths.append(_build_path(tx, rx, hits))

    paths.sort(key=lambda p: (p.bounce_count, p.total_length_m, p.surfaces_hit))
    return paths


def intersect_ray(rect: Rectangle, origin, direction, min_range: float = 1e-9):
    """First intersection of the ray origin + r*direction (r > min_range)."""
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    denom = float(np.dot(d, rect.normal))
    if abs(denom) < 1e-15:
        return None
    r = float(np.dot(rect.origin - o, rect.normal)) / denom
    if r <= min_range:
        return None
    point = o + r * d
    if rect.contains(point):
        return r, point
    return None


def nirs_angle_set(
    scene: Scene, rx_index: int, grid: ScanGrid | None = None
) -> frozenset[tuple[int, int]]:
    """Scan-grid directions whose ray from the Rx hits an active sub-panel."""
    grid = grid or scene.scan_grid
    rx = scene.rx_position(rx_index)
    rects = [rect for panel in scene.nirs_panels for _, rect in panel.active_rectangles()]
    if not rects:
        warnings.warn("scene has no NIRS panel; angle set is empty", NoNirsPanelWarning)
        return frozenset()
    hits = set()
    for i in range(grid.n_elevation):
        for j in range(grid.n_azimuth):
            d = grid.direction(i, j)
            if any(intersect_ray(rect, rx, d) is not None for rect in rects):
                hits.add((i, j))
    return frozenset(hits)


def path_record(p: PropagationPath) -> tuple:
    """Every field of a path, arrays as raw bytes, for bit-exact ``==``."""
    return (
        p.surfaces_hit,
        p.bounce_count,
        p.delay_s,
        p.total_length_m,
        p.cumulative_reflection_loss_db,
        p.departure_direction.tobytes(),
        p.arrival_direction.tobytes(),
        tuple(np.asarray(x).tobytes() for x in p.points),
    )
