"""Reference geometry: scalar ray-plane functions and the loops built on them.

``enumerate_paths`` walks every surface sequence, rebuilds its image chain
from scratch and tests each segment against each surface, one scalar
rectangle call at a time.  ``nirs_angle_set`` casts one ray per scan
direction and panel cell, and ``specular_point`` mirrors the Tx through one
panel plane.  They are what ``thznirs.synthchan`` and ``thznirs.scene``
computed before their batched image tree and ``RectangleStack`` kernel;
they are kept only so that the tests can require the batched code to return
exactly (``==``) the same paths, sets and points.  They share
``_build_path``, the margins and the one-panel rule (``nirs_panel``) of the
package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from thznirs.errors import NoSpecularGeometryError, ValidationError
from thznirs.scene import _PARALLEL_EPS, Rectangle, ScanGrid, Scene, Surface, nirs_panel
from thznirs.synthchan import _SEG_EPS, PropagationPath, _build_path


def direction_vector(el_deg: float, az_deg: float) -> np.ndarray:
    el = math.radians(el_deg)
    az = math.radians(az_deg)
    return np.array(
        [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
    )


def local_coords(rect: Rectangle, point) -> tuple[float, float, float]:
    """(s, t, plane distance): point = origin + s u + t v + dist * normal."""
    w = np.asarray(point, dtype=float) - rect.origin
    s = float(np.dot(w, rect.u) / np.dot(rect.u, rect.u))
    t = float(np.dot(w, rect.v) / np.dot(rect.v, rect.v))
    dist = float(np.dot(w, rect.normal))
    return s, t, dist


def contains(rect: Rectangle, point, tol: float = 1e-9) -> bool:
    s, t, dist = local_coords(rect, point)
    cut, pad_s, pad_t = rect._margins(tol)
    if abs(dist) > cut:
        return False
    return -pad_s <= s <= 1.0 + pad_s and -pad_t <= t <= 1.0 + pad_t


def mirror(rect: Rectangle, point) -> np.ndarray:
    """Mirror image of a point across the rectangle's plane."""
    p = np.asarray(point, dtype=float)
    d = float(np.dot(p - rect.origin, rect.normal))
    return p - 2.0 * d * rect.normal


def segment_plane_parameter(rect: Rectangle, p, q) -> float | None:
    """Parameter t in [0,1] where segment p->q crosses the plane, else None."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    denom = float(np.dot(q - p, rect.normal))
    if abs(denom) < _PARALLEL_EPS:
        return None
    t = float(np.dot(rect.origin - p, rect.normal)) / denom
    if 0.0 <= t <= 1.0:
        return t
    return None


def intersect_segment(rect: Rectangle, p, q, lo: float = 0.0, hi: float = 1.0):
    """(t, point) where segment p->q crosses the rectangle, or None.

    Only crossings with parameter in [lo, hi] count.
    """
    t = segment_plane_parameter(rect, p, q)
    if t is None or not (lo <= t <= hi):
        return None
    point = np.asarray(p, dtype=float) + t * (np.asarray(q, dtype=float) - np.asarray(p, dtype=float))
    if contains(rect, point):
        return t, point
    return None


def specular_point(scene: Scene, rx_index: int) -> np.ndarray:
    """Specular reflection point of Tx -> panel -> Rx on the panel rectangle."""
    rect = nirs_panel(scene).rectangle
    tx = scene.tx_position
    rx = scene.rx_position(rx_index)
    side_tx = float(np.dot(tx - rect.origin, rect.normal))
    side_rx = float(np.dot(rx - rect.origin, rect.normal))
    if side_tx * side_rx < 0:
        raise NoSpecularGeometryError(
            "no specular geometry: Tx and Rx on opposite sides of the panel plane"
        )
    hit = intersect_segment(rect, mirror(rect, tx), rx, lo=0.0, hi=1.0)
    if hit is None:
        raise NoSpecularGeometryError(
            "no specular geometry: mirror ray misses the panel rectangle"
        )
    return hit[1]


def _segment_blocked(p, q, surfaces: list[Surface]) -> bool:
    """True if any surface crosses the open segment p->q.

    Crossings at the endpoints themselves (the reflecting surfaces) land at
    parameter 0 or 1 and are excluded by the epsilon margin.
    """
    for s in surfaces:
        if intersect_segment(s.rectangle, p, q, lo=_SEG_EPS, hi=1.0 - _SEG_EPS):
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
                img = mirror(s.rectangle, img)
                images.append(img)
            # Backtrack reflection points from the Rx end.
            hits: list[tuple[Surface, np.ndarray]] = []
            target = rx
            ok = True
            for s, img in zip(reversed(chain), reversed(images)):
                found = intersect_segment(s.rectangle, img, target, lo=_SEG_EPS, hi=1.0 - _SEG_EPS)
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
    if contains(rect, point):
        return r, point
    return None


def nirs_angle_set(
    scene: Scene, rx_index: int, grid: ScanGrid | None = None
) -> frozenset[tuple[int, int]]:
    """Scan-grid directions whose ray from the Rx hits an active sub-panel."""
    nirs_panel(scene)
    grid = grid or scene.scan_grid
    rx = scene.rx_position(rx_index)
    rects = [s.rectangle for s in scene.surfaces()[len(scene.walls):]]
    hits = set()
    for i in range(grid.n_elevation):
        for j in range(grid.n_azimuth):
            d = direction_vector(grid.elevation_deg[i], grid.azimuth_deg[j])
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
