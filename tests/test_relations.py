"""Relations the chain must obey whatever its code: a scene is transformed in
a way whose effect on the output is known in closed form, so no second
implementation is needed as the oracle.

Both relations run on the shipped mini with-panel scenes at 3 bounces, and
their bounds come from float64 rounding alone.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import shipped_scene

from thznirs.pathloss import CiModel, rx_path_loss
from thznirs.scene import SPEED_OF_LIGHT, scene_from_dict, scene_to_dict
from thznirs.synthchan import enumerate_paths, synthesize_sweep

MINI_WITH_PANEL = ("corridor_mini.json", "hallway_mini.json")
BOUNCES = 3
ULPS_PER_SEGMENT = 4  # a segment's norm, its share of the sum, and its end points' rounding


def _length_bound(length_m: float, bounces: int) -> float:
    """How far rounding may move a path length computed from other but equal geometry.

    The length is stationary in each reflection point along its surface (Fermat),
    so a point's rounding enters only across the surface, at the scale of one ulp
    of a coordinate, which is at most one ulp of the length.
    """
    return ULPS_PER_SEGMENT * (bounces + 1) * float(np.spacing(length_m))


@pytest.mark.parametrize("name", MINI_WITH_PANEL)
def test_swapping_tx_and_rx_reverses_every_path(name):
    scene = shipped_scene(name)
    for k in range(scene.n_rx):
        forward = {p.surfaces_hit: p for p in enumerate_paths(scene, k, BOUNCES)}
        swapped = dataclasses.replace(scene, tx_position=scene.rx_positions[k],
                                      rx_positions=[scene.tx_position])
        reverse = {p.surfaces_hit[::-1]: p for p in enumerate_paths(swapped, 0, BOUNCES)}
        assert forward and sorted(forward) == sorted(reverse), f"rx {k}"
        for seq, path in forward.items():
            back = reverse[seq]
            # every surface loss here is a whole number of dB, so any order sums it exactly
            assert back.cumulative_reflection_loss_db == path.cumulative_reflection_loss_db
            assert (abs(back.total_length_m - path.total_length_m)
                    <= _length_bound(path.total_length_m, len(seq))), (k, seq)


def _turned(scene, degrees: float):
    """``scene`` turned by ``degrees`` about the vertical through rx 0."""
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    ox, oy = (float(v) for v in scene.rx_positions[0][:2])

    def turn(p, x0=ox, y0=oy):
        x, y = p[0] - x0, p[1] - y0
        return [x0 + c * x - s * y, y0 + s * x + c * y, *p[2:]]

    data = scene_to_dict(scene)
    for surface in data["walls"] + data["nirs_panels"]:
        surface["corners"] = [turn(p) for p in surface["corners"]]
    data["tx"]["position"] = turn(data["tx"]["position"])
    data["tx"]["boresight"] = turn(data["tx"]["boresight"], 0.0, 0.0)  # a direction
    data["rx"]["positions"] = [turn(p) for p in data["rx"]["positions"]]
    return scene_from_dict(data)


def _rows(scene):
    ci = CiModel(ple=2.0)
    return [rx_path_loss(scene, k, synthesize_sweep(scene, k, BOUNCES).sweeps, None, ci)
            for k in range(scene.n_rx)]


@pytest.mark.parametrize("name", MINI_WITH_PANEL)
def test_turning_the_scene_by_whole_azimuth_steps_changes_no_result(name):
    """The scan grid covers the full circle in 10 degree steps, so a turn by a
    multiple of 10 degrees only relabels the azimuth bins.

    Bounds: the turn moves each path length by rounding only (the reciprocity
    bound), so each path's phase at frequency f moves by at most 2 pi f dL / c.
    A power sum whose terms' phases move by at most dphi changes by a factor
    1 +- 2 dphi when no term cancels another, i.e. 20 log10(e) dphi dB. A
    geometric angle moves by at most a few ulps of the coordinates over the
    shorter leg, d1 or d2.
    """
    scene = shipped_scene(name)
    before = _rows(scene)
    longest = max(p.total_length_m for k in range(scene.n_rx)
                  for p in enumerate_paths(scene, k, BOUNCES))
    dphi = (2 * math.pi * scene.frequency_plan.f_stop_hz / SPEED_OF_LIGHT
            * _length_bound(longest, BOUNCES))
    db_bound = 20 * math.log10(math.e) * dphi
    points = [s.rectangle.corners for s in scene.surfaces()]
    points += [[scene.tx_position], scene.rx_positions]
    coordinate_ulp = float(np.spacing(np.max(np.abs(np.concatenate(points)))))
    for degrees in (10.0, -20.0):
        after = _rows(_turned(scene, degrees))
        for b, a in zip(before, after):
            where = (degrees, b.rx_id)
            for field in ("pl_dir_db", "pl_omni_db", "l_ref_db"):
                assert abs(getattr(a, field) - getattr(b, field)) <= db_bound, (field, where)
            angle_bound = math.degrees(ULPS_PER_SEGMENT * coordinate_ulp / min(b.d1_m, b.d2_m))
            assert abs(a.reflection_angle_deg - b.reflection_angle_deg) <= angle_bound, where
