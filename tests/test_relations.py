"""Relations the chain must obey whatever its code: a scene is transformed in
a way whose effect on the output is known in closed form, so no second
implementation is needed as the oracle.

The relations run on the shipped mini with-panel scenes (reciprocity,
rotation and the system-response invariance at 3 bounces, the gain shift at
1 and 3) and on a line-of-sight link (the beam-grid bias of one path). Their
bounds come from float64 rounding alone.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import SMALL_PLAN, los_scene, shipped_scene

from thznirs.calibrate import SystemResponse
from thznirs.pathloss import CiModel, omni_path_loss, rx_path_loss, write_pathloss_csv
from thznirs.pdap import pdap_from_sweeps
from thznirs.scene import (SPEED_OF_LIGHT, AntennaPattern, FrequencySweep, frequency_grid,
                           scene_from_dict, scene_to_dict)
from thznirs.synthchan import enumerate_paths, synthesize_sweep

MINI_WITH_PANEL = ("corridor_mini.json", "hallway_mini.json")
BOUNCES = 3
ULPS_PER_SEGMENT = 4  # a segment's norm, its share of the sum, and its end points' rounding
U = np.finfo(float).eps / 2  # float64's unit roundoff
NEAR_SENTINEL_DB = -299.0  # the lowest whole-dB threshold above the sentinel: drops next to nothing
DB = 10 * math.log10(math.e)  # dB per unit of relative error in a power
COMPLEX_MUL_ULPS = math.sqrt(5)  # Brent, Percival & Zimmermann, Math. Comp. 76 (2007)
# numpy's complex divide is Smith's: r = d/c, s = 1/(c + d r), ((a + b r) s, (b - a r) s)
# for |c| >= |d|. r costs u, c + d r (two terms of one sign) 2u more, s 1u more;
# the numerator's error is under 3u of its norm sqrt(1 + r^2)|a + ib|, and the
# products with s u more: 8u of the quotient in all.
COMPLEX_DIV_ULPS = 8


def _power_sum_rounding(n_summed: int, n_freq: int) -> float:
    """How far rounding may move a path loss's linear power sum, relative to it.

    - Summing ``n_summed`` positive entries adds at most (n - 1) u, whatever
      the order of the additions (numpy's pairwise one included).
    - Each entry reaches the sum through its dB value, 20 log10|h| and back
      through 10**(dB / 10): about four roundings of a value below 512 dB,
      which in power is ln(10) / 10 per dB.
    - Each direction's |h| comes from an inverse DFT of N samples. An output
      computed as an N-term sum is within (N + 2) u of (1/N) sum|H| <= ||h||,
      so the direction's total power moves by at most 2 sqrt(N) (N + 2) u of it.
    """
    db_round_trip = math.log(10) / 10 * 4 * float(np.spacing(512.0))
    idft = 2 * math.sqrt(n_freq) * (n_freq + 2) * U
    return (n_summed - 1) * U + db_round_trip + idft


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


def _with_gains_cut(scene, db: float):
    """``scene`` with both boresight gains lowered by ``db``, the beamwidths kept."""
    return dataclasses.replace(scene, **{
        name: AntennaPattern(pattern.boresight_gain_dbi - db, pattern.hpbw_deg)
        for name, pattern in (("tx_pattern", scene.tx_pattern), ("rx_pattern", scene.rx_pattern))
    })


@pytest.mark.parametrize("bounces", [1, 3])
@pytest.mark.parametrize("name", MINI_WITH_PANEL)
def test_cutting_both_boresight_gains_shifts_every_path_loss_by_the_cut(name, bounces):
    """The profile carries the antennas' gains, so a 3 dB cut at each end moves
    pl_dir, pl_omni and l_ref by 6 dB. This pins today's double count of the
    gains; once the chain removes the embedded gains the expected shift is 0.

    Bound: each path amplitude, so each sweep and (by linearity) each profile
    entry's power, moves by the common factor; what differs is rounding. Each
    run's power sums are within ``_power_sum_rounding`` of exact, with n at most
    the cube's entry count, so the two runs differ by twice that in dB. Entries
    that the cut pushes below -299 dB hold under 10**-29.3 each, against a
    total of at least 10**(-pl_dir / 10). The final
    -10 log10 and l_ref's subtraction of the same CI value round each result
    within an ulp or two of its size.
    """
    scene = shipped_scene(name)
    cut = _with_gains_cut(scene, 3.0)
    ci = CiModel(ple=2.0)
    plan = scene.frequency_plan
    n_entries = scene.scan_grid.n_elevation * scene.scan_grid.n_azimuth * plan.point_count
    for k in range(scene.n_rx):
        before, after = (rx_path_loss(s, k, synthesize_sweep(s, k, bounces).sweeps, None, ci,
                                      threshold_db=NEAR_SENTINEL_DB) for s in (scene, cut))
        crossed = n_entries * 10 ** ((NEAR_SENTINEL_DB + 6.0) / 10 + after.pl_dir_db / 10)
        for field in ("pl_dir_db", "pl_omni_db", "l_ref_db"):
            b, a = getattr(before, field), getattr(after, field)
            bound = (2 * DB * _power_sum_rounding(n_entries, plan.point_count) + DB * crossed
                     + 4 * float(np.spacing(max(abs(a), abs(b)))))
            assert abs(a - b - 6.0) <= bound, (field, k, a - b - 6.0, bound)


@pytest.mark.parametrize("az_deg, el_deg",
                         [(0.0, 0.0), (2.5, 0.0), (5.0, 0.0), (5.0, 5.0), (1.3, -3.7)])
def test_one_path_omni_loss_is_the_beam_summed_over_the_scan_grid(az_deg, el_deg):
    """One free-space path, arriving (az_deg, el_deg) off the grid direction
    (0, 0), with unity-gain antennas and the Tx facing the Rx. By Parseval, the
    power over each direction's delay bins is the mean over the plan of
    |H(f)|^2, so

        pl_omni = -10 log10(sum_d 10^(-1.2 theta_d^2 / HPBW^2) mean_f (c / (4 pi f d))^2)

    where theta_d is the angle between grid direction d and the arrival.
    pl_omni - FSPL is then the beam-grid bias of ROADMAP item M: -0.229,
    +0.576, +1.561 and +3.305 dB for the first four offsets.

    Bound: the profile's sum is within ``_power_sum_rounding`` of exact with
    n its summed entries; the closed form sums its directions and frequencies
    within (n_dir + n_freq) u; the entries below -299 dB that the profile
    drops hold under 10**-29.9 each; and each -10 log10 rounds within an ulp
    or two of the result.
    """
    d = 5.0
    scene = los_scene(d, SMALL_PLAN)
    az, el = math.radians(az_deg), math.radians(el_deg)
    arrival = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
    scene = dataclasses.replace(scene, tx_position=scene.rx_positions[0] + d * arrival,
                                tx_boresight=-arrival)
    grid, f = scene.scan_grid, frequency_grid(SMALL_PLAN)
    pdap = pdap_from_sweeps(synthesize_sweep(scene, 0, 0).sweeps, grid, SMALL_PLAN.span_hz,
                            NEAR_SENTINEL_DB)
    pl_omni = omni_path_loss(pdap)

    dirs = grid.direction_vectors().reshape(-1, 3)
    theta = np.degrees(np.arccos(np.clip(dirs @ arrival, -1.0, 1.0)))
    beam = np.sum(10 ** (-1.2 * theta ** 2 / scene.rx_pattern.hpbw_deg ** 2))
    friis = np.mean((SPEED_OF_LIGHT / (4 * np.pi * f * d)) ** 2)
    expected = -10 * math.log10(beam * friis)

    n_summed = int(np.count_nonzero(pdap.signal_mask()))
    dropped = (pdap.power_db.size - n_summed) * 10 ** (NEAR_SENTINEL_DB / 10 + pl_omni / 10)
    bound = (DB * (_power_sum_rounding(n_summed, f.size) + (dirs.shape[0] + f.size) * U + dropped)
             + 4 * float(np.spacing(pl_omni)))
    assert abs(pl_omni - expected) <= bound, (pl_omni - expected, bound)
    bias = {(0.0, 0.0): -0.229, (2.5, 0.0): 0.576, (5.0, 0.0): 1.561, (5.0, 5.0): 3.305}
    if (az_deg, el_deg) in bias:
        assert round(pl_omni + 10 * math.log10(friis), 3) == bias[az_deg, el_deg]


def _cable(plan):
    """A cable-like system response: -20 dB at the band's start, 3 dB lower at its
    stop, a 0.5 dB (peak to peak) ripple of 7 periods, and a 2 ns delay."""
    f = frequency_grid(plan)
    x = (f - f[0]) / (f[-1] - f[0])
    level_db = -20.0 - 3.0 * x + 0.25 * np.sin(2 * np.pi * 7 * x)
    return 10 ** (level_db / 20) * np.exp(-2j * np.pi * f * 2e-9)


@pytest.mark.parametrize("name", MINI_WITH_PANEL)
def test_a_system_response_divided_out_changes_no_result(name, tmp_path):
    """Relation 5: a sounder's sweeps carry its system response S(f), and the
    calibration divides it out. Planting S in both the sweeps and the divisor
    (criterion 10's through and 32 dB setup factor) changes no row.

    Bound: the planted run's samples are (H S)(1 + e1) / ((D S)(1 + e2)) (1 + e3),
    the plain run's H / D (1 + e4): one complex multiply each for H S and D S,
    one divide each. So each sample moves by at most
    delta = (2 COMPLEX_MUL_ULPS + 2 COMPLEX_DIV_ULPS + 1) u of itself. By
    Parseval the inverse DFT of the change has at most delta of the norm of
    the direction's profile, so the direction's power moves by at most
    2 delta + delta^2 of it. On top come each run's own rounding
    (``_power_sum_rounding``, as for the gain relation), entries that cross
    the -299 dB threshold (within rounding of it, so under twice its power
    each), and the final -10 log10's ulps. At the pipeline's own threshold the
    rows must also be equal as the results file writes them.
    """
    scene = shipped_scene(name)
    plan = scene.frequency_plan
    ones = np.ones(plan.point_count, dtype=complex)
    extra = FrequencySweep(plan, np.full(plan.point_count, 10 ** (32 / 20), dtype=complex))
    cable = _cable(plan)
    plain = SystemResponse(FrequencySweep(plan, ones), extra).divisor(plan)
    planted = SystemResponse(FrequencySweep(plan, cable), extra).divisor(plan)
    ci = CiModel(ple=1.35)
    delta = (2 * COMPLEX_MUL_ULPS + 2 * COMPLEX_DIV_ULPS + 1) * U
    n_entries = scene.scan_grid.n_elevation * scene.scan_grid.n_azimuth * plan.point_count
    rows = {"plain": [], "planted": []}
    for k in range(scene.n_rx):
        sweeps = synthesize_sweep(scene, k, BOUNCES).sweeps
        runs = {"plain": (sweeps, plain), "planted": (sweeps * cable, planted)}
        for label, (measured, divisor) in runs.items():
            rows[label].append(rx_path_loss(scene, k, measured, divisor, ci))
        before, after = (rx_path_loss(scene, k, measured, divisor, ci,
                                      threshold_db=NEAR_SENTINEL_DB)
                         for measured, divisor in runs.values())
        for field in ("pl_dir_db", "pl_omni_db", "l_ref_db"):
            b, a = getattr(before, field), getattr(after, field)
            crossed = 2 * n_entries * 10 ** (NEAR_SENTINEL_DB / 10 + before.pl_dir_db / 10)
            bound = (2 * DB * _power_sum_rounding(n_entries, plan.point_count)
                     + DB * (2 * delta + delta ** 2 + crossed)
                     + 4 * float(np.spacing(max(abs(a), abs(b)))))
            assert abs(a - b) <= bound, (field, k, a - b, bound)
    for label, results in rows.items():
        write_pathloss_csv(results, tmp_path / f"{label}.csv")
    assert (tmp_path / "planted.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
