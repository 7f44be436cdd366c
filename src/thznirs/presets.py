"""Ready-made synthetic scenes on the measurement defaults.

Both indoor scenes are L-shaped: a transmitter leg and a receiver leg meet
at a right-angle turn.  With axis-aligned opaque walls, specular bounces
cannot carry power around a right angle within three reflections (each wall
flips one velocity component, so the |vx|/|vy| ratio never changes).  The
turn therefore carries a chamfer wall across the corner at 45 degrees with
ordinary wall loss, standing in for the corner scattering a real corridor
provides, and the reflector panel is a lower-loss rectangle mounted 5 mm in
front of that chamfer.  Removing the panel leaves the wall-grade chamfer,
which is the without-reflector configuration of the paired experiments.

Layouts are approximations of typical corridor and hallway turns, not
surveyed floor plans.
"""

from __future__ import annotations

import math

import numpy as np

from .scene import (
    AntennaPattern,
    FrequencyPlan,
    LossTable,
    NirsPanel,
    Rectangle,
    ScanGrid,
    Scene,
    Wall,
)

PLAN_306_321 = FrequencyPlan(f_start_hz=306e9, f_stop_hz=321e9, f_step_hz=2.5e6)
PLAN_356_371 = FrequencyPlan(f_start_hz=356e9, f_stop_hz=371e9, f_step_hz=2.5e6)
# Narrow-band variants for fast file-based runs; same 2.5 MHz step, so the
# 400 ns unambiguous delay range is unchanged.
PLAN_MINI_306 = FrequencyPlan(f_start_hz=306e9, f_stop_hz=306.25e9, f_step_hz=2.5e6)

_WALL_LOSS_DB = 12.0
DEFAULT_PANEL_LOSS_DB = 1.0
_WALL_HEIGHT_M = 3.0
_PANEL_STANDOFF_M = 0.005

# Orientation of the corridor scene; chosen so that receiver point 1 sees
# the reflector panel over the 140..170 degree azimuth bins.
_CORRIDOR_ROT_DEG = -111.0


def _rotz(deg: float) -> np.ndarray:
    r = math.radians(deg)
    return np.array(
        [
            [math.cos(r), -math.sin(r), 0.0],
            [math.sin(r), math.cos(r), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def _vertical_wall(p0_xy, p1_xy, z0: float, z1: float) -> Rectangle:
    x0, y0 = p0_xy
    x1, y1 = p1_xy
    return Rectangle(
        corners=np.array(
            [[x0, y0, z0], [x1, y1, z0], [x1, y1, z1], [x0, y0, z1]], dtype=float
        )
    )


def _l_scene(
    width: float,
    tx_leg_end: float,
    rx_leg_end: float,
    tx_xy,
    rx_xy_list,
    plan: FrequencyPlan,
    grid: ScanGrid,
    nirs: bool,
    panel_loss_db: float,
    panel_active,
    rot_deg: float,
) -> Scene:
    """Chamfered L: Tx leg along +x (y in [0, width]), Rx leg along +y.

    The whole layout is then turned by ``rot_deg`` about the z axis.
    """
    rot = _rotz(rot_deg) if rot_deg != 0.0 else None

    def place(rect: Rectangle) -> Rectangle:
        return rect if rot is None else Rectangle(corners=rect.corners @ rot.T)

    w = width
    walls_xy = [
        # Rx leg
        ((0.0, w), (0.0, rx_leg_end)),        # west
        ((w, w), (w, rx_leg_end)),            # east (blocks the direct line)
        ((0.0, rx_leg_end), (w, rx_leg_end)),  # far end
        # Tx leg
        ((w, 0.0), (tx_leg_end, 0.0)),        # south
        ((w, w), (tx_leg_end, w)),            # north
        ((tx_leg_end, 0.0), (tx_leg_end, w)),  # far end
        # Chamfer across the outer corner
        ((0.0, w), (w, 0.0)),
    ]
    walls = tuple(
        Wall(
            rectangle=place(_vertical_wall(p0, p1, 0.0, _WALL_HEIGHT_M)),
            material_loss=LossTable.constant(_WALL_LOSS_DB),
        )
        for p0, p1 in walls_xy
    )

    panels = ()
    if nirs:
        n_hat = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        along = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        center = np.array([w / 2.0, w / 2.0, 1.55]) + _PANEL_STANDOFF_M * n_hat
        rect = Rectangle.from_center(center, along, np.array([0.0, 0.0, 1.0]), 1.2, 1.0)
        panels = (
            NirsPanel(
                rectangle=place(rect),
                material_loss=LossTable.constant(panel_loss_db),
                subdivision=(3, 3),
                active_cells=None if panel_active == "all" else frozenset(panel_active),
            ),
        )

    tx = np.array([tx_xy[0], tx_xy[1], 2.0])
    boresight = np.array([-1.0, 0.0, 0.0])
    rx = np.array([[x, y, 1.75] for x, y in rx_xy_list])
    if rot is not None:
        tx, boresight, rx = rot @ tx, rot @ boresight, rx @ rot.T
    return Scene(
        walls=walls,
        nirs_panels=panels,
        tx_position=tx,
        tx_boresight=boresight,
        rx_positions=rx,
        frequency_plan=plan,
        scan_grid=grid,
    )


def corridor_scene(
    nirs: bool = True,
    plan: FrequencyPlan = PLAN_306_321,
    grid: ScanGrid | None = None,
    panel_loss_db: float = DEFAULT_PANEL_LOSS_DB,
    panel_active="all",
) -> Scene:
    """Narrow corridor turn (2 m wide) with 9 NLoS receiver points.

    Receiver point 1 sits near the corner; the panel subtends its
    140..170 degree azimuth bins.
    """
    rx = [
        (1.0, 2.6), (0.8, 2.6), (1.2, 2.6),
        (0.8, 5.0), (1.0, 5.0), (1.2, 5.0),
        (0.8, 7.5), (1.0, 7.5), (1.2, 7.5),
    ]
    return _l_scene(
        width=2.0,
        tx_leg_end=12.0,
        rx_leg_end=12.0,
        tx_xy=(10.0, 1.0),
        rx_xy_list=rx,
        plan=plan,
        grid=grid or ScanGrid.default(),
        nirs=nirs,
        panel_loss_db=panel_loss_db,
        panel_active=panel_active,
        rot_deg=_CORRIDOR_ROT_DEG,
    )


def hallway_scene(
    nirs: bool = True,
    plan: FrequencyPlan = PLAN_306_321,
    grid: ScanGrid | None = None,
    panel_loss_db: float = DEFAULT_PANEL_LOSS_DB,
    panel_active="all",
) -> Scene:
    """Wider hallway turn (3 m) with 12 NLoS receiver points."""
    rx = [
        (1.5, 4.5), (1.25, 4.5), (1.75, 4.5),
        (1.25, 7.0), (1.5, 7.0), (1.75, 7.0),
        (1.25, 9.5), (1.5, 9.5), (1.75, 9.5),
        (1.25, 12.0), (1.5, 12.0), (1.75, 12.0),
    ]
    return _l_scene(
        width=3.0,
        tx_leg_end=18.0,
        rx_leg_end=14.0,
        tx_xy=(16.0, 1.5),
        rx_xy_list=rx,
        plan=plan,
        grid=grid or ScanGrid.default(),
        nirs=nirs,
        panel_loss_db=panel_loss_db,
        panel_active=panel_active,
        rot_deg=0.0,
    )


def los_scene(
    distance_m: float,
    plan: FrequencyPlan = PLAN_306_321,
    grid: ScanGrid | None = None,
    tx_gain_dbi: float = 0.0,
    rx_gain_dbi: float = 0.0,
) -> Scene:
    """Free-space link: Tx on the receiver's azimuth-0 bearing, no surfaces."""
    return Scene(
        walls=(),
        nirs_panels=(),
        tx_position=np.array([distance_m, 0.0, 2.0]),
        tx_boresight=np.array([-1.0, 0.0, 0.0]),
        rx_positions=np.array([[0.0, 0.0, 2.0]]),
        tx_pattern=AntennaPattern(boresight_gain_dbi=tx_gain_dbi, hpbw_deg=30.0),
        rx_pattern=AntennaPattern(boresight_gain_dbi=rx_gain_dbi, hpbw_deg=8.0),
        frequency_plan=plan,
        scan_grid=grid or ScanGrid.default(),
    )
