"""SNR coverage curves with and without the reflector, in both bands.

Uses unity-gain measurement antennas so the default link budget puts the
receivers near the interesting SNR range, then sweeps the threshold from
-10 to 30 dB.
"""

import dataclasses
from pathlib import Path

import numpy as np

from thznirs.coverage import (
    LinkBudget,
    coverage_curve,
    default_thresholds,
    interpolate_path_loss,
    write_coverage_csv,
)
from thznirs.pathloss import omni_path_loss
from thznirs.pdap import pdap_from_sweeps
from thznirs.scene import AntennaPattern, FrequencyPlan, load_scene
from thznirs.synthchan import synthesize_sweep

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

unity = dict(tx_pattern=AntennaPattern(0.0, 30.0), rx_pattern=AntennaPattern(0.0, 8.0))
budget = LinkBudget()
thresholds = default_thresholds()


def curve(scene):
    pls = []
    for k in range(scene.n_rx):
        bundle = synthesize_sweep(scene, k)
        pdap = pdap_from_sweeps(bundle.sweeps, scene.scan_grid, scene.frequency_plan.span_hz)
        pls.append(omni_path_loss(pdap))
    cmap = interpolate_path_loss(scene.rx_positions, pls, resolution_m=0.05)
    return [r for _, r in coverage_curve(cmap, budget, thresholds)]


# The shipped scene is on the 306-321 GHz band; the upper band is the same
# corridor with only its frequency plan replaced.
corridor = load_scene(Path(__file__).parent.parent / "scenes" / "corridor.json")
upper_band = FrequencyPlan(f_start_hz=356e9, f_stop_hz=371e9, f_step_hz=2.5e6)
for plan in (corridor.frequency_plan, upper_band):
    scene = dataclasses.replace(corridor, frequency_plan=plan, **unity)
    label = plan.band_label
    with_panel = curve(scene)
    without = curve(dataclasses.replace(scene, nirs_panels=()))
    path = out_dir / f"coverage_corridor_{label}.csv"
    write_coverage_csv(path, thresholds, with_panel, without)
    at10 = int(np.searchsorted(thresholds, 10.0))
    print(
        f"{label}: coverage at a 10 dB threshold "
        f"{with_panel[at10]:.2f} with panel vs {without[at10]:.2f} without -> {path.name}"
    )

print("\nCurves are plot-ready: threshold_db,ratio_with_nirs,ratio_without_nirs")
