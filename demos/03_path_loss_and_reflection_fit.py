"""Directional path loss, additional reflection loss, and the angle-law fit.

Runs the corridor with and without the reflector panel at identical
geometry, extracts the virtual-LoS excess loss per receiver, and fits the
polynomial angle law.  Also demonstrates noiseless recovery of a reference
parameter row from generated samples.
"""

from pathlib import Path

import numpy as np

from thznirs.pathloss import CiModel, rx_path_loss
from thznirs.reflfit import (
    ReflLossModel,
    ReflSample,
    fit_refl_model,
    generate_samples,
    write_fit_table_csv,
)
from thznirs.scene import load_scene
from thznirs.synthchan import synthesize_sweep

scenes_dir = Path(__file__).parent.parent / "scenes"
out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

ci = CiModel(ple=1.35)
with_scene = load_scene(scenes_dir / "corridor_mini.json")
without_scene = load_scene(scenes_dir / "corridor_mini_no_nirs.json")
plan = with_scene.frequency_plan
# calibration divisor: the 7 + 25 dBi boresight antenna gains embedded by the synthesizer
gains = 10.0 ** ((7.0 + 25.0) / 20.0)


def l_ref_per_rx(scene):
    values = []
    for k in range(scene.n_rx):
        # the with-panel scene defines the angle window and geometry for both
        row = rx_path_loss(with_scene, k, synthesize_sweep(scene, k).sweeps, gains, ci)
        values.append((row.reflection_angle_deg, row.l_ref_db))
    return values

print("additional reflection loss per receiver (panel vs bare corner):")
print("  rx   angle    with panel   without")
pairs = list(zip(l_ref_per_rx(with_scene), l_ref_per_rx(without_scene)))
for k, ((phi, with_l), (_, without_l)) in enumerate(pairs):
    print(f"  {k}   {phi:5.2f}    {with_l:7.2f} dB   {without_l:7.2f} dB")
mean_gain = np.mean([wo - w for (_, w), (_, wo) in pairs])
print(f"mean reduction from the panel: {mean_gain:.1f} dB")

samples = [
    ReflSample(rx_id=k, reflection_angle_deg=phi, additional_loss_db=l)
    for k, ((phi, l), _) in enumerate(pairs)
]
fit = fit_refl_model(samples)
print(
    f"\ncorridor fit: phi_bar {fit.model.phi_bar_deg:.2f} deg, a {fit.model.a:.3f}, "
    f"b {fit.model.b:.3f}, c {fit.model.c:.3f}, rmse {fit.rmse_db:.3f} dB"
)

# recovery check: regenerate a reference parameter row and refit
reference = ReflLossModel(phi_bar_deg=17.51, a=2.80, b=0.48, c=7.40)
refit = fit_refl_model(generate_samples(reference, [5 + 10 * k for k in range(8)]))
print(
    f"noiseless generator recovery: phi_bar {refit.model.phi_bar_deg:.6f}, "
    f"a {refit.model.a:.6f}, b {refit.model.b:.6f}, c {refit.model.c:.6f}"
)

table_path = out_dir / "reflection_fit_table.csv"
write_fit_table_csv(
    [("corridor-synthetic", plan.band_label, fit), ("corridor-generated", "306-321GHz", refit)],
    table_path,
)
print(f"wrote {table_path}")
