"""Walk through the image-method channel generator on the corridor scene.

Enumerates specular paths for the receiver nearest the corner, synthesizes
the per-direction frequency sweeps, and prints where the energy arrives.
"""

from pathlib import Path

import numpy as np

from thznirs.scene import load_scene, nirs_panel
from thznirs.synthchan import enumerate_paths, synthesize_sweep

scene = load_scene(Path(__file__).parent.parent / "scenes" / "corridor_mini.json")
print(f"corridor scene: {len(scene.walls)} walls, {scene.n_rx} receivers,")
rows, cols = nirs_panel(scene).subdivision
print(f"panel subdivided {rows}x{cols}")

paths = enumerate_paths(scene, rx_index=0, max_bounces=2)
print(f"\n{len(paths)} propagation paths reach receiver 0 (max 2 bounces):")
for p in paths:
    via = " -> ".join(p.surfaces_hit) or "direct"
    print(
        f"  {p.total_length_m:6.2f} m  {p.delay_s * 1e9:7.2f} ns  "
        f"{p.cumulative_reflection_loss_db:5.1f} dB reflection loss  via {via}"
    )

bundle = synthesize_sweep(scene, rx_index=0)
energy = np.sum(np.abs(bundle.sweeps) ** 2, axis=-1)
print(f"\nsweep bundle shape (elevation x azimuth x frequency): {bundle.sweeps.shape}")
print("strongest scan directions:")
flat = np.argsort(energy.ravel())[::-1][:5]
for idx in flat:
    i, j = np.unravel_index(idx, energy.shape)
    print(
        f"  el {scene.scan_grid.elevation_deg[i]:+5.0f}  az {scene.scan_grid.azimuth_deg[j]:5.0f}"
        f"  band energy {10 * np.log10(energy[i, j]):7.2f} dB"
    )
print("\nThe 140-170 degree azimuth bins are the panel as seen from receiver 0.")
