"""Raw-sweep calibration and the power-delay-angular profile.

Builds a synthetic "raw measurement" by multiplying a clean channel with a
made-up system response, calibrates it back out, and assembles the
noise-thresholded profile.  The exported CSV drops every sentinel bin.
"""

from pathlib import Path

import numpy as np

from thznirs.calibrate import SystemResponse, apply_system, calibrate
from thznirs.pdap import export_pdap_csv, pdap_from_sweeps
from thznirs.presets import PLAN_MINI_306, corridor_scene
from thznirs.scene import FrequencySweep
from thznirs.synthchan import synthesize_sweep

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

scene = corridor_scene(plan=PLAN_MINI_306)
plan = scene.frequency_plan
bundle = synthesize_sweep(scene, rx_index=0)

# a wobbly cable response and the measurement-only antenna factor
x = np.linspace(0.0, 1.0, plan.point_count)
connect = FrequencySweep(plan, 0.8 * np.exp(0.3 * np.sin(9 * x) + 1j * (2.0 * x + 0.2 * np.cos(5 * x))))
extra = FrequencySweep(plan, np.full(plan.point_count, 10 ** ((7 + 25) / 20.0), dtype=complex))
sysr = SystemResponse(connect=connect, extra=extra)

clean = bundle.sweep_at(2, 14)  # elevation 0, azimuth 140
raw = apply_system(clean, sysr)
recovered = calibrate(raw, sysr)
err = np.max(np.abs(recovered.samples - clean.samples))
print(f"round trip through the system response: max abs error {err:.2e}")

# whole-bundle round trip, vectorized over directions
divisor = sysr.divisor(plan)
raw_bundle = bundle.sweeps * divisor
calibrated = raw_bundle / divisor
pdap = pdap_from_sweeps(calibrated, scene.scan_grid, plan.span_hz, noise_threshold_db=-160.0)
n_signal = int(np.count_nonzero(pdap.signal_mask()))
n_total = pdap.power_db.size
print(f"profile bins above the -160 dB threshold: {n_signal} of {n_total}")
print(f"delay resolution {pdap.delay_step_s * 1e9:.3f} ns per bin")

csv_path = out_dir / "corridor_rx0_pdap.csv"
export_pdap_csv(pdap, csv_path)
print(f"wrote {csv_path} (+ .json sidecar); sentinel bins omitted")
