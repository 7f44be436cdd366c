"""In-process runs of a workload's chain through the public ``thznirs`` API.

``run_inprocess`` interprets the same steps the CLI runs, in the CLI's order.
Without a bundle root it keeps every bundle in memory and touches no file:
that run is the oracle of the output check.  With a bundle root it writes and
reads bundles and calibration files as the CLI does, and a ``Tracer`` records
a span around every call into a layer: that run is the traced pass.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from pathlib import Path

import numpy as np

import thznirs.synthchan as synthchan
from thznirs.calibrate import SystemResponse, calibrate
from thznirs.coverage import (
    LinkBudget,
    coverage_curve,
    default_thresholds,
    interpolate_path_loss,
)
from thznirs.pathloss import CiModel, directional_path_loss, omni_path_loss
from thznirs.pdap import pdap_from_sweeps
from thznirs.reflfit import (
    B_GRID_START,
    B_GRID_STOP,
    ReflSample,
    additional_reflection_loss,
    fit_refl_model,
)
from thznirs.scene import load_scene, nirs_angle_set, rx_link_geometry
from thznirs.synthchan import read_bundle, read_sweep_csv, synthesize_sweep, write_bundle

from check import tree_bytes
from workloads import PLE, Coverage, Fit, Inputs, Pipeline, Synth, step_kind


class Tracer:
    """Spans (name, start, end, parent, run id) and counts, kept in memory.

    A disabled tracer records nothing, so the oracle run pays no tracing cost.
    """

    def __init__(self, run_id: str = "", enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the duration of child spans."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - children[s["id"]]
        return out

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def csv_value(x: float) -> float:
    """A derived value as the CLI's result files carry it: 6 significant digits."""
    return float(f"{float(x):.6g}")


def surface_sequences(n_surfaces: int, max_bounces: int) -> int:
    """Surface sequences the image method walks: no surface twice in a row."""
    return sum(n_surfaces * (n_surfaces - 1) ** (k - 1) for k in range(1, max_bounces + 1))


def parse_range(spec: str) -> np.ndarray:
    """``start:step:stop`` as the CLI reads it."""
    start, step, stop = (float(x) for x in spec.split(":"))
    return start + step * np.arange(math.floor((stop - start) / step + 1e-9) + 1)


@contextlib.contextmanager
def _traced_enumeration(tracer: Tracer):
    """Span the ``enumerate_paths`` call that ``synthesize_sweep`` makes."""
    original = synthchan.enumerate_paths
    if not tracer.enabled:
        yield
        return

    def spanned(scene, rx_index, max_bounces=2):
        with tracer.span("synthchan.enumerate_paths"):
            paths = original(scene, rx_index, max_bounces=max_bounces)
        tracer.count("synthchan.paths", len(paths))
        return paths

    synthchan.enumerate_paths = spanned
    try:
        yield
    finally:
        synthchan.enumerate_paths = original


def _synth(step: Synth, tracer: Tracer, bundle_root: Path | None, memory: dict) -> None:
    with tracer.span("scene.load_scene"):
        scene = load_scene(step.scene)
    n_surfaces = len(scene.surfaces())
    memory[step.out] = []
    for k in range(scene.n_rx):
        with tracer.span("synthchan.synthesize_sweep"):
            bundle = synthesize_sweep(
                scene, k, max_bounces=step.max_bounces, scenario_id=Path(step.scene).stem
            )
        tracer.count("synthchan.sequences", surface_sequences(n_surfaces, step.max_bounces))
        if bundle_root is None:
            memory[step.out].append(bundle)
            continue
        d = bundle_root / step.out / f"rx{k:03d}"
        with tracer.span("synthchan.write_bundle"):
            write_bundle(bundle, d)
        tracer.count("synthchan.files_written", sum(1 for p in d.rglob("*") if p.is_file()))
        tracer.count("synthchan.bytes_written", tree_bytes(d))


def _bundles(step: Pipeline, tracer: Tracer, bundle_root: Path | None, memory: dict):
    if bundle_root is None:
        yield from memory[step.bundles]
        return
    root = bundle_root / step.bundles
    for d in sorted(p for p in root.iterdir() if (p / "manifest.json").exists()):
        with tracer.span("synthchan.read_bundle"):
            bundle = read_bundle(d)
        tracer.count("synthchan.bytes_read", tree_bytes(d))
        yield bundle


def _pipeline(step: Pipeline, inputs: Inputs, tracer: Tracer, bundle_root, memory) -> list:
    with tracer.span("scene.load_scene"):
        scene = load_scene(inputs.scene)
    if bundle_root is None:
        sys_resp = inputs.calibration
    else:
        with tracer.span("synthchan.read_sweep_csv"):
            connect = read_sweep_csv(inputs.connect)
            extra = read_sweep_csv(inputs.extra, plan=connect.plan)
        tracer.count("synthchan.bytes_read", inputs.connect.stat().st_size)
        tracer.count("synthchan.bytes_read", inputs.extra.stat().st_size)
        sys_resp = SystemResponse(connect=connect, extra=extra)
    ci = CiModel(ple=PLE)
    rows = []
    for bundle in _bundles(step, tracer, bundle_root, memory):
        m = bundle.manifest
        with tracer.span("calibrate.calibrate"):
            sweeps = np.array([
                [calibrate(bundle.sweep_at(i, j), sys_resp).samples for j in range(m.grid.n_azimuth)]
                for i in range(m.grid.n_elevation)
            ])
        tracer.count("calibrate.samples", sweeps.size)
        with tracer.span("pdap.pdap_from_sweeps"):
            pdap = pdap_from_sweeps(
                sweeps, m.grid, m.plan.span_hz, noise_threshold_db=step.threshold_db
            )
        with tracer.span("scene.nirs_angle_set"):
            angles = nirs_angle_set(scene, m.rx_index, grid=m.grid)
        with tracer.span("pathloss.directional_path_loss"):
            pl_dir = directional_path_loss(pdap, angles)
        with tracer.span("pathloss.omni_path_loss"):
            pl_omni = omni_path_loss(pdap)
        with tracer.span("scene.rx_link_geometry"):
            phi, specular, d1, d2 = rx_link_geometry(scene, m.rx_index)
        with tracer.span("reflfit.additional_reflection_loss"):
            l_ref = additional_reflection_loss(pl_dir, ci, m.plan.center_hz, d1, d2)
        rows.append((m.rx_index, pl_dir, pl_omni, phi, d1, d2, l_ref))
        if tracer.enabled:
            signal = pdap.signal_mask()
            tracer.count("pdap.bins", signal.size)
            tracer.count("pdap.sentinels", signal.size - int(signal.sum()))
            tracer.counts["pdap.cube_bytes"] = max(
                tracer.counts.get("pdap.cube_bytes", 0), pdap.power_db.nbytes
            )
            tracer.count("scene.angle_set_dirs", len(angles))
            tracer.count("pathloss.bins_summed",
                         sum(int(signal[i, j].sum()) for i, j in angles) + int(signal.sum()))
            tracer.count("scene.receivers")
            tracer.count("scene.specular", int(specular))
    return sorted(rows)


def _fit(step: Fit, inputs: Inputs, tracer: Tracer, results: dict) -> list:
    if step.samples_file is not None:
        groups = inputs.fit_groups
    else:
        # The fit reads the pipeline's result file, so its inputs carry
        # that file's 6 significant digits.
        groups = {(step.scenario, step.band): [
            ReflSample(rx_id=r[0], reflection_angle_deg=csv_value(r[3]),
                       additional_loss_db=csv_value(r[6]), band_label=step.band)
            for r in results[step.samples]
        ]}
    entries = []
    for key in sorted(groups):
        with tracer.span("reflfit.fit_refl_model"):
            fit = fit_refl_model(groups[key])
        tracer.count("reflfit.fits")
        tracer.count("reflfit.clamped", int(not fit.b_identifiable))
        tracer.count("reflfit.b_edge", int(any(
            abs(fit.model.b - edge) < 1e-9 for edge in (B_GRID_START, B_GRID_STOP)
        )))
        entries.append((key[0], key[1], fit))
    return entries


def _coverage(step: Coverage, inputs: Inputs, tracer: Tracer, results: dict):
    with tracer.span("scene.load_scene"):
        scene = load_scene(inputs.scene)
    budget = LinkBudget()
    thresholds = parse_range(step.thresholds) if step.thresholds else default_thresholds()

    def curve(name: str) -> tuple[list[float], list[float]]:
        pl = [csv_value(r[2]) for r in results[name]]
        with tracer.span("coverage.interpolate_path_loss"):
            cmap = interpolate_path_loss(scene.rx_positions, pl)
        tracer.count("coverage.cells", cmap.sample_pl_db.size)
        with tracer.span("coverage.coverage_curve"):
            pairs = coverage_curve(cmap, budget, thresholds)
        return [t for t, _ in pairs], [r for _, r in pairs]

    ts, with_nirs = curve(step.results)
    without = curve(step.results_without)[1] if step.results_without else None
    return ts, with_nirs, without


def run_inprocess(inputs: Inputs, tracer: Tracer | None = None, bundle_root: Path | None = None) -> dict:
    """Results of every step, keyed by the step's output name."""
    tracer = tracer or Tracer(enabled=False)
    results: dict = {}
    memory: dict = {}
    with _traced_enumeration(tracer):
        for step in inputs.steps:
            with tracer.span(f"step.{step_kind(step)}"):
                if isinstance(step, Synth):
                    _synth(step, tracer, bundle_root, memory)
                elif isinstance(step, Pipeline):
                    results[step.out] = _pipeline(step, inputs, tracer, bundle_root, memory)
                elif isinstance(step, Fit):
                    results[step.out] = _fit(step, inputs, tracer, results)
                else:
                    results[step.out] = _coverage(step, inputs, tracer, results)
    return results
