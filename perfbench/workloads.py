"""Benchmark workloads: the seeded input generator and each workload's CLI chain.

A workload is a list of steps.  Each step is one ``python -m thznirs``
subcommand in the timed runs, and the same step is interpreted in-process by
``inprocess.py`` for the output check and the traced pass.  The seed picks
the ``fullband_rw`` receivers and the ``fit_batch`` noise draws; the program
only ever sees the files written here.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thznirs.calibrate import SystemResponse
from thznirs.reflfit import ReflLossModel, generate_samples
from thznirs.scene import FrequencySweep, load_scene
from thznirs.synthchan import write_sweep_csv

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"

# Calibration fixtures as in acceptance criterion 10: a unity through
# reference, and a setup factor equal to the 7 dBi Tx + 25 dBi Rx boresight
# gains so that the path losses exclude them.
EXTRA_GAIN_DB = 7.0 + 25.0
PLE = 1.35
COVERAGE_THRESHOLDS = "-10:1:30"

# The four rows of the paper's reflection-loss fit table.
FIT_ROWS = (
    ("corridor", "306-321GHz", ReflLossModel(17.51, 2.80, 0.48, 7.40)),
    ("hallway", "306-321GHz", ReflLossModel(15.79, 3.52, 0.59, 1.51)),
    ("corridor", "356-371GHz", ReflLossModel(18.34, 1.34, 0.60, 13.78)),
    ("hallway", "356-371GHz", ReflLossModel(15.58, 2.60, 0.67, 4.01)),
)
EIGHT_ANGLES = tuple(5.0 + 10.0 * k for k in range(8))  # 5:10:75 deg
DENSE_ANGLES = tuple(3.0 + 3.0 * k for k in range(24))  # 3:3:72 deg
FIT_NOISE_DB = 0.5
FIT_GROUPS = 16  # 4 table rows x 2 designs x 2 noise draws
FULLBAND_RX = 2


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Synth:
    scene: Path
    out: str  # bundle directory, relative to the run's output root
    max_bounces: int = 2


@dataclass(frozen=True)
class Pipeline:
    bundles: str
    out: str
    threshold_db: float = -160.0


@dataclass(frozen=True)
class Fit:
    out: str
    samples: str | None = None  # pipeline output feeding the fit ...
    samples_file: Path | None = None  # ... or a generated samples CSV
    scenario: str | None = None
    band: str | None = None


@dataclass(frozen=True)
class Coverage:
    results: str
    out: str
    results_without: str | None = None
    thresholds: str | None = None


Step = Synth | Pipeline | Fit | Coverage


def step_kind(step: Step) -> str:
    return type(step).__name__.lower()


@dataclass
class Inputs:
    """Generated input files plus what the in-process oracle needs of them."""

    workload: str
    seed: int
    workdir: Path
    steps: list[Step]
    scene: Path | None = None  # with-panel scene: pipeline, coverage, set-up
    connect: Path | None = None
    extra: Path | None = None
    calibration: SystemResponse | None = None  # the fixtures, in memory
    fit_groups: dict = field(default_factory=dict)  # (scenario, band) -> samples
    items: int = 0  # receivers through synth + pipeline, or fitted groups


def cli_argv(step: Step, inputs: Inputs, out: Path) -> list[str]:
    """The ``thznirs`` subcommand line of one step."""
    if isinstance(step, Synth):
        return ["synth", "--scene", str(step.scene), "--out", str(out / step.out),
                "--max-bounces", str(step.max_bounces)]
    if isinstance(step, Pipeline):
        return ["pipeline", "--scene", str(inputs.scene), "--bundle", str(out / step.bundles),
                "--connect", str(inputs.connect), "--extra", str(inputs.extra),
                "--ple", str(PLE), "--threshold-db", str(step.threshold_db),
                "--out", str(out / step.out)]
    if isinstance(step, Fit):
        samples = step.samples_file if step.samples_file else out / step.samples
        argv = ["fit", "--samples", str(samples), "--out", str(out / step.out)]
        if step.scenario:
            argv += ["--scenario", step.scenario]
        if step.band:
            argv += ["--band", step.band]
        return argv
    argv = ["coverage", "--scene", str(inputs.scene), "--results", str(out / step.results),
            "--out", str(out / step.out)]
    if step.results_without:
        argv += ["--results-without", str(out / step.results_without)]
    if step.thresholds:
        argv.append(f"--thresholds={step.thresholds}")
    return argv


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------
def _derived_scene(src: str, dest: Path, rx: list[int] | None = None) -> Path:
    """Copy a shipped scene, optionally keeping only some receivers."""
    data = json.loads((SCENES / f"{src}.json").read_text(encoding="utf-8"))
    if rx is not None:
        data["rx"]["positions"] = [data["rx"]["positions"][k] for k in rx]
    dest.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return dest


def _write_fixtures(inputs: Inputs) -> None:
    plan = load_scene(inputs.scene).frequency_plan
    gain = 10.0 ** (EXTRA_GAIN_DB / 20.0)
    inputs.calibration = SystemResponse(
        connect=FrequencySweep(plan, np.ones(plan.point_count, dtype=complex)),
        extra=FrequencySweep(plan, np.full(plan.point_count, gain, dtype=complex)),
    )
    inputs.connect = inputs.workdir / "connect.csv"
    inputs.extra = inputs.workdir / "extra.csv"
    write_sweep_csv(inputs.calibration.connect, inputs.connect)
    write_sweep_csv(inputs.calibration.extra, inputs.extra)


def _fullband_rw(inputs: Inputs, quick: bool) -> None:
    # Quick mode keeps the two seeded receivers but swaps in the 101-point band.
    src = "corridor_mini" if quick else "corridor"
    n_rx = load_scene(SCENES / f"{src}.json").n_rx
    rng = np.random.default_rng(inputs.seed)
    rx = sorted(int(k) for k in rng.choice(n_rx, size=FULLBAND_RX, replace=False))
    inputs.scene = _derived_scene(src, inputs.workdir / "corridor.json", rx)
    _write_fixtures(inputs)
    inputs.steps = [
        Synth(inputs.scene, "bundles"),
        Pipeline("bundles", "pl_160.csv", threshold_db=-160.0),
        Pipeline("bundles", "pl_150.csv", threshold_db=-150.0),
        Coverage("pl_160.csv", "coverage.csv"),
    ]
    inputs.items = FULLBAND_RX


def _mini_deep_chain(inputs: Inputs, quick: bool) -> None:
    rx = [0, 3, 6, 9] if quick else None  # the fit needs at least 4 samples
    inputs.scene = _derived_scene("hallway_mini", inputs.workdir / "hallway_mini.json", rx)
    without = _derived_scene(
        "hallway_mini_no_nirs", inputs.workdir / "hallway_mini_no_nirs.json", rx
    )
    _write_fixtures(inputs)
    inputs.steps = [
        Synth(inputs.scene, "bundles", max_bounces=3),
        Synth(without, "bundles_wo", max_bounces=3),
        Pipeline("bundles", "with.csv"),
        Pipeline("bundles_wo", "without.csv"),
        Fit("table.csv", samples="with.csv", scenario="hallway", band="306GHz-mini"),
        Coverage("with.csv", "coverage.csv", results_without="without.csv",
                 thresholds=COVERAGE_THRESHOLDS),
    ]
    inputs.items = 2 * load_scene(inputs.scene).n_rx


def _fit_batch(inputs: Inputs, quick: bool) -> None:
    n_groups = 4 if quick else FIT_GROUPS
    rng = np.random.default_rng(inputs.seed)
    path = inputs.workdir / "samples.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "band", "rx_id", "reflection_angle_deg", "l_ref_db"])
        for g in range(n_groups):
            scenario, band, model = FIT_ROWS[g % len(FIT_ROWS)]
            angles = EIGHT_ANGLES if g < n_groups // 2 else DENSE_ANGLES
            key = (f"{scenario}-g{g:02d}", band)
            samples = generate_samples(
                model, angles, noise_sigma_db=FIT_NOISE_DB, rng=rng, band_label=band
            )
            inputs.fit_groups[key] = samples
            for s in samples:
                writer.writerow([key[0], key[1], s.rx_id, repr(s.reflection_angle_deg),
                                 repr(s.additional_loss_db)])
    inputs.steps = [Fit("table.csv", samples_file=path)]
    inputs.items = n_groups


_GENERATORS = {
    "fullband_rw": _fullband_rw,
    "mini_deep_chain": _mini_deep_chain,
    "fit_batch": _fit_batch,
}


def make_inputs(workload: str, seed: int, workdir: Path, quick: bool = False) -> Inputs:
    """Write the workload's input files under ``workdir`` and describe its chain."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload=workload, seed=seed, workdir=workdir, steps=[])
    _GENERATORS[workload](inputs, quick)
    return inputs
