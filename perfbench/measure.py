"""Timed CLI runs, the output check, the traced pass and the metrics they give.

Load model: closed loop, one client.  Each CLI step is its own
``python -m thznirs`` process, started only after the previous one ended.
End-to-end metrics come from these untraced runs; the per-layer metrics come
from a separate in-process pass with tracing on.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thznirs.scene import load_scene

from check import check_step, tree_bytes, tree_digest
from inprocess import Tracer, run_inprocess
from workloads import ROOT, Inputs, Synth, cli_argv, make_inputs, step_kind

SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_REPEATS = 2  # the byte-identity check compares repeats
SETUP_FIRST = 4  # set-up samples before the first repeat ...
SETUP_BATCH = 2  # ... and after each repeat
STEP_KINDS = ("synth", "pipeline", "fit", "coverage")

# (name, unit); BENCHMARK.json lists the same names.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("disk_mb", "MB"),
)
# Printed by name on every run; absent where the workload does not run the step.
REPORTED_ONLY = tuple((f"{k}_s", "s") for k in STEP_KINDS) + (("fail_ratio", "ratio"),)

PER_LAYER = (
    ("scene.load_s", "s"),
    ("scene.angle_set_s", "s"),
    ("scene.angle_set_dirs", "count"),
    ("scene.link_geometry_s", "s"),
    ("scene.specular_ratio", "ratio"),
    ("synthchan.enumerate_s", "s"),
    ("synthchan.sequences", "count"),
    ("synthchan.paths", "count"),
    ("synthchan.path_yield", "ratio"),
    ("synthchan.synthesize_self_s", "s"),
    ("synthchan.write_s", "s"),
    ("synthchan.files_written", "count"),
    ("synthchan.bytes_written", "bytes"),
    ("synthchan.write_mb_per_s", "MB/s"),
    ("synthchan.read_s", "s"),
    ("synthchan.read_mb_per_s", "MB/s"),
    ("calibrate.s", "s"),
    ("calibrate.samples", "count"),
    ("pdap.s", "s"),
    ("pdap.bins", "count"),
    ("pdap.sentinel_ratio", "ratio"),
    ("pdap.cube_mb", "MB"),
    ("pathloss.directional_s", "s"),
    ("pathloss.omni_s", "s"),
    ("pathloss.bins_summed", "count"),
    ("reflfit.fit_s", "s"),
    ("reflfit.fits", "count"),
    ("reflfit.clamped_ratio", "ratio"),
    ("reflfit.b_edge_ratio", "ratio"),
    ("coverage.interpolate_s", "s"),
    ("coverage.curve_s", "s"),
    ("coverage.cells", "count"),
    ("cli.self_s", "s"),
    ("cli.synth_thread_speedup", "x"),
) + tuple((f"cli.{k}_s", "s") for k in STEP_KINDS)

# Counts that must repeat exactly between traced passes and between runs.
EXACT_COUNTS = (
    "synthchan.sequences", "synthchan.paths", "synthchan.files_written",
    "synthchan.bytes_written", "pdap.bins", "pdap.sentinel_ratio", "reflfit.fits",
    "reflfit.clamped_ratio",
)

_SETUP_CODE = (
    "import sys\n"
    "import thznirs.cli\n"
    "from thznirs.scene import load_scene\n"
    "if sys.argv[1:]:\n"
    "    load_scene(sys.argv[1])\n"
)


@dataclass
class StepRun:
    kind: str
    rc: int | None  # None: not run because an earlier step failed
    wall_s: float = 0.0
    rss_mib: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit), as BENCHMARK.json lists them
    attempted: int
    failed: int
    notes: list[str]
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)  # printed only
    absent: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def cli_env() -> dict:
    """The CLI's environment: this checkout's sources, THZ_NIRS_THREADS unset."""
    env = dict(os.environ)
    env.pop("THZ_NIRS_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd: list[str], env: dict, log: Path, kind: str = "") -> StepRun:
    """Run one child process to its end; its exit code, times and peak RSS."""
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StepRun(kind, proc.returncode, wall, usage.ru_maxrss / 1024.0)


def run_cli_chain(inputs: Inputs, out: Path, env: dict, log: Path) -> tuple[float, list[StepRun]]:
    """Run every step once, in order; (sequence wall seconds, per-step runs)."""
    runs: list[StepRun] = []
    t0 = time.perf_counter()
    for step in inputs.steps:
        if runs and runs[-1].rc != 0:
            runs.append(StepRun(step_kind(step), None, problems=["not run: an earlier step failed"]))
            continue
        cmd = [sys.executable, "-m", "thznirs", *cli_argv(step, inputs, out)]
        runs.append(run_process(cmd, env, log, step_kind(step)))
    return time.perf_counter() - t0, runs


def setup_samples(inputs: Inputs, env: dict, log: Path, repeats: int) -> list[float]:
    """Wall times of fresh processes that import the CLI and load the scene."""
    cmd = [sys.executable, "-c", _SETUP_CODE] + ([str(inputs.scene)] if inputs.scene else [])
    times = []
    for _ in range(repeats):
        run = run_process(cmd, env, log)
        if run.rc != 0:
            raise RuntimeError(f"set-up process exited {run.rc}; see {log}")
        times.append(run.wall_s)
    return times


def machine_record(inputs: Inputs) -> dict:
    import thznirs.cli

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    synth_rx = [s for s in inputs.steps if isinstance(s, Synth)]
    n_rx = max((load_scene(s.scene).n_rx for s in synth_rx), default=0)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "synth_workers": min(thznirs.cli._worker_count(), n_rx) if n_rx else 0,
        "storage": "disk_mb and MB/s rates are page-cache figures of this machine's "
                   "file system, not a device's; the benchmark drops no caches and "
                   "changes no machine settings",
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def _check_chain(inputs: Inputs, out: Path, runs: list[StepRun], expected: dict,
                 digests: dict) -> None:
    """Oracle check of each step that ran, and byte identity with the first repeat."""
    for step, run in zip(inputs.steps, runs):
        if run.rc != 0:
            continue
        run.problems += check_step(step, out, expected)
        digest = tree_digest(out / step.out)
        if digests.setdefault(step.out, digest) != digest:
            run.problems.append(f"{step.out}: bytes differ from the first repeat")


def _step_seconds(runs: list[StepRun]) -> dict[str, float]:
    out: dict[str, float] = {}
    for r in runs:
        out[f"{r.kind}_s"] = out.get(f"{r.kind}_s", 0.0) + r.wall_s
    return out


def _layer_metrics(tracer: Tracer, cli: dict) -> dict[str, float]:
    st = tracer.self_times()
    c = tracer.counts

    def t(*names: str) -> float:
        return sum(st.get(n, 0.0) for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    write_s = t("synthchan.write_bundle")
    read_s = t("synthchan.read_bundle", "synthchan.read_sweep_csv")
    fit_times = tracer.durations("reflfit.fit_refl_model")
    single_thread_synth = sum(tracer.durations("synthchan.synthesize_sweep")) + write_s
    layers_self = sum(v for name, v in st.items() if not name.startswith("step."))
    m = {
        "scene.load_s": t("scene.load_scene"),
        "scene.angle_set_s": t("scene.nirs_angle_set"),
        "scene.angle_set_dirs": c.get("scene.angle_set_dirs", 0),
        "scene.link_geometry_s": t("scene.rx_link_geometry"),
        "scene.specular_ratio": ratio(c.get("scene.specular", 0), c.get("scene.receivers", 0)),
        "synthchan.enumerate_s": t("synthchan.enumerate_paths"),
        "synthchan.sequences": c.get("synthchan.sequences", 0),
        "synthchan.paths": c.get("synthchan.paths", 0),
        "synthchan.path_yield": ratio(c.get("synthchan.paths", 0), c.get("synthchan.sequences", 0)),
        "synthchan.synthesize_self_s": t("synthchan.synthesize_sweep"),
        "synthchan.write_s": write_s,
        "synthchan.files_written": c.get("synthchan.files_written", 0),
        "synthchan.bytes_written": c.get("synthchan.bytes_written", 0),
        "synthchan.write_mb_per_s": ratio(c.get("synthchan.bytes_written", 0) / 1e6, write_s),
        "synthchan.read_s": read_s,
        "synthchan.read_mb_per_s": ratio(c.get("synthchan.bytes_read", 0) / 1e6, read_s),
        "calibrate.s": t("calibrate.calibrate"),
        "calibrate.samples": c.get("calibrate.samples", 0),
        "pdap.s": t("pdap.pdap_from_sweeps"),
        "pdap.bins": c.get("pdap.bins", 0),
        "pdap.sentinel_ratio": ratio(c.get("pdap.sentinels", 0), c.get("pdap.bins", 0)),
        "pdap.cube_mb": c.get("pdap.cube_bytes", 0) / 1e6,
        "pathloss.directional_s": t("pathloss.directional_path_loss"),
        "pathloss.omni_s": t("pathloss.omni_path_loss"),
        "pathloss.bins_summed": c.get("pathloss.bins_summed", 0),
        "reflfit.fit_s": statistics.median(fit_times) if fit_times else 0.0,
        "reflfit.fits": c.get("reflfit.fits", 0),
        "reflfit.clamped_ratio": ratio(c.get("reflfit.clamped", 0), c.get("reflfit.fits", 0)),
        "reflfit.b_edge_ratio": ratio(c.get("reflfit.b_edge", 0), c.get("reflfit.fits", 0)),
        "coverage.interpolate_s": t("coverage.interpolate_path_loss"),
        "coverage.curve_s": t("coverage.coverage_curve"),
        "coverage.cells": c.get("coverage.cells", 0),
        "cli.self_s": cli["wall_s"] - layers_self,
        "cli.synth_thread_speedup": ratio(single_thread_synth, cli.get("synth_s", 0.0)),
    }
    for kind in STEP_KINDS:
        m[f"cli.{kind}_s"] = cli.get(f"{kind}_s", 0.0)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, work: Path | None = None) -> tuple[Report, dict]:
    """Generate inputs, run the workload, check it; (report, machine record)."""
    work = work or WORK / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, quick, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, quick, work: Path) -> tuple[Report, dict]:
    os.environ.pop("THZ_NIRS_THREADS", None)  # as for the CLI, so the worker count matches
    env = cli_env()
    log = work / "cli.log"
    inputs = make_inputs(workload, seed, work / "inputs", quick=quick)
    machine = machine_record(inputs)
    expected = run_inprocess(inputs)  # the file-free oracle

    # Set-up is sampled between the repeats too, so that a slow spell of the
    # machine weighs on its median no more than on the repeats'.
    setup_batch = 0 if trace or quick else SETUP_BATCH
    setup_samples(inputs, env, log, 1)  # warms the byte-code cache
    setup_times = setup_samples(inputs, env, log, 0 if trace else SETUP_FIRST)
    t_end = time.perf_counter() + seconds
    digests: dict[str, str] = {}
    samples: list[dict] = []
    all_runs: list[StepRun] = []
    notes: list[str] = []
    n_iter = 1 if trace else MIN_REPEATS
    # A repeat starts only if one more (with its check and set-up samples)
    # should end by t_end, so a run measures about --seconds of chain
    # whatever one repeat costs, and the driver's time budget holds.
    repeat_s: list[float] = []
    while len(samples) < n_iter or (
            not trace and time.perf_counter() + statistics.fmean(repeat_s) <= t_end):
        t_repeat = time.perf_counter()
        out = work / f"out{len(samples)}"
        wall_s, runs = run_cli_chain(inputs, out, env, log)
        _check_chain(inputs, out, runs, expected, digests)
        sample = {"wall_s": wall_s, "peak_rss_mb": max(r.rss_mib for r in runs),
                  "disk_mb": tree_bytes(out) / 1e6 if out.exists() else 0.0}
        sample.update(_step_seconds(runs))
        samples.append(sample)
        all_runs += runs
        shutil.rmtree(out, ignore_errors=True)
        setup_times += setup_samples(inputs, env, log, setup_batch)
        repeat_s.append(time.perf_counter() - t_repeat)
    for r in all_runs:
        notes += [f"{r.kind}: {p}" for p in r.problems]
        if r.rc not in (0, None):
            notes.append(f"{r.kind}: exited {r.rc}")
    attempted = len(all_runs)
    failed = sum(r.failed for r in all_runs)
    if failed:  # the log goes with the work directory, so keep its end
        notes += ["cli log: " + ln for ln in log.read_text(errors="replace").splitlines()[-5:]]

    # Repeats are averaged (total time over the run / repeats): on a host whose
    # speed flips between fast and slow spells, the mean of a run's repeats
    # varies less from run to run than their median.
    cli = {k: statistics.fmean(s[k] for s in samples) for k in samples[0]}
    report = Report({}, attempted, failed, notes)
    if not trace:
        values = dict(cli, setup_s=statistics.median(setup_times),
                      items_per_s=inputs.items / cli["wall_s"],
                      fail_ratio=failed / attempted)
        report.metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        for name, unit in REPORTED_ONLY:
            if name in values:
                report.extra[name] = (values[name], unit)
            else:
                report.absent.append(name)
        notes.append(f"{len(samples)} repeats of the CLI chain; metrics are their means, "
                     "setup_s the median of its samples")
        notes.append("wall_s per repeat: " + ", ".join(f"{s['wall_s']:.3f}" for s in samples))
    else:
        report.metrics, problems, report.absent = _traced(inputs, cli, work, t_end, seed, digests)
        notes += problems
        report.attempted += 1  # the traced passes count as one checked operation
        report.failed += bool(problems)
    return report, machine


def _traced(inputs: Inputs, cli: dict, work: Path, t_end: float, seed: int, digests: dict):
    """Traced in-process passes until the run's time is used.

    Returns the per-layer metrics (self times are medians over passes), the
    problems found, and the metrics of layers the workload does not run.
    """
    tracers: list[Tracer] = []
    passes: list[dict[str, float]] = []
    problems: list[str] = []
    while not passes or time.perf_counter() < t_end:
        tracer = Tracer(run_id=f"{inputs.workload}/seed{seed}/pass{len(passes)}")
        root = work / f"traced{len(passes)}"
        run_inprocess(inputs, tracer, bundle_root=root)
        if not passes:  # the pass writes bundles with the CLI's own writer
            for step in inputs.steps:
                if isinstance(step, Synth) and tree_digest(root / step.out) != digests.get(step.out):
                    problems.append(f"{step.out}: traced bundles differ from the CLI's")
        shutil.rmtree(root, ignore_errors=True)
        tracers.append(tracer)
        passes.append(_layer_metrics(tracer, cli))
    trace_file = WORK / "traces" / f"{inputs.workload}-seed{seed}.jsonl"
    trace_file.unlink(missing_ok=True)
    for tracer in tracers:
        tracer.write_jsonl(trace_file)

    for name in EXACT_COUNTS:
        if len({p[name] for p in passes}) != 1:
            problems.append(f"traced count {name} differs between passes")
    units = dict(PER_LAYER)
    metrics = {
        name: (passes[0][name] if name in EXACT_COUNTS else statistics.median(p[name] for p in passes),
               units[name])
        for name, _ in PER_LAYER
    }
    layers = {s["name"].split(".")[0] for s in tracers[0].spans}
    absent = [name for name, _ in PER_LAYER
              if name.split(".")[0] not in layers | {"cli"}
              or (name.startswith("cli.") and metrics[name][0] == 0)]
    return metrics, problems, absent
