"""Tests of the benchmark itself, on the reduced-size quick mode.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from check import check_step
from inprocess import Tracer, run_inprocess, surface_sequences
from measure import (
    END_TO_END,
    PER_LAYER,
    REPORTED_ONLY,
    _check_chain,
    cli_env,
    run_cli_chain,
    run_workload,
)
from workloads import make_inputs

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Steps each workload runs; the rest of REPORTED_ONLY's step times are absent.
STEP_TIMES = {
    "fullband_rw": {"synth_s", "pipeline_s", "coverage_s"},
    "mini_deep_chain": {"synth_s", "pipeline_s", "fit_s", "coverage_s"},
    "fit_batch": {"fit_s"},
}


@pytest.fixture(scope="module")
def quick_reports(tmp_path_factory):
    """One quick untraced and one quick traced run of every workload."""
    out = {}
    for workload in run.WORKLOADS + run.UNLISTED:
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{workload}-{int(trace)}")
            out[workload, trace] = run_workload(workload, 3, 0.0, trace, quick=True, work=work)[0]
    return out


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS + run.UNLISTED)
def test_every_end_to_end_metric_has_its_unit(quick_reports, workload):
    report = quick_reports[workload, False]
    assert report.failed == 0, report.notes
    assert {n: u for n, (_, u) in report.metrics.items()} == dict(END_TO_END)
    assert all(v > 0 for v, _ in report.metrics.values())
    # Step times appear where the workload runs the step and are absent otherwise.
    assert set(report.extra) == STEP_TIMES[workload] | {"fail_ratio"}
    assert set(report.absent) == {n for n, _ in REPORTED_ONLY} - set(report.extra)
    assert report.extra["fail_ratio"] == (0.0, "ratio")


@pytest.mark.parametrize("workload", run.WORKLOADS + run.UNLISTED)
def test_every_per_layer_metric_has_its_unit(quick_reports, workload):
    report = quick_reports[workload, True]
    assert report.failed == 0, report.notes
    assert {n: u for n, (_, u) in report.metrics.items()} == dict(PER_LAYER)


def test_counts_match_hand_computed_values(quick_reports):
    assert surface_sequences(16, 3) == 16 + 240 + 3600 == 3856
    mini = quick_reports["mini_deep_chain", True].metrics
    # 4 receivers in the 16-surface with-panel scene, 4 in the 7-surface one
    assert mini["synthchan.sequences"][0] == 4 * 3856 + 4 * surface_sequences(7, 3)
    # 2 pipelines over 4 receivers each, 5 x 36 directions x 101 points
    assert mini["pdap.bins"][0] == 8 * 5 * 36 * 101
    assert mini["synthchan.files_written"][0] == 8 * (5 * 36 + 1)
    fullband = quick_reports["fullband_rw", True].metrics
    assert fullband["pdap.bins"][0] == 2 * 2 * 5 * 36 * 101
    assert quick_reports["fit_batch", True].metrics["reflfit.fits"][0] == 4


def test_traced_counts_repeat_exactly(tmp_path):
    inputs = make_inputs("mini_deep_chain", 0, tmp_path / "in", quick=True)
    counts = []
    for k in range(2):
        tracer = Tracer(run_id=str(k))
        run_inprocess(inputs, tracer, bundle_root=tmp_path / f"b{k}")
        counts.append(tracer.counts)
        parents = {s["parent"] for s in tracer.spans} - {None}
        assert parents <= {s["id"] for s in tracer.spans}
    assert counts[0] == counts[1]


def test_seed_picks_receivers_and_noise(tmp_path):
    def files(workload, seed, sub):
        inputs = make_inputs(workload, seed, tmp_path / sub, quick=True)
        return {p.name: p.read_bytes() for p in inputs.workdir.iterdir()}

    assert files("fullband_rw", 5, "a") == files("fullband_rw", 5, "b")
    seeds = [files("fullband_rw", s, f"c{s}")["corridor.json"] for s in range(6)]
    assert len(set(seeds)) > 1
    assert files("fit_batch", 1, "d") == files("fit_batch", 1, "e")
    assert files("fit_batch", 1, "d")["samples.csv"] != files("fit_batch", 2, "f")["samples.csv"]


def _corrupt_digit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    k = data.index(b"\n") + 1
    while not chr(data[k]).isdigit():
        k += 1
    data[k] = ord("7") if data[k] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("workload", ["fullband_rw", "fit_batch"])
def test_output_check_fails_on_a_corrupted_byte(tmp_path, workload):
    inputs = make_inputs(workload, 0, tmp_path / "in", quick=True)
    expected = run_inprocess(inputs)
    out = tmp_path / "out"
    _, runs = run_cli_chain(inputs, out, cli_env(), tmp_path / "cli.log")
    assert [r.rc for r in runs] == [0] * len(runs)
    digests: dict = {}
    _check_chain(inputs, out, runs, expected, digests)
    assert not any(r.problems for r in runs)
    for step in inputs.steps:
        if step.out.endswith(".csv"):
            _corrupt_digit(out / step.out)
            assert check_step(step, out, expected), step.out
    # A changed bundle byte shows as a difference from the first repeat.
    if workload == "fullband_rw":
        _corrupt_digit(next((out / "bundles" / "rx000").glob("el*.csv")))
        runs = [type(r)(r.kind, r.rc) for r in runs]
        _check_chain(inputs, out, runs, expected, digests)
        assert any("differ from the first repeat" in p for p in runs[0].problems)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_batch", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
