"""Run the criterion-10 CLI chain on both mini scene pairs and digest every output.

Usage: python3 tools/chain_digest.py OUT

Every CLI step is a ``python -m thznirs`` process on the sources of the checkout
this script lives in, and every file lands under OUT (which must not exist
yet).  For ``corridor_mini`` and ``hallway_mini`` the chain is:

  synth --max-bounces 3, with and without the panel;
  pipeline --connect/--extra --ple 1.35 on both bundle sets, and pipeline
  without calibration on both;
  fit on both with-panel results;
  coverage --thresholds=-10:1:30 on the calibrated pair;

then, in this process, the profile export (CSV plus JSON sidecar) of the
default-threshold PDAP of corridor_mini's with-panel rx 0 bundle;
then corridor_mini's with-panel set rewritten in the sounder's layout (one
CSV per scan direction and a manifest without ``format``) in a temporary
directory outside OUT, and the calibrated pipeline run on it, whose results
must be byte-identical to the synthesized set's (the script exits non-zero
otherwise);
then, on a hallway_mini copy whose panel keeps only the cells (2, 1) and
(0, 0) (listed out of that order; (2, 1) reflects toward rx 0, 4, 7 and 10
and shadows the chamfer's one-bounce path to rx 11, while no cell of rows 0
and 1 reflects toward any receiver), synth --max-bounces 3 and pipeline
--connect/--extra --ple 1.35 against the full hallway_mini scene; then one
fit --generate with noise, and one fit --samples of 16 seeded noisy
groups from the paper's fit table (half on 8 angles, half on 24), written
once as is and once by a process restricted to one CPU of this script's own
(where ``os.sched_setaffinity`` exists), so that both the worker batches and
the serial fit are covered.  The calibration fixtures are those of acceptance
criterion 10: a unity through reference and a setup factor equal to the
7 + 25 dBi boresight gains.  The script prints ``sha256  path`` for every file
under OUT, paths relative to OUT and sorted, so two checkouts
compare with one ``diff``.  It runs no demo: those write into the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from thznirs.pdap import export_pdap_csv, pdap_from_sweeps  # noqa: E402
from thznirs.reflfit import ReflLossModel, generate_samples  # noqa: E402
from thznirs.scene import FrequencySweep, load_scene  # noqa: E402
from thznirs.synthchan import (MANIFEST_FILE, bundle_dirs, direction_filename,  # noqa: E402
                                read_bundle, write_sweep_csv)

PAIRS = ("corridor_mini", "hallway_mini")
FIT_TABLE = (
    ("corridor", "306-321GHz", ReflLossModel(17.51, 2.80, 0.48, 7.40)),
    ("hallway", "306-321GHz", ReflLossModel(15.79, 3.52, 0.59, 1.51)),
    ("corridor", "356-371GHz", ReflLossModel(18.34, 1.34, 0.60, 13.78)),
    ("hallway", "356-371GHz", ReflLossModel(15.58, 2.60, 0.67, 4.01)),
)


def _one_cpu() -> None:
    """Restrict the calling process to one of the CPUs it may run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _thznirs(*argv: str, serial: bool = False) -> None:
    """Run one step; with ``serial``, on one CPU, so that fit starts no workers."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "thznirs", *argv], env=env, capture_output=True, text=True,
        preexec_fn=_one_cpu if serial else None,
    )
    if proc.returncode != 0:
        sys.exit(f"chain_digest: 'thznirs {' '.join(argv)}' exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")


def _fixtures(out: Path) -> tuple[Path, Path]:
    plan = load_scene(SCENES / f"{PAIRS[0]}.json").frequency_plan
    connect, extra = out / "connect.csv", out / "extra.csv"
    write_sweep_csv(FrequencySweep(plan, np.ones(plan.point_count, dtype=complex)), connect)
    gain = 10.0 ** ((7.0 + 25.0) / 20.0)
    write_sweep_csv(FrequencySweep(plan, np.full(plan.point_count, gain, dtype=complex)), extra)
    return connect, extra


def _fit_groups(path: Path) -> Path:
    rng = np.random.default_rng(1)
    lines = ["scenario,band,rx_id,reflection_angle_deg,l_ref_db"]
    for g in range(16):
        scenario, band, model = FIT_TABLE[g % len(FIT_TABLE)]
        angles = 5.0 + 10.0 * np.arange(8) if g < 8 else 3.0 + 3.0 * np.arange(24)
        for s in generate_samples(model, angles, noise_sigma_db=0.5, rng=rng, band_label=band):
            lines.append(f"{scenario}-g{g:02d},{band},{s.rx_id},"
                         f"{s.reflection_angle_deg!r},{s.additional_loss_db!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_sounder_set(src: Path, dst: Path) -> None:
    """The bundle set at ``src`` in the sounder's layout at ``dst``."""
    for bdir in bundle_dirs(src):
        bundle = read_bundle(bdir)
        sounder = dst / bdir.name
        sounder.mkdir()
        grid = bundle.manifest.grid
        for i in range(grid.n_elevation):
            for j in range(grid.n_azimuth):
                write_sweep_csv(bundle.sweep_at(i, j), sounder / direction_filename(i, j))
        manifest = json.loads((bdir / MANIFEST_FILE).read_text(encoding="utf-8"))
        del manifest["format"]
        (sounder / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_chain(out: Path) -> None:
    out.mkdir(parents=True)
    connect, extra = _fixtures(out)
    for name in PAIRS:
        scene = str(SCENES / f"{name}.json")
        d = out / name
        for label, scene_file in (("with", scene), ("without", str(SCENES / f"{name}_no_nirs.json"))):
            bundles = str(d / f"bundles_{label}")
            _thznirs("synth", "--scene", scene_file, "--max-bounces", "3", "--out", bundles)
            _thznirs("pipeline", "--scene", scene, "--bundle", bundles, "--connect", str(connect),
                     "--extra", str(extra), "--ple", "1.35", "--out", str(d / f"{label}.csv"))
            _thznirs("pipeline", "--scene", scene, "--bundle", bundles,
                     "--out", str(d / f"{label}_uncal.csv"))
        for results in ("with", "with_uncal"):
            _thznirs("fit", "--samples", str(d / f"{results}.csv"), "--scenario", name,
                     "--band", "306GHz-mini", "--out", str(d / f"table_{results}.csv"))
        _thznirs("coverage", "--scene", scene, "--results", str(d / "with.csv"),
                 "--results-without", str(d / "without.csv"), "--thresholds=-10:1:30",
                 "--out", str(d / "coverage.csv"))
    scene = load_scene(SCENES / f"{PAIRS[0]}.json")
    sweeps = read_bundle(out / PAIRS[0] / "bundles_with" / "rx000").sweeps
    pdap = pdap_from_sweeps(sweeps, scene.scan_grid, scene.frequency_plan.span_hz)
    export_pdap_csv(pdap, out / PAIRS[0] / "pdap_rx000.csv")
    d = out / PAIRS[0]
    with tempfile.TemporaryDirectory() as tmp:
        _write_sounder_set(d / "bundles_with", Path(tmp))
        _thznirs("pipeline", "--scene", str(SCENES / f"{PAIRS[0]}.json"), "--bundle", tmp,
                 "--connect", str(connect), "--extra", str(extra), "--ple", "1.35",
                 "--out", str(d / "with_sounder.csv"))
    if (d / "with_sounder.csv").read_bytes() != (d / "with.csv").read_bytes():
        sys.exit(f"chain_digest: the sounder-layout results {d / 'with_sounder.csv'} differ "
                 f"from {d / 'with.csv'}")
    d = out / "hallway_mini_partial"
    d.mkdir()
    data = json.loads((SCENES / "hallway_mini.json").read_text())
    data["nirs_panels"][0]["active_cells"] = [[2, 1], [0, 0]]
    (d / "scene.json").write_text(json.dumps(data, indent=2) + "\n")
    _thznirs("synth", "--scene", str(d / "scene.json"), "--max-bounces", "3",
             "--out", str(d / "bundles"))
    _thznirs("pipeline", "--scene", str(SCENES / "hallway_mini.json"), "--bundle",
             str(d / "bundles"), "--connect", str(connect), "--extra", str(extra), "--ple", "1.35",
             "--out", str(d / "results.csv"))
    _thznirs("fit", "--generate", "corridor,306-321GHz,17.51,2.80,0.48,7.4", "--angles", "5:10:75",
             "--noise-sigma", "0.5", "--seed", "0", "--out", str(out / "generated.csv"))
    samples = str(_fit_groups(out / "fit_groups.csv"))
    _thznirs("fit", "--samples", samples, "--out", str(out / "fit_groups_table.csv"))
    _thznirs("fit", "--samples", samples, "--out", str(out / "fit_groups_table_1.csv"), serial=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists():
        print(f"chain_digest: {out} already exists", file=sys.stderr)
        return 2
    run_chain(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
