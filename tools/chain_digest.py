"""Run the criterion-10 CLI chain on both mini scene pairs and digest every output.

Usage: python3 tools/chain_digest.py OUT

Every step is a ``python -m thznirs`` process on the sources of the checkout
this script lives in, and every file lands under OUT (which must not exist
yet).  For ``corridor_mini`` and ``hallway_mini`` the chain is:

  synth --max-bounces 3, with and without the panel;
  pipeline --connect/--extra --ple 1.35 on both bundle sets, and pipeline
  without calibration on both;
  fit on both with-panel results;
  coverage --thresholds=-10:1:30 on the calibrated pair;

then one fit --generate with noise.  The calibration fixtures are those of
acceptance criterion 10: a unity through reference and a setup factor equal
to the 7 + 25 dBi boresight gains.  The script prints ``sha256  path`` for
every file under OUT, paths relative to OUT and sorted, so two checkouts
compare with one ``diff``.  It runs no demo: those write into the checkout.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from thznirs.scene import FrequencySweep, load_scene  # noqa: E402
from thznirs.synthchan import write_sweep_csv  # noqa: E402

PAIRS = ("corridor_mini", "hallway_mini")


def _thznirs(*argv: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "thznirs", *argv], env=env, capture_output=True, text=True
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
    _thznirs("fit", "--generate", "corridor,306-321GHz,17.51,2.80,0.48,7.4", "--angles", "5:10:75",
             "--noise-sigma", "0.5", "--seed", "0", "--out", str(out / "generated.csv"))


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
