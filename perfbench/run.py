"""Benchmark of the thznirs sounding chain, end to end and per layer.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload fit_batch --seed 1 --seconds 55 --trace 0

``--trace 0`` repeats the workload's chain of ``python -m thznirs`` processes
for about ``--seconds`` seconds (at least twice) and reports the end-to-end
metrics.  ``BENCHMARK.json`` lists the workloads in ``WORKLOADS``; ``fullband_rw``
runs by name only, since its chain of about 24 s is too long to repeat
within the benchmark's run budget.
``--trace 1`` runs the chain once, then traced in-process passes for the rest
of the time, and reports the per-layer metrics.  Every run checks the CLI's
outputs against an in-process oracle.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mini_deep_chain", "fit_batch")  # as BENCHMARK.json lists them
UNLISTED = ("fullband_rw",)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced inputs, for the benchmark's own tests")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # A terminated run still stops its child process and removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "thznirs" / "__init__.py").is_file():
        print(f"error: no thznirs sources under {ROOT / 'src'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import run_workload

    report, machine = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), quick=args.quick)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    for note in report.notes:
        print(f"# {note}")
    # A metric the workload does not produce prints as absent; the JSON
    # carries such a per-layer metric as 0.
    for name, (value, unit) in {**report.metrics, **report.extra}.items():
        shown = "absent" if name in report.absent else f"{value:.6g}"
        print(f"{name:32s} {shown:>14s} {unit}")
    for name in report.absent:
        if name not in report.metrics:
            print(f"{name:32s} {'absent':>14s}")
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
