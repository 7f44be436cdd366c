"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads fullband_rw fit_batch --seeds 1-10 \
        --trace 0 --out perfbench/results/sweep.json

Each run is ``perfbench/run.py`` in its own process, one after another.  For
every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and the spread: the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    summary: dict = {"run_seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["elapsed_s"] = time.perf_counter() - t0
            result["machine"] = json.loads(
                next(ln for ln in lines if ln.startswith("# machine "))[len("# machine "):]
            )
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['elapsed_s']:.1f} s", file=sys.stderr)
        metrics = {
            name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                       unit=runs[0]["metrics"][name]["unit"])
            for name in runs[0]["metrics"]
        }
        summary["machine"] = runs[0]["machine"]
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"{workload:16s} {name:30s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}", file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
