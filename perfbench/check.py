"""Output check: the CLI's result files against the in-process oracle.

Derived values in the result files carry 6 significant digits, so a value
matches when it lies within ``REL_TOL`` of the oracle's (relative), or within
``ABS_TOL`` near zero.  Bundles are checked for presence only, whatever
their file format; the pipeline check tests what they hold, and the run
compares every output's bytes between repeats.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from thznirs.scene import load_scene

from workloads import Coverage, Fit, Pipeline, Synth

REL_TOL = 1e-5
ABS_TOL = 1e-9

PIPELINE_COLUMNS = ("pl_dir_db", "pl_omni_db", "reflection_angle_deg", "d1_m", "d2_m", "l_ref_db")
FIT_COLUMNS = ("phi_bar_deg", "a", "b", "c", "rmse_db")


def tree_digest(path: Path) -> str:
    """SHA-256 over relative names and bytes of a file or a directory tree."""
    h = hashlib.sha256()
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(path.parent)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def _rows(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _compare(label: str, got: list[float], want: list[float]) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, expected {len(want)}"]
    return [
        f"{label}[{k}]: {g!r} != {w!r}"
        for k, (g, w) in enumerate(zip(got, want))
        if not _close(g, w)
    ]


def _check_synth(step: Synth, out: Path) -> list[str]:
    """One bundle per receiver, each with its manifest; the pipeline check
    then tests their content."""
    n_rx = load_scene(step.scene).n_rx
    bundles = sorted(p for p in (out / step.out).iterdir() if (p / "manifest.json").is_file())
    if len(bundles) != n_rx:
        return [f"{step.out}: {len(bundles)} bundles, expected {n_rx}"]
    return []


def _check_pipeline(step: Pipeline, out: Path, expected: dict) -> list[str]:
    rows = _rows(out / step.out)
    want = expected[step.out]
    problems = _compare(f"{step.out}:rx_id", [float(r["rx_id"]) for r in rows],
                        [float(w[0]) for w in want])
    for k, col in enumerate(PIPELINE_COLUMNS, start=1):
        problems += _compare(f"{step.out}:{col}", [float(r[col]) for r in rows],
                             [w[k] for w in want])
    return problems


def _check_fit(step: Fit, out: Path, expected: dict) -> list[str]:
    rows = _rows(out / step.out)
    want = expected[step.out]
    keys = [(r["scenario"], r["band"]) for r in rows]
    if keys != [(s, b) for s, b, _ in want]:
        return [f"{step.out}: groups {keys} differ from the oracle's"]
    problems = []
    for col in FIT_COLUMNS:
        values = [f.rmse_db if col == "rmse_db" else getattr(f.model, col) for _, _, f in want]
        problems += _compare(f"{step.out}:{col}", [float(r[col]) for r in rows], values)
    return problems


def _check_coverage(step: Coverage, out: Path, expected: dict) -> list[str]:
    rows = _rows(out / step.out)
    ts, with_nirs, without = expected[step.out]
    problems = _compare(f"{step.out}:threshold_db", [float(r["threshold_db"]) for r in rows], ts)
    problems += _compare(f"{step.out}:ratio_with_nirs",
                         [float(r["ratio_with_nirs"]) for r in rows], with_nirs)
    if without is not None:
        problems += _compare(f"{step.out}:ratio_without_nirs",
                             [float(r["ratio_without_nirs"]) for r in rows], without)
    return problems


def check_step(step, out: Path, expected: dict) -> list[str]:
    """Problems with one step's output; empty when it matches the oracle."""
    try:
        if isinstance(step, Synth):
            return _check_synth(step, out)
        if isinstance(step, Pipeline):
            return _check_pipeline(step, out, expected)
        if isinstance(step, Fit):
            return _check_fit(step, out, expected)
        return _check_coverage(step, out, expected)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{step.out}: unreadable output ({type(exc).__name__}: {exc})"]
