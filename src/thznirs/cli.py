"""Command-line front end: synth, pipeline, fit, coverage.

Every command is deterministic given identical inputs and seed, writes its
outputs atomically (temp file + rename), and exits 0 on success, 2 on input
or validation problems, 1 on internal errors.  Error messages are one line
prefixed with ``error:``.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .calibrate import SystemResponse
from .coverage import (
    LinkBudget,
    coverage_curve,
    default_thresholds,
    interpolate_path_loss,
    write_coverage_csv,
)
from .errors import ThzNirsError, ValidationError
from .pathloss import (
    CiModel,
    RxPathLossRow,
    directional_path_loss,
    omni_path_loss,
    write_pathloss_csv,
)
from .pdap import DEFAULT_NOISE_THRESHOLD_DB, pdap_from_sweeps
from .reflfit import (
    ReflLossModel,
    ReflSample,
    additional_reflection_loss,
    fit_refl_model,
    generate_samples,
    write_fit_table_csv,
)
from .scene import load_scene, nirs_angle_set, rx_link_geometry
from .synthchan import read_bundle, read_sweep_csv, synthesize_sweep, write_bundle


def _worker_count() -> int:
    """THZ_NIRS_THREADS caps fit's worker processes; 0 or unset means the
    CPUs this process may run on, at most 4."""
    raw = os.environ.get("THZ_NIRS_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"THZ_NIRS_THREADS must be an integer, got '{raw}'")
    if cap < 0:
        raise ValidationError("THZ_NIRS_THREADS must be >= 0")
    if cap > 0:
        return cap
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


def _parse_range(spec: str) -> np.ndarray:
    """'start:step:stop' (stop included within 1e-9 steps) or a comma list."""
    try:
        if ":" not in spec:
            return np.array([float(x) for x in spec.split(",")])
        start, step, stop = (float(x) for x in spec.split(":"))
        if step <= 0:
            raise ValueError("step must be positive")
        n = math.floor((stop - start) / step + 1e-9) + 1
        return start + step * np.arange(n)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"range '{spec}': {exc}") from None


@contextmanager
def _data_row(path: str, k: int):
    """Report a bad value in CSV data row ``k`` (0-based) naming the file and row."""
    try:
        yield
    except (TypeError, ValueError) as exc:  # a short row reads as None
        raise ValidationError(f"{path}: data row {k + 1}: {exc}") from None


def _csv_rows(path: str, first: str, second: str) -> list[dict]:
    """The data rows of the UTF-8 CSV file ``path``, which has columns ``first`` and ``second``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    if not {first, second} <= set(reader.fieldnames or ()):
        raise ValidationError(f"{path}: needs columns {first} and {second}")
    return rows


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------
def _cmd_synth(args) -> int:
    scene = load_scene(args.scene)
    scenario = Path(args.scene).stem
    out = Path(args.out)
    rx_indices = [args.rx_index] if args.rx_index is not None else range(scene.n_rx)
    for k in rx_indices:
        bundle = synthesize_sweep(
            scene, k, max_bounces=args.max_bounces, scenario_id=scenario
        )
        write_bundle(bundle, out / f"rx{k:03d}")
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------
def _bundle_dirs(root: Path) -> list[Path]:
    if (root / "manifest.json").exists():
        return [root]
    subs = sorted(p for p in root.iterdir() if (p / "manifest.json").exists())
    if not subs:
        raise ValidationError(f"no sweep bundles under {root}")
    return subs


def _cmd_pipeline(args) -> int:
    scene = load_scene(args.scene)
    if len(scene.nirs_panels) != 1:
        raise ValidationError(
            f"{args.scene}: pipeline needs a scene with exactly one NIRS panel to define "
            f"the angle set, got {len(scene.nirs_panels)}; pass the with-NIRS scene file "
            "even for without-NIRS bundles"
        )
    if args.extra and not args.connect:
        raise ValidationError("--extra needs --connect")
    sys_resp = None
    if args.connect:
        connect = read_sweep_csv(args.connect)
        extra = read_sweep_csv(args.extra, plan=connect.plan) if args.extra else None
        sys_resp = SystemResponse(connect=connect, extra=extra)

    ci = CiModel(ple=args.ple)
    rows = []
    seen: dict[int, Path] = {}
    for bdir in _bundle_dirs(Path(args.bundle)):
        bundle = read_bundle(bdir)
        m = bundle.manifest
        if not 0 <= m.rx_index < scene.n_rx:
            raise ValidationError(
                f"bundle {bdir} holds rx {m.rx_index}, but scene {args.scene} "
                f"has only {scene.n_rx} receivers"
            )
        if m.rx_index in seen:
            raise ValidationError(
                f"bundles {seen[m.rx_index]} and {bdir} both hold rx {m.rx_index}"
            )
        seen[m.rx_index] = bdir
        sweeps = bundle.sweeps
        if sys_resp is not None:
            sweeps = sweeps / sys_resp.divisor(m.plan)
        pdap = pdap_from_sweeps(
            sweeps, m.grid, m.plan.span_hz, noise_threshold_db=args.threshold_db
        )
        angles = nirs_angle_set(scene, m.rx_index, grid=m.grid)
        if not angles:
            raise ValidationError(
                f"angle set for rx {m.rx_index} is empty; "
                "no scan direction intersects the panel"
            )
        pl_dir = directional_path_loss(pdap, angles)
        pl_omni = omni_path_loss(pdap)
        phi, _spec, d1, d2 = rx_link_geometry(scene, m.rx_index)
        l_ref = additional_reflection_loss(pl_dir, ci, m.plan.center_hz, d1, d2)
        rows.append(RxPathLossRow(m.rx_index, pl_dir, pl_omni, phi, d1, d2, l_ref))

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_pathloss_csv(rows, args.out)
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------
def _read_samples_csv(path: str, scenario: str | None, band: str | None):
    groups: dict[tuple[str, str], list[ReflSample]] = {}
    for k, row in enumerate(_csv_rows(path, "reflection_angle_deg", "l_ref_db")):
        key = (
            row.get("scenario") or scenario or "samples",
            row.get("band") or band or "",
        )
        with _data_row(path, k):
            sample = ReflSample(
                rx_id=int(row.get("rx_id", k)),
                reflection_angle_deg=float(row["reflection_angle_deg"]),
                additional_loss_db=float(row["l_ref_db"]),
                band_label=key[1],
            )
        groups.setdefault(key, []).append(sample)
    return groups


def _fit_group(samples: list[ReflSample]):
    """Fit one group; a toolkit error is returned so the caller can name the group."""
    try:
        return fit_refl_model(samples)
    except ThzNirsError as exc:
        return exc


@contextmanager
def _group_map(n_groups: int):
    """Yield an ordered ``map`` over ``n_groups`` independent groups.

    With more than one worker it runs on fork-started processes, which
    inherit the imported modules and so start in milliseconds (a spawned
    worker would import numpy afresh, costing more than a fit). Forking is
    safe here: the CLI starts no threads, and OpenBLAS stops its own around
    ``fork``. Otherwise, or where ``fork`` is missing, it is the builtin
    ``map`` in this process.
    """
    workers = min(_worker_count(), n_groups)
    if workers > 1:
        import concurrent.futures
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            pool = concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")
            )
            try:
                yield pool.map
            finally:
                pool.shutdown(cancel_futures=True)
            return
    yield map


def _cmd_fit(args) -> int:
    if bool(args.samples) == bool(args.generate):
        raise ValidationError("fit needs exactly one of --samples or --generate")
    if args.generate:
        parts = args.generate.split(",")
        if len(parts) != 6:
            raise ValidationError(
                "--generate expects 'scenario,band,phi_bar,a,b,c'"
            )
        scenario, band = parts[0], parts[1]
        values = []
        for name, text in zip(("phi_bar", "a", "b", "c"), parts[2:]):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValidationError(f"--generate: {name} '{text}' is not a finite number")
            values.append(value)
        model = ReflLossModel(*values)
        angles = _parse_range(args.angles)
        rng = np.random.default_rng(args.seed)
        samples = generate_samples(
            model, angles, noise_sigma_db=args.noise_sigma, rng=rng, band_label=band
        )
        groups = {(scenario, band): samples}
    else:
        groups = _read_samples_csv(args.samples, args.scenario, args.band)

    keys = sorted(groups)
    entries = []
    with _group_map(len(keys)) as map_groups:
        fits = map_groups(_fit_group, [groups[key] for key in keys])
        for (scenario, band), fit in zip(keys, fits):
            if isinstance(fit, ThzNirsError):
                if not args.samples:
                    raise fit
                raise ValidationError(f"{args.samples}: group {scenario}/{band}: {fit}")
            entries.append((scenario, band, fit))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_fit_table_csv(entries, args.out)
    return 0


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------
def _read_pl_omni(path: str, n_rx: int) -> np.ndarray:
    values: dict[int, float] = {}
    for n, row in enumerate(_csv_rows(path, "rx_id", "pl_omni_db")):
        with _data_row(path, n):
            k, value = int(row["rx_id"]), float(row["pl_omni_db"])
            if not math.isfinite(value):
                raise ValueError(f"pl_omni_db must be finite, got {value}")
        if k in values:
            raise ValidationError(f"{path}: rx_id {k} is listed twice")
        values[k] = value
    missing = [k for k in range(n_rx) if k not in values]
    if missing:
        raise ValidationError(f"{path}: missing pl_omni_db for rx ids {missing}")
    return np.array([values[k] for k in range(n_rx)])


def _cmd_coverage(args) -> int:
    scene = load_scene(args.scene)
    budget = LinkBudget()
    thresholds = _parse_range(args.thresholds) if args.thresholds else default_thresholds()

    def curve(results: str) -> list[tuple[float, float]]:
        pl = _read_pl_omni(results, scene.n_rx)
        return coverage_curve(interpolate_path_loss(scene.rx_positions, pl), budget, thresholds)

    curve_with = curve(args.results)
    ratios_without = None
    if args.results_without:
        ratios_without = [r for _, r in curve(args.results_without)]

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_coverage_csv(
        args.out, [t for t, _ in curve_with], [r for _, r in curve_with], ratios_without
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thznirs",
        description="Synthetic THz channel sounding and reflector coverage analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize sweep bundles from a scene file")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rx-index", type=int, default=None)
    p.add_argument("--max-bounces", type=int, default=2)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pipeline", help="bundles -> calibration -> PDAP -> path losses")
    p.add_argument("--scene", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--connect", default=None)
    p.add_argument("--extra", default=None)
    p.add_argument("--threshold-db", type=float, default=DEFAULT_NOISE_THRESHOLD_DB)
    p.add_argument("--ple", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("fit", help="fit the reflection-loss angle law")
    p.add_argument("--samples", default=None)
    p.add_argument("--generate", default=None, metavar="SCEN,BAND,PHI,A,B,C")
    p.add_argument("--angles", default="5:10:75")
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--scenario", default=None)
    p.add_argument("--band", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("coverage", help="coverage-ratio curves from per-Rx path loss")
    p.add_argument("--scene", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--results-without", default=None)
    p.add_argument("--thresholds", default=None, metavar="START:STEP:STOP")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ThzNirsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
