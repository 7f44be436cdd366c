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
from concurrent.futures import ThreadPoolExecutor
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
from .errors import SingularCalibrationError, ThzNirsError, ValidationError
from .fileio import atomic_write
from .pathloss import CiModel, directional_path_loss, omni_path_loss
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
from .synthchan import SweepBundle, read_bundle, read_sweep_csv, synthesize_sweep, write_bundle

_MAG_FLOOR = 1e-12


def _worker_count() -> int:
    """THZ_NIRS_THREADS caps parallelism; 0 or unset means auto."""
    raw = os.environ.get("THZ_NIRS_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"THZ_NIRS_THREADS must be an integer, got '{raw}'")
    if cap < 0:
        raise ValidationError("THZ_NIRS_THREADS must be >= 0")
    return cap if cap > 0 else min(4, os.cpu_count() or 1)


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------
def _cmd_synth(args) -> int:
    scene = load_scene(args.scene)
    scenario = args.scenario or Path(args.scene).stem
    out = Path(args.out)
    rx_indices = [args.rx_index] if args.rx_index is not None else list(range(scene.n_rx))
    for k in rx_indices:
        if not (0 <= k < scene.n_rx):
            raise ValidationError(f"rx index {k} out of range (scene has {scene.n_rx})")

    def synth_one(k: int) -> None:
        bundle = synthesize_sweep(
            scene, k, max_bounces=args.max_bounces, scenario_id=scenario
        )
        write_bundle(bundle, out / f"rx{k:03d}")

    workers = min(_worker_count(), len(rx_indices))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(synth_one, rx_indices))
    else:
        for k in rx_indices:
            synth_one(k)
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


def _calibrated_sweeps(bundle: SweepBundle, sys_resp: SystemResponse | None) -> np.ndarray:
    if sys_resp is None:
        return bundle.sweeps
    if sys_resp.connect.plan != bundle.manifest.plan:
        raise ValidationError("calibration files do not match the bundle frequency plan")
    denom = sys_resp.extra_samples() * sys_resp.connect.samples
    mags = np.abs(denom)
    if np.any(mags < _MAG_FLOOR):
        k = int(np.argmax(mags < _MAG_FLOOR))
        raise SingularCalibrationError(
            f"calibration singular at {sys_resp.connect.frequencies[k]:.6e} Hz"
        )
    return bundle.sweeps / denom


def _cmd_pipeline(args) -> int:
    scene = load_scene(args.scene)
    if not scene.nirs_panels:
        raise ValidationError(
            "pipeline needs a scene with a NIRS panel to define the angle set; "
            "pass the with-NIRS scene file even for without-NIRS bundles"
        )
    sys_resp = None
    if args.connect:
        connect = read_sweep_csv(args.connect)
        extra = read_sweep_csv(args.extra, plan=connect.plan) if args.extra else None
        sys_resp = SystemResponse(connect=connect, extra=extra)

    ci = CiModel(ple=args.ple)
    lines = ["rx_id,pl_dir_db,pl_omni_db,reflection_angle_deg,d1_m,d2_m,l_ref_db"]
    rows = []
    for bdir in _bundle_dirs(Path(args.bundle)):
        bundle = read_bundle(bdir)
        m = bundle.manifest
        sweeps = _calibrated_sweeps(bundle, sys_resp)
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
        rows.append((m.rx_index, pl_dir, pl_omni, phi, d1, d2, l_ref))

    for r in sorted(rows):
        lines.append(",".join([str(r[0])] + [_fmt(v) for v in r[1:]]))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------
def _parse_angles(spec: str) -> list[float]:
    if ":" in spec:
        start, step, stop = (float(x) for x in spec.split(":"))
        if step <= 0:
            raise ValidationError("angle range step must be positive")
        n = math.floor((stop - start) / step + 1e-9) + 1
        return [start + k * step for k in range(n)]
    return [float(x) for x in spec.split(",")]


def _read_samples_csv(path: str, scenario: str | None, band: str | None):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValidationError(f"{path}: empty samples file")
        fields = set(reader.fieldnames)
        angle_col = "reflection_angle_deg"
        loss_col = "l_ref_db" if "l_ref_db" in fields else "additional_loss_db"
        if angle_col not in fields or loss_col not in fields:
            raise ValidationError(
                f"{path}: needs columns reflection_angle_deg and l_ref_db "
                "(or additional_loss_db)"
            )
        groups: dict[tuple[str, str], list[ReflSample]] = {}
        for k, row in enumerate(reader):
            key = (
                row.get("scenario") or scenario or "samples",
                row.get("band") or band or "",
            )
            with_nirs = str(row.get("with_nirs", "true")).strip().lower() in ("1", "true", "yes")
            groups.setdefault(key, []).append(
                ReflSample(
                    rx_id=int(row.get("rx_id", k)),
                    reflection_angle_deg=float(row[angle_col]),
                    additional_loss_db=float(row[loss_col]),
                    with_nirs=with_nirs,
                    band_label=key[1],
                )
            )
    return groups


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
        model = ReflLossModel(
            phi_bar_deg=float(parts[2]), a=float(parts[3]), b=float(parts[4]), c=float(parts[5])
        )
        angles = _parse_angles(args.angles)
        rng = np.random.default_rng(args.seed)
        samples = generate_samples(
            model, angles, noise_sigma_db=args.noise_sigma, rng=rng, band_label=band
        )
        groups = {(scenario, band): samples}
    else:
        groups = _read_samples_csv(args.samples, args.scenario, args.band)

    entries = []
    for (scenario, band) in sorted(groups):
        fit = fit_refl_model(groups[(scenario, band)])
        entries.append((scenario, band, fit))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_fit_table_csv(entries, args.out)
    return 0


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------
def _parse_thresholds(spec: str) -> np.ndarray:
    if ":" in spec:
        start, step, stop = (float(x) for x in spec.split(":"))
        if step <= 0:
            raise ValidationError("threshold range step must be positive")
        n = math.floor((stop - start) / step + 1e-9) + 1
        return start + step * np.arange(n)
    return np.array([float(x) for x in spec.split(",")])


def _read_pl_omni(path: str, n_rx: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fields = set(reader.fieldnames or ())
        if "rx_id" not in fields or "pl_omni_db" not in fields:
            raise ValidationError(f"{path}: needs columns rx_id and pl_omni_db")
        values: dict[int, float] = {}
        for row in reader:
            values[int(row["rx_id"])] = float(row["pl_omni_db"])
    missing = [k for k in range(n_rx) if k not in values]
    if missing:
        raise ValidationError(f"{path}: missing pl_omni_db for rx ids {missing}")
    return np.array([values[k] for k in range(n_rx)])


def _cmd_coverage(args) -> int:
    scene = load_scene(args.scene)
    budget = LinkBudget(
        p_t_dbm=args.ptx_dbm,
        g_t_dbi=args.gt_dbi,
        g_r_dbi=args.gr_dbi,
        noise_figure_db=args.noise_figure_db,
        temperature_k=args.temperature_k,
        bandwidth_hz=args.bandwidth_hz,
    )
    thresholds = (
        _parse_thresholds(args.thresholds) if args.thresholds else default_thresholds()
    )
    pl_with = _read_pl_omni(args.results, scene.n_rx)
    cmap = interpolate_path_loss(scene.rx_positions, pl_with, resolution_m=args.resolution)
    curve_with = coverage_curve(cmap, budget, thresholds)
    ratios_with = [r for _, r in curve_with]
    ts = [t for t, _ in curve_with]

    ratios_without = None
    if args.results_without:
        pl_wo = _read_pl_omni(args.results_without, scene.n_rx)
        cmap_wo = interpolate_path_loss(
            scene.rx_positions, pl_wo, resolution_m=args.resolution
        )
        ratios_without = [r for _, r in coverage_curve(cmap_wo, budget, thresholds)]

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_coverage_csv(args.out, ts, ratios_with, ratios_without)
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
    p.add_argument("--scenario", default=None)
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
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--ptx-dbm", type=float, default=13.0)
    p.add_argument("--gt-dbi", type=float, default=25.0)
    p.add_argument("--gr-dbi", type=float, default=25.0)
    p.add_argument("--noise-figure-db", type=float, default=10.0)
    p.add_argument("--temperature-k", type=float, default=300.0)
    p.add_argument("--bandwidth-hz", type=float, default=15e9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ThzNirsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
