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
import pickle
import sys
from pathlib import Path

# before numpy loads: the CLI's small products cost less than a BLAS thread hand-off
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .errors import ThzNirsError, ValidationError  # noqa: E402
from .fileio import open_csv, parse_rows  # noqa: E402

# Each subcommand imports the modules only it runs, so that a process pays
# for loading no module it does not use.


def _worker_count() -> int:
    """fit's worker processes: the CPUs this process may run on, at most 4."""
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


def _parse_range(spec: str) -> np.ndarray:
    """'start:step:stop' (stop included within 1e-9 steps) or a comma list of finite numbers."""
    try:
        values = [float(x) for x in spec.split(":" if ":" in spec else ",")]
        if not all(map(math.isfinite, values)):
            raise ValueError("values must be finite")
        if ":" not in spec:
            return np.array(values)
        start, step, stop = values
        if step <= 0:
            raise ValueError("step must be positive")
        n = math.floor((stop - start) / step + 1e-9) + 1
        if n < 1:
            raise ValueError("stop is below start, so the range has no points")
        return start + step * np.arange(n)
    except (ValueError, OverflowError, MemoryError) as exc:  # MemoryError: too many points
        raise ValidationError(f"range '{spec}': {exc}") from None


def _csv_rows(path: str, first: str, second: str, parse) -> list:
    """``parse(k, row)`` of each dict row of CSV ``path``, which needs ``first`` and
    ``second`` and at least one data row."""
    with open_csv(path) as fh:
        reader = csv.DictReader(fh)
        if not {first, second} <= set(reader.fieldnames or ()):
            raise ValidationError(f"{path}: needs columns {first} and {second}")
        rows = parse_rows(path, list(reader), parse)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return rows


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------
def _cmd_synth(args) -> int:
    from .scene import load_scene
    from .synthchan import MAX_BOUNCES, synthesize_sweep, write_bundle

    if not 0 <= args.max_bounces <= MAX_BOUNCES:
        raise ValidationError(
            f"--max-bounces must lie in [0, {MAX_BOUNCES}], got {args.max_bounces}")
    scene = load_scene(args.scene)
    scenario = Path(args.scene).stem
    out = Path(args.out)
    for k in range(scene.n_rx):
        bundle = synthesize_sweep(
            scene, k, max_bounces=args.max_bounces, scenario_id=scenario
        )
        write_bundle(bundle, out / f"rx{k:03d}")
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------
def _cmd_pipeline(args) -> int:
    from .calibrate import SystemResponse
    from .pathloss import CiModel, rx_path_loss, write_pathloss_csv
    from .pdap import DEFAULT_NOISE_THRESHOLD_DB
    from .scene import load_scene, nirs_panel
    from .synthchan import RUN_KEYS, bundle_dirs, read_bundle, read_sweep_csv

    scene = load_scene(args.scene)
    try:
        nirs_panel(scene)
    except ValidationError as exc:
        raise ValidationError(f"{args.scene}: pipeline {exc}") from None
    if args.extra and not args.connect:
        raise ValidationError("--extra needs --connect")
    sys_resp = None
    if args.connect:
        connect = read_sweep_csv(args.connect, plan=scene.frequency_plan)
        extra = read_sweep_csv(args.extra, plan=scene.frequency_plan) if args.extra else None
        sys_resp = SystemResponse(connect=connect, extra=extra)

    ci = CiModel(ple=args.ple)
    threshold_db = DEFAULT_NOISE_THRESHOLD_DB if args.threshold_db is None else args.threshold_db
    rows = []
    seen: dict[int, Path] = {}
    bdirs = bundle_dirs(Path(args.bundle))
    # every bundle must match the scene's plan and grid, so the scene's serve them all
    divisor = None if sys_resp is None else sys_resp.divisor(scene.frequency_plan)
    first = None  # the first bundle's manifest; the set must be one synth run
    for bdir in bdirs:
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
        first = m if first is None else first
        for key in RUN_KEYS:
            if getattr(m, key) != getattr(first, key):
                raise ValidationError(f"bundles {bdirs[0]} and {bdir} disagree on {key}: "
                                      f"{getattr(first, key)!r} and {getattr(m, key)!r}")
        for name, ours, theirs in (("frequency_plan", m.plan, scene.frequency_plan),
                                   ("scan_grid", m.grid, scene.scan_grid)):
            if ours != theirs:
                raise ValidationError(f"bundle {bdir}: {name} does not match scene {args.scene}")
        rows.append(rx_path_loss(scene, m.rx_index, bundle.sweeps, divisor, ci, threshold_db))

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_pathloss_csv(rows, args.out)
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------
def _table_name(where: str, name: str) -> str:
    """``name``, a scenario or band, which the fit table writes unquoted."""
    if "," in name or '"' in name or "".join(name.splitlines()) != name:
        raise ValidationError(f"{where} {name!r} holds a comma, a double quote or a line break")
    return name


def _read_samples_csv(path: str, scenario: str | None, band: str | None):
    from .reflfit import ReflSample

    flags = (("scenario", scenario), ("band", band))
    needed = set()  # the columns a row leaves empty, for its flag to fill in
    def keyed_sample(k: int, row: dict):
        needed.update(column for column, _ in flags if not row.get(column))
        key = (_table_name("scenario", row.get("scenario") or scenario or "samples"),
               _table_name("band", row.get("band") or band or ""))
        return key, ReflSample(
            rx_id=int(row.get("rx_id", k)),
            reflection_angle_deg=float(row["reflection_angle_deg"]),
            additional_loss_db=float(row["l_ref_db"]),
            band_label=key[1],
        )

    groups: dict[tuple[str, str], list[ReflSample]] = {}
    for key, sample in _csv_rows(path, "reflection_angle_deg", "l_ref_db", keyed_sample):
        groups.setdefault(key, []).append(sample)
    for column, flag in flags:
        if flag is not None and column not in needed:
            raise ValidationError(f"--{column} {flag!r}: every row of {path} has its own {column}")
    return groups


def _fork_map(func, batches: list) -> list:
    """[func(batch) for batch in batches], each batch in its own child.

    With two or more batches, each runs in a process forked from this one,
    which inherits the imported modules and so starts in milliseconds (a
    spawned one would import numpy afresh, costing more than a fit).
    Forking is safe here: the CLI starts no threads, and OpenBLAS stops its
    own around ``fork``.  A child pickles its result, or its exception,
    into a pipe and exits; this process reads every pipe to its end, waits
    for every child, also on failure, and raises the first batch's
    exception.  A child that exits without sending is an internal fault.
    One batch, or a platform without ``fork``, runs in this process.
    """
    if len(batches) < 2 or not hasattr(os, "fork"):
        return list(map(func, batches))
    pids, pipes = [], []
    try:
        for batch in batches:
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _send_and_exit(write, func, batch, pipes)
            finally:
                os.close(write)  # only the child writes: its exit ends the pipe
            pids.append(pid)
        sent = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()  # a child still writing gets EPIPE and exits
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results = []
    for data, code in zip(sent, codes):
        if not data:
            raise RuntimeError(f"a fit worker exited with code {code} before sending its fits")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results


def _send_and_exit(write: int, func, batch, inherited: list) -> None:
    """In a forked child: pickle (True, func(batch)), or (False, its
    exception), into the pipe, then exit without returning to the caller.
    It first closes the read ends it inherited, so that each pipe breaks
    as soon as the parent closes it."""
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        try:
            sent = (True, func(batch))
        except Exception as exc:
            sent = (False, exc)
        data = pickle.dumps(sent)  # whole before the pipe sees a byte
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _cmd_fit(args) -> int:
    from .reflfit import ReflLossModel, fit_refl_models, generate_samples, write_fit_table_csv

    if bool(args.samples) == bool(args.generate):
        raise ValidationError("fit needs exactly one of --samples or --generate")
    for flag, name in (("--scenario", args.scenario), ("--band", args.band)):
        if name is not None:
            _table_name(flag, name)
            if args.generate:
                raise ValidationError(f"{flag} {name!r} does not apply to --generate")
    for flag, value in (("--angles", args.angles), ("--noise-sigma", args.noise_sigma),
                        ("--seed", args.seed)):
        if value is not None and args.samples:
            raise ValidationError(f"{flag} {value!r} does not apply to --samples")
    if args.generate:
        parts = args.generate.split(",")
        if len(parts) != 6:
            raise ValidationError(
                "--generate expects 'scenario,band,phi_bar,a,b,c'"
            )
        scenario, band = (_table_name(f"--generate: {name}", text)
                          for name, text in zip(("scenario", "band"), parts))
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
        angles = _parse_range("5:10:75" if args.angles is None else args.angles)
        seed = 0 if args.seed is None else args.seed
        if seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        noise_sigma = 0.0 if args.noise_sigma is None else args.noise_sigma
        samples = generate_samples(
            model, angles, noise_sigma_db=noise_sigma, rng=rng, band_label=band
        )
        groups = {(scenario, band): samples}
    else:
        groups = _read_samples_csv(args.samples, args.scenario, args.band)

    keys = sorted(groups)
    workers = min(_worker_count(), len(keys))
    batches = [keys[w::workers] for w in range(workers)]  # round-robin: similar work per worker
    fits = {}
    results = _fork_map(fit_refl_models, [[groups[key] for key in batch] for batch in batches])
    for batch, batch_fits in zip(batches, results):
        fits.update(zip(batch, batch_fits))
    entries = []
    for scenario, band in keys:
        fit = fits[scenario, band]
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
    def rx_loss(_: int, row: dict) -> tuple[int, float]:
        k, value = int(row["rx_id"]), float(row["pl_omni_db"])
        if not 0 <= k < n_rx:
            raise ValueError(f"rx_id {k} is not one of the scene's rx ids 0..{n_rx - 1}")
        if not math.isfinite(value):
            raise ValueError(f"pl_omni_db must be finite, got {value}")
        return k, value

    values: dict[int, float] = {}
    for k, value in _csv_rows(path, "rx_id", "pl_omni_db", rx_loss):
        if k in values:
            raise ValidationError(f"{path}: rx_id {k} is listed twice")
        values[k] = value
    missing = [k for k in range(n_rx) if k not in values]
    if missing:
        raise ValidationError(f"{path}: missing pl_omni_db for rx ids {missing}")
    return np.array([values[k] for k in range(n_rx)])


def _cmd_coverage(args) -> int:
    from .coverage import (
        LinkBudget,
        coverage_curve,
        default_thresholds,
        interpolate_path_loss,
        write_coverage_csv,
    )
    from .scene import load_scene

    scene = load_scene(args.scene)
    budget = LinkBudget()
    thresholds = default_thresholds() if args.thresholds is None else _parse_range(args.thresholds)
    ordered = np.sort(thresholds)  # a repeat would write its row twice; fit's angles may repeat
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValidationError(f"--thresholds lists {float(repeated[0])!r} dB more than once")

    def curve(results: str) -> list[tuple[float, float]]:
        pl = _read_pl_omni(results, scene.n_rx)
        try:
            cmap = interpolate_path_loss(scene.rx_positions, pl)
        except ValidationError as exc:
            raise ValidationError(f"{args.scene}: rx positions: {exc}") from None
        return coverage_curve(cmap, budget, thresholds)

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
    p.add_argument("--max-bounces", type=int, default=2)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pipeline", help="bundles -> calibration -> PDAP -> path losses")
    p.add_argument("--scene", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--connect", default=None)
    p.add_argument("--extra", default=None)
    p.add_argument("--threshold-db", type=float, default=None)  # None: pdap's default
    p.add_argument("--ple", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("fit", help="fit the reflection-loss angle law")
    p.add_argument("--samples", default=None)
    p.add_argument("--generate", default=None, metavar="SCEN,BAND,PHI,A,B,C")
    p.add_argument("--angles", default=None)  # None: 5:10:75 with --generate
    p.add_argument("--noise-sigma", type=float, default=None)  # None: 0 with --generate
    p.add_argument("--scenario", default=None)
    p.add_argument("--band", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)  # None: 0 with --generate
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
    except (ThzNirsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
