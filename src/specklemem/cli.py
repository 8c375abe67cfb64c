"""Command-line front end: curve emission, Monte Carlo validation, samplers.

Subcommands
    curves       -- write analytic correlation curves (fig1: shot vs classical
                    noise; fig2: first-order correction per state and geometry)
    validate     -- run the full Monte-Carlo-vs-theory suite, write a JSON report
    sample-stats -- draw transmitted photon counts and summarize their moments

Exit codes: 0 success, 2 configuration error, 3 domain/estimation error,
4 validation-suite failure.  Every command with a seed is byte-for-byte
reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .correlations import (
    DiffusionGeometry,
    _checked_whole,
    classical_noise_correlation,
    first_order_correction,
    intensity_decay,
    mesoscopic_kernel,
    noise_correlation_expansion,  # noqa: F401 -- perfbench/tracer.py wraps cli's copy
    quantum_noise_correlation,
    shot_noise_correlation,
)
from .ensemble import (
    CLASSICAL,
    COUNT_STREAM,
    KS_SIGNIFICANCE,
    build_ensemble,
    estimate_moments,
    estimate_noise_correlation,
    rayleigh_check,
    substream,
)
from .errors import DomainError, SpeckleMemError
from .photons import QuantumState, sample_transmitted_counts, summarize_counts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_SUITE = 4

# Validation thresholds (z-scores against theory, exactness); KS_SIGNIFICANCE is ensemble's.
Z_MOMENTS = 5.0
Z_CURVES = 3.0
Z_NEGATIVE_CONTROL = 3.0
SCALE_INVARIANCE_TOL = 1e-12

# Fixed grid of the moment suite; the curve checks use the configurable grid.
MOMENT_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
# The moment-ensemble columns, (0, 1, 4, 16), that the counting check reads in its first rows.
COUNTING_GRID = MOMENT_GRID[::2]
MAX_COUNTING_REALIZATIONS = 2000
# Curve rows formatted and written at a time, so the CSV text is never whole.
CSV_CHUNK_ROWS = 8192


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


def _whole(value) -> int:
    """An int, an integral float or an integer literal, as an int; never a bool."""
    if not isinstance(value, bool):
        try:
            return _checked_whole(value, "value")
        except DomainError:
            pass
    raise argparse.ArgumentTypeError(f"expected a whole number, got {value!r}")


def _real(value) -> float:
    """A number or a numeric literal, as a finite float; never a bool."""
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = float("nan")
    if isinstance(value, bool) or not np.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value!r}")
    return v


def _reals(value) -> list[float]:
    """A list, or comma-separated text, of finite floats."""
    if not isinstance(value, list):
        value = [v for v in str(value).split(",") if v.strip() != ""]
    return [_real(v) for v in value]


def _path(value) -> str:
    if not (isinstance(value, str) and value):
        raise argparse.ArgumentTypeError(f"expected a file path, got {value!r}")
    return value


class Option(NamedTuple):
    """One option of the CLI, taken alike as a --flag and as a config-file key."""

    commands: tuple[str, ...]
    default: object
    kind: Callable | tuple[str, ...]  # the converter, or the allowed values
    help: str


GRID, SEEDED = ("curves", "validate"), ("validate", "sample-stats")
ALL = ("curves", "validate", "sample-stats")
OPTIONS: dict[str, Option] = {
    "grid_min": Option(GRID, 1e-2, _real, "smallest offset x on the grid"),
    "grid_max": Option(GRID, 1e2, _real, "largest offset x on the grid"),
    "grid_points": Option(GRID, 25, _whole, "number of grid points"),
    "grid_scale": Option(GRID, "log", ("lin", "log"), "grid spacing"),
    "fano": Option(("curves",), [0.0, 1.0, 2.0], _reals, "comma-separated Fano factors"),
    "l_over_ell": Option(("curves",), [3.0, 4.0, 5.0], _reals,
                         "comma-separated thickness / mean-free-path ratios"),
    "mean_t": Option(("validate",), 0.01, _real, "mean transmission"),
    "realizations": Option(("validate",), 100_000, _whole, "disorder realizations"),
    "shots": Option(SEEDED, 1000, _whole, "photon-count shots"),
    "seed": Option(SEEDED, None, _whole, "master seed (required)"),
    "state": Option(("sample-stats",), "coherent", ("fock", "coherent", "thermal"),
                    "input state kind"),
    "mean_photons": Option(("sample-stats",), 10.0, _real, "mean photon number"),
    "transmission": Option(("sample-stats",), 0.5, _real, "intensity transmission in [0, 1]"),
    "out": Option(ALL, None, _path, "output path (stdout when omitted)"),
    "format": Option(ALL, None, ("csv", "json"), "output format"),
}
DEFAULTS = {key: option.default for key, option in OPTIONS.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specklemem",
        description="Noise memory effect of multiply scattered light: "
        "analytic curves and Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "curves": sub.add_parser("curves", help="emit analytic correlation curves"),
        "validate": sub.add_parser("validate", help="run the Monte-Carlo-vs-theory suite"),
        "sample-stats": sub.add_parser("sample-stats", help="draw and summarize photon counts"),
    }
    commands["curves"].add_argument("figure", choices=("fig1", "fig2"),
                                    help="which curve family to emit")
    for key, option in OPTIONS.items():
        kind = {"choices": option.kind} if isinstance(option.kind, tuple) else {"type": option.kind}
        for command in option.commands:
            commands[command].add_argument("--" + key.replace("_", "-"), dest=key,
                                           help=option.help, **kind)
    for p in commands.values():
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--show-config", action="store_true", help="print resolved config and exit")
    return parser


def _config_value(key: str, value):
    """A config-file value checked and converted like its flag's."""
    kind = OPTIONS[key].kind
    if value is None and OPTIONS[key].default is None:
        return None  # null restates an option that is unset by default
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}, got {value!r}")
        return value
    try:
        return kind(value)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"malformed config value for {key}: {exc}") from exc


def _resolve_config(args: argparse.Namespace) -> dict:
    """The command's options: defaults, then the config file, then explicit flags."""
    keys = [key for key, option in OPTIONS.items() if args.command in option.commands]
    cfg = {key: DEFAULTS[key] for key in keys}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ConfigError(f"config keys that {args.command} does not take: {sorted(unknown)}")
        cfg.update((key, _config_value(key, value)) for key, value in loaded.items())
    cfg.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    cfg["command"] = args.command
    if args.command == "curves":
        cfg["figure"] = args.figure
    return cfg


def _build_grid(cfg: dict, include_zero: bool) -> np.ndarray:
    lo, hi, n = cfg["grid_min"], cfg["grid_max"], cfg["grid_points"]
    log = cfg["grid_scale"] == "log"
    if n < 2:
        raise ConfigError("grid needs at least 2 points")
    if not lo < hi:
        raise ConfigError("grid-min must be smaller than grid-max")
    if lo < 0 or (log and lo == 0):
        raise ConfigError("grid-min must be >= 0, and > 0 on a log grid")
    grid = (np.geomspace if log else np.linspace)(lo, hi, n)
    if include_zero and grid[0] > 0.0:
        grid = np.concatenate(([0.0], grid))
    if np.any(np.diff(grid) <= 0):
        raise ConfigError("grid offsets must be strictly increasing")
    return grid


def _output(path):
    """A context of the text stream of an output path: stdout when None, left open."""
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_json(path, payload) -> None:
    """Indented JSON with sorted keys, encoded piece by piece into the stream."""
    with _output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header: list[str], columns: list[list]) -> None:
    """Header line, then one line of str values per row, CSV_CHUNK_ROWS rows per write.

    str of a Python float or int is its repr, and a text cell is written as is.
    """
    rows = zip(*columns)
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            fh.write("".join([",".join(map(str, row)) + "\n" for row in chunk]))


def _json_float(v):
    v = float(v)
    return None if np.isnan(v) else v


def _column_tag(value: float) -> str:
    return f"{value:g}"


def cmd_curves(cfg: dict) -> int:
    if any(f < 0 for f in cfg["fano"]):
        raise ConfigError("fano values must be >= 0")
    if cfg["figure"] == "fig2" and cfg["grid_min"] <= 0:
        raise ConfigError("fig2 evaluates the mesoscopic kernel: grid-min must be > 0")
    # Every column is a list of Python floats, written with repr.
    if cfg["figure"] == "fig1":
        xs = _build_grid(cfg, include_zero=True).tolist()
        header = ["x", "c_sn", "c_cn"]
        columns = [
            xs,
            [shot_noise_correlation(x) for x in xs],
            [classical_noise_correlation(x) for x in xs],
        ]
    else:
        xs = _build_grid(cfg, include_zero=False).tolist()
        # The decay and the kernel depend on x alone, so each is evaluated once per x.
        c = np.array([intensity_decay(x) for x in xs])
        g = np.array([mesoscopic_kernel(x) for x in xs])
        header = ["x"]
        columns = [xs]
        for fano in cfg["fano"]:
            for ratio in cfg["l_over_ell"]:
                geom = DiffusionGeometry.from_thickness_ratio(ratio)
                # Evaluated at unit mean transmission: the correction term is
                # linear in mean_t, so this is exactly the normalized curve.
                header.append(f"c2_f{_column_tag(fano)}_r{_column_tag(ratio)}")
                columns.append(first_order_correction(c, g, fano, 1.0, geom).tolist())

    if (cfg["format"] or "csv") == "csv":
        _write_csv(cfg["out"], header, columns)
    else:
        payload = {
            "figure": cfg["figure"],
            "columns": dict(zip(header, columns)),
        }
        _write_json(cfg["out"], payload)
    return EXIT_OK


def _points(**columns: np.ndarray) -> list[dict]:
    """One dict per row of equal-length float arrays, with Python float values."""
    rows = zip(*(col.tolist() for col in columns.values()))
    return [dict(zip(columns, row)) for row in rows]


def _check(name: str, threshold: float, worst, worst_key: str = "max_abs_z", **fields) -> dict:
    """A validation check that passes when its worst value is within threshold."""
    worst = float(worst)  # a NumPy scalar would make "passed" a np.bool_, which json rejects
    return {"name": name, "threshold": threshold, "passed": worst <= threshold,
            worst_key: worst, **fields}


def _record(r) -> dict:
    """The report entry of one moment record."""
    return {"name": r.name, "x": r.offset, "empirical": r.empirical, "stderr": r.stderr,
            "theory": r.theory, "z": r.z}


def _curve_check(name: str, estimate, theory_fn, threshold: float) -> dict:
    c = estimate.curve
    theory = np.array([theory_fn(x) for x in c.offsets.tolist()], dtype=float)
    z = (c.values - theory) / c.stderr
    points = _points(x=c.offsets, empirical=c.values, stderr=c.stderr, theory=theory, z=z)
    return _check(name, threshold, np.abs(z).max(), clamped=estimate.n_clamped, points=points)


def cmd_validate(cfg: dict) -> int:
    if cfg["format"] not in (None, "json"):
        raise ConfigError("validate reports are JSON only")
    out, folder = cfg["out"], os.path.dirname(os.path.abspath(cfg["out"] or "."))
    if out is not None and (os.path.isdir(out) or not os.access(folder, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write {out}: it is a directory or its folder is not writable")
    curve_grid = _build_grid(cfg, include_zero=True)
    seed = cfg["seed"]
    mean_t = cfg["mean_t"]
    # The coherent input of the shot-noise curve and the counting check.
    coherent = QuantumState.coherent(10.0)
    checks: list[dict] = []

    moment_ens = build_ensemble(np.array(MOMENT_GRID), mean_t, cfg["realizations"], seed)
    moments = estimate_moments(moment_ens)
    records = [_record(r) for r in moments.records]
    checks.append(_check("moment_suite", Z_MOMENTS, moments.max_abs_z(), records=records))
    control = [_record(r) for r in moments.by_name("TT")]
    worst = max(abs(r["z"]) for r in control)
    checks.append(_check("gaussian_negative_control", Z_NEGATIVE_CONTROL, worst, records=control))

    rayleigh = rayleigh_check(moment_ens)
    checks.append({"name": "rayleigh_ks", "statistic": rayleigh.statistic,
                   "pvalue": rayleigh.pvalue, "significance": KS_SIGNIFICANCE,
                   "passed": rayleigh.passed})

    curve_ens = build_ensemble(curve_grid, mean_t, cfg["realizations"], seed)

    shot = estimate_noise_correlation(curve_ens, coherent)
    checks.append(_curve_check("shot_noise_curve", shot, shot_noise_correlation, Z_CURVES))

    classical = estimate_noise_correlation(curve_ens, CLASSICAL)
    checks.append(
        _curve_check("classical_curve", classical, classical_noise_correlation, Z_CURVES)
    )

    # Only the values are compared, and they do not depend on n_boot.
    rescaled = estimate_noise_correlation(curve_ens, CLASSICAL, noise_scale=7.3, n_boot=2)
    scale_diff = np.abs(classical.curve.values - rescaled.curve.values).max()
    checks.append(
        _check("noise_scale_invariance", SCALE_INVARIANCE_TOL, scale_diff, "max_abs_diff")
    )

    thermal = estimate_noise_correlation(curve_ens, QuantumState.thermal(1.0))
    checks.append(
        _curve_check(
            "quantum_thermal_curve",
            thermal,
            lambda x: quantum_noise_correlation(x, 2.0, mean_t),
            Z_CURVES,
        )
    )

    counting_r = min(cfg["realizations"], MAX_COUNTING_REALIZATIONS)
    counting_ens = replace(moment_ens, amplitudes=moment_ens.amplitudes[:counting_r, ::2],
                           grid=moment_ens.grid[::2])
    counted = estimate_noise_correlation(counting_ens, coherent, mode="counting",
                                         shots=cfg["shots"])
    analytic = estimate_noise_correlation(counting_ens, coherent)
    c, a = counted.curve, analytic.curve
    combined = np.hypot(c.stderr, a.stderr)
    n_sigma = np.abs(c.values - a.values) / combined
    points = _points(x=c.offsets, counting=c.values, analytic=a.values,
                     stderr_combined=combined, n_sigma=n_sigma)
    checks.append(
        _check("counting_mode_consistency", Z_CURVES, n_sigma.max(), "max_n_sigma",
               shots=cfg["shots"], realizations=counting_r, points=points)
    )

    config = {k: v for k, v in cfg.items() if k in OPTIONS and k not in ("out", "format")}
    config.update(moment_grid=list(MOMENT_GRID), counting_grid=list(COUNTING_GRID),
                  counting_realizations=counting_r)
    passed = all(check["passed"] for check in checks)
    _write_json(cfg["out"], {"config": config, "checks": checks, "passed": passed})
    return EXIT_OK if passed else EXIT_SUITE


def cmd_sample_stats(cfg: dict) -> int:
    maker = getattr(QuantumState, cfg["state"])
    state = maker(cfg["mean_photons"])
    rng = substream(cfg["seed"], 0, COUNT_STREAM)
    counts = sample_transmitted_counts(state, cfg["transmission"], cfg["shots"], rng)
    summary = summarize_counts(counts)

    if (cfg["format"] or "csv") == "csv":
        # One shot per row, then the three summary rows labelled in the shot column.
        labels = [*range(counts.size), "mean", "variance", "fano"]
        values = [*counts.tolist(), summary.mean, summary.variance, summary.fano]
        _write_csv(cfg["out"], ["shot", "count"], [labels, values])
    else:
        payload = {
            "state": cfg["state"],
            "mean_photons": cfg["mean_photons"],
            "transmission": cfg["transmission"],
            "counts": [int(c) for c in counts],
            "summary": {k: _json_float(v) if isinstance(v, float) else v
                        for k, v in asdict(summary).items()},
        }
        _write_json(cfg["out"], payload)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.show_config:
            _write_json(None, cfg)
            return EXIT_OK
        if "seed" in cfg and cfg["seed"] is None:
            raise ConfigError(f"{cfg['command']} needs --seed for reproducibility")
        if cfg["command"] == "curves":
            return cmd_curves(cfg)
        if cfg["command"] == "validate":
            return cmd_validate(cfg)
        return cmd_sample_stats(cfg)
    except ConfigError as exc:
        print(f"specklemem: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SpeckleMemError as exc:
        print(f"specklemem: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
