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
import sys

import numpy as np

from .correlations import (
    DiffusionGeometry,
    classical_noise_correlation,
    noise_correlation_expansion,
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
from .errors import SpeckleMemError
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
COUNTING_GRID = (0.0, 1.0, 4.0, 16.0)
MAX_COUNTING_REALIZATIONS = 2000
# Resolved settings echoed in the validate report's "config" block.
REPORT_CONFIG_KEYS = ("grid_min", "grid_max", "grid_points", "grid_scale", "mean_t",
                      "realizations", "shots", "seed")


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


DEFAULTS: dict = {
    "grid_min": 1e-2,
    "grid_max": 1e2,
    "grid_points": 25,
    "grid_scale": "log",
    "fano": [0.0, 1.0, 2.0],
    "l_over_ell": [3.0, 4.0, 5.0],
    "mean_t": 0.01,
    "realizations": 100_000,
    "shots": 1000,
    "seed": None,
    "out": None,
    "format": None,
    "state": "coherent",
    "mean_photons": 10.0,
    "transmission": 0.5,
}


def _float_list(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    try:
        return [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specklemem",
        description="Noise memory effect of multiply scattered light: "
        "analytic curves and Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, grid=False, mc=False, sampler=False, fig2=False):
        if grid:
            p.add_argument("--grid-min", type=float, help="smallest offset x on the grid")
            p.add_argument("--grid-max", type=float, help="largest offset x on the grid")
            p.add_argument("--grid-points", type=int, help="number of grid points")
            p.add_argument("--grid-scale", choices=("lin", "log"), help="grid spacing")
        if fig2:
            p.add_argument("--fano", type=_float_list, help="comma-separated Fano factors")
            p.add_argument(
                "--l-over-ell",
                type=_float_list,
                dest="l_over_ell",
                help="comma-separated thickness / mean-free-path ratios",
            )
        if grid or mc:
            p.add_argument("--mean-t", type=float, dest="mean_t", help="mean transmission")
        if mc:
            p.add_argument("--realizations", type=int, help="disorder realizations")
        if mc or sampler:
            p.add_argument("--shots", type=int, help="photon-count shots")
            p.add_argument("--seed", type=int, help="master seed (required)")
        if sampler:
            p.add_argument("--state", choices=("fock", "coherent", "thermal"), help="input state kind")
            p.add_argument("--mean-photons", type=float, dest="mean_photons", help="mean photon number")
            p.add_argument("--transmission", type=float, help="intensity transmission in [0, 1]")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--show-config", action="store_true", help="print resolved config and exit")

    p_curves = sub.add_parser("curves", help="emit analytic correlation curves")
    p_curves.add_argument("figure", choices=("fig1", "fig2"), help="which curve family to emit")
    add_common(p_curves, grid=True, fig2=True)

    p_validate = sub.add_parser("validate", help="run the Monte-Carlo-vs-theory suite")
    add_common(p_validate, grid=True, mc=True)

    p_stats = sub.add_parser("sample-stats", help="draw and summarize photon counts")
    add_common(p_stats, sampler=True)

    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, optional config file and explicit flags (in that order)."""
    cfg = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    try:
        cfg["fano"] = _float_list(cfg["fano"])
        cfg["l_over_ell"] = _float_list(cfg["l_over_ell"])
        for key in ("grid_points", "realizations", "shots"):
            cfg[key] = int(cfg[key])
        for key in ("grid_min", "grid_max", "mean_t", "mean_photons", "transmission"):
            cfg[key] = float(cfg[key])
        if cfg["seed"] is not None:
            cfg["seed"] = int(cfg["seed"])
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    cfg["command"] = args.command
    if args.command == "curves":
        cfg["figure"] = args.figure
    cfg["show_config"] = bool(getattr(args, "show_config", False))
    return cfg


def _check_config(cfg: dict) -> None:
    if cfg["grid_points"] < 2:
        raise ConfigError("grid needs at least 2 points")
    if not cfg["grid_min"] < cfg["grid_max"]:
        raise ConfigError("grid-min must be smaller than grid-max")
    if cfg["grid_scale"] == "log" and cfg["grid_min"] <= 0:
        raise ConfigError("log grids need grid-min > 0")
    if any(f < 0 for f in cfg["fano"]):
        raise ConfigError("fano values must be >= 0")
    if cfg["command"] == "curves" and cfg.get("figure") == "fig2" and cfg["grid_min"] <= 0:
        raise ConfigError("fig2 evaluates the mesoscopic kernel: grid-min must be > 0")
    if cfg["command"] in ("validate", "sample-stats") and cfg["seed"] is None:
        raise ConfigError(f"{cfg['command']} needs --seed for reproducibility")
    if cfg["command"] == "validate" and cfg["format"] not in (None, "json"):
        raise ConfigError("validate reports are JSON only")
    if cfg["command"] == "sample-stats" and cfg["state"] not in ("fock", "coherent", "thermal"):
        raise ConfigError(f"sample-stats cannot draw counts for state {cfg['state']!r}")


def _build_grid(cfg: dict, include_zero: bool) -> np.ndarray:
    if cfg["grid_scale"] == "log":
        grid = np.geomspace(cfg["grid_min"], cfg["grid_max"], cfg["grid_points"])
    else:
        grid = np.linspace(cfg["grid_min"], cfg["grid_max"], cfg["grid_points"])
    if include_zero and grid[0] > 0.0:
        grid = np.concatenate(([0.0], grid))
    if np.any(np.diff(grid) <= 0):
        raise ConfigError("grid offsets must be strictly increasing")
    return grid


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _json_float(v):
    v = float(v)
    return None if np.isnan(v) else v


def _column_tag(value: float) -> str:
    return f"{value:g}"


def cmd_curves(cfg: dict) -> int:
    if cfg["figure"] == "fig1":
        grid = _build_grid(cfg, include_zero=True)
        header = ["x", "c_sn", "c_cn"]
        columns = [
            grid,
            np.array([shot_noise_correlation(x) for x in grid]),
            np.array([classical_noise_correlation(x) for x in grid]),
        ]
    else:
        grid = _build_grid(cfg, include_zero=False)
        header = ["x"]
        columns = [grid]
        for fano in cfg["fano"]:
            for ratio in cfg["l_over_ell"]:
                geom = DiffusionGeometry.from_thickness_ratio(ratio)
                # Evaluated at unit mean transmission: the correction term is
                # linear in mean_t, so this is exactly the normalized curve.
                values = np.array(
                    [noise_correlation_expansion(x, fano, 1.0, geom)[1] for x in grid]
                )
                header.append(f"c2_f{_column_tag(fano)}_r{_column_tag(ratio)}")
                columns.append(values)

    if (cfg["format"] or "csv") == "csv":
        _write_text(cfg["out"], _csv_text(header, columns))
    else:
        payload = {
            "figure": cfg["figure"],
            "columns": {name: [float(v) for v in col] for name, col in zip(header, columns)},
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


def _curve_check(name: str, estimate, theory_fn, threshold: float) -> dict:
    c = estimate.curve
    theory = np.array([theory_fn(x) for x in c.offsets.tolist()], dtype=float)
    z = (c.values - theory) / c.stderr
    points = _points(x=c.offsets, empirical=c.values, stderr=c.stderr, theory=theory, z=z)
    return _check(name, threshold, np.abs(z).max(), clamped=estimate.n_clamped, points=points)


def cmd_validate(cfg: dict) -> int:
    seed = cfg["seed"]
    mean_t = cfg["mean_t"]
    checks: list[dict] = []

    moment_ens = build_ensemble(np.array(MOMENT_GRID), mean_t, cfg["realizations"], seed)
    moments = estimate_moments(moment_ens)
    records = [r.to_dict() for r in moments.records]
    checks.append(_check("moment_suite", Z_MOMENTS, moments.max_abs_z(), records=records))
    control = [r.to_dict() for r in moments.by_name("TT")]
    worst = max(abs(r["z"]) for r in control)
    checks.append(_check("gaussian_negative_control", Z_NEGATIVE_CONTROL, worst, records=control))

    rayleigh = rayleigh_check(moment_ens)
    checks.append({"name": "rayleigh_ks", **rayleigh.to_dict()})

    curve_grid = _build_grid(cfg, include_zero=True)
    curve_ens = build_ensemble(curve_grid, mean_t, cfg["realizations"], seed)

    shot = estimate_noise_correlation(curve_ens, QuantumState.coherent(cfg["mean_photons"]))
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
    counting_ens = build_ensemble(np.array(COUNTING_GRID), mean_t, counting_r, seed)
    coherent = QuantumState.coherent(cfg["mean_photons"])
    counted = estimate_noise_correlation(
        counting_ens, coherent, mode="counting", shots=cfg["shots"], seed=seed
    )
    analytic = estimate_noise_correlation(counting_ens, coherent)
    c, a = counted.curve, analytic.curve
    combined = np.hypot(c.stderr, a.stderr)
    n_sigma = np.abs(c.values - a.values) / combined
    points = _points(x=c.offsets, counting=c.values, analytic=a.values,
                     stderr_combined=combined, n_sigma=n_sigma)
    checks.append(
        _check("counting_mode_consistency", Z_CURVES, n_sigma.max(), "max_n_sigma",
               shots=counted.shots_per_realization, realizations=counting_r, points=points)
    )

    config = {key: cfg[key] for key in REPORT_CONFIG_KEYS}
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
        lines = ["shot,count"]
        lines.extend(f"{i},{int(c)}" for i, c in enumerate(counts))
        lines.append(f"mean,{summary.mean!r}")
        lines.append(f"variance,{summary.variance!r}")
        lines.append(f"fano,{summary.fano!r}")
        _write_text(cfg["out"], "\n".join(lines) + "\n")
    else:
        payload = {
            "state": cfg["state"],
            "mean_photons": cfg["mean_photons"],
            "transmission": cfg["transmission"],
            "counts": [int(c) for c in counts],
            "summary": {
                "shots": summary.shots,
                "mean": _json_float(summary.mean),
                "variance": _json_float(summary.variance),
                "fano": _json_float(summary.fano),
                "stderr_mean": _json_float(summary.stderr_mean),
                "stderr_variance": _json_float(summary.stderr_variance),
                "stderr_fano": _json_float(summary.stderr_fano),
            },
        }
        _write_json(cfg["out"], payload)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if cfg["show_config"]:
            shown = {k: v for k, v in cfg.items() if k != "show_config"}
            _write_json(None, shown)
            return EXIT_OK
        _check_config(cfg)
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
