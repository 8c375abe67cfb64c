"""One iteration of one benchmark workload, run in a fresh interpreter.

Usage (run.py starts this; it is not meant to be called by hand):

    python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1 \
        --src SRC_DIR --work WORK_DIR

Imports specklemem (SRC_DIR must be on PYTHONPATH; the import is checked to
come from there), runs the workload body once through public entry points,
times it, checks its outputs, and prints one JSON object as the last line of
stdout.  With --trace 1 the body runs under the tracer and
the result carries the per-layer numbers; the spans go to WORK_DIR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from tracer import CLOSED_FORMS, Tracer, install

# Workload shapes.  DEFAULT_GRID is the CLI's default curve grid: 25 log
# points on [1e-2, 1e2] plus the reference offset 0.
MEAN_T = 0.01
DEFAULT_GRID = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 25)))
FINE_K, FINE_R = 2000, 5000
FIG1_POINTS, FIG2_POINTS = 1_000_000, 100_000
COUNT_R, COUNT_SHOTS = 2000, 1000
CSV_R = 20_000
ORACLE_ROWS = 48  # evenly spaced rows of each curves file checked against mpmath
ORACLE_REL = 1e-12
VALIDATE_CHECKS = 8
C16 = 16  # bytes per complex128

# Shapes and array sizes for the run metadata.  Bytes are computed from the
# shapes, not measured traffic; run.py prints them beside the L3 size.
SHAPES = {
    "validate-default": {  # every CLI default
        "realizations": 100_000, "curve_grid_k": DEFAULT_GRID.size, "moment_grid_k": 7,
        "counting": {"realizations": 2000, "k": 4, "shots": 1000},
        "largest_array_bytes": 100_000 * DEFAULT_GRID.size * C16,
    },
    "fine-grid-curves": {
        "fine_grid": {"realizations": FINE_R, "k": FINE_K, "grid": "linear on [0, 100]",
                      "mean_t": MEAN_T, "covariance_bytes": FINE_K * FINE_K * C16},
        "fig1_points": FIG1_POINTS, "fig2_points": FIG2_POINTS,
        "largest_array_bytes": FINE_R * FINE_K * C16,
    },
    "counting-io": {
        "realizations": COUNT_R, "k": DEFAULT_GRID.size, "shots": COUNT_SHOTS,
        "states": ["fock(10)", "coherent(10)", "thermal(1)"], "csv_realizations": CSV_R,
        "largest_array_bytes": CSV_R * DEFAULT_GRID.size * C16,
    },
}
Z_MOMENTS, Z_CURVES = 5.0, 3.0


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _stop(out: dict, t0: float) -> float:
    """Add a timed phase to the body's wall time; note the peak RSS so far."""
    elapsed = time.perf_counter() - t0
    out["wall_s"] = out.get("wall_s", 0.0) + elapsed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return elapsed


def _finite_curve(est) -> bool:
    c = est.curve
    return bool(np.all(np.isfinite(c.values)) and np.all(np.isfinite(c.stderr)))


def validate_default(sm, seed, work: Path, ops: Ops, out: dict) -> None:
    report_path = work / "report.json"
    t0 = time.perf_counter()
    code = sm.cli.main(["validate", "--seed", str(seed), "--out", str(report_path)])
    _stop(out, t0)

    raw = report_path.read_bytes()
    out["output_bytes"] = len(raw)
    out["report_sha256"] = hashlib.sha256(raw).hexdigest()
    checks = json.loads(raw)["checks"]
    ops.check(
        "cli validate", code == 0 and len(checks) == VALIDATE_CHECKS,
        f"exit {code}, {len(checks)} checks",
    )
    for c in checks:
        ops.check(f"report check {c['name']}", bool(c["passed"]))


def fine_grid(sm, seed, work: Path, ops: Ops, out: dict) -> None:
    ens = sm.ensemble
    grid = np.linspace(0.0, 100.0, FINE_K)
    t0 = time.perf_counter()
    cov = ens.build_field_covariance(grid, MEAN_T)
    speckle = ens.generate_ensemble(cov, grid, MEAN_T, FINE_R, seed)
    moments = ens.estimate_moments(speckle)
    rayleigh = ens.rayleigh_check(speckle)
    out["fine_s"] = _stop(out, t0)

    ops.check(
        "build_field_covariance",
        cov.shape == (FINE_K, FINE_K) and bool(np.all(np.diag(cov) == MEAN_T)),
    )
    ops.check(
        "generate_ensemble",
        speckle.amplitudes.shape == (FINE_R, FINE_K)
        and bool(np.all(np.isfinite(speckle.amplitudes))),
    )
    worst = moments.max_abs_z()
    ops.check("estimate_moments max |z| <= 5", worst <= Z_MOMENTS, f"max |z| {worst:.3f}")
    ops.check("rayleigh_check", rayleigh.passed, f"p {rayleigh.pvalue:.4g}")


def _curves_file(path: Path, columns: int, rows: int, ops: Ops, name: str) -> np.ndarray:
    """Check a curves CSV for shape and finiteness; return the oracle sample rows."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ok = len(header) == columns + 1 and values.shape == (rows, columns + 1)
    ops.check(f"{name} shape and finiteness", ok and bool(np.all(np.isfinite(values))))
    picks = np.unique(np.linspace(0, len(values) - 1, ORACLE_ROWS).round().astype(int))
    return values[picks]


def curves_dense(sm, seed, work: Path, ops: Ops, out: dict) -> None:
    fig1, fig2 = work / "fig1.csv", work / "fig2.csv"
    args1 = ["curves", "fig1", "--grid-min", "0", "--grid-max", "100",
             "--grid-points", str(FIG1_POINTS), "--grid-scale", "lin", "--out", str(fig1)]
    args2 = ["curves", "fig2", "--grid-min", "1e-3", "--grid-max", "1e3",
             "--grid-points", str(FIG2_POINTS), "--grid-scale", "log", "--out", str(fig2)]
    t0 = time.perf_counter()
    code1 = sm.cli.main(args1)
    code2 = sm.cli.main(args2)
    out["curves_s"] = _stop(out, t0)

    fig2_columns = len(sm.cli.DEFAULTS["fano"]) * len(sm.cli.DEFAULTS["l_over_ell"])
    out["curve_values"] = FIG1_POINTS * 2 + FIG2_POINTS * fig2_columns
    out["output_bytes"] = fig1.stat().st_size + fig2.stat().st_size
    ops.check("cli curves fig1 exit code", code1 == 0, f"exit {code1}")
    ops.check("cli curves fig2 exit code", code2 == 0, f"exit {code2}")
    rows1 = _curves_file(fig1, 2, FIG1_POINTS, ops, "fig1")
    rows2 = _curves_file(fig2, fig2_columns, FIG2_POINTS, ops, "fig2")
    worst = oracle.max_rel_err(rows1, rows2, sm.cli.DEFAULTS["fano"], sm.cli.DEFAULTS["l_over_ell"])
    out["oracle_max_rel_err"] = worst
    ops.check("curves within 1e-12 of the mpmath oracle", worst <= ORACLE_REL, f"{worst:.3g}")


def fine_grid_curves(sm, seed, work: Path, ops: Ops, out: dict) -> None:
    """The fine-grid Monte Carlo phase, then the dense curves phase; checks run between."""
    fine_grid(sm, seed, work, ops, out)
    curves_dense(sm, seed, work, ops, out)


def counting_io(sm, seed, work: Path, ops: Ops, out: dict) -> None:
    ens = sm.ensemble
    QS = sm.photons.QuantumState
    states = {"fock": QS.fock(10), "coherent": QS.coherent(10.0), "thermal": QS.thermal(1.0)}
    path = work / "ensemble.csv"

    t0 = time.perf_counter()
    speckle = ens.build_ensemble(DEFAULT_GRID, MEAN_T, COUNT_R, seed)
    counted = {}
    t_count = time.perf_counter()
    for name, state in states.items():
        counted[name] = ens.estimate_noise_correlation(
            speckle, state, mode="counting", shots=COUNT_SHOTS, seed=seed
        )
    t_count = time.perf_counter() - t_count
    analytic = ens.estimate_noise_correlation(speckle, states["coherent"])
    big = ens.build_ensemble(DEFAULT_GRID, MEAN_T, CSV_R, seed)
    t_csv = time.perf_counter()
    ens.save_ensemble_csv(big, path)
    loaded = ens.load_ensemble_csv(path)
    t_csv = time.perf_counter() - t_csv
    _stop(out, t0)

    k = DEFAULT_GRID.size
    out["counting_s"] = t_count
    out["counted_shots"] = len(states) * COUNT_R * k * COUNT_SHOTS
    out["csv_s"] = t_csv
    out["csv_rows"] = 2 * CSV_R * k
    out["csv_bytes"] = path.stat().st_size

    ops.check("build_ensemble", speckle.amplitudes.shape == (COUNT_R, k))
    for name, est in counted.items():
        ops.check(f"counting {name} curve finite", _finite_curve(est))
    ops.check("analytic coherent curve finite", _finite_curve(analytic))
    c, a = counted["coherent"].curve, analytic.curve
    n_sigma = np.abs(c.values - a.values) / np.hypot(c.stderr, a.stderr)
    ops.check(
        "coherent counting vs analytic within 3 sigma",
        bool(np.max(n_sigma) <= Z_CURVES),
        f"max {np.max(n_sigma):.3f} sigma",
    )
    ops.check("build_ensemble csv", big.amplitudes.shape == (CSV_R, k))
    ops.check("save_ensemble_csv", out["csv_bytes"] > 0)
    exact = (
        loaded.amplitudes.shape == big.amplitudes.shape
        and loaded.amplitudes.tobytes() == big.amplitudes.tobytes()
        and loaded.grid.tobytes() == big.grid.tobytes()
        and loaded.mean_t == big.mean_t
        and loaded.seed == big.seed
    )
    ops.check("load_ensemble_csv bit-exact round trip", exact)


WORKLOADS = {
    "validate-default": validate_default,
    "fine-grid-curves": fine_grid_curves,
    "counting-io": counting_io,
}


def layer_metrics(tracer, out: dict) -> dict:
    """Per-layer numbers of one traced iteration, keyed by metric name."""
    self_s = tracer.self_times()
    calls = tracer.calls
    leaf = tracer.leaf_s
    sampler = "photons.sample_transmitted_counts"
    closed = [f"correlations.{n}" for n in CLOSED_FORMS]
    variance = ("photons.transmitted_variance_quantum", "photons.transmitted_variance_classical")
    m = {
        "correlations.calls": sum(calls[n] for n in closed),
        "correlations.self_s": sum(leaf.get(n, 0.0) for n in closed),
        f"{sampler}.calls": calls[sampler],
        f"{sampler}.self_s": leaf.get(sampler, 0.0),
        "photons.transmitted_variance.calls": sum(calls[n] for n in variance),
        "photons.transmitted_variance.self_s": sum(self_s.get(n, 0.0) for n in variance),
        "ensemble.substream.calls": calls["ensemble.substream"],
        "ensemble.substream.self_s": leaf.get("ensemble.substream", 0.0),
        "ensemble.field_kernel.calls": calls["ensemble.field_kernel"],
        "ensemble.generate_ensemble.amplitude_mb":
            tracer.observed.get("ensemble.generate_ensemble.amplitude_bytes", 0.0) / 1e6,
        "ensemble.estimate_noise_correlation.calls": calls["ensemble.estimate_noise_correlation"],
        "ensemble.n_clamped": tracer.observed.get("ensemble.n_clamped", 0),
        "ensemble.csv_mb": out.get("csv_bytes", 0) / 1e6,
        "cli.output_mb": out.get("output_bytes", 0) / 1e6,
    }
    for name in ("ensemble.build_field_covariance", "ensemble.generate_ensemble",
                 "ensemble.estimate_noise_correlation", "ensemble.estimate_moments",
                 "ensemble.rayleigh_check", "ensemble.save_ensemble_csv",
                 "ensemble.load_ensemble_csv", "cli.cmd_validate", "cli.cmd_curves"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="directory holding the specklemem package")
    parser.add_argument("--work", required=True, help="scratch directory for output files")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    import specklemem
    import specklemem.cli
    import specklemem.ensemble
    import specklemem.photons

    if Path(specklemem.__file__).resolve().parent != src / "specklemem":
        print(f"perfbench: specklemem imported from {specklemem.__file__}, not {src}",
              file=sys.stderr)
        return 2

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    out: dict = {}
    body = WORKLOADS[args.workload]
    if args.trace:
        tracer = Tracer()
        install(tracer, specklemem.cli, specklemem.ensemble)
        try:
            body(specklemem, args.seed, work, ops, out)
        finally:
            tracer.restore()
        out["layers"] = layer_metrics(tracer, out)
        spans = work / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.spans_json()) + "\n", encoding="utf-8")
    else:
        body(specklemem, args.seed, work, ops, out)
    out["attempted"] = ops.attempted
    out["failures"] = ops.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
