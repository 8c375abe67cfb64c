"""specklemem benchmark: one workload, timed end to end or traced per layer.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: validate-default, fine-grid-curves, counting-io (see
workloads.py).  The run first measures set-up time, the median of several
fresh interpreters importing specklemem.  It then starts one fresh
interpreter per iteration of the workload, one after the other (one caller,
closed loop), until S seconds have passed; every iteration runs at least
once.  BLAS threads are capped at the number of usable cores.

--trace 0 reports the end-to-end metrics: medians over iterations of wall
time and peak RSS, set-up time, and the share of operations that passed
their output checks.  --trace 1 runs each iteration twice, untraced and then
traced, and reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the run's metadata.  Spans,
reports and per-iteration results go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import SHAPES

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0  # every run, set-up included, ends well inside 180 s

def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(src: Path, threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported specklemem.

    The child reads the same system-wide monotonic clock (perf_counter is
    CLOCK_MONOTONIC on Linux) right after the import and prints it.
    """
    code = "import specklemem, time; print(time.perf_counter())"
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(proc.stdout) - t0)
    return times


def run_iteration(args, trace: int, src: Path, work: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--src", str(src), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        for name in ("fig1.csv", "fig2.csv", "ensemble.csv"):  # tens of MB each
            (work / name).unlink(missing_ok=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "specklemem").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def report_identity(results: list[dict], state: Path) -> tuple[bool, str]:
    """Every validate report of this seed, now and in earlier runs, is identical."""
    digests = {r["report_sha256"] for r in results}
    if state.is_file():
        digests.add(state.read_text().strip())
    else:
        state.write_text(results[0]["report_sha256"] + "\n")
    return len(digests) == 1, f"{len(digests)} distinct reports"


def run_metadata(args, threads: int, root: Path) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "git_sha": sha,
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "l3_cache": l3.read_text().strip() if l3.is_file() else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": SHAPES[args.workload],
    }


def end_to_end(results: list[dict], setup: list[float], ok_ratio: float) -> dict:
    m = {
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "ops_ok_ratio": (ok_ratio, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(pairs: list[tuple[dict, dict]], specs: list[dict]) -> dict:
    """Medians over (untraced, traced) pairs of every per-layer metric."""
    rows = []
    for plain, traced in pairs:
        row = dict(traced["layers"])
        row["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        row["cli.curve_values_per_s"] = (
            plain["curve_values"] / plain["curves_s"] if "curve_values" in plain else 0.0)
        row["photons.counted_shots_per_s"] = (
            plain["counted_shots"] / plain["counting_s"] if "counted_shots" in plain else 0.0)
        row["ensemble.csv_rows_per_s"] = (
            plain["csv_rows"] / plain["csv_s"] if "csv_rows" in plain else 0.0)
        row["cli.oracle_max_rel_err"] = plain.get("oracle_max_rel_err", 0.0)
        rows.append(row)
    out = {}
    for spec in specs:
        value = statistics.median(row[spec["name"]] for row in rows)
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="specklemem benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "specklemem" / "__init__.py").is_file():
        return fail(f"no specklemem sources under {src}; run from the root of a checkout")
    config = BENCH.parent / "BENCHMARK.json"
    if not config.is_file():
        return fail(f"{config} not found")
    layer_specs = json.loads(config.read_text())["per_layer"]
    if not 0 <= args.seed < 2 ** 64:
        return fail("seed must be a 64-bit unsigned integer")
    threads = len(os.sched_getaffinity(0))
    env = child_env(src, threads)
    out_dir = root / ".perfbench_out"
    work = out_dir / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)

    try:
        setup = [] if args.trace else measure_setup(env, deadline)
        start = time.monotonic()
        runs: list = []
        while True:
            t0 = time.monotonic()
            plain = run_iteration(args, 0, src, work, env, deadline)
            traced = run_iteration(args, 1, src, work, env, deadline) if args.trace else None
            runs.append((plain, traced))
            took = time.monotonic() - t0
            now = time.monotonic()
            if now - start >= args.seconds or now + 1.5 * took > deadline:
                break
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")

    results = [r for pair in runs for r in pair if r is not None]
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    if args.workload == "validate-default":
        state = out_dir / f"validate-{source_digest(src)}-seed{args.seed}.sha256"
        same, detail = report_identity(results, state)
        attempted += 1
        if not same:
            failures.append(f"validate report not byte-identical across runs: {detail}")
    for f in failures:
        print(f"perfbench: failed: {f}", file=sys.stderr)

    plain_results = [plain for plain, _ in runs]
    ok_ratio = (attempted - len(failures)) / attempted
    if args.trace:
        metrics = per_layer(runs, layer_specs)
    else:
        metrics = end_to_end(plain_results, setup, ok_ratio)
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({"iterations": runs, "setup_s": setup}, indent=1) + "\n")
    print(json.dumps({"meta": run_metadata(args, threads, root)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
