"""sha256 digests of every artefact whose bytes a change must keep or account for.

Usage (with ``src`` on PYTHONPATH, or specklemem installed):

    python tools/digest.py --seeds 1002,2001-2011,22,29 [--realizations R] --out d.json
    python tools/digest.py --compare a.json b.json

The first form runs, in this process and with default settings otherwise,
``validate`` at every seed, ``curves fig1`` and ``fig2`` on the default grid in
CSV and JSON, and ``sample-stats`` at every seed in CSV and JSON.  It writes one
JSON object: a sha256 per output file, per ``validate`` check and per report
``config`` block, and the exit code of every run.  ``--realizations`` applies to
``validate`` only.  The second form lists the keys whose values differ or that
exist on one side only, and exits 1 if there are any.  To compare two trees,
run the first form with each tree's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from specklemem import cli


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, indent=2, sort_keys=True).encode()


def parse_seeds(text: str) -> list[int]:
    """Comma-separated seeds and inclusive ranges, e.g. ``1002,2001-2011,22``."""
    seeds = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _run(argv: list[str], out: Path) -> tuple[int, bytes | None]:
    """Exit code of one CLI run writing to out, and the bytes it wrote (None if none)."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


def digest(seeds: list[int], realizations: int | None = None) -> dict:
    """Key -> sha256 of every artefact, plus key -> exit code of every run."""
    runs = {}  # key -> CLI arguments
    for figure in ("fig1", "fig2"):
        for fmt in ("csv", "json"):
            runs[f"curves/{figure}.{fmt}"] = ["curves", figure, "--format", fmt]
    for seed in seeds:
        validate = ["validate", "--seed", str(seed)]
        if realizations is not None:
            validate += ["--realizations", str(realizations)]
        runs[f"validate/{seed}"] = validate
        for fmt in ("csv", "json"):
            runs[f"sample-stats/{seed}.{fmt}"] = ["sample-stats", "--seed", str(seed),
                                                  "--format", fmt]
    result: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (key, argv) in enumerate(runs.items()):
            code, data = _run(argv, Path(tmp) / f"{i}.out")
            result[f"{key}/exit"] = code
            if data is None:
                continue
            result[key] = _sha256(data)
            if argv[0] == "validate":
                report = json.loads(data)
                result[f"{key}/config"] = _sha256(_canonical(report["config"]))
                for check in report["checks"]:
                    result[f"{key}/check/{check['name']}"] = _sha256(_canonical(check))
    return result


def compare(a: dict, b: dict) -> list[str]:
    """Keys whose values differ between a and b or that only one of them has."""
    return sorted(k for k in a.keys() | b.keys() if k not in a or k not in b or a[k] != b[k])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="digest", description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, help="e.g. 1002,2001-2011,22,29")
    parser.add_argument("--realizations", type=int, help="validate realizations")
    parser.add_argument("--out", help="digest JSON path (stdout when omitted)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        differing = compare(a, b)
        for key in differing:
            print(f"{key}: {a.get(key, '<absent>')} != {b.get(key, '<absent>')}")
        return 1 if differing else 0
    if args.seeds is None:
        parser.error("give --seeds, or --compare A B")
    text = _canonical(digest(args.seeds, args.realizations)).decode() + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
