"""Alternating pairs of the benchmark: a parent commit against this checkout.

    python3 tools/bench_pairs.py --workload verify
    python3 tools/bench_pairs.py --workload all --pairs 3 --ref HEAD~1 --seed 20151031

The parent is `git archive <ref>` unpacked in a temporary directory; the
change is this checkout as it stands on disk, uncommitted edits included.
Each pair runs `perfbench/run.py --trace 0` once on each side, with the same
workload and seed, for the `run_seconds` that BENCHMARK.json declares.  The
pairs alternate which side runs first, starting with the parent, so that a
drift in the machine's speed does not favour one side.

For every end-to-end metric it prints each side's median and interquartile
range (Q3 - Q1, `statistics.quantiles`' default method) over its runs, the
change's median relative to the parent's, and the number of pairs the
change won; a tie counts for neither side.  Whether lower or higher is
better comes from BENCHMARK.json too.  Every run's correctness and failed
operations are printed as it ends; the exit code is 1 when any run is not
correct.  Nothing is written in the checkout: byte-code caching is off and
each run's working directory is the temporary one.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unpack(ref: str, into: Path) -> Path:
    """The tree of `ref`, unpacked under `into`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True, check=True).stdout
    tree = into / "parent"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run_once(tree: Path, args, seconds, cwd: str) -> dict:
    """The result object of one `run.py --trace 0` in `tree`."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def report(runs: dict, pairs: int, lower: dict):
    """Print the table; `lower` maps a metric name to True where lower is better."""
    names = list(runs["parent"][0]["metrics"])
    print(f"\n{'metric':<24} {'parent median':>14} {'IQR':>10} {'change median':>14} "
          f"{'IQR':>10} {'change':>8}  won")
    for name in names:
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        better_low = lower.get(name.rsplit("/", 1)[-1], True)
        won = sum((c < p) if better_low else (c > p) for p, c in zip(parent, change))
        med_p, med_c = statistics.median(parent), statistics.median(change)
        rel = f"{100 * (med_c / med_p - 1):+.1f}%" if med_p else "-"
        print(f"{name:<24} {med_p:>14.6g} {iqr(parent):>10.3g} {med_c:>14.6g} "
              f"{iqr(change):>10.3g} {rel:>8}  {won}/{pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of perfbench/run.py, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--ref", default="HEAD", help="the parent commit (default: HEAD)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    lower = {m["name"]: m["better"] == "lower" for m in declared["end_to_end"]}
    runs = {"parent": [], "change": []}
    correct = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"parent": unpack(args.ref, Path(scratch)), "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args, seconds, scratch)
                runs[side].append(result)
                correct = correct and result["correct"]
                print(f"pair {i + 1} {side:<6} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    report(runs, args.pairs, lower)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
