"""Repeat the benchmark over consecutive seeds and summarise the spread.

    python3 perfbench/collect.py --runs 10                       # every workload, print only
    python3 perfbench/collect.py --runs 10 --traced --out perfbench/BENCH_seed.json
    python3 perfbench/collect.py --runs 5 --workload grid-mp     # one workload

Each run is a fresh `run.py` process, one after another.  For every
end-to-end metric it reports the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json; a
spread should stay below a third of its bound.  `--traced` adds one traced
run per workload at the default seed.  `--out` writes the summary, with the
environment of the first run, as a trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = wl.ROOT / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: float, trace: int):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=wl.ROOT,
    )
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    bench = wl.load_json(BENCHMARK)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=wl.default_seeds()["default"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"settings": {"runs": args.runs, "seconds": args.seconds,
                            "seeds": [args.first_seed, args.first_seed + args.runs - 1]},
               "workloads": {}}
    steady = True
    for workload in args.workload or wl.WORKLOADS:
        results = []
        for i in range(args.runs):
            result, env = run_once(workload, args.first_seed + i, args.seconds, 0)
            summary.setdefault("env", env)
            results.append(result)
            print(f"{workload} seed {args.first_seed + i}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            ok = stats["spread"] < bound / 3
            steady = steady and ok
            print(f"  {name:12s} median {stats['median']:.5g} {stats['unit']:5s} "
                  f"spread {stats['spread']:.4f} (bound/3 {bound / 3:.4f}){'' if ok else '  UNSTEADY'}")
        if args.traced:
            result, _ = run_once(workload, args.first_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["traced_correct"] = result["correct"]
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
