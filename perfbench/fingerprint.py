"""Compute the correctness fingerprint of the workloads, or compare it.

    python3 perfbench/fingerprint.py           # recompute and diff against fingerprint.json
    python3 perfbench/fingerprint.py --write   # rewrite fingerprint.json

The fingerprint holds every result the workloads check: the stopping step
of every float64 target of the pool (null where the target gives up below
the resolution floor), both published grids, the working-precision cells
and the `verify` output, exit code and PASS/FAIL lines, of every seed in
`workloads.CLI_SEEDS`.  Rewrite it only with a change that is meant
to alter results, and say so; a speed-up must leave it untouched.  The full
recomputation takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads as wl


def compute(bp) -> dict:
    pool = wl.pool_starts()
    solve_steps = {}
    for lam in wl.LAMBDAS:
        for p in wl.PS:
            spec = bp.make_example1(bp.Example1Params(lam=lam, p=p))
            for eps in wl.SOLVE_EPS:
                rule = bp.StopRule(bp.StopKind.APOSTERIORI, eps, max_steps=wl.SOLVE_CAP)
                steps = []
                for x0 in pool:
                    try:
                        _, stopped_at, _ = bp.run_with_stop(spec, x0, rule, store_iterates=False)
                    except bp.BudgetExhaustedError as exc:
                        if wl.check_giveup(None, exc):
                            raise
                        stopped_at = None
                    steps.append(stopped_at)
                solve_steps[wl.solve_key(lam, p, eps)] = steps

    post = bp.reproduce_table(bp.StopKind.APOSTERIORI, lam=wl.GRID_LAMBDA, x0=wl.GRID_X0)
    prior = bp.reproduce_table(bp.StopKind.APRIORI, lam=wl.GRID_LAMBDA, x0=wl.GRID_X0)
    extra = {
        f"{lam:g}/{wl.p_label(p)}": bp.aposteriori_stop_working_precision(
            lam, p, wl.GRID_X0, wl.EXTRA_CELL_EPS
        )[0]
        for lam in wl.EXTRA_CELL_LAMBDAS
        for p in wl.PS
    }

    verify = {}
    for suite in wl.SUITES:
        outputs, by_seed = [], {}
        for cli_seed in wl.CLI_SEEDS:
            code, lines = wl.cli_op(bp, {}, suite, cli_seed).run()
            output = {"exit_code": code, "lines": lines}
            if output not in outputs:
                outputs.append(output)
            by_seed[str(cli_seed)] = outputs.index(output)
        verify[suite] = {"outputs": outputs, "by_seed": by_seed}

    spec = bp.make_example1(bp.Example1Params(lam=wl.GRID_LAMBDA, p=2.0))
    chain = bp.audit_proof_chain(spec, pool[0], wl.CHAIN_STEPS)
    return {
        "pool": {"seed": wl.POOL_SEED, "size": wl.POOL_SIZE, "starts": [list(x) for x in pool]},
        "solve_cap": wl.SOLVE_CAP,
        "solve_steps": solve_steps,
        "giveup_targets": sorted(k for k, v in solve_steps.items() if None in v),
        "grid": {"aposteriori": post.counts, "apriori": prior.counts},
        "extra_cells": extra,
        "verify": verify,
        "proof_chain_checks": chain.checks,
    }


def dumps(fp: dict) -> str:
    """JSON with one line per entry of each top-level mapping, so a diff names the target."""
    items = []
    for key, value in sorted(fp.items()):
        if isinstance(value, dict):
            inner = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(value.items()))
            value_text = "{\n" + inner + "\n }"
        else:
            value_text = json.dumps(value)
        items.append(f" {json.dumps(key)}: {value_text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def diff(computed: dict, committed: dict) -> list:
    return [
        key for key in sorted(set(computed) | set(committed))
        if computed.get(key) != committed.get(key)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite fingerprint.json")
    args = parser.parse_args(argv)
    computed = compute(wl.import_package())
    if args.write:
        with open(wl.FINGERPRINT_PATH, "w", encoding="ascii") as handle:
            handle.write(dumps(computed))
        print(f"wrote {wl.FINGERPRINT_PATH}")
        return 0
    changed = diff(computed, wl.load_json(wl.FINGERPRINT_PATH))
    print("fingerprint matches" if not changed else f"fingerprint differs in: {', '.join(changed)}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
