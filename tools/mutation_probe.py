"""Mutation probe of the certificate path, the run's screen and stall span,
the a priori run, the table's refusals before its first cell, the
proof-chain audit, the cyclic validators and their declaration slacks, the
norm constants, the two-coordinate norm kernel and its skip of a negligible
term, the map's signed term, the convexity check, the pattern search and
the suites' residual and separation checks: apply hand-written mutants,
one at a time, to a copy of the package and report which the tests kill.

Each mutant replaces one text, which must occur exactly once in its file,
by another.  The copy lives in a temporary directory; the checkout is never
written.  Run from anywhere, with the standard library and the test
dependencies only:

    python3 tools/mutation_probe.py

Every mutant runs against all of `tests`.  A mutant is killed when the tests
fail on it, or when they run past TIMEOUT_S (a mutant that makes a search
walk can hang the suite instead of failing it).  The tests run first on the
unmutated copy, which must pass.  Exits 1 unless every mutant is killed.
Each run of the full suite takes about as long as Tier-1.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "src/bestprox/solver.py"
ORACLE = "src/bestprox/oracle.py"
CYCLIC = "src/bestprox/cyclic.py"
NORMS = "src/bestprox/norms.py"
TIMEOUT_S = 600.0  # a run this long counts as killed by a hang


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str


MUTANTS = [
    Mutant("STOP_MARGIN 2^-20 -> 2^-8", SOLVER,
           "STOP_MARGIN = 2.0 ** -20", "STOP_MARGIN = 2.0 ** -8"),
    Mutant("screen hi = h (1 - width)", SOLVER,
           "else h * (1 + consts.q * STOP_MARGIN)", "else h * (1 - consts.q * STOP_MARGIN)"),
    Mutant("STALL_HALF_LIVES 10 -> 3", SOLVER,
           "STALL_HALF_LIVES = 10", "STALL_HALF_LIVES = 3"),
    Mutant("span taken with floor, not ceil", SOLVER,
           "span = math.ceil(", "span = math.floor("),
    Mutant("a priori loop one step short", SOLVER,
           "for _ in range(target):", "for _ in range(target - 1):"),
    Mutant("cap refusal's fewest step + 2", ORACLE,
           "/ mp.log(lam)) / 2))\n", "/ mp.log(lam)) / 2)) + 2\n"),
    Mutant("table pre-pass skipped", ORACLE,
           "            _plan_cell(lam, p, x0, eps)\n", "            pass\n"),
    Mutant("digit cushion 20 -> 8", ORACLE,
           "int(mp.ceil(mp.log10(d / h))) + 20)", "int(mp.ceil(mp.log10(d / h))) + 8)"),
    Mutant("certificate x 0.999", SOLVER,
           "return X / denom * (gap / Cd) ** root * tail",
           "return X / denom * (gap / Cd) ** root * tail * 0.999"),
    Mutant("certificate labels X as D at m = 1", SOLVER,
           'name = "P" if m == 1 else "D"', 'name = "D" if m == 1 else "P"'),
    Mutant("certificate admits 1 - k^(2/q) = 0", SOLVER,
           "if not (denom > 0 and", "if not (denom >= 0 and"),
    Mutant("certificate admits an infinite d / (1 - k^(2/q))", SOLVER,
           "d / denom < math.inf", "d / denom <= math.inf"),
    Mutant("C d x 1.001", SOLVER,
           "return denom, consts.C * d, k ** (m / q)",
           "return denom, consts.C * d * 1.001, k ** (m / q)"),
    Mutant("GAP_CLAMP 1e-12 -> 1e-6", SOLVER,
           "GAP_CLAMP = 1e-12", "GAP_CLAMP = 1e-6"),
    Mutant("stop_excess guard tol = margin * 8", SOLVER,
           "tol = q * STOP_MARGIN / 8", "tol = q * STOP_MARGIN * 8"),
    Mutant("stop_excess guard drops h / Cd", SOLVER,
           "for x in (h, h / Cd)", "for x in (h,)"),
    Mutant("stop_excess guard drops _FLOAT_MIN < Cd", SOLVER,
           "if not (_FLOAT_MIN < Cd and Cd * (1 + 2.0 ** -40) > Cd):",
           "if not (Cd * (1 + 2.0 ** -40) > Cd):"),
    Mutant("reference check 1e-12 -> 1e-6", ORACLE,
           "if abs(gap) > 1e-12 or not periodic:", "if abs(gap) > 1e-6 or not periodic:"),
    Mutant("audit_soundness slack 1e-9 -> 1e-3", ORACLE,
           "true_error > budget.apriori + 1e-9 or true_error > budget.aposteriori + 1e-9",
           "true_error > budget.apriori + 1e-3 or true_error > budget.aposteriori + 1e-3"),
    Mutant("a priori search starts at lo, n = 1, 2", SOLVER,
           "lo, n = 0, 1", "lo, n = 1, 2"),
    Mutant("a priori search scans linearly", SOLVER,
           "lo, n = n, 2 * n", "lo, n = n, n + 1"),
    Mutant("a priori search returns 2 n + 2", SOLVER,
           "else (mid, n)\n    return 2 * n\n", "else (mid, n)\n    return 2 * n + 2\n"),
    Mutant("contraction slack 1e-9 -> 1e-3", CYCLIC,
           "if violation > K_SLACK * (1 + dxy):", "if violation > 1e-3 * (1 + dxy):"),
    Mutant("decay check drops disp < d - D_SLACK", CYCLIC,
           "        if disp < spec.d - D_SLACK:\n            passed = False\n", ""),
    Mutant("envelope slack 1e-9 -> 1e-3", CYCLIC,
           "if excess > K_SLACK * (1 + abs(envelope)):", "if excess > 1e-3 * (1 + abs(envelope)):"),
    Mutant("K_SLACK 1e-9 -> 1e-3", CYCLIC, "K_SLACK = 1e-9", "K_SLACK = 1e-3"),
    Mutant("D_SLACK 1e-9 -> 1e-6", CYCLIC, "D_SLACK = 1e-9", "D_SLACK = 1e-6"),
    Mutant("XI_PERIOD_SLACK 1e-15 -> 1e-12", CYCLIC,
           "XI_PERIOD_SLACK = 1e-15", "XI_PERIOD_SLACK = 1e-12"),
    Mutant("proof chain distance slack 1e-9 -> 1e-3", ORACLE,
           "if even_move > rhs_dist + 1e-9 * (1 + rhs_dist):",
           "if even_move > rhs_dist + 1e-3 * (1 + rhs_dist):"),
    Mutant("proof chain drops the distance form", ORACLE,
           "            if even_move > rhs_dist + 1e-9 * (1 + rhs_dist):\n"
           "                report.passed = False\n"
           "                report.failures.append((step, lookback, \"distance\", even_move, rhs_dist))\n",
           ""),
    Mutant("proof chain modulus slack 1e-9 -> 1e-3", ORACLE,
           "if lhs_mod > rhs_mod + 1e-9:", "if lhs_mod > rhs_mod + 1e-3:"),
    Mutant("proof chain drops the modulus form", ORACLE,
           "            if lhs_mod > rhs_mod + 1e-9:\n"
           "                report.passed = False\n"
           "                report.failures.append((step, lookback, \"modulus\", lhs_mod, rhs_mod))\n",
           ""),
    Mutant("C = 1.001/(p 2^p)", NORMS, "C = 1 / (p * 2 ** p)", "C = 1.001 / (p * 2 ** p)"),
    Mutant("C = (p - 1)/7.99", NORMS, "C=(p - 1) / 8", "C=(p - 1) / 7.99"),
    Mutant("NEWTON_STEP_TOL 1e-15 -> 1e-6", NORMS,
           "NEWTON_STEP_TOL = 1e-15", "NEWTON_STEP_TOL = 1e-6"),
    Mutant("NEWTON_CAP 100 -> 3", NORMS, "NEWTON_CAP = 100", "NEWTON_CAP = 3"),
    Mutant("dist pairs u[0] - v[1]", NORMS,
           "(u[0] - v[0], u[1] - v[1])", "(u[0] - v[1], u[1] - v[0])"),
    Mutant("kernel drops the 1 of the larger term", NORMS,
           "else space.one + (small / scale) ** space.p", "else (small / scale) ** space.p"),
    Mutant("kernel's skip returns scale unrounded", NORMS,
           "return scale * space.one\n", "return scale\n"),
    Mutant("kernel's tie 2.0 -> 1.0", NORMS,
           "total = 2.0 if small == scale", "total = 1.0 if small == scale"),
    Mutant("kernel's zero branch returns 0.0", NORMS,
           "total = 0 + a + b  # a NaN behind a zero is not a zero norm\n"
           "        return 0.0 if total == 0 else total\n",
           "return 0.0\n"),
    Mutant("skip margin bits + 3 -> bits - 1", NORMS,
           "(-(bits + 3) / p)", "(-(bits - 1) / p)"),
    Mutant("root formed as 1.0 / float(p)", NORMS,
           '"root", 1 / p)', '"root", 1.0 / float(p))'),
    Mutant("convexity check slack 1e-12 -> 1e-6", NORMS,
           "slack = 1e-12 * R", "slack = 1e-6 * R"),
    Mutant("convexity check slack scaled by max(R, 1)", NORMS,
           "slack = 1e-12 * R", "slack = 1e-12 * max(R, 1.0)"),
    Mutant("convexity check tolerance 1e-9 -> 1e-3", NORMS,
           "return lhs <= rhs + 1e-9 * R", "return lhs <= rhs + 1e-3 * R"),
    Mutant("convexity check tolerance scaled by max(R, 1)", NORMS,
           "return lhs <= rhs + 1e-9 * R", "return lhs <= rhs + 1e-9 * max(R, 1.0)"),
    Mutant("convexity check ratio floor 0 -> 0.5", NORMS,
           "0.0 if ratio <= 0 else", "0.0 if ratio <= 0.5 else"),
    Mutant("convexity check ratio without its clamp at 2", NORMS,
           "2.0 if ratio > 2.0 else ratio", "ratio"),
    Mutant("midpoint reads z[1] in its first coordinate", NORMS,
           "(y[0] - z[0]) / 2.0,", "(y[0] - z[1]) / 2.0,"),
    Mutant("midpoint subtracts z after the halved sum", NORMS,
           "(x[0] - z[0]) / 2.0 + (y[0] - z[0]) / 2.0,", "x[0] / 2.0 + y[0] / 2.0 - z[0],"),
    Mutant("implicit residual tolerance 1e-10 -> 1e-6", ORACLE,
           "abs(_implicit_equation(delta, p, eps)[0]) > 1e-10",
           "abs(_implicit_equation(delta, p, eps)[0]) > 1e-6"),
    Mutant("separation check reads 20 of its 200 pairs", ORACLE,
           "zip(us, vs)", "zip(us[:20], vs[:20])"),
    Mutant("pattern search quarters its step", ORACLE,
           "        step /= 2\n", "        step /= 4\n"),
    Mutant("contraction floor x 1.001", CYCLIC,
           "floor = (1 - k) * spec.d", "floor = (1 - k) * spec.d * 1.001"),
    Mutant("map's neg term built as rest * 1", CYCLIC,
           "rest * -1,", "rest * 1,"),
]


def mutated(mutant: Mutant, tree: Path) -> str:
    """The mutant's file in `tree` with its old text replaced; stops the
    probe, naming the mutant, unless the old text occurs exactly once."""
    text = (tree / mutant.path).read_text()
    count = text.count(mutant.old)
    if count != 1:
        sys.exit(f"mutant {mutant.name!r}: its old text occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def run_tests(tree: Path):
    """(passed, first failing test or outcome, seconds) of the tests in `tree`."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S:.0f} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return True, "", seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return False, failed.group(1) if failed else f"exit {done.returncode}", seconds


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as scratch:
        pristine = Path(scratch) / "pristine"
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, pristine / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):  # the tests read the README
            shutil.copy2(ROOT / name, pristine)
        for mutant in MUTANTS:  # every old text is checked before any run
            mutated(mutant, pristine)

        passed, why, seconds = run_tests(pristine)
        if not passed:
            sys.exit(f"the unmutated copy fails its tests ({why}); no mutant was run")
        print(f"unmutated copy passes ({seconds:.1f} s)", flush=True)

        rows = []
        for mutant in MUTANTS:
            tree = Path(scratch) / "mutant"
            shutil.copytree(pristine, tree, ignore=ignore)
            (tree / mutant.path).write_text(mutated(mutant, tree))
            passed, why, seconds = run_tests(tree)
            shutil.rmtree(tree)
            rows.append((mutant.name, "survived" if passed else "killed", why, seconds))
            print(f"  {mutant.name}: {rows[-1][1]} ({seconds:.1f} s)", flush=True)

    width = max(len(row[0]) for row in rows)
    print(f"\n| {'mutant':<{width}} | outcome  | first failing test | s |")
    print(f"|{'-' * (width + 2)}|----------|--------------------|---|")
    for name, outcome, why, seconds in rows:
        print(f"| {name:<{width}} | {outcome:<8} | {why or '-'} | {seconds:.1f} |")
    survivors = sum(outcome == "survived" for _, outcome, _, _ in rows)
    print(f"\n{len(rows) - survivors} of {len(rows)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
