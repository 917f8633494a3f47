"""Mutation probe of the certificate path: apply hand-written mutants, one
at a time, to a copy of the package and report which the tests kill.

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
           "hi = h * (1 + consts.q * STOP_MARGIN)", "hi = h * (1 - consts.q * STOP_MARGIN)"),
    Mutant("STALL_HALF_LIVES 10 -> 3", SOLVER,
           "STALL_HALF_LIVES = 10", "STALL_HALF_LIVES = 3"),
    Mutant("cap refusal's fewest step + 2", ORACLE,
           "/ mp.log(lam)) / 2))\n", "/ mp.log(lam)) / 2)) + 2\n"),
    Mutant("digit cushion 20 -> 8", ORACLE,
           "int(mp.ceil(mp.log10(d / h))) + 20)", "int(mp.ceil(mp.log10(d / h))) + 8)"),
    Mutant("certificate x 0.999", SOLVER,
           "return X / denom * (gap / Cd) ** root * tail",
           "return X / denom * (gap / Cd) ** root * tail * 0.999"),
    Mutant("C d x 1.001", SOLVER,
           "return 1 - k ** (2.0 / q), consts.C * d, k ** (m / q)",
           "return 1 - k ** (2.0 / q), consts.C * d * 1.001, k ** (m / q)"),
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
           "if abs(gap) > 1e-12 or period > 1e-12:", "if abs(gap) > 1e-6 or period > 1e-6:"),
    Mutant("audit_soundness slack 1e-9 -> 1e-3", ORACLE,
           "true_error > budget.apriori + 1e-9 or true_error > budget.aposteriori + 1e-9",
           "true_error > budget.apriori + 1e-3 or true_error > budget.aposteriori + 1e-3"),
    Mutant("a priori search starts at lo, n = 1, 2", SOLVER,
           "lo, n = 0, 1", "lo, n = 1, 2"),
    Mutant("a priori search scans linearly", SOLVER,
           "lo, n = n, 2 * n", "lo, n = n, n + 1"),
    Mutant("a priori search returns 2 n + 2", SOLVER,
           "else (mid, n)\n    return 2 * n\n", "else (mid, n)\n    return 2 * n + 2\n"),
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
