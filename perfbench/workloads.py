"""Seeded inputs, operations and correctness checks of the three workloads.

A workload is a list of `Op`s, built from a seed, that the runner executes
in order as one *pass* and repeats closed-loop: each operation starts only
after the previous one has returned.  An operation times a single call into
the package; its check runs afterwards, untimed, and compares the outcome
with the committed fingerprint (`fingerprint.json`).

Each pass draws its own inputs from the workload seed and the pass index
(`pass_rng`), so no pass repeats the calls of the one before it.

* ``solve-f64``: float64 a posteriori solves (`run_with_stop`) over
  lambda x p x eps at cap 4000, from starts drawn out of a fixed pool.
  Targets below the float64 resolution floor give up; they are expected,
  fingerprinted as a set, and checked for the plateau.
* ``grid-mp``: both published grids via `reproduce_table`, the a posteriori
  one cell by cell, plus the eps = 1e-10 working-precision cells for
  lambda in {0.3, 0.9}.  The cells are the paper's, the same in every
  pass; only their order is drawn.
* ``verify``: `cli.main` for the norms and cyclic suites, at CLI seeds
  drawn from `CLI_SEEDS`, and the three oracle audits over lambda x p
  from drawn starts.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINT_PATH = HERE / "fingerprint.json"
SEEDS_PATH = HERE / "seeds.json"

WORKLOADS = ("solve-f64", "grid-mp", "verify")

LAMBDAS = (0.3, 0.5, 0.9)
PS = (1.1, 1.5, 2.0, 3.0, 5.0, 20.0)
SOLVE_EPS = (1e-2, 1e-6, 1e-10)
SOLVE_CAP = 4000
GRID_EPS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
GRID_LAMBDA = 0.5
GRID_X0 = (1000.0, 8.0)
EXTRA_CELL_LAMBDAS = (0.3, 0.9)
EXTRA_CELL_EPS = 1e-10

#: The best proximity point of the built-in map, and its set distance.
XI = (1.0, 0.0)
D = 2.0
#: A give-up is correct only when its orbit sits this close above d.
PLATEAU = 1e-13

#: Starts are drawn from this pool, so every stopping step is fingerprinted.
POOL_SEED = 20150410
POOL_SIZE = 100
#: Sampling window of A, as in `bestprox.cyclic.EXAMPLE1_BOX_A`.
BOX_A = ((1.0, 1000.0), (-1000.0, 1000.0))

STARTS_PER_CONFIG = 10
AUDIT_STARTS_PER_CONFIG = 3
AUDIT_STEPS = 100
CHAIN_STEPS = 60
REDERIVE_SAMPLES = 50
SUITES = ("norms", "cyclic")
#: `verify --seed` values, a contiguous range taken as it comes.  Some of them
#: make the seed commit print FAIL lines; the fingerprint records each
#: seed's output as it is, so those lines stay visible and checked.
CLI_SEEDS = tuple(range(1, 17))


@dataclass
class Op:
    """One timed call into the package and the check of its outcome.

    `run` is the timed call.  `check(result, raised)` returns a list of
    error strings, empty when the outcome matches the fingerprint.  `weight`
    is the number of operations the call stands for (grid cells).
    """

    label: str
    group: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], list]
    weight: int = 1


class MissingProgram(RuntimeError):
    """The checkout holds no importable `src/bestprox`."""


def import_package():
    """Import `bestprox` from this checkout's `src`, never from elsewhere."""
    if not (SRC / "bestprox" / "__init__.py").is_file():
        raise MissingProgram(f"no package at {SRC / 'bestprox'}")
    sys.path.insert(0, str(SRC))
    bp = importlib.import_module("bestprox")
    if SRC not in Path(bp.__file__).resolve().parents:
        raise MissingProgram(f"bestprox imported from {bp.__file__}, not from {SRC}")
    return bp


def load_json(path: Path):
    with open(path, encoding="ascii") as handle:
        return json.load(handle)


def default_seeds() -> dict:
    return load_json(SEEDS_PATH)


def p_label(p) -> str:
    return format(float(p), "g")


def in_a(v) -> bool:
    """Membership in A, written as `bestprox.cyclic.make_example1` tests it."""
    x, y = v
    return y - x + 1 <= 0 and y + x - 1 >= 0


def sample_starts(rng: random.Random, count: int) -> list:
    points = []
    while len(points) < count:
        candidate = tuple(rng.uniform(lo, hi) for lo, hi in BOX_A)
        if in_a(candidate):
            points.append(candidate)
    return points


def pool_starts() -> list:
    return sample_starts(random.Random(POOL_SEED), POOL_SIZE)


def lp_dist(u, v, p) -> float:
    """l_p distance in float64, scaled against overflow; independent of the package."""
    diffs = [abs(float(a) - float(b)) for a, b in zip(u, v)]
    scale = max(diffs)
    if scale == 0:
        return 0.0
    return scale * sum((c / scale) ** p for c in diffs) ** (1 / p)


def solve_key(lam, p, eps) -> str:
    return f"{lam:g}/{p_label(p)}/{eps:g}"


def pass_rng(seed: int, index: int) -> random.Random:
    """The generator of pass `index` of a run at workload seed `seed`."""
    return random.Random(f"{seed}/{index}")


def solve_targets(seed: int, index: int, starts_per_config: int = STARTS_PER_CONFIG) -> list:
    """(lam, p, eps, pool index, store_iterates) of pass `index`, in its order."""
    rng = pass_rng(seed, index)
    picked = sorted(rng.sample(range(POOL_SIZE), starts_per_config))
    targets = list(itertools.product(LAMBDAS, PS, SOLVE_EPS, picked))
    rng.shuffle(targets)
    # Half keep the orbit, as `cli solve` and the audits do; half do not.
    return [t + (i % 2 == 0,) for i, t in enumerate(targets)]


def grid_cells(seed: int, index: int) -> list:
    """("post", lam, p, eps) / ("extra", ...) / ("apriori",) in the order of pass `index`."""
    cells = [("post", GRID_LAMBDA, p, eps) for p in PS for eps in GRID_EPS]
    cells += [("extra", lam, p, EXTRA_CELL_EPS) for lam in EXTRA_CELL_LAMBDAS for p in PS]
    cells.append(("apriori",))
    pass_rng(seed, index).shuffle(cells)
    return cells


def verify_plan(seed: int, index: int) -> list:
    """("cli", suite, cli_seed) / ("audits", lam, p, x0, rederive_seed) of pass `index`."""
    rng = pass_rng(seed, index)
    plan = [("cli", suite, rng.choice(CLI_SEEDS)) for suite in SUITES]
    configs = list(itertools.product(LAMBDAS, PS)) * AUDIT_STARTS_PER_CONFIG
    for (lam, p), x0 in zip(configs, sample_starts(rng, len(configs))):
        plan.append(("audits", lam, p, x0, rng.randrange(2**31)))
    rng.shuffle(plan)
    return plan


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _raised(raised) -> list:
    return [] if raised is None else [f"raised {type(raised).__name__}: {raised}"]


def check_certified(result, raised, *, p, eps, expected_step, store) -> list:
    if raised is not None:
        return _raised(raised)
    approx, stopped_at, trace = result
    errors = []
    if stopped_at % 2 or stopped_at != expected_step:
        errors.append(f"stopped at {stopped_at}, fingerprint {expected_step}")
    err = lp_dist(approx, XI, p)
    if not err < eps:
        errors.append(f"true error {err:.3g} not below eps {eps:g}")
    if store and len(trace.iterates) != stopped_at + 1:
        errors.append(f"orbit holds {len(trace.iterates)} points for {stopped_at} steps")
    return errors


def check_giveup(result, raised) -> list:
    """A give-up returns no point and sits at the float64 resolution plateau."""
    if raised is None:
        return [f"returned {result!r} for a target below the resolution floor"]
    trace = getattr(raised, "trace", None)
    if trace is None or not trace.displacements:
        return [f"raised {type(raised).__name__} without a trace"]
    gap = trace.displacements[-1] - D
    if not 0 < gap < PLATEAU:
        return [f"gave up off the resolution plateau: gap={gap!r}"]
    return []


def check_counts(result, raised, *, expected) -> list:
    if raised is not None:
        return _raised(raised)
    if len(result.counts) != len(expected):
        return [f"grid has {len(result.counts)} rows, fingerprint {len(expected)}"]
    return [
        f"cell ({i}, {j}): {got} != {want}"
        for i, (grow, wrow) in enumerate(zip(result.counts, expected))
        for j, (got, want) in enumerate(zip(grow, wrow))
        if got != want
    ]


def check_cell(result, raised, *, eps, expected_step) -> list:
    if raised is not None:
        return _raised(raised)
    stopped_at, err = result
    errors = []
    if stopped_at != expected_step:
        errors.append(f"stopped at {stopped_at}, fingerprint {expected_step}")
    if not err < eps:
        errors.append(f"true error {err:.3g} not below eps {eps:g}")
    return errors


def expected_cli(fp: dict, suite: str, cli_seed: int) -> dict:
    entry = fp["verify"][suite]
    return entry["outputs"][entry["by_seed"][str(cli_seed)]]


def check_cli(result, raised, *, expected) -> list:
    if raised is not None:
        return _raised(raised)
    code, lines = result
    errors = []
    if code != expected["exit_code"]:
        errors.append(f"exit code {code}, fingerprint {expected['exit_code']}")
    if lines != expected["lines"]:
        diff = [line for line in lines if line not in expected["lines"]][:3]
        errors.append(f"output differs from fingerprint: {diff}")
    return errors


def check_soundness(result, raised) -> list:
    if raised is not None:
        return _raised(raised)
    return [] if result.passed else [f"soundness failures: {result.failures[:1]}"]


def check_chain(result, raised, *, chain_checks) -> list:
    if raised is not None:
        return _raised(raised)
    if result.passed and result.checks == chain_checks:
        return []
    return [f"proof chain: passed={result.passed}, checks={result.checks}"]


def check_distance(result, raised) -> list:
    if raised is not None:
        return _raised(raised)
    return [] if abs(result - D) <= 1e-6 else [f"re-derived distance {result!r}"]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _specs(bp, lambdas=LAMBDAS, ps=PS) -> dict:
    return {
        (lam, p): bp.make_example1(bp.Example1Params(lam=lam, p=p))
        for lam in lambdas
        for p in ps
    }


def solve_op(bp, specs, pool, fp, lam, p, eps, index, store) -> Op:
    spec = specs[(lam, p)]
    x0 = pool[index]
    rule = bp.StopRule(kind=bp.StopKind.APOSTERIORI, epsilon=eps, max_steps=SOLVE_CAP)
    expected = fp["solve_steps"][solve_key(lam, p, eps)][index]

    def run():
        return bp.run_with_stop(spec, x0, rule, store_iterates=store)

    label = f"solve {solve_key(lam, p, eps)} start {index}"
    if expected is None:
        return Op(label, "giveup", run, check_giveup)

    def check(result, raised):
        return check_certified(
            result, raised, p=p, eps=eps, expected_step=expected, store=store
        )

    return Op(label, "certify", run, check)


def post_cell_op(bp, fp, p, eps) -> Op:
    row = GRID_EPS.index(eps)
    col = PS.index(p)
    expected = [[fp["grid"]["aposteriori"][row][col]]]

    def run():
        return bp.reproduce_table(
            bp.StopKind.APOSTERIORI, lam=GRID_LAMBDA, x0=GRID_X0,
            eps_list=(eps,), p_list=(p,),
        )

    return Op(
        f"aposteriori cell p={p_label(p)} eps={eps:g}", "cell", run,
        lambda result, raised: check_counts(result, raised, expected=expected),
    )


def extra_cell_op(bp, fp, lam, p, eps) -> Op:
    expected = fp["extra_cells"][f"{lam:g}/{p_label(p)}"]

    def run():
        return bp.aposteriori_stop_working_precision(lam, p, GRID_X0, eps)

    return Op(
        f"working-precision cell lambda={lam:g} p={p_label(p)} eps={eps:g}", "cell", run,
        lambda result, raised: check_cell(result, raised, eps=eps, expected_step=expected),
    )


def apriori_grid_op(bp, fp) -> Op:
    expected = fp["grid"]["apriori"]

    def run():
        return bp.reproduce_table(bp.StopKind.APRIORI, lam=GRID_LAMBDA, x0=GRID_X0)

    return Op(
        "apriori grid", "apriori", run,
        lambda result, raised: check_counts(result, raised, expected=expected),
        weight=len(GRID_EPS) * len(PS),
    )


def cli_op(bp, fp, suite, cli_seed) -> Op:
    cli = importlib.import_module(bp.__name__ + ".cli")
    argv = ["verify", "--suite", suite, "--seed", str(cli_seed)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue().splitlines()

    return Op(
        "bestprox " + " ".join(argv), "cli", run,
        lambda result, raised: check_cli(
            result, raised, expected=expected_cli(fp, suite, cli_seed)
        ),
    )


def audit_ops(bp, specs, fp, lam, p, x0, rederive_seed) -> list:
    spec = specs[(lam, p)]
    tag = f"lambda={lam:g} p={p_label(p)}"
    return [
        Op(f"audit_soundness {tag}", "audit",
           lambda: bp.audit_soundness(spec, x0, AUDIT_STEPS), check_soundness),
        Op(f"audit_proof_chain {tag}", "audit",
           lambda: bp.audit_proof_chain(spec, x0, CHAIN_STEPS),
           lambda result, raised: check_chain(
               result, raised, chain_checks=fp["proof_chain_checks"])),
        Op(f"rederive_distance {tag}", "audit",
           lambda: bp.rederive_distance(spec, REDERIVE_SAMPLES, rederive_seed),
           check_distance),
    ]


def build(name: str, bp, seed: int, fp: dict, small: bool = False) -> Callable[[int], list]:
    """The workload `name` at `seed`, as `make_pass(index)`, the ops of pass `index`.

    The specs and the start pool are built here, once; `make_pass` only
    draws inputs and calls no function of the package.  `small` keeps a
    reduced pass for the benchmark's own tests: one start per solve
    target, the grid cells below 300 steps, and the audits of one lambda.
    """
    if name == "solve-f64":
        specs = _specs(bp)
        pool = pool_starts()
        per_config = 1 if small else STARTS_PER_CONFIG
        return lambda index: [
            solve_op(bp, specs, pool, fp, *target)
            for target in solve_targets(seed, index, per_config)
        ]
    if name == "grid-mp":
        def make_grid_pass(index):
            ops = []
            for cell in grid_cells(seed, index):
                if cell[0] == "apriori":
                    ops.append(apriori_grid_op(bp, fp))
                elif cell[0] == "post":
                    if not small or GRID_EPS.index(cell[3]) < 2:
                        ops.append(post_cell_op(bp, fp, cell[2], cell[3]))
                elif not small or fp["extra_cells"][f"{cell[1]:g}/{p_label(cell[2])}"] < 300:
                    ops.append(extra_cell_op(bp, fp, *cell[1:]))
            return ops

        return make_grid_pass
    if name == "verify":
        specs = _specs(bp)

        def make_verify_pass(index):
            ops = []
            for item in verify_plan(seed, index):
                if item[0] == "cli":
                    ops.append(cli_op(bp, fp, *item[1:]))
                elif not small or item[1] == GRID_LAMBDA:
                    ops.extend(audit_ops(bp, specs, fp, *item[1:]))
            return ops

        return make_verify_pass
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def warmup_op(name: str, bp, fp: dict) -> Op:
    """A fixed, cheap operation of each workload, run once during set-up."""
    if name == "solve-f64":
        specs = _specs(bp, lambdas=(GRID_LAMBDA,), ps=(2.0,))
        return solve_op(bp, specs, pool_starts(), fp, GRID_LAMBDA, 2.0, 1e-6, 0, True)
    if name == "grid-mp":
        return post_cell_op(bp, fp, 2.0, 1e-2)
    if name == "verify":
        specs = _specs(bp, lambdas=(GRID_LAMBDA,), ps=(2.0,))
        return audit_ops(bp, specs, fp, GRID_LAMBDA, 2.0, pool_starts()[0], 0)[0]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
