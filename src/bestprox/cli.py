"""Command-line front end.

Subcommands:

* ``solve``    run the iteration with a chosen stopping rule and report the
  approximation, the stopping step, and the final error budgets;
* ``table``    fill an (eps, p) grid of stopping steps and optionally diff
  it against the published reference grids;
* ``verify``   run the invariant suites (geometry, cyclic map, bounds,
  tables) and report pass/fail per property.  The suites and their
  properties live in `oracle`, shared with the acceptance tests; this
  module only dispatches and prints them;
* ``modulus``  query the modulus-of-convexity machinery at one point.

Exit codes: 0 success, 1 verification or convergence failure, 2 invalid
input.  Output is deterministic for a fixed seed and configuration.
Configuration comes from flags only.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import oracle
from .cyclic import Example1Params, make_example1
from .errors import (
    BudgetExhaustedError,
    ConfigurationError,
    DeclarationError,
    InputError,
    NumericalError,
)
from .norms import dist, modulus_of_convexity, power_type_constants
from .solver import IterationTrace, StopKind, StopRule, error_budget_at, run_with_stop

_FORMATS = ("csv", "markdown", "plain")


def _g17(value) -> str:
    return format(float(value), ".17g")


def _budget_cell(value) -> str:
    return _g17(value) if math.isfinite(value) else "not finite"


def _g6(value) -> str:
    return format(float(value), ".6g")


def _fmt_point(point, digits=_g6) -> str:
    return "(" + ", ".join(digits(c) for c in point) + ")"


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse number list {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


def _trace_rows(space, trace: IterationTrace):
    dim = len(trace.iterates[0])
    header = (
        ["step", "side"]
        + [f"coord_{i}" for i in range(dim)]
        + ["displacement", "apriori", "aposteriori"]
    )
    budgets = {b.step: b for b in trace.budgets}
    rows = [header]
    points = trace.iterates
    for i, point in enumerate(points):
        disp = _g17(dist(space, point, points[i + 1])) if i < trace.steps else ""
        budget = budgets.get(i)
        rows.append(
            [str(i), "A" if i % 2 == 0 else "B"]
            + [_g17(c) for c in point]
            + [
                disp,
                _budget_cell(budget.apriori) if budget else "",
                _budget_cell(budget.aposteriori) if budget else "",
            ]
        )
    return rows


def _render_rows(rows, fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows) + "\n"
    if fmt == "markdown":
        out = ["| " + " | ".join(rows[0]) + " |"]
        out.append("|" + "|".join(" --- " for _ in rows[0]) + "|")
        out.extend("| " + " | ".join(row) + " |" for row in rows[1:])
        return "\n".join(out) + "\n"
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return (
        "\n".join(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in rows
        )
        + "\n"
    )


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    spec = make_example1(Example1Params(lam=args.lam, p=args.p))
    x0 = _parse_floats(args.x0)
    rule = StopRule(
        kind=StopKind(args.criterion), epsilon=args.eps, max_steps=args.max_steps
    )
    approx, stopped_at, trace = run_with_stop(spec, x0, rule)
    print(f"map: example1(lambda={_g6(args.lam)}, p={_g6(args.p)})")
    print(f"start: x0 = {_fmt_point(x0)}")
    print(f"criterion: {args.criterion}, eps = {_g6(args.eps)}")
    print(f"stopped at even step: {stopped_at}")
    print(f"approximation: {_fmt_point(approx)}")
    final = error_budget_at(trace, trace.steps // 2)
    apriori = (
        f"apriori = {_g6(final.apriori)}"
        if math.isfinite(final.apriori)
        else f"apriori: not finite at D={_g6(trace.displacements[0])}"
    )
    print(
        f"final budgets at step {final.step}: "
        f"{apriori}, aposteriori = {_g6(final.aposteriori)}"
    )
    xi = oracle.reference_best_proximity(spec)
    print(f"reference point: {_fmt_point(xi)}")
    print(f"true error: {_g6(dist(spec.space, approx, xi))}")
    if args.out:
        _emit(_render_rows(_trace_rows(spec.space, trace), args.format), args.out)
        print(f"trace written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _eps_label(eps: float) -> str:
    return format(eps, ".0e")


def _grid_rows(eps_list, p_list, counts):
    rows = [["eps"] + [_g6(p) for p in p_list]]
    for eps, row in zip(eps_list, counts):
        rows.append([_eps_label(eps)] + [str(c) for c in row])
    return rows


def cmd_table(args) -> int:
    kind = StopKind(args.criterion)
    eps_list = _parse_floats(args.eps) if args.eps else None
    p_list = _parse_floats(args.p) if args.p else None
    x0 = _parse_floats(args.x0)
    result = oracle.reproduce_table(
        kind, lam=args.lam, x0=x0, eps_list=eps_list, p_list=p_list
    )
    blocks = [("computed", result.counts)]
    exit_code = 0
    if args.compare_paper:
        if result.reference_counts is None:
            raise InputError(
                "--compare-paper requires the benchmark grid "
                "(lambda=0.5, x0=1000,8, default eps and p lists)"
            )
        blocks.append(("reference", result.reference_counts))
        blocks.append(("delta", result.deltas))
        tolerance = 2 if kind is StopKind.APOSTERIORI else 4
        if not oracle.grid_within(result, tolerance)[0]:
            exit_code = 1

    pieces = []
    for label, grid in blocks:
        rows = _grid_rows(result.eps_list, result.p_list, grid)
        if args.format == "markdown":
            pieces.append(f"### {label}\n\n" + _render_rows(rows, "markdown"))
        elif args.format == "csv":
            pieces.append(f"# {label}\n" + _render_rows(rows, "csv"))
        else:
            pieces.append(f"{label}:\n" + _render_rows(rows, "plain"))
    _emit("\n".join(pieces), args.out)
    if args.compare_paper and exit_code == 1:
        print(
            f"deltas exceed +-{tolerance} for the {kind.value} grid "
            "(computed counts are authoritative; see the delta block)",
            file=sys.stderr,
        )
    return exit_code


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    suites = {
        "norms": lambda: oracle.norms_suite(args.seed),
        "cyclic": lambda: oracle.cyclic_suite(args.seed, args.k_override),
        "bounds": lambda: oracle.bounds_suite(args.seed, args.k_override),
        "tables": oracle.tables_suite,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        print(f"--- suite: {name} ---")
        for label, ok, detail in suites[name]():
            status = "PASS" if ok else "FAIL"
            suffix = f": {detail}" if (detail and not ok) else ""
            print(f"{status} {label}{suffix}")
            all_ok = all_ok and ok
    print("all properties passed" if all_ok else "some properties FAILED")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# modulus
# ---------------------------------------------------------------------------


def cmd_modulus(args) -> int:
    delta = modulus_of_convexity(args.p, args.eps)
    consts = power_type_constants(args.p)
    lower = consts.C * args.eps ** consts.q
    print(f"delta_p(eps) for p={_g6(args.p)}, eps={_g6(args.eps)}: {_g6(delta)}")
    print(f"power-type lower bound C*eps^q: {_g6(lower)}")
    print(f"constants: C = {_g6(consts.C)}, q = {_g6(consts.q)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestprox",
        description=(
            "Approximate best proximity points of cyclic contractions by "
            "Picard iteration with certified a priori / a posteriori error bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(sp):
        sp.add_argument("--lambda", dest="lam", type=float, default=0.5,
                        help="contraction factor in (0, 1)")
        sp.add_argument("--x0", default="1000,8", help="start point, e.g. 1000,8")
        sp.add_argument("--criterion", choices=["apriori", "aposteriori"],
                        default="aposteriori", help="which bound drives the run")
        sp.add_argument("--out", default=None, help="write output to this path")
        sp.add_argument("--format", choices=_FORMATS, default="plain")

    solve = sub.add_parser("solve", help="run one scenario with a stopping rule")
    shared(solve)
    solve.add_argument("--p", type=float, default=2.0, help="norm exponent, p > 1")
    solve.add_argument("--eps", type=float, default=1e-6, help="target accuracy")
    solve.add_argument("--max-steps", type=int, default=1_000_000, help="even step cap")
    solve.set_defaults(handler=cmd_solve)

    table = sub.add_parser("table", help="reproduce iteration-count grids")
    shared(table)
    table.add_argument("--p", default=None,
                       help="comma-separated norm exponents (default: benchmark grid)")
    table.add_argument("--eps", default=None,
                       help="comma-separated targets (default: benchmark grid)")
    table.add_argument("--compare-paper", action="store_true",
                       help="diff against the published reference grids")
    table.set_defaults(handler=cmd_table)

    verify = sub.add_parser("verify", help="run the invariant suites")
    verify.add_argument("--suite", choices=["norms", "cyclic", "bounds", "tables", "all"],
                        default="all")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--k-override", dest="k_override", type=float, default=None,
                        help="fault injection: replace the declared contraction "
                             "coefficient in the cyclic/bounds suites")
    verify.set_defaults(handler=cmd_verify)

    modulus = sub.add_parser("modulus", help="evaluate the modulus of convexity")
    modulus.add_argument("--p", type=float, required=True)
    modulus.add_argument("--eps", type=float, required=True)
    modulus.set_defaults(handler=cmd_modulus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExhaustedError, NumericalError, DeclarationError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
