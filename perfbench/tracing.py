"""Span tracing of the package, installed from outside at run time.

`install` wraps the public functions of `norms`, `cyclic`, `solver`,
`oracle` and `cli` (plus `solver._advance`, one Picard step) in every
module namespace that binds them, so calls made inside the package are
traced too; `restore` puts the originals back.  The source stays unedited.

Each span records its name, start, end and parent in flat arrays.  The
runner calls `Tracer.flush` after every operation: it folds that
operation's spans into per-name totals (calls, inclusive time, self time)
and empties the arrays, so memory stays bounded by one operation.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

from workloads import p_label

MODULES = ("norms", "cyclic", "solver", "oracle", "cli")


def self_times(starts, ends, parents):
    """Duration minus child-covered time, for spans given as parallel arrays.

    `parents[i]` is the index of span i's parent, or -1 for a root.  Spans
    of one thread nest, so the children of a span never overlap and the
    time they cover is the sum of their durations.
    """
    starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    durations = ends - starts
    child = parents >= 0
    covered = np.bincount(parents[child], weights=durations[child], minlength=len(durations))
    return durations - covered


class Tracer:
    """Span log of the current operation plus running per-name totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._new_log()
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def _new_log(self):
        self._name_ids = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._starts)
        self._name_ids.append(name_id)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        return index

    def close(self, index: int):
        self._ends[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def record_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def flush(self):
        """Fold the closed spans into `totals` and empty the span log."""
        if self._stack:
            raise RuntimeError(f"flush with {len(self._stack)} spans still open")
        if not self._starts:
            return
        ids = np.frombuffer(self._name_ids, dtype=np.int64)
        starts = np.frombuffer(self._starts, dtype=float)
        ends = np.frombuffer(self._ends, dtype=float)
        own = self_times(starts, ends, np.frombuffer(self._parents, dtype=np.int64))
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        inclusive = np.bincount(ids, weights=ends - starts, minlength=size)
        exclusive = np.bincount(ids, weights=own, minlength=size)
        for name_id in np.flatnonzero(calls):
            entry = self.totals.setdefault(self.names[name_id], [0, 0.0, 0.0])
            entry[0] += int(calls[name_id])
            entry[1] += float(inclusive[name_id])
            entry[2] += float(exclusive[name_id])
        self._new_log()


def traced(tracer: Tracer, fn, namer, after=None):
    """`fn` wrapped in a span named `namer(*args, **kwargs)`.

    `after(result, raised, args, kwargs)` runs once the span has closed.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(namer(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index)
            if after is not None:
                after(None, exc, args, kwargs)
            raise
        tracer.close(index)
        if after is not None:
            after(result, None, args, kwargs)
        return result

    return wrapper


def _fixed(name):
    return lambda *args, **kwargs: name


def targets(tracer: Tracer) -> list:
    """(module, attribute, namer, after) for every traced function."""
    mpf = sys.modules["mpmath"].mpf
    mp = sys.modules["mpmath"].mp

    def arith(space) -> str:
        return "mp" if isinstance(space.p, mpf) else "f64"

    def step_name(spec, *args, **kwargs):
        if isinstance(spec.space.p, mpf):
            return f"solver.step.mp.p{p_label(spec.space.p)}"
        return "solver.step.f64"

    def after_run(result, raised, args, kwargs):
        trace = result[2] if raised is None else getattr(raised, "trace", None)
        if trace is not None:
            tracer.count("solver.steps.giveup" if raised else "solver.steps.certified", trace.steps)
        spec = args[0]
        if isinstance(spec.space.p, mpf):
            tracer.record_max(f"oracle.column.p{p_label(spec.space.p)}.dps", mp.dps)

    def table_name(kind, *args, **kwargs):
        return f"oracle.reproduce_table.{kind.value}"

    def cli_name(argv=None):
        argv = list(argv or [])
        if argv[:1] == ["verify"] and "--suite" in argv:
            return "cli.verify." + argv[argv.index("--suite") + 1]
        return "cli.main"

    return [
        ("norms", "lp_norm", lambda space, v: "norms.lp_norm." + arith(space), None),
        ("norms", "modulus_of_convexity",
         lambda p, eps: "norms.modulus_of_convexity." + ("bisect" if p < 2 else "closed"), None),
        ("norms", "check_convexity_inequality", _fixed("norms.check_convexity_inequality"), None),
        ("cyclic", "apply_map", lambda spec, x: "cyclic.apply_map." + arith(spec.space), None),
        ("cyclic", "make_example1", _fixed("cyclic.make_example1"), None),
        ("cyclic", "verify_cyclicity", _fixed("cyclic.verify_cyclicity"), None),
        ("cyclic", "verify_contraction", _fixed("cyclic.verify_contraction"), None),
        ("cyclic", "displacement_decay_check", _fixed("cyclic.displacement_decay_check"), None),
        ("cyclic", "sample_points", _fixed("cyclic.sample_points"), None),
        ("solver", "_advance", step_name, None),
        ("solver", "aposteriori_bound", _fixed("solver.aposteriori_bound"), None),
        ("solver", "apriori_bound", _fixed("solver.apriori_bound"), None),
        ("solver", "run_with_stop", _fixed("solver.run_with_stop"), after_run),
        ("oracle", "aposteriori_stop_working_precision",
         lambda lam, p, *args, **kwargs: f"oracle.column.p{p_label(p)}", None),
        ("oracle", "reproduce_table", table_name, None),
        ("oracle", "audit_soundness", _fixed("oracle.audit_soundness"), None),
        ("oracle", "audit_proof_chain", _fixed("oracle.audit_proof_chain"), None),
        ("oracle", "rederive_distance", _fixed("oracle.rederive_distance"), None),
        ("oracle", "reference_best_proximity", _fixed("oracle.reference_best_proximity"), None),
        ("cli", "main", cli_name, None),
    ]


def install(bp, tracer: Tracer) -> list:
    """Wrap every target in every package namespace; returns what `restore` needs."""
    modules = {name: sys.modules.get(f"{bp.__name__}.{name}") for name in MODULES}
    if modules["cli"] is None:
        modules["cli"] = importlib.import_module(f"{bp.__name__}.cli")
    namespaces = [bp, *modules.values()]
    replaced = []
    for module_name, attr, namer, after in targets(tracer):
        original = getattr(modules[module_name], attr, None)
        if original is None:
            print(f"trace: {module_name}.{attr} not found; its metrics read 0", file=sys.stderr)
            continue
        wrapper = traced(tracer, original, namer, after)
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, name, wrapper)
                    replaced.append((namespace, name, original))
    return replaced


def restore(replaced: list):
    for namespace, name, original in reversed(replaced):
        setattr(namespace, name, original)
