"""Benchmark of bestprox: closed-loop workloads in one process and one thread.

    python3 perfbench/run.py --workload solve-f64 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # the three workloads in turn

Run from anywhere; the package is imported from this checkout's `src`.  A
run sets the workload up (see `workloads.py`), then runs passes for
`--seconds`, each with inputs drawn from the seed and the pass index and
each operation starting when the previous one has returned, and checks
every outcome against `fingerprint.json`.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
some untraced passes, then traced ones, and reports per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 0 on a
completed run (even with failed operations), 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import json
import marshal
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import workloads as wl

#: Fresh processes whose set-up times give the median `setup_s`, after one untimed.
SETUP_SAMPLES = 9
BASELINE_PATH = wl.HERE / "BENCH_seed.json"
PROBE_TIMEOUT_S = 120
#: Interval of the speed probes taken from SIGALRM while a pass runs.
PROBE_EVERY_S = 0.025
#: Set-up probes run before and again after a set-up; their median scales it.
SETUP_PROBES = 9
#: Speed-probe time of the reference machine; normalised times are in its seconds.
PROBE_NOMINAL_S = 0.001
#: Compiled code of a synthetic module of classes and functions.
SETUP_PROBE_CODE = marshal.dumps(compile("\n".join(
    f"class C{i}:\n    'Class {i}.'\n    x = {i}\n    names = ('a{i}', 'b{i}', {{'k': {i}}})\n"
    f"    def f(self, a, b={i}.5, *args, **kw):\n        return [a * b + self.x for _ in args]\n"
    f"    @property\n    def g(self):\n        return self.f(1)\n"
    f"def h{i}(x, y=None):\n    return x if y is None else {{x: y}}\n"
    for i in range(60)
), "<setup probe>", "exec"))


def _probe_step(a, b):
    return a - b, a + b


def speed_probe() -> float:
    """Time a fixed slice of interpreter, float and big-integer work.

    The machine is shared, and its speed drifts by tens of percent within
    seconds.  Timings are scaled by PROBE_NOMINAL_S over the probe times
    taken while they ran, so they read as seconds on the reference machine
    and the drift cancels.  The probe uses no code of the package.
    """
    start = time.perf_counter()
    acc, big, modulus = 0.0, 7 ** 300, 3 ** 500
    for i in range(1, 1000):
        u, v = _probe_step(acc, i * 0.5)
        acc = abs(u) ** 1.5 / (v + 1.0) + max(u, v) * 1e-3
        big = big * 1234567 % modulus
    return time.perf_counter() - start


def setup_probe() -> float:
    """CPU time to load and run SETUP_PROBE_CODE, work of the kind an import does.

    A set-up is mostly imports: loading code objects and running module
    bodies.  That work follows the machine's speed more loosely than the
    arithmetic of `speed_probe` does, so set-up times are scaled by this
    probe instead.  It uses no code of the package.
    """
    start = time.process_time()
    exec(marshal.loads(SETUP_PROBE_CODE), {"__name__": "setup_probe"})
    return time.process_time() - start


class SpeedSampler:
    """Speed probes every PROBE_EVERY_S from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so probes land
    inside long calls too.  `marks` holds (start, end) of every probe.
    """

    def __init__(self):
        self.marks = []
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a late signal must not nest one probe in another
            return
        self._busy = True
        start = time.perf_counter()
        self.marks.append((start, start + speed_probe()))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, start: float, end: float) -> float:
        """Time of [start, end] without the probes in it, scaled to the reference speed.

        The speed is the mean probe time over the probes inside the interval
        and the nearest one on each side.
        """
        starts = [mark[0] for mark in self.marks]
        first = max(bisect.bisect_left(starts, start) - 1, 0)
        last = min(bisect.bisect_right(starts, end), len(self.marks) - 1)
        inside = [b - a for a, b in self.marks[first:last + 1] if start <= a and b <= end]
        around = [b - a for a, b in self.marks[first:last + 1]]
        return (end - start - sum(inside)) * PROBE_NOMINAL_S / statistics.fmean(around)


@dataclass
class Tally:
    """Outcomes of the operations of a run; times are normalised seconds."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: group -> latencies
    latencies: dict = field(default_factory=dict)
    passes: list = field(default_factory=list)
    raw_passes: list = field(default_factory=list)
    #: reference speed over measured speed, one per pass
    factors: list = field(default_factory=list)

    def record(self, op: wl.Op, seconds: float, errors: list):
        self.attempted += op.weight
        self.failed += min(len(errors), op.weight)
        if errors and len(self.errors) < 10:
            self.errors.append(f"{op.label}: {'; '.join(errors)}")
        self.latencies.setdefault(op.group, []).append(seconds)

    def all_latencies(self) -> list:
        return [t for group in self.latencies.values() for t in group]

    def pass_seconds(self) -> float:
        """Mean pass time, the first (cold) pass counted."""
        return statistics.fmean(self.passes)


def execute(op: wl.Op):
    """Call once; returns (start, end, errors)."""
    start = time.perf_counter()
    try:
        result, raised = op.run(), None
    except Exception as exc:  # an operation that raises is checked, not fatal
        result, raised = None, exc
    end = time.perf_counter()
    return start, end, op.check(result, raised)


def run_pass(ops: list, tally: Tally, between=None) -> float:
    """Run every operation once; returns the normalised pass time.

    Each call's time is scaled by the speed probes taken while it ran (see
    `SpeedSampler`).  The pass time is the sum of the scaled call times, so
    probes, checks and `between` stay out of it.
    """
    timeline = []
    with SpeedSampler() as sampler:
        for op in ops:
            timeline.append((op, *execute(op)))
            if between is not None:
                between()
    raw = scaled = 0.0
    for op, start, end, errors in timeline:
        seconds = sampler.scaled(start, end)
        tally.record(op, seconds, errors)
        raw += end - start
        scaled += seconds
    tally.raw_passes.append(raw)
    tally.factors.append(scaled / raw)
    tally.passes.append(scaled)
    return scaled


def repeat_passes(make_pass, tally, seconds, between=None) -> list:
    """Closed loop: passes until the next one would overrun `seconds` (at least one).

    Pass k of the run (counted in `tally`) runs `make_pass(k)`.  Returns
    the normalised pass times.
    """
    start = time.perf_counter()
    times, durations = [], []
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        ops = make_pass(len(tally.passes))
        mark = time.perf_counter()
        times.append(run_pass(ops, tally, between))
        durations.append(time.perf_counter() - mark)
    return times


def setup(name: str, seed: int, fp: dict):
    """Import the package, build the workload and run one warm-up operation.

    Returns (package, make_pass, import seconds, set-up seconds, warm-up
    errors).  Both times are CPU time of this process, scaled by the median
    of the set-up probes run right before and after.  A set-up lasts a few
    scheduler time slices, so its wall time depends on how often other
    processes preempt it; CPU time leaves that out, and the probes take
    out the drift of the processor's own speed.
    """
    probes = [setup_probe() for _ in range(SETUP_PROBES)]
    start = time.process_time()
    bp = wl.import_package()
    import_s = time.process_time() - start
    make_pass = wl.build(name, bp, seed, fp)
    *_, errors = execute(wl.warmup_op(name, bp, fp))
    setup_s = time.process_time() - start
    probes += [setup_probe() for _ in range(SETUP_PROBES)]
    factor = PROBE_NOMINAL_S / statistics.median(probes)
    return bp, make_pass, import_s * factor, setup_s * factor, errors


def setup_samples(name: str, seed: int) -> list:
    """Set-up times of SETUP_SAMPLES fresh processes."""
    probe_setup(name, seed)  # untimed: warms the file cache
    return [probe_setup(name, seed) for _ in range(SETUP_SAMPLES)]


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process running `--setup-probe`."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_sha():
    if not (wl.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "bestprox").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(path.relative_to(wl.SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    mpmath = sys.modules["mpmath"]
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def backend_warning(env: dict):
    if not BASELINE_PATH.is_file():
        return None
    baseline = wl.load_json(BASELINE_PATH)["env"]["mpmath_backend"]
    if env["mpmath_backend"] == baseline:
        return None
    return (
        f"WARNING: mpmath backend {env['mpmath_backend']!r} differs from the baseline's "
        f"{baseline!r}; grid-mp figures are not comparable with it"
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(tally: Tally, setup_samples: list) -> dict:
    """The metrics of BENCHMARK.json's end_to_end list: name -> (value, unit)."""
    latencies = tally.all_latencies()
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (tally.pass_seconds(), "s"),
        "ops_per_s": (tally.attempted / sum(tally.passes), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "op_ms_p90": (1e3 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def detail_lines(name: str, tally: Tally) -> list:
    """The workload-specific figures, printed beside the end-to-end metrics."""
    lines = [
        f"fail_frac = {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})",
        f"passes = {len(tally.passes)}, first (cold) pass = {tally.passes[0]:.6g} s, "
        f"raw wall time of a pass = {statistics.median(tally.raw_passes):.6g} s, "
        f"speed factor = {min(tally.factors):.4g} to {max(tally.factors):.4g}",
    ]
    groups = tally.latencies

    def quantile_line(metric, group, q):
        values = groups.get(group, [])
        if values:
            lines.append(f"{metric} = {1e3 * percentile(values, q):.6g} ms (n={len(values)})")

    if name == "solve-f64":
        quantile_line("solve_ms_p50", "certify", 50)
        quantile_line("solve_ms_p99", "certify", 99)
        quantile_line("giveup_ms_p50", "giveup", 50)
        giveups, certified = groups.get("giveup", []), groups.get("certify", [])
        runs = len(giveups) + len(certified)
        busy = sum(giveups) + sum(certified)
        lines.append(
            f"giveup share of runs = {len(giveups) / runs:.4f} ({len(giveups)} of {runs} solves)"
        )
        lines.append(
            f"giveup share of solve time = {sum(giveups) / busy:.4f} "
            f"({sum(giveups):.3f} s of {busy:.3f} s)"
        )
    elif name == "grid-mp":
        quantile_line("cell_ms_p50", "cell", 50)
        quantile_line("cell_ms_p75", "cell", 75)
    return lines


def per_layer(tracer, passes: int, import_s: float, overhead: float) -> dict:
    """The metrics of BENCHMARK.json's per_layer list, per traced pass."""
    totals = tracer.totals
    metrics = {}

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(name, column=1):
        return totals.get(name, [0, 0.0, 0.0])[column]

    def calls_and_us(name):
        n = calls(name)
        metrics[f"{name}.calls"] = (n / passes, "count")
        metrics[f"{name}.us"] = (1e6 * seconds(name) / n if n else 0.0, "us")

    for name in (
        "norms.lp_norm.f64", "norms.lp_norm.mp",
        "norms.modulus_of_convexity.bisect", "norms.modulus_of_convexity.closed",
        "norms.check_convexity_inequality",
        "cyclic.apply_map.f64", "cyclic.apply_map.mp",
        "solver.aposteriori_bound", "solver.apriori_bound",
    ):
        calls_and_us(name)
    metrics["cyclic.make_example1.calls"] = (calls("cyclic.make_example1") / passes, "count")
    for name in (
        "cyclic.verify_cyclicity", "cyclic.verify_contraction",
        "cyclic.displacement_decay_check", "cyclic.sample_points",
        "oracle.reproduce_table.aposteriori", "oracle.reproduce_table.apriori",
        "oracle.audit_soundness", "oracle.audit_proof_chain",
        "oracle.rederive_distance", "oracle.reference_best_proximity",
        "cli.verify.norms", "cli.verify.cyclic",
    ):
        metrics[f"{name}.s"] = (seconds(name) / passes, "s")

    step_names = ["solver.step.f64"] + [f"solver.step.mp.p{wl.p_label(p)}" for p in wl.PS]
    for name in step_names:
        n = calls(name)
        metrics[f"{name}.us"] = (1e6 * seconds(name) / n if n else 0.0, "us")
    certified = tracer.counters.get("solver.steps.certified", 0)
    giveup = tracer.counters.get("solver.steps.giveup", 0)
    steps = certified + giveup
    metrics["solver.run_with_stop.self_us_per_step"] = (
        1e6 * seconds("solver.run_with_stop", 2) / steps if steps else 0.0, "us"
    )
    metrics["solver.steps.certified"] = (certified / passes, "count")
    metrics["solver.steps.giveup"] = (giveup / passes, "count")
    metrics["solver.useful_step_ratio"] = (certified / steps if steps else 0.0, "ratio")

    columns = 0.0
    for p in wl.PS:
        name = f"oracle.column.p{wl.p_label(p)}"
        columns += seconds(name)
        metrics[f"{name}.s"] = (seconds(name) / passes, "s")
        metrics[f"{name}.dps"] = (tracer.maxima.get(f"{name}.dps", 0), "digits")
    metrics["oracle.aposteriori_stop_working_precision.s"] = (columns / passes, "s")
    cli_self = sum(entry[2] for name, entry in totals.items() if name.startswith("cli."))
    metrics["cli.main.self_s"] = (cli_self / passes, "s")
    metrics["import.s"] = (import_s, "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def print_metrics(metrics: dict):
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def run_workload(args) -> int:
    fp = wl.load_json(wl.FINGERPRINT_PATH)
    bp, make_pass, import_s, _, warm_errors = setup(args.workload, args.seed, fp)
    tally = Tally()
    if warm_errors:
        tally.errors.append(f"warm-up: {'; '.join(warm_errors)}")
    ops = make_pass(0)
    weight = sum(op.weight for op in ops)
    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} calls "
          f"({weight} operations) per pass, closed loop, 1 process, 1 thread")

    if args.trace:
        import tracing  # numpy comes with it; untraced runs keep it out of peak_rss_mb

        start = time.perf_counter()
        untraced = repeat_passes(make_pass, tally, args.seconds / 3)
        remaining = args.seconds - (time.perf_counter() - start)
        tracer = tracing.Tracer()
        replaced = tracing.install(bp, tracer)
        try:
            traced = repeat_passes(make_pass, tally, remaining, between=tracer.flush)
        finally:
            tracing.restore(replaced)
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        metrics = per_layer(tracer, len(traced), import_s, overhead)
        print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, "
              f"overhead against untraced wall time: {100 * overhead:.1f}%")
        top = sorted(tracer.totals.items(), key=lambda item: -item[1][2])[:8]
        for name, (n, _, own) in top:
            print(f"  self {own / len(traced):9.4f} s/pass  {n / len(traced):11.0f} calls/pass  {name}")
    else:
        repeat_passes(make_pass, tally, args.seconds)
        metrics = end_to_end(tally, setup_samples(args.workload, args.seed))
        for line in detail_lines(args.workload, tally):
            print(line)
    print_metrics(metrics)
    for error in tally.errors:
        print(f"FAILED {error}")
    env = environment()
    warning = backend_warning(env)
    if warning:
        print(warning)
    print("env " + json.dumps(env, sort_keys=True))
    correct = tally.failed == 0 and not warm_errors
    print(result_line(correct, tally.attempted, tally.failed + bool(warm_errors), metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = (entry["value"], entry["unit"])
        print()
    print(result_line(correct, attempted, failed, metrics))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the default seed in seeds.json)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = wl.default_seeds()["default"]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            fp = wl.load_json(wl.FINGERPRINT_PATH)
            print(json.dumps({"setup_s": setup(args.workload, args.seed, fp)[3]}))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except wl.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
