"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They cover the span arithmetic, the metric names against BENCHMARK.json,
the seeded input generators, the fingerprint against the package's
reference grids, and a reduced pass of every workload.
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = wl.load_json(wl.ROOT / "BENCHMARK.json")
FP = wl.load_json(wl.FINGERPRINT_PATH)


@pytest.fixture(scope="module")
def bp():
    return wl.import_package()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_self_times_subtract_only_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # b holds d [6, 7] and e [7.5, 8.5].
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 7.5]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.5]
    parents = [-1, 0, 1, 0, 3, 3]
    own = tracing.self_times(starts, ends, parents)
    assert own.tolist() == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.0])
    assert own.sum() == pytest.approx(10.0)


def test_tracer_totals_nest_and_reset():
    tracer = tracing.Tracer()
    for _ in range(2):
        root = tracer.open("root")
        for _ in range(3):
            tracer.close(tracer.open("leaf"))
        tracer.close(root)
        tracer.flush()
    calls, inclusive, own = tracer.totals["root"]
    leaf_calls, leaf_inclusive, leaf_own = tracer.totals["leaf"]
    assert (calls, leaf_calls) == (2, 6)
    assert leaf_own == pytest.approx(leaf_inclusive)
    assert own == pytest.approx(inclusive - leaf_inclusive)
    assert len(tracer._starts) == 0


def test_flush_refuses_open_spans():
    tracer = tracing.Tracer()
    tracer.open("root")
    with pytest.raises(RuntimeError):
        tracer.flush()


def test_sampler_drops_inner_probes_and_scales_by_the_probes_around():
    nominal = run.PROBE_NOMINAL_S
    sampler = run.SpeedSampler()
    # Probes at 0, 1 and 3 s, each twice the nominal time: the machine runs at half speed.
    sampler.marks = [(t, t + 2 * nominal) for t in (0.0, 1.0, 3.0)]
    assert sampler.scaled(0.5, 2.0) == pytest.approx((1.5 - 2 * nominal) / 2)
    assert sampler.scaled(1.5, 2.5) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the emitted names
# ---------------------------------------------------------------------------


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (wl.ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"][:2] == ["python3", "perfbench/run.py"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = []
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    for workload in BENCHMARK["workloads"]:
        assert NAME.match(workload["name"]) and workload["name"] not in names
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_end_to_end_names_match_benchmark_json():
    tally = run.Tally(
        attempted=6, passes=[1.6, 1.0, 1.1], latencies={"a": [0.4, 0.6], "b": [0.5, 0.7]},
    )
    metrics = run.end_to_end(tally, [0.5])
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("end_to_end")
    # The cold first pass counts in the mean.
    assert metrics["wall_s"][0] == pytest.approx(1.233333333)
    assert metrics["ops_per_s"][0] == pytest.approx(6 / 3.7)
    assert metrics["op_ms_p50"][0] == pytest.approx(550)
    assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_names_match_benchmark_json():
    emitted = run.per_layer(tracing.Tracer(), 1, 0.1, 0.2)
    assert {name: unit for name, (_, unit) in emitted.items()} == _declared("per_layer")


# ---------------------------------------------------------------------------
# Inputs and fingerprint
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("generator", [wl.solve_targets, wl.grid_cells, wl.verify_plan])
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds_and_passes(generator):
    seeds = wl.default_seeds()
    assert generator(seeds["default"], 0) == generator(seeds["default"], 0)
    assert generator(seeds["default"], 0) != generator(seeds["held_out"], 0)
    assert generator(seeds["default"], 0) != generator(seeds["default"], 1)


def test_pool_matches_fingerprint():
    assert [list(x) for x in wl.pool_starts()] == FP["pool"]["starts"]
    assert all(wl.in_a(x) for x in wl.pool_starts())


def test_solve_targets_keep_half_the_orbits():
    targets = wl.solve_targets(wl.default_seeds()["default"], 0)
    assert len(targets) == len(wl.LAMBDAS) * len(wl.PS) * len(wl.SOLVE_EPS) * wl.STARTS_PER_CONFIG
    assert 2 * sum(t[-1] for t in targets) == len(targets)


def _reference_grid(name):
    path = wl.SRC / "bestprox" / "data" / name
    with open(path, encoding="ascii") as handle:
        rows = list(csv.reader(handle))
    return [[int(cell) for cell in row[1:]] for row in rows[1:]]


def test_fingerprint_grids_cross_check_the_reference_data():
    assert FP["grid"]["aposteriori"] == _reference_grid("table_aposteriori_reference.csv")
    published = _reference_grid("table_apriori_reference.csv")
    frozen = FP["grid"]["apriori"]
    # The literal predictor matches the p < 2 columns and sits a documented
    # +4 to +30 above the published p >= 2 columns.
    for j, p in enumerate(wl.PS):
        deltas = [row[j] - ref[j] for row, ref in zip(frozen, published)]
        if p < 2:
            assert deltas == [0] * len(deltas)
        else:
            assert all(4 <= d <= 30 for d in deltas)


def test_fingerprint_giveups_are_whole_targets():
    steps = FP["solve_steps"]
    assert len(steps) == len(wl.LAMBDAS) * len(wl.PS) * len(wl.SOLVE_EPS)
    for key, values in steps.items():
        assert len(values) == wl.POOL_SIZE
        assert all(v is None or v % 2 == 0 for v in values)
    assert FP["giveup_targets"] == sorted(k for k, v in steps.items() if None in v)
    assert sum(v.count(None) for v in steps.values()) == 1400
    assert FP["extra_cells"]["0.9/20"] == 5594


def test_every_cli_seed_has_a_fingerprinted_output():
    for suite in wl.SUITES:
        entry = FP["verify"][suite]
        assert sorted(int(s) for s in entry["by_seed"]) == list(wl.CLI_SEEDS)
        for output in entry["outputs"]:
            status = [line.split()[0] for line in output["lines"] if line[:4] in ("PASS", "FAIL")]
            assert output["exit_code"] == int("FAIL" in status)


# ---------------------------------------------------------------------------
# Reduced runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_reduced_pass_matches_fingerprint(bp, name):
    tally = run.Tally()
    make_pass = wl.build(name, bp, wl.default_seeds()["default"], FP, small=True)
    for index in range(2):
        run.run_pass(make_pass(index), tally)
    *_, warm_errors = run.execute(wl.warmup_op(name, bp, FP))
    assert tally.attempted > 0
    assert (tally.failed, tally.errors, warm_errors) == (0, [], [])


def test_traced_pass_reports_layers_and_restores_the_package(bp):
    originals = (bp.run_with_stop, bp.solver._advance, bp.norms.lp_norm)
    ops = wl.build("grid-mp", bp, wl.default_seeds()["default"], FP, small=True)(0)
    tracer = tracing.Tracer()
    replaced = tracing.install(bp, tracer)
    try:
        run.run_pass(ops, run.Tally(), between=tracer.flush)
    finally:
        tracing.restore(replaced)
    assert (bp.run_with_stop, bp.solver._advance, bp.norms.lp_norm) == originals
    metrics = run.per_layer(tracer, 1, 0.1, 0.2)
    assert metrics["norms.lp_norm.mp.calls"][0] > 0
    assert metrics["solver.step.mp.p2.us"][0] > 0
    assert metrics["oracle.column.p2.dps"][0] >= 60
    assert metrics["solver.useful_step_ratio"][0] == 1
    step_spans = sum(n for name, (n, _, _) in tracer.totals.items() if name.startswith("solver.step."))
    assert metrics["solver.steps.certified"][0] == step_spans


def test_result_line_has_the_contract_keys():
    line = json.loads(run.result_line(True, 3, 0, {"wall_s": (1.5, "s")}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"wall_s": {"value": 1.5, "unit": "s"}}


def test_run_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "solve-f64", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, 540)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared("end_to_end")
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["mpmath_backend"] and env["src_sha256"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-f64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
