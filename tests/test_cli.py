import re
import shlex
from pathlib import Path

import pytest

from bestprox import StopKind, cli, oracle, solver
from bestprox.cli import build_parser, main

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_benchmark_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--lambda", "0.5", "--p", "2",
            "--x0", "1000,8", "--criterion", "aposteriori", "--eps", "1e-2",
        )
        assert code == 0
        assert "stopped at even step: 30" in out

    def test_trivial_start(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--x0", "1,0", "--criterion", "aposteriori",
            "--eps", "1e-6",
        )
        assert code == 0
        assert "stopped at even step: 2" in out
        assert "approximation: (1, 0)" in out

    def test_apriori_criterion_with_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--p", "3", "--x0", "1000,8",
            "--criterion", "apriori", "--eps", "1e-4",
        )
        assert code == 0
        match = re.search(r"true error: ([0-9.e+-]+)", out)
        assert match and float(match.group(1)) < 1e-4

    @pytest.mark.parametrize("command", ["solve", "table"])
    def test_apriori_subnormal_eps_is_solved(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--criterion", "apriori", "--eps", "1e-310")
        assert code == 0 and "Traceback" not in err
        assert "1e-310" in out

    def test_trace_csv_format(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--x0", "1000,8", "--eps", "1e-2",
            "--out", str(path), "--format", "csv",
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "step,side,coord_0,coord_1,displacement,apriori,aposteriori"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "A"
        assert first[2] == "1000"
        # odd steps carry no budget columns
        odd = lines[2].split(",")
        assert odd[1] == "B" and odd[5] == "" and odd[6] == ""
        even = lines[3].split(",")
        assert even[1] == "A" and even[5] != "" and even[6] != ""
        # 17 significant digits round-trip
        assert float(lines[1].split(",")[4]) == pytest.approx(1500.5479832381238, abs=1e-9)

    def test_trace_csv_matches_golden_bytes(self, capsys, tmp_path):
        # every column of every row, odd-step displacements included
        path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--x0", "1000,8", "--eps", "1e-2",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        assert path.read_bytes() == (DATA / "solve_x0_1000_8_eps_1e-2.csv").read_bytes()

    @pytest.mark.parametrize("out", [False, True], ids=["without-out", "with-out"])
    def test_orbit_is_kept_only_for_the_out_trace(self, capsys, monkeypatch, tmp_path, out):
        # the final budgets read the displacements alone, so a solve that
        # writes no trace keeps only x0
        traces = []

        def recording(*args, **kwargs):
            result = solver.run_with_stop(*args, **kwargs)
            traces.append(result[2])
            return result

        monkeypatch.setattr(cli, "run_with_stop", recording)
        argv = ["solve", "--eps", "1e-2"] + (["--out", str(tmp_path / "trace.txt")] if out else [])
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0 and "stopped at even step: 30" in stdout
        assert len(traces[0].iterates) == (31 if out else 1)

    def test_overflowed_apriori_budget_is_named(self, capsys):
        # the a posteriori stop certifies, so the run succeeds, but its
        # a priori certificate at D = 1.5e308 overflows float64
        code, out, _ = run_cli(capsys, "solve", "--x0", "1e308,0")
        assert code == 0
        assert (
            "final budgets at step 1070: apriori: not finite at D=1.5e+308, "
            "aposteriori = 8.76006e-07" in out
        )

    def test_overflowed_budgets_in_the_trace_csv_are_named(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--x0", "1e308,0", "--format", "csv", "--out", str(path),
        )
        assert code == 0
        text = path.read_text()
        assert "inf" not in text
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert rows[2][5:] == ["not finite", "not finite"]
        even = [row for row in rows if int(row[0]) % 2 == 0 and row[0] != "0"]
        assert all(row[5] == "not finite" for row in even)
        # the a posteriori certificate comes back into range and certifies
        assert float(even[-1][6]) < 1e-6

    def test_csv_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(
                capsys, "solve", "--x0", "1000,8", "--eps", "1e-4",
                "--out", str(path), "--format", "csv",
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_budget_exhaustion_is_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--x0", "1000,8", "--eps", "1e-2", "--max-steps", "10",
        )
        assert code == 1
        assert "10" in err

    def test_stall_at_the_resolution_floor_is_exit_1(self, capsys):
        # gives up within a few hundred steps of its 10**6 default cap
        code, _, err = run_cli(
            capsys, "solve", "--lambda", "0.9", "--p", "2", "--eps", "1e-10"
        )
        assert code == 1
        assert "stalled" in err and "eps=1e-10" in err

    @pytest.mark.parametrize("fmt", ["csv", "markdown", "plain"])
    def test_format_without_out_is_exit_2_naming_format(self, capsys, fmt):
        # --format formats the --out trace; alone it would be ignored
        code, out, err = run_cli(capsys, "solve", "--format", fmt, "--eps", "1e-2")
        assert (code, out) == (2, "")
        assert "--format" in err and "--out" in err

    def test_start_outside_a_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--x0", "0,0", "--eps", "1e-2")
        assert code == 2
        assert "input error" in err

    def test_bad_eps_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--x0", "1000,8", "--eps", "-1")
        assert code == 2

    def test_bad_p_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--p", "1", "--x0", "1000,8")
        assert code == 2

    def test_infinite_p_is_exit_2_naming_p(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--p", "inf", "--x0", "1000,8")
        assert code == 2
        assert "p=inf" in err

    def test_reference_point_line(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--x0", "1000,8", "--eps", "1e-2")
        assert code == 0
        assert "reference point: (1, 0)\n" in out

    def test_wrong_dimension_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--x0", "1000,8,3")
        assert code == 2


@pytest.fixture(scope="module")
def published_grids():
    return {kind: oracle.reproduce_table(kind) for kind in StopKind}


class TestTable:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--criterion", "aposteriori", "--eps", "1e-2", "--p", "2",
        )
        assert code == 0
        assert "30" in out

    def test_compare_reference_aposteriori_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--criterion", "aposteriori", "--compare-paper",
            "--format", "csv",
        )
        assert code == 0
        assert "# computed" in out and "# reference" in out and "# delta" in out
        delta_block = out.split("# delta")[1]
        data_rows = [r for r in delta_block.strip().splitlines() if not r.startswith("eps")]
        for row in data_rows:
            assert all(int(cell) == 0 for cell in row.split(",")[1:])

    def test_compare_reference_apriori_reports_offset(self, capsys):
        # the literal step predictor exceeds the published grid on p >= 2
        # columns; the CLI must surface that as exit 1, with all three
        # grids emitted for inspection
        code, out, err = run_cli(
            capsys, "table", "--criterion", "apriori", "--compare-paper",
            "--format", "csv",
        )
        assert code == 1
        assert "# computed" in out and "# reference" in out and "# delta" in out
        assert "authoritative" in err

    @pytest.mark.parametrize("criterion", ["apriori", "aposteriori"])
    def test_start_outside_a_is_exit_2_naming_x0(self, capsys, criterion):
        code, _, err = run_cli(
            capsys, "table", "--criterion", criterion, "--x0", "0,0",
            "--eps", "1e-2", "--p", "2",
        )
        assert code == 2
        assert "x0=(0.0, 0.0) is not in A" in err

    def test_compare_requires_benchmark_grid(self, capsys):
        code, _, _ = run_cli(
            capsys, "table", "--criterion", "apriori", "--compare-paper",
            "--eps", "1e-3",
        )
        assert code == 2

    def test_off_grid_compare_is_refused_before_any_cell_runs(self, capsys, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a grid cell ran before the refusal")

        monkeypatch.setattr(oracle, "aposteriori_stop_working_precision", no_cell)
        code, out, err = run_cli(capsys, "table", "--compare-paper", "--lambda", "0.9")
        assert code == 2 and out == ""
        assert "--compare-paper requires the benchmark grid" in err

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--criterion", "apriori", "--format", "markdown",
        )
        assert code == 0
        assert out.count("|") > 10

    @pytest.mark.parametrize("compare", [False, True], ids=["alone", "compare-paper"])
    @pytest.mark.parametrize("fmt", ["csv", "markdown", "plain", None])
    @pytest.mark.parametrize("criterion", ["aposteriori", "apriori"])
    def test_grids_match_golden_bytes(
        self, capsys, monkeypatch, published_grids, criterion, fmt, compare
    ):
        # each published grid is computed once, and the table must ask for
        # it; no --format renders plain; only the a priori comparison
        # exceeds its tolerance, by the documented offset of the p >= 2 columns
        def computed(kind, **scenario):
            assert oracle.benchmark_scenario(kind, **scenario)
            return published_grids[kind]

        monkeypatch.setattr(oracle, "reproduce_table", computed)
        argv = ["table", "--criterion", criterion]
        argv += (["--format", fmt] if fmt else []) + (["--compare-paper"] if compare else [])
        code, out, err = run_cli(capsys, *argv)
        golden = DATA / f"table_{criterion}_{fmt or 'plain'}{'_compare' if compare else ''}.txt"
        assert out == golden.read_text(encoding="ascii")
        offset = compare and criterion == "apriori"
        assert code == (1 if offset else 0)
        assert err == (
            "deltas exceed +-4 for the apriori grid (computed counts are "
            "authoritative; see the delta block)\n" if offset else ""
        )

    def test_table_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--criterion", "apriori", "--format", "csv")
        _, second, _ = run_cli(capsys, "table", "--criterion", "apriori", "--format", "csv")
        assert first == second


class TestModulus:
    def test_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "modulus", "--p", "2", "--eps", "2")
        assert code == 0
        assert "delta_p(eps) for p=2, eps=2: 1" in out
        assert "C*eps^q: 0.5" in out
        assert "C = 0.125, q = 2" in out

    def test_cubic_case(self, capsys):
        code, out, _ = run_cli(capsys, "modulus", "--p", "3", "--eps", "1")
        assert code == 0
        assert "0.0435344" in out
        assert "q = 3" in out

    def test_bisection_case(self, capsys):
        code, out, _ = run_cli(capsys, "modulus", "--p", "1.5", "--eps", "0.5")
        assert code == 0
        assert "0.0158785" in out
        assert "0.015625" in out  # C*eps^q = (1/16) * 0.25

    def test_out_of_range_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "modulus", "--p", "2", "--eps", "3")
        assert code == 2
        code, _, _ = run_cli(capsys, "modulus", "--p", "0.9", "--eps", "1")
        assert code == 2
        code, _, err = run_cli(capsys, "modulus", "--p", "inf", "--eps", "1")
        assert code == 2
        assert "p=inf" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["solve", "--x0", "inf,0"], "x0=(inf, 0.0)"),
        (["table", "--criterion", "apriori", "--x0", "inf,0"], "x0=(inf, 0.0)"),
        (["table", "--criterion", "aposteriori", "--x0", "inf,0", "--p", "2", "--eps", "1e-2"],
         "x0=(inf, 0.0)"),
        (["solve", "--eps", "inf"], "eps=inf"),
        (["solve", "--eps", "inf", "--criterion", "apriori"], "eps=inf"),
        (["table", "--criterion", "apriori", "--eps", "inf"], "eps=inf"),
        (["table", "--criterion", "aposteriori", "--eps", "inf", "--p", "2"], "eps=inf"),
        # finite starts whose a priori prefactor overflows float64
        (["table", "--criterion", "apriori", "--x0", "1e308,0"], "D=1.5e+308"),
        (["solve", "--x0", "1e308,0", "--criterion", "apriori"], "D=1.5e+308"),
        # the a priori table still refuses the start that the a posteriori
        # table at the same p and eps now counts
        (["table", "--criterion", "apriori", "--x0", "1e308,0", "--p", "2", "--eps", "1e-2"],
         "D=1.5e+308"),
    ],
)
def test_non_finite_start_or_target_is_exit_2(capsys, argv, named):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert named in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--p", "1100"],
        ["solve", "--p", "1100", "--criterion", "apriori"],
        ["table", "--p", "1100", "--criterion", "apriori"],
        ["table", "--p", "1100", "--eps", "1e-2"],
        ["modulus", "--p", "1100", "--eps", "1"],
    ],
)
def test_p_beyond_float64_power_type_constant_is_exit_2(capsys, argv):
    # C = 1/(p 2^p) is below the float64 range: 2^1100 overflows
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "p=1100" in err


def test_a_posteriori_table_from_a_far_start_certifies(capsys):
    # the a posteriori stop reads no a priori bound, so a start whose a
    # priori prefactor overflows float64 is still counted
    code, out, _ = run_cli(capsys, "table", "--x0", "1e308,0", "--p", "2", "--eps", "1e-2")
    assert code == 0
    assert out.split() == ["computed:", "eps", "2", "1e-02", "1044"]


def test_a_posteriori_table_at_a_subnormal_eps_certifies(capsys):
    # the digit sizing takes log(eps) and never forms prefactor / eps
    code, out, _ = run_cli(capsys, "table", "--p", "2", "--eps", "5e-324")
    assert code == 0
    assert out.split()[-1] == "2166"


def test_a_posteriori_table_without_a_threshold_is_exit_2_naming_p(capsys):
    # C d = 1.1e-308 is below the float64 normal range, so the stop would
    # form no threshold and evaluate the certificate at every even step
    code, _, err = run_cli(capsys, "table", "--p", "1014", "--eps", "1e-2")
    assert code == 2
    assert "p=1014" in err


def test_a_posteriori_table_beyond_the_cap_is_refused_before_it_runs(capsys, monkeypatch):
    # at lam = 0.9999 the stop needs at least 7,283,664 steps, beyond the
    # working-precision cap of 10^6
    def no_run(*args, **kwargs):
        raise AssertionError("the cell ran before the refusal")

    monkeypatch.setattr(oracle, "run_with_stop", no_run)
    code, out, err = run_cli(capsys, "table", "--lambda", "0.9999", "--p", "20", "--eps", "1e-10")
    assert code == 1 and out == ""
    assert "needs at least 7283664 steps, cap is 1000000" in err


class TestVerify:
    def test_cyclic_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "cyclic", "--seed", "42")
        assert code == 0
        assert "FAIL" not in out
        assert "all properties passed" in out

    def test_corrupted_k_fails_with_named_property(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "cyclic", "--seed", "42",
            "--k-override", "0.05",
        )
        assert code == 1
        assert "FAIL" in out
        assert "contraction inequality" in out

    def test_tables_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "tables")
        assert code == 0
        assert "matches reference exactly" in out


@pytest.mark.parametrize("command", ["solve", "table"])
@pytest.mark.parametrize(
    "flag", [["--map", "example1"], ["--map", "moebius"], ["--seed", "3"]],
    ids=lambda flag: f"{flag[0][2:]}={flag[1]}",
)
def test_removed_flag_is_exit_2(capsys, command, flag):
    # one built-in map and no random draws: solve and table take neither flag
    with pytest.raises(SystemExit) as excinfo:
        main([command, *flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_table_takes_no_step_cap(capsys):
    # the working-precision cap is fixed; only solve takes --max-steps
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "--max-steps", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --max-steps 1" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("bestprox ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README.md CLI example rejected: {line}")


def test_readme_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["stopped_at"] == 30
    trace = namespace["trace"]
    assert namespace["approx"] == trace.iterates[-1]
    assert [b.step for b in trace.budgets] == list(range(2, 31, 2))
