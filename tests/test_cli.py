import contextlib
import io
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("flag", ["--eps", "--p"])
    def test_empty_list_is_exit_2_not_the_published_grid(self, capsys, flag):
        code, out, err = run_cli(capsys, "table", flag, "")
        assert code == 2 and out == ""
        assert "cannot parse number list ''" in err

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


@pytest.mark.parametrize("command", ["solve", "table"])
@pytest.mark.parametrize("criterion", ["apriori", "aposteriori"])
def test_k_whose_power_rounds_to_1_is_exit_2_naming_k_and_q(capsys, command, criterion):
    # at p = 20, k^(2/q) = k^0.1 rounds to 1: no certificate is finite, and
    # the run is refused before it prints anything
    code, out, err = run_cli(capsys, command, "--criterion", criterion,
                             "--lambda", "0.9999999999999999", "--p", "20", "--eps", "1e-2")
    assert code == 2 and out == ""
    assert "k=0.9999999999999999, q=20.0" in err


def test_echoed_inputs_keep_their_digits(capsys):
    # each input is printed with the fewest digits, at least the usual six
    # (none for an eps label), that read back as it; results keep six
    code, out, _ = run_cli(capsys, "table", "--p", "2,2.0000001", "--eps", "1.5e-2,2e-2,2.5e-2")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:]] == [
        "eps", "1.5e-02", "2e-02", "2.5e-02"
    ]
    assert out.splitlines()[1].split() == ["eps", "2", "2.0000001"]
    code, out, _ = run_cli(capsys, "solve", "--lambda", "0.50000001", "--p", "1.0000001",
                           "--x0", "1000.000001,8", "--eps", "1.25e-3")
    assert code == 0
    assert out.splitlines()[:3] == [
        "map: example1(lambda=0.50000001, p=1.0000001)",
        "start: x0 = (1000.000001, 8)",
        "criterion: aposteriori, eps = 0.00125",
    ]
    code, out, _ = run_cli(capsys, "modulus", "--p", "1.0000001", "--eps", "0.3")
    assert out.startswith("delta_p(eps) for p=1.0000001, eps=0.3: 1.12926e-09\n")


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


def test_a_table_refuses_a_later_cell_before_the_first_runs(capsys, monkeypatch):
    # the p = 2 cell would run; the p = 20 cell is refused before it does
    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran before the refusal")

    monkeypatch.setattr(oracle, "run_with_stop", no_run)
    code, out, err = run_cli(capsys, "table", "--lambda", "0.9999", "--p", "2,20", "--eps", "1e-10")
    assert code == 1 and out == ""
    assert "needs at least 7283664 steps" in err


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

    def test_corrupted_k_matches_golden_bytes(self, capsys):
        # every label and every FAIL detail of the cyclic suite, the moved
        # "max violation" and "max envelope excess" figures included
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "cyclic", "--seed", "42", "--k-override", "0.05",
        )
        assert code == 1
        assert out == (DATA / "verify_cyclic_seed42_k0.05.txt").read_text(encoding="ascii")

    @pytest.mark.parametrize("k_override, want", [(None, 0), ("0.05", 1)])
    def test_bounds_suite_matches_golden_bytes(self, capsys, k_override, want):
        # the bounds suite's soundness audits, proof chains and escalating
        # stops over every (lambda, p); under a corrupted k, every FAIL detail
        extra = ["--k-override", k_override] if k_override else []
        code, out, _ = run_cli(capsys, "verify", "--suite", "bounds", "--seed", "42", *extra)
        golden = DATA / f"verify_bounds_seed42{'_k' + k_override if k_override else ''}.txt"
        assert (code, out) == (want, golden.read_text(encoding="ascii"))

    def test_norms_suite_matches_golden_bytes(self, capsys):
        # every label and verdict of the norms suite, in order, the midpoint
        # check's 1e4 triples per p included
        code, out, _ = run_cli(capsys, "verify", "--suite", "norms", "--seed", "42")
        assert (code, out) == (0, (DATA / "verify_norms_seed42.txt").read_text(encoding="ascii"))

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


def _no_run(*args, **kwargs):
    raise AssertionError("the run started before the refusal")


_OUT_COMMANDS = pytest.mark.parametrize(
    "argv", [["solve", "--eps", "1e-2"], ["table", "--eps", "1e-2", "--p", "2"]],
    ids=["solve", "table"],
)


@_OUT_COMMANDS
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_exit_2_before_the_run(capsys, monkeypatch, tmp_path, argv, where):
    monkeypatch.setattr(cli, "run_with_stop", _no_run)
    monkeypatch.setattr(oracle, "reproduce_table", _no_run)
    path = tmp_path / "missing" / "out.txt" if where == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert f"--out {path}" in err


@_OUT_COMMANDS
def test_empty_out_is_exit_2_before_the_run(capsys, monkeypatch, argv):
    # an empty path is a bad --out, not a missing one
    monkeypatch.setattr(cli, "run_with_stop", _no_run)
    monkeypatch.setattr(oracle, "reproduce_table", _no_run)
    code, out, err = run_cli(capsys, *argv, "--out", "")
    assert (code, out) == (2, "")
    assert "--out" in err


@_OUT_COMMANDS
def test_failed_write_is_exit_2_naming_out(capsys, monkeypatch, tmp_path, argv):
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    path = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    # solve writes its trace before its summary, so neither prints anything
    assert (code, out) == (2, "")
    assert f"cannot write --out {path}: [Errno 13] Permission denied" in err


def test_failed_solve_leaves_an_existing_out_file_as_it_was(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("kept\n")
    code, _, _ = run_cli(capsys, "solve", "--eps", "1e-2", "--max-steps", "10", "--out", str(path))
    assert code == 1
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize("k", ["0", "1.5", "nan"])
def test_k_override_outside_the_unit_interval_is_exit_2_before_any_suite(
    capsys, monkeypatch, k
):
    monkeypatch.setattr(oracle, "norms_suite", _no_run)
    code, out, err = run_cli(capsys, "verify", "--k-override", k)
    assert (code, out) == (2, "")
    assert f"--k-override must lie in (0, 1), got {float(k)}" in err


@pytest.mark.parametrize("suite", ["norms", "tables"])
def test_k_override_of_a_suite_without_a_map_is_exit_2_before_any_suite(
    capsys, monkeypatch, suite
):
    monkeypatch.setattr(oracle, f"{suite}_suite", _no_run)
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--k-override", "0.5")
    assert (code, out) == (2, "")
    assert f"--k-override applies to the cyclic and bounds suites, not --suite {suite}" in err


def test_k_override_of_all_suites_reaches_the_cyclic_and_bounds_suites(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(oracle, "norms_suite", lambda seed: [])
    monkeypatch.setattr(oracle, "tables_suite", lambda: [])
    for name in ("cyclic", "bounds"):
        monkeypatch.setattr(oracle, f"{name}_suite",
                            lambda seed, k, name=name: seen.append((name, seed, k)) or [])
    code, _, _ = run_cli(capsys, "verify", "--seed", "3", "--k-override", "0.5")
    assert code == 0
    assert seen == [("cyclic", 3, 0.5), ("bounds", 3, 0.5)]


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


#: Edge-heavy CLI inputs (ROADMAP item 13), each list led by the CLI's
#: default, then lambda 5e-324, 1e-300 and 1 - 2^-53; p 1 + 2^-52, 1013 and
#: 1014; eps from 5e-324 to 1e300; the apex, one ulp inside A and 1e308.
LAMBDA_ULP, P_ULP = "0.9999999999999999", "1.0000000000000002"
CONTRACT_DRAWS = {
    "--lambda": ("0.5", "5e-324", "1e-300", LAMBDA_ULP),
    "--p": ("2", P_ULP, "1013", "1014"),
    "--eps": ("1e-6", "5e-324", "1e-300", "1e-10", "1e-2", "1", "1e300"),
    "--x0": ("1000,8", "1,0", "1.0000000000000002,0", "1e308,0"),
    "--criterion": ("aposteriori", "apriori"),
}
#: An input a refusal names: the value of lambda (as k), p (or q), eps or
#: x0 (or D = ||x0 - Tx0||, through which the start enters the a priori
#: bound).
NAMES_AN_INPUT = re.compile(r"\b(lambda|k|p|q|eps|x0|D)=")


def _known_defect(command, options):
    """The draws of CONTRACT_DRAWS, every combination of which was run, that
    meet a known defect, and are left out until it is mended:

    * a posteriori table cells that run past 2 s: at p = 1013 below
      eps = 1e-2 from a start off the apex, whose digits grow like
      p log10(1/eps); and at p = 1 + 2^-52 and eps <= 1e-300 (1.5 to 2.6 s);
    * a posteriori solves at lambda = 1 - 2^-53 and p 2 or 1 + 2^-52 from
      (1000, 8) or 1e308, which, but at eps = 1e300, run the float64 cap of
      10^6 steps, about 0.5 s each (ROADMAP item 3; pinned below).
    """
    if options["--criterion"] != "aposteriori":
        return False
    lam, p, eps, x0 = (options[name] for name in ("--lambda", "--p", "--eps", "--x0"))
    if command == "solve":
        return lam == LAMBDA_ULP and p in ("2", P_ULP) and x0 in ("1000,8", "1e308,0")
    return ((p == "1013" and float(eps) < 1e-2 and x0 != "1,0")
            or (p == P_ULP and float(eps) <= 1e-300))


@pytest.mark.parametrize("lam", CONTRACT_DRAWS["--lambda"])
def test_every_apex_table_at_p_1013_counts_2_or_is_refused_within_2_s(capsys, lam):
    # the apex start plans the floor digits, not those of h: at lam = 5e-324
    # and eps = 5e-324 h asked for 327,934 and the cell ran past 100 s
    for eps in CONTRACT_DRAWS["--eps"]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "table", "--lambda", lam, "--p", "1013",
                                 "--eps", eps, "--x0", "1,0")
        assert time.perf_counter() - start < 2.0, eps
        if code == 0:
            assert out.splitlines()[-1].split()[1:] == ["2"], out
        else:
            assert code in (1, 2) and out == "" and NAMES_AN_INPUT.search(err), err


@pytest.mark.parametrize("p", ["2", P_ULP])
def test_a_table_whose_excess_bound_lies_beyond_the_cap_is_refused_at_once(capsys, monkeypatch, p):
    # h exceeds the start's spread of 2e308 (7.7e566 at p = 2), but the stop
    # needs an excess g with g (1 + g/d)^q < h, so g < (h d^q)^(1/(q+1)),
    # 1.5e189 at p = 2, which lam = 1 - 2^-53 reaches only after about 2.5e18
    # steps; the cell used to run the working-precision cap for 19.6 s
    def no_run(*args, **kwargs):
        raise AssertionError("the cell ran before the refusal")

    monkeypatch.setattr(oracle, "run_with_stop", no_run)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "--lambda", LAMBDA_ULP, "--p", p,
                             "--eps", "1e300", "--x0", "1e308,0")
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == ""
    assert re.search(r"needs at least 2[45]\d{17} steps, cap is 1000000", err), err


@given(st.sampled_from(("solve", "table")),
       st.fixed_dictionaries({name: st.sampled_from(values)
                              for name, values in CONTRACT_DRAWS.items()}))
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
def test_solve_and_table_keep_the_contract(command, options):
    """Every call exits 0, 1 or 2 with no exception escaping, within 2 s;
    an exit 2 prints nothing to stdout and names an input on stderr.  Exit 0
    on a true error below eps is left to ROADMAP items 3 and 4(c), which
    remove the stops that break it."""
    assume(not _known_defect(command, options))
    argv = [command, *(part for item in options.items() for part in item)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - start
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and NAMES_AN_INPUT.search(err.getvalue()), err.getvalue()
    assert seconds <= 2.0, f"{shlex.join(argv)} took {seconds:.2f} s"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a float64 run whose screen bound "
                   "lies below the spacing at d is to be refused before its first step")
def test_a_solve_that_cannot_certify_does_not_run_the_step_cap(capsys):
    code, out, err = run_cli(capsys, "solve", "--lambda", LAMBDA_ULP, "--p", "3", "--eps", "1e-2")
    assert code == 1 and out == ""
    assert "within 1000000 steps" not in err
