import os
import subprocess
import sys
import textwrap

import pytest

import zeroone.cli
import zeroone.sampler
from zeroone import fileio
from zeroone.cells import Table
from zeroone.cli import FAMILIES, build_model, main, make_parser, resolve_moves
from zeroone.graver import graver_basis, square_free_graver
from zeroone.models import build_two_way_independence
from zeroone.movegen import (
    basic_moves_two_way,
    degree2_threeway_patterns,
    df1_loops,
    loops_degree_r,
    ntfi_333_moves,
    ntfi_basic_moves,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGraver:
    def test_histogram_output(self, capsys):
        code, out, _ = run(capsys, "graver", "--model", "two-way-indep", "--dims", "3,3")
        assert code == 0
        assert "moves: 15" in out and "degree 2: 9" in out and "degree 3: 6" in out

    def test_square_free_direct(self, capsys):
        code, out, _ = run(
            capsys,
            "graver", "--model", "complete-indep", "--dims", "2,2,3",
            "--square-free", "--max-degree", "3",
        )
        assert code == 0
        assert "degree 2: 33" in out and "degree 3: 48" in out

    def test_ntfi_444_square_free_degree_two(self, capsys):
        # 5^48 keys overflow any radix code; no two 2-sets share all line sums
        code, out, _ = run(
            capsys,
            "graver", "--model", "ntfi", "--dims", "4", "--square-free", "--max-degree", "2",
        )
        assert code == 0
        assert out.splitlines() == ["moves: 0"]

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "graver", "--model", "ntfi", "--dims", "3", "--budget", "50")
        assert code == 3
        assert "budget" in err

    def test_budget_message_says_what_ran_out(self, capsys):
        code, out, err = run(
            capsys, "graver", "--model", "complete-indep", "--dims", "2,2,3", "--budget", "100",
        )
        assert code == 3 and out == ""
        assert "popped 100 candidates" in err and "max_candidates=100" in err
        assert "members so far" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_non_positive_budget_exits_two(self, capsys, budget):
        code, out, err = run(capsys, "graver", "--model", "ntfi", "--dims", "3", "--budget", budget)
        assert code == 2 and "error" in err and "budget exhausted" not in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["graver", "--square-free", "--max-degree", "-2"],
        ["connect", "--moves", "square-free-graver", "--max-degree", "0"],
    ], ids=["graver", "connect"])
    def test_non_positive_max_degree_exits_two(self, capsys, tmp_path, argv):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
        code, out, err = run(capsys, argv[0], "--model", "two-way-indep", "--dims", "3,3",
                             *argv[1:], *(["--from-table", str(x)] if argv[0] == "connect" else []))
        assert code == 2 and "degrees must be positive" in err and out == ""

    def test_max_degree_without_square_free_exits_two(self, capsys):
        # the full Graver basis of 3x3 has 6 moves of degree 3; no bound is applied to it
        code, out, err = run(capsys, "graver", "--model", "two-way-indep", "--dims", "3,3",
                             "--max-degree", "2")
        assert code == 2 and "--max-degree needs --square-free" in err and out == ""

    def test_prune_over_pair_budget_exits_three(self, capsys):
        # 8,394 square-free moves: 35M pairs exceed the default 10^7 before any is screened
        code, out, err = run(
            capsys,
            "graver", "--model", "complete-indep", "--dims", "2,3,4",
            "--square-free", "--max-degree", "6", "--prune",
        )
        assert code == 3 and "budget exhausted" in err and "max_pairs" in err and out == ""

    def test_move_file_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "b.txt"
        code, _, _ = run(
            capsys,
            "graver", "--model", "two-way-indep", "--dims", "2,3", "--out", str(out_file),
        )
        assert code == 0
        rows = fileio.read_matrix(out_file)
        assert rows == graver_basis(build_two_way_independence(2, 3)).matrix.tolist()
        assert len(rows) == 3


    def test_lawrence_lift(self, capsys):
        code, out, _ = run(capsys, "graver", "--model", "two-way-indep", "--dims", "2,3",
                           "--lawrence")
        assert code == 0 and out.splitlines() == ["moves: 3", "degree 4: 3"]


class TestConnect:
    def test_connected_exit_zero(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
        code, out, _ = run(
            capsys,
            "connect", "--model", "two-way-indep", "--dims", "3,3",
            "--moves", "basic", "--from-table", str(x),
        )
        assert code == 0
        assert "fiber size: 6" in out and "components: 1" in out

    def test_disconnected_exit_one(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        fileio.write_vector(t, (1,) * 27)
        # degree-4 swaps alone cannot connect the order-3 Latin-square fiber
        code, out, _ = run(
            capsys,
            "connect", "--model", "ntfi", "--dims", "3",
            "--moves", "basic", "--t", str(t),
        )
        assert code == 1
        assert "components: 12" in out

    @pytest.mark.parametrize(
        "n,moves,components",
        [(4, "basic", 1), (4, "deg8", 145), (4, "basic+deg8", 1), (3, "basic", 12), (3, "deg6", 1)],
        ids=["4-basic", "4-deg8", "4-basic+deg8", "3-basic", "3-deg6"],
    )
    def test_latin_square_counts(self, capsys, tmp_path, monkeypatch, deg8_444, n, moves,
                                 components):
        # README's Latin-square fibers: all line sums one
        monkeypatch.setattr(zeroone.cli, "degree8_moves_4x4", lambda: deg8_444)
        t = tmp_path / "t.txt"
        fileio.write_vector(t, (1,) * (3 * n * n))
        code, out, _ = run(capsys, "connect", "--model", "ntfi", "--dims", str(n),
                           "--moves", moves, "--t", str(t))
        size = {3: 12, 4: 576}[n]
        assert out.splitlines()[:2] == [f"fiber size: {size}", f"components: {components}"]
        assert code == (0 if components == 1 else 1)

    def test_out_writes_the_fiber(self, capsys, tmp_path):
        t, fib = tmp_path / "t.txt", tmp_path / "fiber.txt"
        fileio.write_vector(t, (1,) * 27)
        code, out, _ = run(capsys, "connect", "--model", "ntfi", "--dims", "3",
                           "--moves", "deg6", "--t", str(t), "--out", str(fib))
        rows = fileio.read_matrix(fib)
        assert code == 0 and len(rows) == 12 and len({tuple(r) for r in rows}) == 12
        assert out.splitlines()[2] == "component 0 (size 12): " + " ".join(map(str, rows[0]))
        assert all(sum(r) == 9 and set(r) <= {0, 1} for r in rows)

    def test_wide_model(self, capsys, tmp_path):
        # 1,000 cells, beyond the depth of a recursive search
        swap = [0] * 1000
        swap[0], swap[499], swap[500], swap[999] = 1, -1, -1, 1
        moves, t = tmp_path / "moves.txt", tmp_path / "t.txt"
        fileio.write_matrix(moves, [swap])
        fileio.write_vector(t, (1, 1) + tuple(int(j in (0, 499)) for j in range(500)))
        code, out, _ = run(
            capsys,
            "connect", "--model", "two-way-indep", "--dims", "2,500",
            "--moves", str(moves), "--t", str(t),
        )
        assert code == 0
        assert "fiber size: 2" in out and "components: 1" in out

    # A v wraps to 0 in int64; an entry beyond int64
    @pytest.mark.parametrize("entry", [-2**63, 2**63])
    def test_move_too_large_exits_two(self, capsys, tmp_path, entry):
        moves, x = tmp_path / "moves.txt", tmp_path / "x.txt"
        fileio.write_matrix(moves, [[entry] * 4])
        fileio.write_table(x, Table((1, 0, 0, 1)))
        code, out, err = run(
            capsys,
            "connect", "--model", "two-way-indep", "--dims", "2,2",
            "--moves", str(moves), "--from-table", str(x),
        )
        assert code == 2 and "64 bits" in err and out == ""

    # a cell outside the 2 x 2 box, and a cell of three indices
    @pytest.mark.parametrize("mask", [[(0, 0), (7, 7)], [(0, 0, 0)]])
    def test_mask_cell_outside_dims_exits_two(self, capsys, tmp_path, mask):
        zeros, t = tmp_path / "zeros.txt", tmp_path / "t.txt"
        fileio.write_mask(zeros, mask)
        fileio.write_vector(t, (1, 1, 1, 1))
        code, out, err = run(
            capsys,
            "connect", "--model", "quasi-indep", "--dims", "2,2", "--zeros", str(zeros),
            "--moves", "df1", "--t", str(t),
        )
        assert code == 2 and "outside dims" in err and out == ""

    @pytest.mark.parametrize("moves,code,components", [("basic", 0, 328), ("loop-3", 1, 468)])
    def test_sweep_output(self, capsys, moves, code, components):
        # the 3-cycles alone miss the 2x2 swaps: 468 components over 328 fibers
        got = run(capsys, "connect", "--model", "two-way-indep", "--dims", "3,3",
                  "--moves", moves, "--sweep")
        assert got == (code, f"tables: 512\nfibers: 328\ncomponents: {components}\n", "")

    def test_cap_exit_three(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        fileio.write_vector(t, (1,) * 8)
        code, _, _ = run(
            capsys,
            "connect", "--model", "two-way-indep", "--dims", "4,4",
            "--moves", "basic", "--t", str(t), "--cap", "3",
        )
        assert code == 3


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("cmd", ["connect", "connect-sweep", "check", "check-sweep", "sample"])
def test_non_positive_cap_exits_two(capsys, tmp_path, cmd, cap):
    x = tmp_path / "x.txt"
    fileio.write_table(x, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
    model = ("--model", "two-way-indep", "--dims", "3,3", "--moves", "basic", "--cap", cap)
    argv = {
        "connect": ("connect", *model, "--from-table", str(x)),
        "connect-sweep": ("connect", *model, "--sweep"),
        "check": ("check", *model, "--condition", "strong", "--from-table", str(x)),
        "check-sweep": ("check", *model, "--condition", "strong", "--sweep"),
        "sample": ("sample", *model, "--start", str(x), "--steps", "100", "--seed", "1",
                   "--verify-exact"),
    }[cmd]
    code, out, err = run(capsys, *argv)
    assert code == 2 and "cap must be" in err and "budget exhausted" not in err
    assert out == ""  # refused before any result is printed


def test_sweep_cap_of_one_table_exits_two(capsys):
    # no model has fewer than 2^1 tables
    code, _, err = run(capsys, "check", "--model", "two-way-indep", "--dims", "3,3",
                       "--moves", "basic", "--cap", "1", "--condition", "strong", "--sweep")
    assert code == 2 and "at least 2" in err


# the sweeps of --sweep, each as the subcommand and its options
SWEEPS = {
    "distance-reducing": ("check", "--condition", "distance-reducing"),
    "strong": ("check", "--condition", "strong"),
    "connect": ("connect",),
}


class TestCheck:
    def test_distance_reducing_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--model", "two-way-indep", "--dims", "2,3",
            "--condition", "distance-reducing", "--moves", "basic", "--sweep", "--strong",
        )
        assert code == 0
        assert "distance reducing" in out

    @pytest.mark.parametrize(
        "flags,code,stdout",
        [
            ((), 0, "distance reducing on every fiber\n"),
            (("--strong",), 0, "distance reducing on every fiber\n"),
            (("--half",), 1, "fails on key (0, 1, 1, 0, 1, 1, 0)\n"),
            (("--half", "--strong"), 1, "fails on key (0, 1, 1, 0, 1, 1, 0)\n"),
        ],
        ids=["weak", "strong", "half-weak", "half-strong"],
    )
    def test_distance_reducing_sweep_output(self, capsys, tmp_path, flags, code, stdout):
        # every other square-free move of degree <= 3 leaves a fiber without
        # a reducing move; the pinned output is the per-fiber loop's
        moves = ["--moves", "square-free-graver", "--max-degree", "3"]
        if "--half" in flags:
            half = tmp_path / "half.txt"
            b = square_free_graver(build_two_way_independence(3, 4), 3)
            fileio.write_matrix(half, b.matrix[::2].tolist())
            moves = ["--moves", str(half)]
        got = run(
            capsys,
            "check", "--model", "two-way-indep", "--dims", "3,4", "--condition",
            "distance-reducing", "--sweep", *moves, *(f for f in flags if f != "--half"),
        )
        assert got == (code, stdout, "")

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_sweep_cap_exit_three(self, capsys, sweep):
        # 2^8 tables exceed a budget of 100; 2^36 exceed the default
        for dims, cap in (("2,4", ("--cap", "100")), ("6,6", ())):
            code, _, err = run(
                capsys,
                *SWEEPS[sweep], "--model", "two-way-indep", "--dims", dims,
                "--moves", "basic", "--sweep", *cap,
            )
            assert code == 3 and "2^" in err

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_sweep_cap_before_moves(self, capsys, monkeypatch, sweep):
        # a refused sweep resolves no moves: 2^300 and 2^36 tables
        def resolve(*args):
            raise AssertionError("moves resolved before the sweep cap")

        monkeypatch.setattr(zeroone.cli, "resolve_moves", resolve)
        for dims, moves in (("2,150", "basic"), ("6,6", "loops")):
            code, _, err = run(
                capsys,
                *SWEEPS[sweep], "--model", "two-way-indep", "--dims", dims,
                "--moves", moves, "--sweep",
            )
            assert code == 3 and "2^" in err

    @pytest.mark.parametrize("argv,message", [
        (("check", "--condition", "generalized", "--max-degree", "2"),
         "--sweep does not apply to --condition generalized"),
        (("check", "--condition", "strong", "--t", "t.txt"), "takes no --t or --from-table"),
        (("check", "--condition", "distance-reducing", "--from-table", "x.txt"),
         "takes no --t or --from-table"),
        (("connect", "--t", "t.txt"), "connect --sweep covers every fiber"),
        (("connect", "--from-table", "x.txt"), "takes no --t or --from-table"),
        (("connect", "--out", "fiber.txt"), "takes no --out"),
    ], ids=["generalized", "t", "from-table", "connect-t", "connect-from-table", "connect-out"])
    def test_sweep_refuses_what_it_would_ignore(self, capsys, argv, message):
        # refused before the model is built or a file is read or written
        code, out, err = run(capsys, argv[0], "--model", "two-way-indep", "--dims", "2,3",
                             "--moves", "basic", "--sweep", *argv[1:])
        assert code == 2 and message in err and out == ""

    @pytest.mark.parametrize("argv,message", [
        (("generalized", "--t", "/nonexistent.txt"), "check --t does not apply"),
        (("generalized", "--from-table", "/nonexistent.txt"), "check --from-table does not apply"),
        (("generalized", "--strong"), "check --strong does not apply"),
        (("strong", "--sweep", "--strong"), "--condition strong"),
        (("weak", "--sweep", "--strong"), "--condition weak"),
        (("weak", "--t", "/nonexistent.txt", "--strong"), "--strong does not apply"),
    ], ids=["generalized-t", "generalized-from-table", "generalized-strong", "strong-strong",
            "weak-strong", "weak-strong-t"])
    def test_refuses_options_its_condition_ignores(self, capsys, monkeypatch, argv, message):
        # refused before the model is built or a file is read
        def build(args):
            raise AssertionError("model built before the refusal")

        monkeypatch.setattr(zeroone.cli, "build_model", build)
        code, out, err = run(capsys, "check", "--model", "complete-indep", "--dims", "2,2,2",
                             "--moves", "deg2-patterns", "--max-degree", "2",
                             "--condition", *argv)
        assert code == 2 and message in err and out == ""

    def test_generalized(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--model", "complete-indep", "--dims", "2,2,2",
            "--condition", "generalized", "--moves", "deg2-patterns", "--max-degree", "2",
        )
        assert code == 0

    def test_generalized_uncovered_move(self, capsys, tmp_path):
        zeros = tmp_path / "zeros.txt"
        fileio.write_mask(zeros, [(i, i) for i in range(4)])
        code, out, _ = run(
            capsys,
            "check", "--model", "quasi-indep", "--dims", "4,4", "--zeros", str(zeros),
            "--condition", "generalized", "--moves", "df1", "--max-degree", "4",
        )
        assert code == 1 and out == "uncovered move: 0 1 -1 1 -1 0 0 -1 1 -1 1 0\n"

    @pytest.mark.parametrize("condition", ["strong", "weak"])
    @pytest.mark.parametrize(
        "argv,code,stdout",
        [
            (("quasi-indep", "3,3", "--zeros", "z3.txt", "--moves", "df1", "--sweep"), 1,
             "no {} crossing for a pair in key (1, 1, 1, 1, 1, 1)\n"),
            (("quasi-indep", "4,4", "--zeros", "z4.txt", "--moves", "df1", "--sweep"), 1,
             "no {} crossing for a pair in key (0, 1, 1, 1, 0, 1, 1, 1)\n"),
            (("many-facet-rasch", "2,2,3", "--moves", "square-free-graver", "--max-degree", "3",
              "--sweep"), 1, "no {} crossing for a pair in key (0, 0, 0, 0, 1, 0, 0)\n"),
            (("two-way-indep", "3,4", "--moves", "basic", "--sweep"), 0,
             "{} crossing pattern exists for every pair\n"),
            (("quasi-indep", "3,3", "--zeros", "z3.txt", "--moves", "df1", "--from-table", "x.txt"),
             1, "pair without crossing pattern:\n0 1 1 0 0 1\n1 0 0 1 1 0\n"),
            (("two-way-indep", "3,3", "--moves", "basic", "--from-table", "x9.txt"), 0,
             "{} crossing pattern exists for every pair\n"),
        ],
        ids=["quasi-3x3-sweep", "quasi-4x4-sweep", "rating-2x2x3-sweep", "two-way-3x4-sweep",
             "quasi-3x3-fiber", "two-way-3x3-fiber"],
    )
    def test_crossing_output(self, capsys, tmp_path, monkeypatch, condition, argv, code, stdout):
        # the verdicts and first failing keys of the per-pair loop the kernel replaced
        monkeypatch.chdir(tmp_path)
        fileio.write_mask("z3.txt", [(i, i) for i in range(3)])
        fileio.write_mask("z4.txt", [(i, i) for i in range(4)])
        fileio.write_table("x.txt", Table((1, 0, 0, 1, 1, 0)))
        fileio.write_table("x9.txt", Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
        model, dims, *rest = argv
        got = run(capsys, "check", "--model", model, "--dims", dims, "--condition", condition,
                  *rest)
        assert got == (code, stdout.format(condition), "")

    @pytest.mark.parametrize(
        "moves,code,stdout",
        [
            ("basic", 0, "distance reducing on this fiber\n"),
            ("loop-3", 1, "counterexample pair:\n0 0 1 0 1 0 1 0 0\n0 0 1 1 0 0 0 1 0\n"),
        ],
    )
    def test_distance_reducing_fiber_output(self, capsys, tmp_path, moves, code, stdout):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
        got = run(
            capsys,
            "check", "--model", "two-way-indep", "--dims", "3,3", "--condition",
            "distance-reducing", "--moves", moves, "--from-table", str(x),
        )
        assert got == (code, stdout, "")

    def test_strong_on_single_fiber(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
        code, out, _ = run(
            capsys,
            "check", "--model", "two-way-indep", "--dims", "3,3",
            "--condition", "strong", "--moves", "basic", "--from-table", str(x),
        )
        assert code == 0


class TestSample:
    def test_deterministic_output(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
        args = (
            "sample", "--model", "two-way-indep", "--dims", "3,3",
            "--moves", "basic", "--start", str(x),
            "--steps", "2000", "--seed", "7",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "p_value:" in out1

    def test_seed_required(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 1)))
        with pytest.raises(SystemExit) as exc:
            main([
                "sample", "--model", "two-way-indep", "--dims", "2,2",
                "--moves", "basic", "--start", str(x), "--steps", "10",
            ])
        assert exc.value.code == 2

    def test_verify_exact(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
        code, out, _ = run(
            capsys,
            "sample", "--model", "two-way-indep", "--dims", "3,3",
            "--moves", "basic", "--start", str(x),
            "--steps", "20000", "--seed", "11", "--thinning", "5",
            "--stat", "linear:0,1,3,2,7,1,5,0,4", "--verify-exact",
        )
        assert code == 0
        assert "verify-exact: ok" in out

    def test_verify_exact_false_fail_rate(self, capsys, tmp_path):
        # an unbiased walk (mean p-hat 0.3335 against the exact 1/3 over seeds
        # 0-99) whose samples are correlated: against the binomial error the
        # check failed on 15 of these 40 seeds, against batch means on none
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
        fails = 0
        for seed in range(40):
            code, out, _ = run(
                capsys,
                "sample", "--model", "two-way-indep", "--dims", "3,3",
                "--moves", "basic", "--start", str(x),
                "--steps", "20000", "--seed", str(seed),
                "--stat", "linear:0,1,3,2,7,1,5,0,4", "--verify-exact",
            )
            assert code in (0, 1) and "exact_p: 0.333333  se: " in out
            fails += "verify-exact: FAIL" in out
        assert fails <= 2

    def test_verify_exact_fails_on_a_walk_that_cannot_reach_the_fiber(self, capsys, tmp_path):
        # one swap reaches 2 of the 6 permutation tables
        x, moves = tmp_path / "x.txt", tmp_path / "moves.txt"
        fileio.write_table(x, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)))
        fileio.write_matrix(moves, [(1, -1, 0, -1, 1, 0, 0, 0, 0)])
        code, out, _ = run(
            capsys,
            "sample", "--model", "two-way-indep", "--dims", "3,3",
            "--moves", str(moves), "--start", str(x), "--steps", "20000", "--seed", "0",
            "--stat", "linear:0,1,3,2,7,1,5,0,4", "--verify-exact",
        )
        assert code == 1 and "verify-exact: FAIL" in out

    def test_verify_exact_counts_ties(self, capsys, tmp_path):
        # the chi-square values of this fiber are 8.75 and 10.5 in exact
        # arithmetic; the floating-point 8.75s differ in their last bits
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0)))
        code, out, _ = run(
            capsys,
            "sample", "--model", "two-way-indep", "--dims", "4,4",
            "--moves", "basic", "--start", str(x),
            "--steps", "2000", "--seed", "202", "--verify-exact",
        )
        assert code == 0
        assert "p_value: 1.000000" in out and "exact_p: 1.000000" in out

    def test_trace_is_one_line_per_sample(self, capsys, tmp_path, monkeypatch):
        runs, real = [], zeroone.cli.exact_test

        def recording(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(zeroone.cli, "exact_test", recording)
        x, trace = tmp_path / "x.txt", tmp_path / "trace.txt"
        fileio.write_table(x, Table((0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0)))
        code, out, _ = run(
            capsys,
            "sample", "--model", "two-way-indep", "--dims", "4,4",
            "--moves", "basic", "--start", str(x), "--stat", "chi2-ipf",
            "--steps", "70000", "--seed", "202", "--trace", str(trace),
        )
        assert code == 0 and f"wrote {trace}" in out
        stats = runs[0].trajectory_stats
        assert len(stats) == 70000 and len(set(stats)) > 1
        assert trace.read_text() == "".join(f"{s:.10g}\n" for s in stats)

    def test_trace_keeps_the_sign_of_zero(self):
        assert zeroone.cli._trace_text((0.0, -0.0, 0.0, 1.5, -0.0)) == "0\n-0\n0\n1.5\n-0\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ("--steps", "10", "--thinning", "0"),
            ("--steps", "10", "--thinning", "-1"),
            ("--steps", "0"),
            ("--steps", "-5"),
            ("--steps", "10", "--burn-in", "-3"),
            ("--steps", "0", "--verify-exact"),
        ],
        ids=["thinning-0", "thinning-negative", "steps-0", "steps-negative",
             "burn-in-negative", "steps-0-verify-exact"],
    )
    def test_invalid_walk_length_exits_two(self, capsys, tmp_path, extra):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 1)))
        code, out, err = run(capsys, "sample", "--model", "two-way-indep", "--dims", "2,2",
                             "--moves", "basic", "--start", str(x), "--seed", "1", *extra)
        assert code == 2 and "error" in err and "p_value" not in out

    def test_negative_seed_exits_two(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 1)))
        code, out, err = run(capsys, "sample", "--model", "two-way-indep", "--dims", "2,2",
                             "--moves", "basic", "--start", str(x), "--steps", "10",
                             "--seed", "-1")
        assert code == 2 and "seed must be non-negative" in err and out == ""


class TestLatin:
    def test_count_builds_move_set_once(self, capsys, monkeypatch):
        built, real = [], zeroone.sampler.latin_move_set

        def counting(n):
            built.append(n)
            return real(n)

        monkeypatch.setattr(zeroone.sampler, "latin_move_set", counting)
        monkeypatch.setattr(zeroone.cli, "latin_move_set", counting)
        code, out, _ = run(capsys, "latin", "3", "--steps", "300", "--seed", "4", "--count", "2")
        assert code == 0 and built == [3]
        _, second = out.strip().split("\n\n")
        _, single, _ = run(capsys, "latin", "3", "--steps", "300", "--seed", "5")
        assert second.strip() == single.strip()

    def test_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "latin", "3", "--steps", "300", "--seed", "4")
        code2, out2, _ = run(capsys, "latin", "3", "--steps", "300", "--seed", "4")
        assert code1 == code2 == 0 and out1 == out2

    def test_square_is_latin(self, capsys):
        code, out, _ = run(capsys, "latin", "4", "--steps", "500", "--seed", "2")
        assert code == 0
        rows = [[int(v) for v in line.split()] for line in out.strip().splitlines()]
        for row in rows:
            assert sorted(row) == [1, 2, 3, 4]
        for col in zip(*rows):
            assert sorted(col) == [1, 2, 3, 4]

    def test_zero_one_cells(self, capsys):
        code, out, _ = run(capsys, "latin", "3", "--seed", "1", "--zero-one")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 4 and lines[3].startswith("cells: ")
        cells = [int(v) for v in lines[3].split()[1:]]
        assert len(cells) == 27 and sum(cells) == 9
        # cell (i, j, k): symbol k + 1 at row i, column j
        symbols = [[int(v) for v in line.split()] for line in lines[:3]]
        assert cells == [int(symbols[i][j] == k + 1)
                         for i in range(3) for j in range(3) for k in range(3)]

    def test_negative_steps_exit_two(self, capsys):
        code, out, err = run(capsys, "latin", "3", "--steps", "-2", "--seed", "1")
        assert code == 2 and "error" in err and out == ""

    def test_negative_seed_exits_two(self, capsys):
        code, out, err = run(capsys, "latin", "3", "--steps", "10", "--seed", "-1")
        assert code == 2 and "seed must be non-negative" in err and out == ""

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_count_exits_two_before_the_build(self, capsys, monkeypatch, count):
        def refuse(n):
            raise AssertionError("move set built")

        monkeypatch.setattr(zeroone.cli, "latin_move_set", refuse)
        code, out, err = run(capsys, "latin", "3", "--seed", "1", "--count", count)
        assert code == 2 and "count must be positive" in err and out == ""


def test_package_imports_neither_scipy_nor_sympy():
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        import zeroone
        for mod in pkgutil.iter_modules(zeroone.__path__):
            importlib.import_module("zeroone." + mod.name)
        print(" ".join(m for m in sys.modules if m.split(".")[0] in ("zeroone", "scipy", "sympy")))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    loaded = out.stdout.split()
    assert {"zeroone.cli", "zeroone.sampler"} <= set(loaded)
    assert [m for m in loaded if m.split(".")[0] != "zeroone"] == []


class TestUsage:
    @pytest.mark.parametrize("dims", ["2,5", "2,2"])
    def test_ntfi_takes_one_dim(self, capsys, dims):
        code, out, err = run(capsys, "graver", "--model", "ntfi", "--dims", dims)
        assert code == 2 and "one value" in err and out == ""

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_model_args(self, capsys):
        code, _, err = run(capsys, "graver", "--model", "two-way-indep")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("two-way-indep", "--dims", "2,x"), "bad dims '2,x'"),
            (("quasi-indep", "--dims", "3,3"), "quasi-indep needs --zeros"),
            (("complete-indep",), "complete-indep needs --dims"),
            (("many-facet-rasch",), "many-facet-rasch needs --dims"),
        ],
        ids=["bad-dims", "quasi-without-zeros", "complete-without-dims", "rasch-without-dims"],
    )
    def test_model_usage_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, "graver", "--model", *argv)
        assert code == 2 and message in err and out == ""

    def test_unknown_statistic_exits_two(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 1)))
        code, out, err = run(capsys, "sample", "--model", "two-way-indep", "--dims", "2,2",
                             "--moves", "basic", "--start", str(x), "--steps", "10",
                             "--seed", "1", "--stat", "foo")
        assert code == 2 and "unknown statistic 'foo'" in err and out == ""

    def test_moves_help_names_every_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["connect", "--help"])
        text = "".join(capsys.readouterr().out.split())  # argparse wraps the help
        assert exc.value.code == 0 and ",".join(FAMILIES) + ",loop-<r>" in text


# --moves name, model (--model, --dims), the generator the name stands for
FAMILY_CASES = [
    ("basic", ("two-way-indep", "3,4"), lambda cfg, deg8: basic_moves_two_way(3, 4)),
    ("basic", ("ntfi", "3"), lambda cfg, deg8: ntfi_basic_moves(3)),
    ("loops", ("two-way-indep", "3,4"),
     lambda cfg, deg8: basic_moves_two_way(3, 4).union(loops_degree_r(3, 4, 3))),
    ("loop-3", ("two-way-indep", "3,4"), lambda cfg, deg8: loops_degree_r(3, 4, 3)),
    ("df1", ("quasi-indep", "4,4"), lambda cfg, deg8: df1_loops(cfg.cell_space)),
    ("deg2-patterns", ("complete-indep", "2,2,3"),
     lambda cfg, deg8: degree2_threeway_patterns((2, 2, 3))),
    *[(level, ("ntfi", "3"), lambda cfg, deg8, level=level: ntfi_333_moves(level))
      for level in ("deg6", "deg9", "basic+deg6", "deg6+deg9", "basic+deg6+deg9")],
    ("deg8", ("ntfi", "4"), lambda cfg, deg8: deg8),
    ("basic+deg8", ("ntfi", "4"), lambda cfg, deg8: ntfi_basic_moves(4).union(deg8)),
    ("square-free-graver", ("complete-indep", "2,2,3"),
     lambda cfg, deg8: square_free_graver(cfg, 3)),
    ("graver", ("two-way-indep", "3,3"), lambda cfg, deg8: graver_basis(cfg)),
]


class TestResolveMoves:
    """Each --moves name gives its generator's vectors, bound to the CLI's model."""

    @pytest.mark.parametrize(
        "spec,model,direct", FAMILY_CASES,
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_family(self, spec, model, direct, tmp_path, monkeypatch, deg8_444):
        # the degree-8 orbit comes from the shared fixture, not a fresh build
        monkeypatch.setattr(zeroone.cli, "degree8_moves_4x4", lambda: deg8_444)
        monkeypatch.setattr(zeroone.sampler, "degree8_moves_4x4", lambda: deg8_444)
        args = self.parse(tmp_path, model, spec)
        cfg = build_model(args)
        b = resolve_moves(spec, cfg, args)
        want = direct(cfg, deg8_444)
        assert [z.vec for z in b.moves] == [z.vec for z in want.moves]
        assert b.provenance == want.provenance and b.source_config is cfg

    def test_move_file(self, tmp_path):
        path = tmp_path / "moves.txt"
        fileio.write_matrix(path, basic_moves_two_way(3, 3).matrix[::-1])
        args = self.parse(tmp_path, ("two-way-indep", "3,3"), str(path))
        cfg = build_model(args)
        b = resolve_moves(str(path), cfg, args)
        assert [z.vec for z in b.moves] == [z.vec for z in basic_moves_two_way(3, 3).moves]
        assert set(b.provenance) == {"file"} and b.source_config is cfg

    def test_family_of_the_model_is_not_rebuilt(self, tmp_path, builds):
        args = self.parse(tmp_path, ("two-way-indep", "3,4"), "basic")
        b = resolve_moves("basic", build_model(args), args)
        assert builds() == 1 and len(b) == 18

    def test_family_of_another_model_is_checked(self, tmp_path, builds):
        # the NTFI swaps are moves of complete independence too
        args = self.parse(tmp_path, ("complete-indep", "3,3,3"), "basic")
        cfg = build_model(args)
        b = resolve_moves("basic", cfg, args)
        assert builds() == 2 and b.source_config is cfg
        assert b.matrix.tobytes() == ntfi_basic_moves(3).matrix.tobytes()

    @pytest.mark.parametrize("extra", [(), ("--max-degree", "3")], ids=["completion", "pairing"])
    def test_graver_subsets_are_not_rebuilt(self, capsys, builds, extra):
        # one build for the computed set; the square-free subset and the prune keep its rows
        code, out, _ = run(capsys, "graver", "--model", "two-way-indep", "--dims", "3,3",
                           "--square-free", "--prune", *extra)
        assert code == 0 and out.splitlines() == ["moves: 9", "degree 2: 9"]
        assert builds() == 1

    def test_union_family_is_not_rebuilt(self, capsys, tmp_path, builds):
        # basic+deg8: one build per generated set, none for their union
        t = tmp_path / "latin4.txt"
        fileio.write_vector(t, (1,) * 48)
        code, out, _ = run(capsys, "connect", "--model", "ntfi", "--dims", "4",
                           "--moves", "basic+deg8", "--t", str(t))
        assert code == 0 and out.splitlines()[:2] == ["fiber size: 576", "components: 1"]
        assert builds() == 2

    def test_every_family_is_covered(self):
        parts = {name for spec, _, _ in FAMILY_CASES for name in spec.split("+")}
        assert parts == set(FAMILIES) | {"loop-3"}

    def test_union_does_not_depend_on_order(self, tmp_path):
        args = self.parse(tmp_path, ("ntfi", "3"), "basic+deg6")
        cfg = build_model(args)
        a, b = (resolve_moves(spec, cfg, args) for spec in ("basic+deg6", "deg6+basic"))
        assert a.matrix.tobytes() == b.matrix.tobytes() and a.provenance == b.provenance

    def test_union_with_itself(self, tmp_path):
        args = self.parse(tmp_path, ("two-way-indep", "3,4"), "basic")
        cfg = build_model(args)
        a, b = (resolve_moves(spec, cfg, args) for spec in ("basic", "basic+basic"))
        assert a.matrix.tobytes() == b.matrix.tobytes() and a.provenance == b.provenance

    @pytest.mark.parametrize("spec,part", [("basic+", "''"), ("basic+frobnicate", "'frobnicate'")],
                             ids=["empty", "unknown"])
    def test_bad_part_exits_two(self, capsys, tmp_path, spec, part):
        t = tmp_path / "t.txt"
        fileio.write_vector(t, (1,) * 27)
        code, out, err = run(capsys, "connect", "--model", "ntfi", "--dims", "3",
                             "--moves", spec, "--t", str(t))
        assert code == 2 and f"unknown move family {part}" in err and out == ""

    def test_move_file_with_a_plus_in_its_name(self, tmp_path):
        path = tmp_path / "basic+deg6"
        fileio.write_matrix(path, basic_moves_two_way(3, 3).matrix)
        args = self.parse(tmp_path, ("two-way-indep", "3,3"), str(path))
        b = resolve_moves(str(path), build_model(args), args)
        assert b.matrix.tolist() == basic_moves_two_way(3, 3).matrix.tolist()
        assert set(b.provenance) == {"file"}

    @staticmethod
    def parse(tmp_path, model, spec):
        zeros = tmp_path / "zeros.txt"
        fileio.write_mask(zeros, [(i, i) for i in range(4)])
        return make_parser().parse_args([
            "connect", "--model", model[0], "--dims", model[1], "--zeros", str(zeros),
            "--moves", spec, "--max-degree", "3", "--t", "t.txt",
        ])

    @pytest.mark.parametrize(
        "model,spec",
        [
            # the degree-2 patterns of complete independence change line sums
            (("ntfi", "3"), "deg2-patterns"),
            # 27-cell moves for a 9-cell model
            (("two-way-indep", "3,3"), "deg6"),
            # a vector that changes column sums
            (("two-way-indep", "3,3"), "file"),
        ],
    )
    def test_family_of_another_model_exits_two(self, capsys, tmp_path, model, spec):
        if spec == "file":
            spec = tmp_path / "moves.txt"
            fileio.write_matrix(spec, [(1, -1, 0, 0, 0, 0, 0, 0, 0)])
        t = tmp_path / "t.txt"
        fileio.write_vector(t, (1,) * 27)
        code, _, err = run(capsys, "connect", "--model", model[0], "--dims", model[1],
                           "--moves", str(spec), "--t", str(t))
        assert code == 2 and "error" in err

    def test_check_with_a_family_of_another_model_exits_two(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        fileio.write_vector(t, (1,) * 27)
        code, _, err = run(capsys, "check", "--model", "ntfi", "--dims", "3", "--condition", "strong",
                           "--moves", "deg2-patterns", "--t", str(t))
        assert code == 2 and "not a move of the model" in err


class TestMalformedSpecs:
    @pytest.mark.parametrize("spec", ["loops", "loop-3", "df1", "loop-x", "loop-", "frobnicate"])
    def test_moves_exit_two(self, capsys, tmp_path, spec):
        t = tmp_path / "t.txt"
        fileio.write_vector(t, (1,) * 27)
        code, _, err = run(capsys, "connect", "--model", "ntfi", "--dims", "3",
                           "--moves", spec, "--t", str(t))
        assert code == 2 and "error" in err

    def test_move_file_of_wrong_length_exits_two(self, capsys, tmp_path):
        # an all-zero row is still a vector of the wrong length
        moves = tmp_path / "moves.txt"
        fileio.write_matrix(moves, [[0, 0, 0]])
        t = tmp_path / "t.txt"
        fileio.write_vector(t, (1, 1, 1, 1))
        code, _, err = run(capsys, "connect", "--model", "two-way-indep", "--dims", "2,2",
                           "--moves", str(moves), "--t", str(t))
        assert code == 2 and "error" in err

    def test_linear_stat_exit_two(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        fileio.write_table(x, Table((1, 0, 0, 1)))
        code, _, err = run(capsys, "sample", "--model", "two-way-indep", "--dims", "2,2",
                           "--moves", "basic", "--start", str(x), "--steps", "10",
                           "--seed", "1", "--stat", "linear:a,b")
        assert code == 2 and "error" in err


def test_cli_does_not_import_numpy_ma():
    # a plain np.unique call imports numpy.ma, about 14 ms and 1 MB resident
    code = textwrap.dedent("""
        import sys
        from zeroone.cli import main
        for condition in ("strong", "distance-reducing"):
            main(["check", "--model", "two-way-indep", "--dims", "3,3", "--condition", condition,
                  "--moves", "basic", "--sweep"])
        main(["connect", "--model", "two-way-indep", "--dims", "3,3", "--moves", "basic",
              "--sweep"])
        main(["graver", "--model", "complete-indep", "--dims", "2,2,3"])
        print("numpy.ma" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.splitlines()[-1] == "False"
