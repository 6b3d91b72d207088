import pytest

from zeroone import fileio
from zeroone.cells import Table
from zeroone.cli import main


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

    def test_move_file_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "b.txt"
        code, _, _ = run(
            capsys,
            "graver", "--model", "two-way-indep", "--dims", "2,3", "--out", str(out_file),
        )
        assert code == 0
        moves = fileio.read_moves(out_file)
        assert len(moves) == 3


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

    def test_cap_exit_three(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        fileio.write_vector(t, (1,) * 8)
        code, _, _ = run(
            capsys,
            "connect", "--model", "two-way-indep", "--dims", "4,4",
            "--moves", "basic", "--t", str(t), "--cap", "3",
        )
        assert code == 3


class TestCheck:
    def test_distance_reducing_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--model", "two-way-indep", "--dims", "2,3",
            "--condition", "distance-reducing", "--moves", "basic", "--sweep", "--strong",
        )
        assert code == 0
        assert "distance reducing" in out

    @pytest.mark.parametrize("condition", ["distance-reducing", "strong"])
    def test_sweep_cap_exit_three(self, capsys, condition):
        # 2^8 tables exceed a budget of 100; 2^36 exceed the default
        for dims, cap in (("2,4", ("--cap", "100")), ("6,6", ())):
            code, _, err = run(
                capsys,
                "check", "--model", "two-way-indep", "--dims", dims,
                "--condition", condition, "--moves", "basic", "--sweep", *cap,
            )
            assert code == 3 and "2^" in err

    def test_generalized(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--model", "complete-indep", "--dims", "2,2,2",
            "--condition", "generalized", "--moves", "deg2-patterns", "--max-degree", "2",
        )
        assert code == 0

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


class TestLatin:
    def test_count_builds_move_set_once(self, capsys, monkeypatch):
        import zeroone.cli
        import zeroone.sampler

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


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_model_args(self, capsys):
        code, _, err = run(capsys, "graver", "--model", "two-way-indep")
        assert code == 2
        assert "error" in err
