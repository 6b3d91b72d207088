import numpy as np
import pytest

from zeroone import fileio
from zeroone.cells import CellSpace, Table
from zeroone.graver import MoveSet
from zeroone.models import Configuration

ALL_ONES_4 = Configuration(CellSpace((4,)), ((1, 1, 1, 1),))


class TestMatrixFormat:
    def test_header_then_rows(self, tmp_path):
        p = tmp_path / "m.txt"
        fileio.write_matrix(p, [[1, 2, 3], [4, 5, 6]])
        lines = p.read_text().splitlines()
        assert lines[0].split() == ["2", "3"]
        assert fileio.read_matrix(p) == [[1, 2, 3], [4, 5, 6]]

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(fileio.FileFormatError):
            fileio.write_matrix(tmp_path / "m.txt", [[1, 2], [3]])

    @pytest.mark.parametrize("text,message", [("", "missing header"), ("3\n", "missing header"),
                                              ("1 2\n1 x\n", "non-integer entry")],
                             ids=["empty", "half-header", "non-integer"])
    def test_refused(self, tmp_path, text, message):
        p = tmp_path / "m.txt"
        p.write_text(text)
        with pytest.raises(fileio.FileFormatError, match=message):
            fileio.read_matrix(p)

    def test_token_count_checked(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 2\n1 2 3\n")
        with pytest.raises(fileio.FileFormatError):
            fileio.read_matrix(p)


class TestTableAndVector:
    def test_table_round_trip(self, tmp_path):
        p = tmp_path / "x.txt"
        fileio.write_table(p, Table((1, 0, 1, 1)))
        assert fileio.read_table(p).values == (1, 0, 1, 1)

    def test_vector_round_trip(self, tmp_path):
        p = tmp_path / "t.txt"
        fileio.write_vector(p, (3, 0, 2))
        assert fileio.read_vector(p) == (3, 0, 2)


    @pytest.mark.parametrize("read,what", [(fileio.read_table, "table"),
                                           (fileio.read_vector, "vector")])
    def test_two_rows_refused(self, tmp_path, read, what):
        p = tmp_path / "x.txt"
        fileio.write_matrix(p, [[1, 0], [0, 1]])
        with pytest.raises(fileio.FileFormatError, match=f"a {what} file must have exactly one"):
            read(p)

    def test_table_and_vector_files_are_one_format(self, tmp_path):
        p = tmp_path / "x.txt"
        fileio.write_table(p, Table((1, 0, 1)))
        assert p.read_text() == "1 3\n1 0 1\n" and fileio.read_vector(p) == (1, 0, 1)


class TestMoves:
    def test_round_trip_canonicalises(self, tmp_path):
        # a move file is a plain matrix; binding it to a model canonicalises
        p = tmp_path / "b.txt"
        fileio.write_matrix(p, np.array([(0, -1, 1, 0), (1, -1, -1, 1)]))
        back = MoveSet.build(fileio.read_matrix(p), "file", ALL_ONES_4)
        assert [z.vec for z in back.moves] == [(0, 1, -1, 0), (1, -1, -1, 1)]
        # sign canonical: first nonzero entry positive
        for z in back:
            assert next(v for v in z.vec if v) > 0


class TestMask:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "z.txt"
        cells = {(0, 0), (1, 2)}
        fileio.write_mask(p, cells)
        assert fileio.read_mask(p) == frozenset(cells)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("\n0,1\n   \n2,0\n\n")
        assert fileio.read_mask(p) == frozenset({(0, 1), (2, 0)})

    @pytest.mark.parametrize("line", ["0;1", "0,x", "0,"])
    def test_bad_line_refused(self, tmp_path, line):
        p = tmp_path / "z.txt"
        p.write_text(f"1,1\n{line}\n")
        with pytest.raises(fileio.FileFormatError, match="bad mask line"):
            fileio.read_mask(p)
