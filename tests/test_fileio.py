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
