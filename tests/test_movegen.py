import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroone.cells import CellSpace, Move
from zeroone.errors import CellIndexError, DimensionError
from zeroone.graver import MoveSet, degree_histogram, square_free_graver, symmetry_orbit
from zeroone.models import (
    build_complete_independence,
    build_ntfi,
    build_quasi_independence,
    build_two_way_independence,
)
from zeroone.movegen import (
    _NTFI_BASIC,
    _NTFI_DEG6,
    _NTFI_DEG9,
    _loop_vec,
    basic_moves_two_way,
    degree2_threeway_patterns,
    df1_loops,
    loops_degree_r,
    ntfi_333_moves,
    ntfi_basic_moves,
)


def loop_count(I, J, r):
    # C(I,r) * C(J,r) placements, r! * (r-1)! / 2 distinct cycles each
    return math.comb(I, r) * math.comb(J, r) * math.factorial(r) * math.factorial(r - 1) // 2


class TestTwoWayLoops:
    @given(st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_basic_count_formula(self, I, J):
        assert len(basic_moves_two_way(I, J)) == math.comb(I, 2) * math.comb(J, 2)

    @pytest.mark.parametrize("I,J,r", [(3, 3, 3), (3, 4, 3), (4, 4, 3), (4, 4, 4), (4, 5, 4)])
    def test_loop_count_formula(self, I, J, r):
        assert len(loops_degree_r(I, J, r)) == loop_count(I, J, r)

    def test_loops_are_moves(self):
        cfg = build_two_way_independence(3, 4)
        for z in basic_moves_two_way(3, 4).union(loops_degree_r(3, 4, 3)):
            assert cfg.is_move(z)
            assert z.square_free

    def test_bad_index_is_not_skipped(self):
        # only structural zeros make a loop skippable
        with pytest.raises(CellIndexError):
            _loop_vec(CellSpace((2, 2)), (0, 2), (0, 1))

    def test_degree_bounds(self):
        with pytest.raises(DimensionError):
            loops_degree_r(3, 3, 4)
        with pytest.raises(DimensionError):
            basic_moves_two_way(1, 3)


class TestDf1Loops:
    def test_full_support_gives_basic_plus_nothing_extra_2xJ(self):
        # on a full 2xJ box only degree-2 loops qualify
        space = CellSpace((2, 4))
        assert {z.vec for z in df1_loops(space).moves} == {
            z.vec for z in basic_moves_two_way(2, 4).moves
        }

    def test_diagonal_zeros_4x4(self):
        space = CellSpace((4, 4), frozenset((i, i) for i in range(4)))
        b = df1_loops(space)
        assert degree_histogram(b) == {2: 6, 3: 4}

    def test_members_are_square_free_kernel_vectors(self):
        from zeroone.models import build_quasi_independence

        S = {(i, j) for i in range(4) for j in range(4) if i != j}
        cfg = build_quasi_independence(4, 4, S)
        for z in df1_loops(cfg.cell_space):
            assert cfg.is_move(z) and z.square_free

    def test_needs_two_axes(self):
        with pytest.raises(DimensionError):
            df1_loops(CellSpace((2, 2, 2)))


def brute_orbit(rep, tag, cfg):
    """Reference orbit: every image by explicit indexing, one move at a time."""
    n = rep.shape[0]
    perms = list(itertools.permutations(range(n)))
    moves = []
    for axes in itertools.permutations(range(3)):
        base = np.transpose(rep, axes)
        for p0 in perms:
            a0 = base[list(p0), :, :]
            for p1 in perms:
                a1 = a0[:, list(p1), :]
                for p2 in perms:
                    moves.append(Move.canonical(a1[:, :, list(p2)].ravel()))
    return MoveSet.build(moves, tag, cfg)


class TestNtfi333Orbits:
    @pytest.mark.parametrize(
        "rep", [_NTFI_BASIC, _NTFI_DEG6, _NTFI_DEG9], ids=["basic", "deg6", "deg9"]
    )
    def test_orbit_matches_brute_force(self, rep):
        cfg = build_ntfi(3)
        rep = np.array(rep, dtype=np.int64)
        got = MoveSet.build(symmetry_orbit(rep.reshape(1, -1), cfg), "t", cfg)
        want = brute_orbit(rep, "t", cfg)
        assert [z.vec for z in got.moves] == [z.vec for z in want.moves]
        assert got.provenance == want.provenance and got.source_config == cfg

    def test_orbit_sizes(self):
        assert len(ntfi_333_moves("basic")) == 27
        assert len(ntfi_333_moves("deg6")) == 54
        assert len(ntfi_333_moves("deg9")) == 12

    def test_cumulative_union(self):
        assert len(ntfi_333_moves("basic+deg6")) == 81
        assert len(ntfi_333_moves("basic+deg6+deg9")) == 93

    def test_degrees(self):
        assert {z.degree for z in ntfi_333_moves("basic")} == {4}
        assert {z.degree for z in ntfi_333_moves("deg6")} == {6}
        assert {z.degree for z in ntfi_333_moves("deg9")} == {9}

    def test_all_are_line_sum_moves(self):
        cfg = build_ntfi(3)
        for z in ntfi_333_moves("basic+deg6+deg9"):
            assert cfg.is_move(z)

    def test_unknown_level(self):
        with pytest.raises(DimensionError):
            ntfi_333_moves("deg7")


class TestDegree8Moves:
    def test_orbit_size_and_shape(self, deg8_444):
        b = deg8_444
        assert len(b) == 1296
        assert {z.degree for z in b.moves} == {8}
        assert set(np.abs(b.matrix).sum(axis=1).tolist()) == {16}

    def test_all_are_moves(self, deg8_444):
        cfg = build_ntfi(4)
        for z in deg8_444:
            assert cfg.is_move(z)

    def test_pinned(self, deg8_444):
        # the orbit as the (4!)^3 * 3! images of the representative gave it
        digest = hashlib.sha256(repr([z.vec for z in deg8_444.moves]).encode()).hexdigest()
        assert digest == "a1db41e2dd4954cdc9455795febd84e88392cea1b26772fc1dc946e7d8626da8"
        assert deg8_444.provenance == ("deg8",) * 1296


class TestDegree2ThreewayPatterns:
    @pytest.mark.parametrize("dims,count", [((2, 2, 2), 12), ((2, 2, 3), 33), ((3, 3, 3), 243)])
    def test_counts(self, dims, count):
        assert len(degree2_threeway_patterns(dims)) == count

    def test_equals_degree2_slice_of_square_free_graver(self):
        cfg = build_complete_independence((2, 2, 3))
        b0 = square_free_graver(cfg, 2)
        assert {z.vec for z in degree2_threeway_patterns((2, 2, 3)).moves} == {
            z.vec for z in b0.moves if z.degree == 2
        }

    def test_bad_dims(self):
        with pytest.raises(DimensionError):
            degree2_threeway_patterns((2, 2))


QUASI_4X4 = build_quasi_independence(4, 4, {(i, j) for i in range(4) for j in range(4) if i != j})


class TestBoundModels:
    @pytest.mark.parametrize(
        "make,cfg",
        [
            (lambda: loops_degree_r(3, 4, 3), build_two_way_independence(3, 4)),
            (lambda: basic_moves_two_way(2, 5), build_two_way_independence(2, 5)),
            (lambda: df1_loops(QUASI_4X4.cell_space), QUASI_4X4),
            (lambda: ntfi_333_moves("deg6+deg9"), build_ntfi(3)),
            (lambda: ntfi_basic_moves(4), build_ntfi(4)),
            (lambda: degree2_threeway_patterns((2, 2, 3)), build_complete_independence((2, 2, 3))),
        ],
        ids=["loops", "basic", "df1", "ntfi-333", "ntfi-basic", "deg2-patterns"],
    )
    def test_generator_binds_its_model(self, make, cfg):
        assert make().source_config == cfg

    def test_degree8_binds_4x4x4(self, deg8_444):
        assert deg8_444.source_config == build_ntfi(4)
