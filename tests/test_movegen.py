import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroone.cells import CellSpace
from zeroone.cli import FAMILIES
from zeroone.errors import DimensionError
from zeroone.graver import MoveSet, degree_histogram, square_free_graver, symmetry_orbit
from zeroone.models import (
    build_complete_independence,
    build_ntfi,
    build_quasi_independence,
    build_two_way_independence,
)
from zeroone.movegen import (
    _cycle_orbit,
    basic_moves_two_way,
    degree2_threeway_patterns,
    degree8_moves_4x4,
    df1_loops,
    loops_degree_r,
    ntfi_333_moves,
    ntfi_basic_moves,
)


def brute_loops(space, r, df1=False):
    """Reference: every row order and column order of every r x r box, one
    cyclic +1/-1 pattern at a time, skipping the loops through a structural
    zero; with ``df1``, only on the boxes that meet the support in exactly
    two cells per row and per column."""
    I, J = space.dims
    support = set(space.cells)
    moves = []
    for rows in itertools.combinations(range(I), r):
        for cols in itertools.combinations(range(J), r):
            box = [[(i, j) in support for j in cols] for i in rows]
            if df1 and {sum(line) for line in box + [list(c) for c in zip(*box)]} != {2}:
                continue
            for i in itertools.permutations(rows):
                for j in itertools.permutations(cols):
                    plus = [(i[k], j[k]) for k in range(r)]
                    minus = [(i[k], j[(k + 1) % r]) for k in range(r)]
                    if not support.issuperset(plus + minus):
                        continue
                    vec = [0] * space.cell_count
                    for c in plus:
                        vec[space.linear_index(c)] += 1
                    for c in minus:
                        vec[space.linear_index(c)] -= 1
                    moves.append(vec)
    return moves


def diagonal_zeros(n):
    return CellSpace((n, n), frozenset((i, i) for i in range(n)))


def random_support(seed):
    rng = np.random.default_rng(seed)
    I, J = rng.integers(3, 6, size=2).tolist()
    zeros = rng.random((I, J)) < 0.4
    zeros[0, 0] = False  # the support is never empty
    return CellSpace((I, J), frozenset(zip(*np.nonzero(zeros))))


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

    @pytest.mark.parametrize("I,J", [(3, 4), (4, 4), (4, 5)])
    def test_matches_brute_force(self, I, J):
        cfg = build_two_way_independence(I, J)
        for r in range(2, min(I, J) + 1):
            want = MoveSet.build(brute_loops(cfg.cell_space, r), f"loop-{r}", cfg)
            assert loops_degree_r(I, J, r) == want

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

    @pytest.mark.parametrize(
        "space",
        [diagonal_zeros(4), diagonal_zeros(5), *(random_support(seed) for seed in range(6))],
        ids=["diag-4", "diag-5", *(f"random-{seed}" for seed in range(6))],
    )
    def test_matches_brute_force(self, space):
        cfg = build_quasi_independence(*space.dims, space.cells)
        moves = [v for r in range(2, min(space.dims) + 1) for v in brute_loops(space, r, df1=True)]
        assert df1_loops(space) == MoveSet.build(moves, "df1", cfg)

    def test_needs_two_axes(self):
        with pytest.raises(DimensionError):
            df1_loops(CellSpace((2, 2, 2)))


# the representatives of the NTFI families, written out as tables
NTFI_BASIC = [
    [[1, -1, 0], [-1, 1, 0], [0, 0, 0]],
    [[-1, 1, 0], [1, -1, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
]
NTFI_DEG6 = [
    [[1, -1, 0], [0, 1, -1], [-1, 0, 1]],
    [[-1, 1, 0], [0, -1, 1], [1, 0, -1]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
]
NTFI_DEG9 = [
    [[1, -1, 0], [0, 1, -1], [-1, 0, 1]],
    [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
    [[-1, 0, 1], [1, -1, 0], [0, 1, -1]],
]
DEG8_444 = [
    [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [-1, 0, 0, 1]],
    [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [1, 0, 0, -1]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
]


def brute_orbit(rep, tag, cfg):
    """Reference orbit: every image by explicit indexing, one move at a time."""
    rep = np.array(rep)
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
                    moves.append(a1[:, :, list(p2)].ravel())
    return MoveSet.build(np.array(moves), tag, cfg)  # build makes the signs canonical


class TestNtfi333Orbits:
    @pytest.mark.parametrize(
        "rep", [NTFI_BASIC, NTFI_DEG6, NTFI_DEG9], ids=["basic", "deg6", "deg9"]
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

    def test_levels_are_unions(self, builds):
        # one build per family, none for their union, in any order
        got = ntfi_333_moves("deg9+basic+deg6")
        assert builds() == 3
        assert got == ntfi_333_moves("basic").union(ntfi_333_moves("deg6+deg9"))


def same_moves(got, want):
    return ([z.vec for z in got.moves] == [z.vec for z in want.moves]
            and got.provenance == want.provenance and got.source_config == want.source_config)


class TestCycleOrbits:
    @pytest.mark.parametrize(
        "table,n,r,k", [(NTFI_DEG6, 3, 3, 2), (NTFI_DEG9, 3, 3, 3), (DEG8_444, 4, 4, 2)],
        ids=["deg6", "deg9", "deg8"],
    )
    def test_orbit_of_the_table(self, table, n, r, k):
        assert same_moves(_cycle_orbit(n, r, k, "t"), brute_orbit(table, "t", build_ntfi(n)))

    def test_basic_is_the_orbit_of_its_table(self):
        assert same_moves(ntfi_333_moves("basic"), brute_orbit(NTFI_BASIC, "basic", build_ntfi(3)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_basic_is_the_two_by_two_cycle_orbit(self, n):
        # reference: the swap on levels (i1, i2) x (j1, j2) x (k1, k2) is the
        # outer product of e_i1 - e_i2, e_j1 - e_j2 and e_k1 - e_k2
        E = np.eye(n, dtype=np.int8)
        D = np.array([E[a] - E[b] for a, b in itertools.combinations(range(n), 2)])
        V = np.einsum("ai,bj,ck->abcijk", D, D, D).reshape(-1, n**3)
        got, want = ntfi_basic_moves(n), MoveSet.build(V, "basic", build_ntfi(n))
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.provenance == want.provenance == ("basic",) * math.comb(n, 2) ** 3


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

    @pytest.mark.parametrize("dims", [(3, 2, 2), (2, 3, 4), (4, 3, 2), (3, 3, 3)])
    def test_one_pattern_in_every_axis_order_gives_the_degree2_slice(self, dims):
        b0 = square_free_graver(build_complete_independence(dims), 2)
        got = degree2_threeway_patterns(dims)
        assert got == MoveSet.build(b0.matrix[(b0.matrix > 0).sum(axis=1) == 2], "deg2-pattern",
                                    b0.source_config)

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


def digest(ms):
    return hashlib.sha256(ms.matrix.tobytes() + repr(ms.provenance).encode()).hexdigest()


class TestPinned:
    """Matrix bytes and provenance as the cell-by-cell generators gave them."""

    @pytest.mark.parametrize(
        "make,cfg,sha",
        [
            (lambda: loops_degree_r(4, 5, 4), build_two_way_independence(4, 5),
             "74afee84caf6f622aedda4cb1963e30ac9002c879e388b8072793f3d0434264d"),
            (lambda: df1_loops(diagonal_zeros(5)),
             build_quasi_independence(5, 5, diagonal_zeros(5).cells),
             "d7ecdb6007c0dde075effbf8ed0702c0310dadfebe4ed57b9ab12cfd1e90b467"),
            (lambda: degree2_threeway_patterns((3, 4, 5)), build_complete_independence((3, 4, 5)),
             "2f9f08dbe1308f3ae480be58e509913fa05284a6c4ffc83f26b62408a9575864"),
            (lambda: ntfi_333_moves(), build_ntfi(3),
             "b2c869f5f04872862588b667fc707c6ab6a5ee7f68acdfee3b0c8b4d1213248c"),
            (lambda: FAMILIES["loops"](build_two_way_independence(4, 5), None),
             build_two_way_independence(4, 5),
             "512bee6863ff38de8117c00b22f4895d3ad2a0da3d699abafe995572c4d93836"),
        ],
        ids=["loops-4x5-4", "df1-5x5-diag", "deg2-3x4x5", "ntfi-333", "cli-loops-4x5"],
    )
    def test_family(self, make, cfg, sha):
        ms = make()
        assert digest(ms) == sha and ms.source_config == cfg


class TestOneBuildPerFamily:
    """One build per generated family; a union of families makes none."""

    @pytest.mark.parametrize(
        "make,families",
        [
            (lambda: loops_degree_r(4, 4, 3), 1),
            (lambda: basic_moves_two_way(3, 4), 1),
            (lambda: df1_loops(diagonal_zeros(4)), 1),
            (lambda: degree2_threeway_patterns((2, 2, 3)), 1),
            (lambda: ntfi_333_moves("basic+deg6+deg9"), 3),
            (lambda: ntfi_basic_moves(3), 1),
            (degree8_moves_4x4, 1),
            # basic and loop-3
            (lambda: FAMILIES["loops"](build_two_way_independence(3, 4), None), 2),
        ],
        ids=["loops", "basic", "df1", "deg2-patterns", "ntfi-333", "ntfi-basic", "deg8",
             "cli-loops"],
    )
    def test_one_build(self, make, families, builds):
        make()
        assert builds() == families

    def test_retag_does_not_rebuild(self, builds):
        b = basic_moves_two_way(3, 3)
        before = builds()
        t = b.retag("swap")
        assert builds() == before
        assert t.matrix.tobytes() == b.matrix.tobytes() and t.source_config is b.source_config
        assert t.provenance == ("swap",) * len(b)
