import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroone.cells import (
    CellSpace,
    Move,
    Table,
    _groups,
    _pairs,
    _ranges,
    find_rows,
    pack_bits,
    unpack_bits,
)
from zeroone.errors import (
    CellIndexError,
    LengthMismatchError,
    StructuralZeroError,
)

dims_st = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


@st.composite
def space_with_zeros(draw):
    dims = draw(dims_st)
    import itertools

    box = list(itertools.product(*(range(d) for d in dims)))
    zeros = draw(st.sets(st.sampled_from(box), max_size=max(0, len(box) - 1)))
    return CellSpace(dims, frozenset(zeros))


class TestCellSpace:
    def test_row_major_order(self):
        space = CellSpace((2, 3))
        assert space.cells == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))

    def test_structural_zeros_removed(self):
        space = CellSpace((2, 2), frozenset({(0, 1)}))
        assert space.cell_count == 3
        assert (0, 1) not in space.cells

    @given(space_with_zeros())
    @settings(max_examples=60)
    def test_index_round_trip(self, space):
        for k in range(space.cell_count):
            assert space.linear_index(space.multi_index(k)) == k

    def test_out_of_range_index(self):
        space = CellSpace((2, 2))
        with pytest.raises(CellIndexError):
            space.linear_index((2, 0))
        with pytest.raises(CellIndexError):
            space.multi_index(4)

    def test_masked_cell_raises_distinct_error(self):
        space = CellSpace((2, 2), frozenset({(1, 1)}))
        with pytest.raises(StructuralZeroError):
            space.linear_index((1, 1))

    def test_bad_dims(self):
        with pytest.raises(CellIndexError):
            CellSpace((0, 2))
        with pytest.raises(CellIndexError):
            CellSpace((2, 2), frozenset({(2, 0)}))


class TestTable:
    def test_zero_one(self):
        assert Table((0, 1, 1)).zero_one
        assert not Table((0, 2)).zero_one

    def test_check_length(self):
        with pytest.raises(LengthMismatchError):
            Table((1, 0)).check_length(CellSpace((2, 2)))


class TestMove:
    def test_canonical_flips_leading_negative(self):
        z = Move.canonical((0, -1, 1))
        assert z.vec == (0, 1, -1)
        assert Move.canonical((0, 1, -1)).vec == (0, 1, -1)

    def test_parts_and_degree(self):
        # the degree is the sum of the positive part
        z = Move((2, -1, 0, -1))
        assert z.degree == 2
        assert not z.square_free
        z = Move((1, -1, -1, 1))
        assert z.degree == 2 and z.square_free and len(z) == 4

    def test_apply_and_negate(self):
        x = (1, 0, 0, 1)
        z = Move((-1, 1, 1, -1))
        y = tuple(a + b for a, b in zip(x, z.vec))
        assert y == (0, 1, 1, 0)
        assert tuple(a + b for a, b in zip(y, (-z).vec)) == x
        assert -(-z) == z

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    def test_canonical_idempotent_and_sign_fixed(self, vec):
        z = Move.canonical(vec)
        assert Move.canonical(z.vec).vec == z.vec
        nz = [v for v in z.vec if v]
        if nz:
            assert nz[0] > 0


class TestBitPacking:
    @settings(max_examples=30)
    @given(st.integers(0, 5), st.integers(1, 130), st.data())
    def test_unpack_inverts_pack(self, m, n, data):
        import numpy as np

        rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                  min_size=m, max_size=m))
        X = np.array(rows, dtype=np.uint8).reshape(m, n)
        words = pack_bits(X)
        assert words.shape == (m, max(1, -(-n // 64)))
        assert (unpack_bits(words, n) == X).all()


class TestFindRows:
    @pytest.mark.parametrize(
        "dtype, width",
        [(np.uint64, 1), (np.int64, 1), (np.int8, 8), (np.int32, 2), (np.int8, 3), (np.uint64, 2)],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_dict_reference(self, dtype, width, seed):
        rng = np.random.default_rng(seed)
        info = np.iinfo(dtype)
        pool = rng.integers(info.min, info.max, size=(60, width), dtype=dtype, endpoint=True)
        pool[:4, 0] = [info.min, -1 if info.min else 1, 0, info.max]
        X = pool[rng.integers(0, 20, size=40)]  # repeated rows
        Y = np.vstack([pool, X[::-1]])  # misses, and repeated queries
        where = {}
        for i, row in enumerate(X.tolist()):
            where.setdefault(tuple(row), []).append(i)
        got = find_rows(X, Y).tolist()
        assert [g in where[tuple(y)] if g >= 0 else tuple(y) not in where
                for g, y in zip(got, Y.tolist())] == [True] * len(Y)
        assert sum(g < 0 for g in got) >= 40

    def test_empty(self):
        assert find_rows(np.zeros((0, 1), np.uint64), np.ones((2, 1), np.uint64)).tolist() == [-1, -1]


class TestGroupsAndPairs:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=20))
    def test_groups_are_runs_of_equal_codes(self, codes):
        order, start, size = _groups(np.array(codes, dtype=np.uint64))
        runs = [g.tolist() for g in np.split(order, start[1:])]
        assert runs == [[i for i, c in enumerate(codes) if c == k] for k in sorted(set(codes))]
        assert size.tolist() == list(map(len, runs))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 4)), max_size=8))
    def test_ranges_equal_brute_force(self, runs):
        start = np.array([s for s, _ in runs], dtype=np.int64)
        count = np.array([c for _, c in runs], dtype=np.int64)
        want = [s + j for s, c in runs for j in range(c)]
        assert _ranges(start, count).tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=12), st.integers(1, 5))
    def test_pairs_equal_brute_force(self, partners, step):
        want = [(a, a + 1 + j) for a, p in enumerate(partners) for j in range(p)]
        slices = list(_pairs(np.array(partners, dtype=np.int64), step))
        got = [(int(x), int(y)) for a, b in slices for x, y in zip(a, b)]
        assert got == want
        # every slice holds step pairs but the last, which holds the rest
        sizes = [len(a) for a, _ in slices]
        assert sizes == [step] * (len(want) // step) + [len(want) % step] * (len(want) % step > 0)
