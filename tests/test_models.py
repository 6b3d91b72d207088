import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroone.cells import CellSpace, Move, Table
from zeroone.errors import DimensionError, LengthMismatchError, ZeroOneError
from zeroone.graver import symmetry_orbit
from zeroone.models import (
    Configuration,
    build_complete_independence,
    build_many_facet_rasch,
    build_ntfi,
    build_quasi_independence,
    build_two_way_independence,
    lawrence_lift,
)

from conftest import box_models


def sympy_rank(cfg):
    return sympy.Matrix(cfg.matrix).rank()


class TestTwoWayIndependence:
    def test_stat_is_row_and_col_sums(self):
        cfg = build_two_way_independence(3, 4)
        x = np.arange(12).reshape(3, 4)
        t = cfg.sufficient_stat(Table(tuple(x.ravel())))
        assert t == tuple(x.sum(axis=1)) + tuple(x.sum(axis=0))

    def test_rank(self):
        # row space has dimension I + J - 1 (one linear dependency)
        assert sympy_rank(build_two_way_independence(2, 2)) == 3
        assert sympy_rank(build_two_way_independence(3, 4)) == 6

    def test_basic_swap_is_move(self):
        cfg = build_two_way_independence(2, 2)
        assert cfg.is_move(Move((1, -1, -1, 1)))
        assert not cfg.is_move(Move((1, -1, -1, 0)))

    def test_bad_dims(self):
        with pytest.raises(DimensionError):
            build_two_way_independence(1, 3)


class TestCompleteIndependence:
    def test_stat_is_axis_sums(self):
        cfg = build_complete_independence((2, 3, 2))
        x = np.arange(12).reshape(2, 3, 2)
        t = cfg.sufficient_stat(Table(tuple(x.ravel())))
        expected = (
            tuple(x.sum(axis=(1, 2)))
            + tuple(x.sum(axis=(0, 2)))
            + tuple(x.sum(axis=(0, 1)))
        )
        assert t == expected

    def test_rank(self):
        # sum(dims) rows with one dependency per extra axis
        cfg = build_complete_independence((2, 3, 4))
        assert sympy_rank(cfg) == 2 + 3 + 4 - 2


class TestQuasiIndependence:
    def test_structural_zeros_are_removed_cells(self):
        S = {(i, j) for i in range(3) for j in range(3) if i != j}
        cfg = build_quasi_independence(3, 3, S)
        assert cfg.n_cells == 6
        assert cfg.cell_space.structural_zeros == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_stat_over_support_only(self):
        S = {(0, 0), (0, 1), (1, 0)}
        cfg = build_quasi_independence(2, 2, S)
        t = cfg.sufficient_stat(Table((1, 1, 1)))
        assert t == (2, 1, 2, 1)

    def test_empty_support_rejected(self):
        with pytest.raises(DimensionError):
            build_quasi_independence(2, 2, set())


class TestNtfi:
    def test_stat_is_line_sums(self):
        cfg = build_ntfi(2)
        x = np.arange(8).reshape(2, 2, 2)
        t = cfg.sufficient_stat(Table(tuple(x.ravel())))
        expected = (
            tuple(x.sum(axis=2).ravel())
            + tuple(x.sum(axis=1).ravel())
            + tuple(x.sum(axis=0).ravel())
        )
        assert t == expected

    def test_rank_333(self):
        # line-sum rows of an n x n x n box span 3n^2 - 3n + 1 dimensions
        assert sympy_rank(build_ntfi(3)) == 19

    def test_row_count(self):
        assert build_ntfi(3).n_rows == 27


class TestManyFacetRasch:
    def test_grade_weighted_rows_match_slice_marginals(self):
        # with a dichotomous grade axis the weighted rows are the
        # one-dimensional marginals of the grade-1 slice
        cfg = build_many_facet_rasch((2, 3, 2, 2))
        x = np.arange(24).reshape(2, 3, 2, 2)
        t = cfg.sufficient_stat(Table(tuple(x.ravel())))
        s = x[..., 1]
        weighted = (
            tuple(s.sum(axis=(1, 2)))
            + tuple(s.sum(axis=(0, 2)))
            + tuple(s.sum(axis=(0, 1)))
        )
        assert t[: len(weighted)] == weighted
        # remaining rows are the per-grade counts
        assert t[len(weighted):] == (int(x[..., 0].sum()), int(x[..., 1].sum()))

    def test_constant_item_param_uses_grand_total(self):
        cfg = build_many_facet_rasch((2, 2, 3), constant_item_param=True)
        assert cfg.row_labels[-1] == "grand_total"
        t = cfg.sufficient_stat(Table((1,) * 12))
        assert t[-1] == 12

    def test_needs_three_axes(self):
        with pytest.raises(DimensionError):
            build_many_facet_rasch((2, 2))


def indicator_row(cells, pred):
    return tuple(1 if pred(c) else 0 for c in cells)


def reference_two_way(space):
    """Row and column sums, one indicator row at a time."""
    I, J = space.dims
    rows, labels = [], []
    for i in range(I):
        rows.append(indicator_row(space.cells, lambda c, i=i: c[0] == i))
        labels.append(f"row_sum[{i}]")
    for j in range(J):
        rows.append(indicator_row(space.cells, lambda c, j=j: c[1] == j))
        labels.append(f"col_sum[{j}]")
    return Configuration(space, tuple(rows), tuple(labels))


def reference_complete(dims):
    space = CellSpace(dims)
    rows, labels = [], []
    for ax, d in enumerate(dims):
        for lvl in range(d):
            rows.append(indicator_row(space.cells, lambda c, ax=ax, lvl=lvl: c[ax] == lvl))
            labels.append(f"axis{ax}_sum[{lvl}]")
    return Configuration(space, tuple(rows), tuple(labels))


def reference_ntfi(n):
    space = CellSpace((n, n, n))
    rows, labels = [], []
    for name, (a, b) in (("ij", (0, 1)), ("ik", (0, 2)), ("jk", (1, 2))):
        for u, v in itertools.product(range(n), range(n)):
            rows.append(indicator_row(space.cells, lambda c, u=u, v=v: c[a] == u and c[b] == v))
            labels.append(f"sum_{name}[{u},{v}]")
    return Configuration(space, tuple(rows), tuple(labels))


def reference_rasch(dims, constant_item_param):
    space = CellSpace(dims)
    V = len(dims) - 1
    rows, labels = [], []
    for v in range(V):
        for lvl in range(dims[v]):
            rows.append(tuple(c[V] if c[v] == lvl else 0 for c in space.cells))
            labels.append(f"grade_weighted_facet{v}[{lvl}]")
    if constant_item_param:
        rows.append(tuple(1 for _ in space.cells))
        labels.append("grand_total")
    else:
        for g in range(dims[V]):
            rows.append(indicator_row(space.cells, lambda c, g=g: c[V] == g))
            labels.append(f"grade_count[{g}]")
    return Configuration(space, tuple(rows), tuple(labels))


SIZES = list(itertools.product(range(2, 6), repeat=2))


class TestMarginBuilder:
    """The builders against one indicator row at a time: the same matrix,
    row order, labels and cell space."""

    @pytest.mark.parametrize("I,J", SIZES)
    def test_two_way_and_off_diagonal_quasi(self, I, J):
        assert build_two_way_independence(I, J) == reference_two_way(CellSpace((I, J)))
        support = {(i, j) for i in range(I) for j in range(J) if i != j}
        zeros = frozenset((i, i) for i in range(min(I, J)))
        want = reference_two_way(CellSpace((I, J), zeros))
        assert build_quasi_independence(I, J, support) == want

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2)])
    def test_complete_independence(self, dims):
        assert build_complete_independence(dims) == reference_complete(dims)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ntfi(self, n):
        assert build_ntfi(n) == reference_ntfi(n)

    @pytest.mark.parametrize("constant_item_param", [False, True])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 3), (3, 2, 4), (2, 3, 2, 2)])
    def test_rating_model(self, dims, constant_item_param):
        want = reference_rasch(dims, constant_item_param)
        assert build_many_facet_rasch(dims, constant_item_param) == want


class TestHomogeneity:
    @pytest.mark.parametrize(
        "cfg",
        [
            build_two_way_independence(3, 4),
            build_complete_independence((2, 2, 3)),
            build_quasi_independence(3, 3, {(i, j) for i in range(3) for j in range(3) if i != j}),
            build_ntfi(3),
            build_many_facet_rasch((2, 2, 2)),
            build_many_facet_rasch((2, 2, 2), constant_item_param=True),
        ],
    )
    def test_builders_are_homogeneous(self, cfg):
        w = cfg.homogeneity_witness
        assert w is not None
        col_sums = [sum(wi * row[c] for wi, row in zip(w, cfg.matrix)) for c in range(cfg.n_cells)]
        assert all(s == 1 for s in col_sums)

    def test_inhomogeneous_returns_none(self):
        cfg = Configuration(CellSpace((2,)), ((1, 2),))
        assert cfg.homogeneity_witness is None


def sympy_witness(cfg):
    """Reference: sympy's Gauss-Jordan solution of ``A^T w = 1``, free
    parameters set to 0, or None when there is none."""
    A = sympy.Matrix(cfg.n_rows, cfg.n_cells, [v for row in cfg.matrix for v in row])
    ones = sympy.ones(cfg.n_cells, 1)
    try:
        sol, _params = A.T.gauss_jordan_solve(ones)
    except ValueError:
        return None
    w = sol.subs({s: 0 for s in sol.free_symbols})
    assert (A.T * w - ones).is_zero_matrix
    return tuple(Fraction(int(v.p), int(v.q)) for v in map(sympy.Rational, w))


class TestHomogeneityAgainstSympy:
    @pytest.mark.parametrize(
        "cfg",
        [
            build_complete_independence((2, 3, 4)),
            build_complete_independence((2, 2, 3)),
            build_ntfi(3),
            build_ntfi(4),
            build_ntfi(5),
            build_two_way_independence(4, 5),
            build_two_way_independence(2, 60),
            build_quasi_independence(4, 4, {(i, j) for i in range(4) for j in range(4) if i != j}),
            build_quasi_independence(3, 4, {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)}),
            build_many_facet_rasch((2, 2, 3)),
            build_many_facet_rasch((2, 3, 2), constant_item_param=True),
            lawrence_lift(build_two_way_independence(2, 3)),
            lawrence_lift(build_complete_independence((2, 2, 2))),
            Configuration(CellSpace((2,)), ((1, 2),)),
            Configuration(CellSpace((2,)), ()),
            Configuration(CellSpace((3,)), ((0, 0, 0), (1, 0, 1), (0, 0, 0))),
            Configuration(CellSpace((3,)), ((0, 0, 0), (1, 1, 1), (2, 2, 2))),
            Configuration(CellSpace((2,)), ((1, -1), (1, 1))),
        ],
        ids=["complete-2x3x4", "complete-2x2x3", "ntfi-3", "ntfi-4", "ntfi-5", "two-way-4x5",
             "two-way-2x60", "quasi-4x4-offdiag", "quasi-3x4-staircase", "rasch-2x2x3",
             "rasch-2x3x2-constant", "lawrence-2x3", "lawrence-2x2x2", "inhomogeneous",
             "zero-rows", "zero-rows-and-column", "zero-and-dependent-rows", "signed"],
    )
    def test_builders_and_edge_cases(self, cfg):
        assert cfg.homogeneity_witness == sympy_witness(cfg)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 6), st.data())
    def test_small_signed_matrices(self, rows, cells, data):
        A = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=cells, max_size=cells),
                               min_size=rows, max_size=rows))
        cfg = Configuration(CellSpace((cells,)), A)
        w = cfg.homogeneity_witness
        assert w == sympy_witness(cfg)
        assert w is None or all(type(v) is Fraction for v in w)


class TestLawrenceLift:
    def test_block_structure(self):
        cfg = build_two_way_independence(2, 2)
        lifted = lawrence_lift(cfg)
        assert lifted.cell_space.dims == (2, 2, 2)
        assert lifted.n_rows == cfg.n_rows + cfg.n_cells
        A = lifted.array
        n = cfg.n_cells
        assert (A[: cfg.n_rows, n:] == 0).all()
        assert (A[cfg.n_rows:, :n] == np.eye(n, dtype=int)).all()
        assert (A[cfg.n_rows:, n:] == np.eye(n, dtype=int)).all()

    def test_mask_carries_to_both_copies(self):
        S = {(0, 0), (0, 1), (1, 0)}
        lifted = lawrence_lift(build_quasi_independence(2, 2, S))
        assert lifted.cell_space.structural_zeros == frozenset({(0, 1, 1), (1, 1, 1)})


class TestConfiguration:
    def test_row_length_checked(self):
        with pytest.raises(LengthMismatchError):
            Configuration(CellSpace((2, 2)), ((1, 0, 0),))

    def test_is_move_length_checked(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(LengthMismatchError):
            cfg.is_move(Move((1, -1)))

    def test_is_move_exact(self):
        cfg = Configuration(CellSpace((4,)), ((1, 1, 1, 1),))
        assert not cfg.is_move(Move((2**62,) * 4))  # A z = 2^64, 0 modulo 2^64
        assert cfg.is_move(Move((2**62, -2**62, 0, 0)))

    @pytest.mark.parametrize("entry", [2**63, -2**63 - 1, 2**64])
    def test_entries_outside_int64_refused(self, entry):
        with pytest.raises(ZeroOneError, match="matrix row 1 has an entry outside int64"):
            Configuration(CellSpace((2,)), ((0, 1), (entry, 1)))
        # the bounds themselves are kept
        assert Configuration(CellSpace((2,)), ((2**63 - 1, -2**63),)).array.tolist() == [
            [2**63 - 1, -2**63]]


def table_keys(A, X):
    """The statistic of each 0/1 row of ``X``, in Python ints."""
    return [tuple(sum(a for a, x in zip(row, t) if x) for row in A) for t in X]


def term_sums(cfg):
    """The rows of all 2^n zero-one tables, and the sums of their key terms."""
    n = cfg.n_cells
    X = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    origin, steps = cfg.key_terms
    return X.tolist(), origin + X.astype(np.uint64) @ steps  # wrapping modulo 2^64


def signed_rows(rows, cells, bits):
    return st.lists(st.lists(st.integers(-(1 << bits), 1 << bits), min_size=cells, max_size=cells),
                    min_size=rows, max_size=rows)


class TestKeyCodes:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.sampled_from([2, 20, 40, 60]), st.data())
    def test_codes_equal_iff_keys_equal_and_sort_as_keys(self, rows, cells, bits, data):
        # entries up to 2^60: a row alone can fill a word, so W runs up to 5
        A = data.draw(signed_rows(rows, cells, bits))
        cfg = Configuration(CellSpace((cells,)), A)
        X, S = term_sums(cfg)
        codes = cfg.key_codes_of_sums(S)
        keys = table_keys(A, X)
        for i in range(len(keys)):
            assert ((codes[i] == codes) == [k == keys[i] for k in keys]).all()
            assert ((codes[i] < codes) == [keys[i] < k for k in keys]).all()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.sampled_from([2, 20, 40, 60]), st.data())
    def test_sums_of_terms_are_key_codes(self, rows, cells, bits, data):
        # one word exactly when the mixed-radix code fits it, and the sum is that code
        A = data.draw(signed_rows(rows, cells, bits))
        cfg = Configuration(CellSpace((cells,)), A)
        low = [sum(min(a, 0) for a in row) for row in A]
        radix = [sum(map(abs, row)) + 1 for row in A]
        assert (cfg.key_terms[0].shape == (1,)) == (math.prod(radix) <= 1 << 64)
        if cfg.key_terms[0].shape == (1,):
            X, S = term_sums(cfg)
            want = [sum((t - lo) * math.prod(radix[r + 1:])
                        for r, (t, lo) in enumerate(zip(key, low))) for key in table_keys(A, X)]
            assert S[:, 0].tolist() == want

    @pytest.mark.parametrize("rows, words", [(1, 1), (2, 1), (3, 2), (5, 3), (8, 4)])
    def test_rows_share_a_word_while_the_radices_fit(self, rows, words):
        # each row takes 2^30 + 1 values: two rows to a word
        cfg = Configuration(CellSpace((2,)), ((1 << 29, -(1 << 29)),) * rows)
        origin, steps = cfg.key_terms
        assert origin.shape == (words,) and steps.shape == (2, words)
        assert origin.dtype == steps.dtype == np.uint64

    def test_terms_of_ntfi_4_take_two_words(self):
        cfg = build_ntfi(4)  # 48 line sums of radix 5: 27 rows to a word
        origin, steps = cfg.key_terms
        assert origin.shape == (2,) and steps.shape == (64, 2) and not origin.any()
        S = np.stack([origin, steps[0], steps[0] + steps[5], steps[0]])
        assert cfg.key_codes_of_sums(S).tolist() == [0, 1, 2, 1]

    def test_a_row_of_2_to_the_64_values_is_one_word(self):
        cfg = Configuration(CellSpace((3,)), ((2**63 - 1, 2**63 - 1, 1),))
        X, S = term_sums(cfg)
        assert S[:, 0].tolist() == [k for k, in table_keys(cfg.matrix, X)]  # low = 0
        assert S[:, 0].max() == 2**64 - 1

    def test_a_row_of_more_values_refused(self):
        # -2 .. 2^64 - 2: 2^64 + 1 values
        cfg = Configuration(CellSpace((4,)), ((2**63 - 1, 2**63 - 1, -1, -1),))
        with pytest.raises(ZeroOneError, match=r"row 0 \(row0\).*more than 2\^64"):
            cfg.key_terms


# key spans beyond 2^64: two key words, ranked codes
NO_RADIX = Configuration(CellSpace((5,)), ((1, 2, 0, 1, 2), (1 << 40,) * 5, (1 << 40,) * 5))


class TestSwaps:
    @pytest.mark.parametrize(
        "cfg",
        [
            build_two_way_independence(3, 4),
            build_complete_independence((2, 2, 3)),
            build_many_facet_rasch((2, 2, 3)),
            build_ntfi(2),
            Configuration(CellSpace((6,)), ((1, 1, 1, 1, 1, 1), (2, -1, 0, 1, -2, 1))),
            Configuration(CellSpace((5,)), ((1, 1, 1, 1, 1),)),  # every pair has one key
            Configuration(CellSpace((4,)), ((1, 1, 1, 1), (1, 1, 0, 0))),  # equal columns
            NO_RADIX,
            build_two_way_independence(2, 60),  # 62 rows, two key words
            Configuration(CellSpace((4,)), ()),  # no rows
            Configuration(CellSpace((1,)), ((1,),)),  # no pair of cells
        ],
        ids=["two-way-3x4", "complete-2x2x3", "rating-2x2x3", "ntfi-2", "signed-6",
             "one-row", "equal-columns", "no-radix", "two-way-2x60", "zero-row", "one-cell"],
    )
    def test_every_swap_in_lexicographic_order(self, cfg):
        # the rows (i1, i2, i3, i4), i1 < i2, of distinct cells whose column sums agree
        A = cfg.array.T.tolist()
        by_sum = {}  # ordered pairs (i3, i4) by column sum, in lexicographic order
        for i3, i4 in itertools.permutations(range(cfg.n_cells), 2):
            by_sum.setdefault(tuple(a + b for a, b in zip(A[i3], A[i4])), []).append((i3, i4))
        want = [
            (i1, i2, i3, i4)
            for i1, i2 in itertools.combinations(range(cfg.n_cells), 2)
            for i3, i4 in by_sum[tuple(a + b for a, b in zip(A[i1], A[i2]))]
            if not {i3, i4} & {i1, i2}
        ]
        assert cfg.swaps.shape == (len(want), 4)
        assert list(map(tuple, cfg.swaps.tolist())) == want

    def test_without_radix(self):
        # more than one key word
        assert NO_RADIX.key_terms[0].shape == (2,)
        cfg = build_ntfi(4)  # 5^48 keys: line sums have no degree-2 move
        assert cfg.key_terms[0].shape == (2,) and cfg.swaps.shape == (0, 4)


def row_permutation(cfg, g) -> bool:
    """Whether ``g`` permutes the cells and ``A[:, g]`` has the rows of A."""
    rows = Counter(map(tuple, cfg.array.tolist()))
    return sorted(g.tolist()) == list(range(cfg.n_cells)) and \
        Counter(map(tuple, cfg.array[:, g].tolist())) == rows


def group_order(cfg) -> int:
    # the images of the row 0, 1, ..., n-1 are the group's elements
    return len(symmetry_orbit(np.arange(cfg.n_cells)[None], cfg))


class TestSymmetry:
    @pytest.mark.parametrize(
        "cfg,order",
        [
            (build_two_way_independence(3, 3), 72),  # S3 x S3, transpose
            (build_two_way_independence(2, 3), 12),
            (build_complete_independence((2, 3, 4)), 288),
            (build_complete_independence((3, 3, 3)), 1296),  # S3^3 x S3
            (build_ntfi(3), 1296),
            (build_ntfi(2), 48),
            # facet levels and the swap of the two facets; not the grades
            (build_many_facet_rasch((2, 2, 3)), 8),
            (build_many_facet_rasch((2, 2, 3), True), 8),
            # the transpose only: a level permutation of one axis moves
            # the zero diagonal
            (build_quasi_independence(4, 4, {(i, j) for i, j in np.ndindex(4, 4) if i != j}), 2),
            # the base model's symmetries on both copies; not the copy axis
            (lawrence_lift(build_two_way_independence(2, 2)), 8),
            # structural zeros that no candidate keeps in place
            (build_quasi_independence(3, 3, {(0, 1), (0, 2), (1, 0), (1, 1), (2, 2)}), 1),
        ],
        ids=["two-way-3x3", "two-way-2x3", "complete-2x3x4", "complete-3x3x3", "ntfi-3",
             "ntfi-2", "rating-2x2x3", "rating-2x2x3-const", "quasi-4x4-off-diagonal",
             "lawrence-2x2", "quasi-3x3-irregular"],
    )
    def test_named_models(self, cfg, order):
        assert all(row_permutation(cfg, g) for g in cfg.symmetry)
        assert group_order(cfg) == order

    def test_refused_candidates_leave_the_refused_axis_alone(self):
        cells = np.array(build_many_facet_rasch((2, 2, 3)).cell_space.cells)
        for g in build_many_facet_rasch((2, 2, 3)).symmetry:
            assert (cells[g, 2] == cells[:, 2]).all()  # the grade of every cell
        lift = lawrence_lift(build_two_way_independence(3, 3))
        cells = np.array(lift.cell_space.cells)
        assert len(lift.symmetry) == 5
        for g in lift.symmetry:
            assert (cells[g, 0] == cells[:, 0]).all()  # the copy of every cell

    def test_trivial_for_a_generic_matrix(self):
        cfg = Configuration(CellSpace((4,)), ((1, 1, 1, 1), (1, -1, 1, -1)))
        assert cfg.symmetry.shape == (0, 4)
        assert group_order(cfg) == 1

    @settings(max_examples=60, deadline=None)
    @given(box_models())
    def test_generators_permute_the_rows(self, model):
        cfg, margins = model
        assert all(row_permutation(cfg, g) for g in cfg.symmetry)
        if margins is not None:
            # without zeros, each axis gives its transposition and (with
            # three levels) its cycle, each equal-size pair its swap iff
            # the swap maps the margins onto themselves
            dims = cfg.cell_space.dims
            swaps = sum(
                {frozenset({a: b, b: a}.get(x, x) for x in m) for m in margins} == margins
                for a, b in itertools.combinations(range(len(dims)), 2)
                if dims[a] == dims[b]
            )
            assert len(cfg.symmetry) == sum(1 + (d > 2) for d in dims) + swaps
