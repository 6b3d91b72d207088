import itertools
import logging
import tracemalloc

import numpy as np
import pytest

from zeroone import fiber as fiber_module
from zeroone.cells import CellSpace, Move, Table, _components, find_rows, pack_bits
from zeroone.errors import (
    CapExceededError,
    LengthMismatchError,
    MixedFiberError,
    NoDecompositionError,
    ZeroOneError,
)
from zeroone.fiber import (
    build_fiber_graph,
    check_crossing,
    check_distance_reducing,
    check_generalized_crossing,
    conformal_decompose,
    enumerate_zero_one_fiber,
    iter_fibers,
    sweep_connectivity,
    sweep_crossing,
    sweep_distance_reducing,
    uncrossed_pair,
)
from zeroone.graver import MoveSet, square_free_graver
from zeroone.models import (
    Configuration,
    build_complete_independence,
    build_many_facet_rasch,
    build_ntfi,
    build_quasi_independence,
    build_two_way_independence,
)
from zeroone.movegen import (
    basic_moves_two_way,
    df1_loops,
    degree2_threeway_patterns,
    ntfi_333_moves,
    ntfi_basic_moves,
)
from zeroone.sampler import latin_fiber_key


class TestEnumeration:
    def test_two_permutation_tables(self):
        cfg = build_two_way_independence(2, 2)
        fiber = enumerate_zero_one_fiber(cfg, (1, 1, 1, 1))
        assert [x.values for x in fiber] == [(0, 1, 1, 0), (1, 0, 0, 1)]

    def test_infeasible_key_is_empty(self):
        cfg = build_two_way_independence(2, 2)
        assert enumerate_zero_one_fiber(cfg, (2, 2, 1, 1)) == []

    def test_permutation_count(self):
        cfg = build_two_way_independence(4, 4)
        fiber = enumerate_zero_one_fiber(cfg, (1,) * 8)
        assert len(fiber) == 24  # 4x4 permutation matrices

    def test_cap_raises(self):
        cfg = build_two_way_independence(4, 4)
        with pytest.raises(CapExceededError):
            enumerate_zero_one_fiber(cfg, (1,) * 8, cap=3)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_non_positive_cap_refused(self, cap):
        cfg = build_two_way_independence(4, 4)
        with pytest.raises(ZeroOneError, match="cap must be positive") as e:
            enumerate_zero_one_fiber(cfg, (1,) * 8, cap=cap)
        assert not isinstance(e.value, CapExceededError)

    def test_key_length_checked(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(MixedFiberError):
            enumerate_zero_one_fiber(cfg, (1, 1))

    def test_signed_matrix(self):
        cfg = Configuration(CellSpace((2,)), ((1, -1),))
        assert {x.values for x in enumerate_zero_one_fiber(cfg, (0,))} == {(0, 0), (1, 1)}

    def test_wide_model_needs_no_recursion(self):
        # 1,000 cells: one Python frame per cell would exceed the recursion limit
        cfg = build_two_way_independence(2, 500)
        key = (1, 1) + tuple(int(j in (0, 499)) for j in range(500))
        fiber = enumerate_zero_one_fiber(cfg, key)
        ones = [[k for k, v in enumerate(x.values) if v] for x in fiber]
        assert ones == [[499, 500], [0, 999]]

    def test_key_outside_row_ranges_is_empty(self):
        cfg = Configuration(CellSpace((3,)), ((1, 1, 0), (0, 0, 0), (1, -1, 1)))
        assert enumerate_zero_one_fiber(cfg, (1, 0, 0)) == [Table((0, 1, 1))]
        assert enumerate_zero_one_fiber(cfg, (1, 1, 0)) == []  # nonzero on the zero row
        assert enumerate_zero_one_fiber(cfg, (0, 0, -2)) == []  # below the row's range
        assert enumerate_zero_one_fiber(cfg, (3, 0, 0)) == []  # above the row's range

    def test_debug_record_per_call(self, caplog):
        cfg = build_two_way_independence(2, 2)
        with caplog.at_level(logging.DEBUG, logger="zeroone.fiber"):
            enumerate_zero_one_fiber(cfg, (1, 1, 1, 1))
            enumerate_zero_one_fiber(cfg, (3, 1, 1, 1))
            with pytest.raises(CapExceededError):
                enumerate_zero_one_fiber(cfg, (1, 1, 1, 1), cap=1)
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.fiber"]
        assert lines == [
            # the root, 6 inner nodes and the 2 leaves; 6 branches fail a touched row
            "fiber enumeration: 4 cells, 4 rows, 9 nodes visited, 6 branches pruned, "
            "2 tables found",
            # the root's range check fails
            "fiber enumeration: 4 cells, 4 rows, 0 nodes visited, 1 branches pruned, "
            "0 tables found",
            "fiber enumeration: 4 cells, 4 rows, 9 nodes visited, 4 branches pruned, "
            "1 tables found, cap reached",
        ]


class TestEnumerationAgainstBruteForce:
    @pytest.mark.parametrize(
        "cfg",
        [
            build_two_way_independence(3, 3),
            build_complete_independence((2, 2, 3)),
            build_quasi_independence(4, 4, {(i, j) for i in range(4) for j in range(4) if i != j}),
            build_many_facet_rasch((2, 2, 3)),  # entries up to 2
            Configuration(CellSpace((6,)), ((1, 1, 1, 1, 1, 1), (2, -1, 0, 1, -2, 1))),
            # cell 1 is in no row, so every fiber holds both of its values
            Configuration(CellSpace((4,)), ((1, 0, 1, 1), (0, 0, 1, -1))),
            Configuration(CellSpace((3,)), ()),
        ],
        ids=["two-way-3x3", "complete-2x2x3", "quasi-4x4", "rating-2x2x3", "signed-6",
             "zero-column", "zero-row"],
    )
    def test_every_fiber(self, cfg):
        for key, X in iter_fibers(cfg):
            # branch 0 before 1: the members in lexicographic order
            want = sorted(tuple(x) for x in X.tolist())
            assert [x.values for x in enumerate_zero_one_fiber(cfg, key)] == want


class TestFiberGraph:
    def test_two_node_graph(self):
        b = basic_moves_two_way(2, 2)
        cfg = b.source_config
        fiber = enumerate_zero_one_fiber(cfg, (1, 1, 1, 1))
        g = build_fiber_graph(fiber, b)
        assert g.connected and g.n_components == 1
        assert len(g.edges) == 1

    @pytest.mark.parametrize("cfg,max_degree", [
        (build_two_way_independence(3, 3), 3),
        (build_complete_independence((2, 2, 3)), 3),
    ])
    def test_edge_is_a_row_of_the_matrix(self, cfg, max_degree):
        b = square_free_graver(cfg, max_degree)
        edges = 0
        for _, X in iter_fibers(cfg):
            g = build_fiber_graph(X, b)
            for i, j, k in g.edges:
                diff = np.subtract(g.nodes[j].values, g.nodes[i].values)
                assert i < j and (np.array_equal(diff, b.matrix[k])
                                  or np.array_equal(diff, -b.matrix[k]))
            edges += len(g.edges)
        assert edges > 0

    def test_mixed_fiber_rejected(self):
        b = basic_moves_two_way(2, 2)
        with pytest.raises(MixedFiberError):
            build_fiber_graph([Table((1, 0, 0, 1)), Table((1, 1, 0, 0))], b)

    def test_keys_compared_exactly(self):
        # 4 * 2^62 = 2^64 wraps to 0 in int64, but this row takes 5 * 2^62 + 1 values
        b = MoveSet.build([], "t", Configuration(CellSpace((5,)), ((2**62,) * 5,)))
        with pytest.raises(ZeroOneError, match="more than 2\\^64"):
            build_fiber_graph([Table((1, 1, 1, 1, 0)), Table((0,) * 5)], b)

    def test_member_lengths_checked(self):
        b = basic_moves_two_way(2, 2)
        for fiber in ([Table((1, 0, 0, 1)), Table((1, 0, 0))], np.zeros((2, 5), dtype=np.uint8)):
            with pytest.raises(LengthMismatchError, match="must have 4 entries"):
                build_fiber_graph(fiber, b)
        assert build_fiber_graph(np.zeros((0, 5), dtype=np.uint8), b).nodes == ()

    def test_non_zero_one_member_refused(self):
        b = basic_moves_two_way(2, 2)
        fiber = [Table((1, 0, 0, 1)), Table((2, 0, 0, 0))]
        with pytest.raises(ZeroOneError, match="zero-one"):
            build_fiber_graph(fiber, b)
        with pytest.raises(ZeroOneError, match="zero-one"):
            check_distance_reducing(b, fiber)

    def test_single_table_fiber(self):
        b = basic_moves_two_way(2, 2)
        fiber = enumerate_zero_one_fiber(b.source_config, (2, 0, 1, 1))
        g = build_fiber_graph(fiber, b)
        assert g.nodes == (Table((1, 1, 0, 0)),)
        assert g.edges == () and g.components == ((0,),) and g.connected

    def test_empty_move_set_gives_singletons(self):
        cfg = build_two_way_independence(2, 2)
        fiber = enumerate_zero_one_fiber(cfg, (1, 1, 1, 1))
        g = build_fiber_graph(fiber, MoveSet.build([], "t", cfg))
        assert g.n_components == 2

    def test_debug_record_per_call(self, caplog):
        fiber = enumerate_zero_one_fiber(build_ntfi(3), latin_fiber_key(3))
        with caplog.at_level(logging.DEBUG, logger="zeroone.fiber"):
            for b in (ntfi_basic_moves(3), ntfi_333_moves("deg6")):
                build_fiber_graph(fiber, b)
            build_fiber_graph(fiber[:1], b)
            build_fiber_graph(np.zeros((0, 27), dtype=np.uint8), b)
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.fiber"]
        assert lines == [
            # the 12 Latin squares of order 3: a degree-4 swap leaves the
            # fiber, the degree-6 moves connect it
            "fiber graph: 12 nodes, 0 edges, 12 components",
            "fiber graph: 12 nodes, 54 edges, 1 components",
            "fiber graph: 1 nodes, 0 edges, 1 components",
            "fiber graph: 0 nodes, 0 edges, 0 components",
        ]


class TestDistanceReduction:
    def test_basic_on_small_fiber(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        fiber = enumerate_zero_one_fiber(cfg, (1, 1, 1, 1, 1, 1))
        ok, cex = check_distance_reducing(b, fiber, strong=True)
        assert ok and cex is None

    def test_counterexample_reported(self):
        cfg = build_two_way_independence(3, 3)
        fiber = enumerate_zero_one_fiber(cfg, (1, 1, 1, 1, 1, 1))
        ok, cex = check_distance_reducing(MoveSet.build([], "t", cfg), fiber)
        assert not ok
        x, y = cex
        assert x.values != y.values


class TestCrossing:
    def test_swap_pair_has_strong_crossing(self):
        cfg = build_two_way_independence(2, 2)
        # cells 0 and 3 hold 1 in x, cells 1 and 2 in y
        assert check_crossing(Table((1, 0, 0, 1)), Table((0, 1, 1, 0)), cfg) == ((0, 3, 1, 2), 1)

    def test_weak_implied_by_strong(self):
        cfg = build_two_way_independence(2, 2)
        assert check_crossing(Table((1, 0, 0, 1)), Table((0, 1, 1, 0)), cfg, weak=True) is not None

    def test_identical_tables_rejected(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(ZeroOneError):
            check_crossing(Table((1, 0, 0, 1)), Table((1, 0, 0, 1)), cfg)

    def test_lengths_checked(self):
        cfg = build_two_way_independence(2, 2)
        for x, y in [((1, 0, 0, 1, 1), (0, 1, 1, 0, 0)), ((1, 0, 0, 1), (0, 1, 1, 0, 0)),
                     ((1, 0, 0), (0, 1, 1, 0))]:
            with pytest.raises(LengthMismatchError, match="space has 4 cells"):
                check_crossing(Table(x), Table(y), cfg)

    def test_uncrossed_pair_returns_members(self):
        cfg = build_quasi_independence(3, 3, off_diagonal(3))
        fiber = enumerate_zero_one_fiber(cfg, (1,) * 6)
        X = np.array([x.values for x in fiber], dtype=np.uint8)
        pair = uncrossed_pair(fiber, cfg)
        assert pair[0] is fiber[0] and pair[1] is fiber[1]
        assert uncrossed_pair(X, cfg, weak=True) == pair
        assert uncrossed_pair(X[:1], cfg) is None and uncrossed_pair(X[:0], cfg) is None

    def test_uncrossed_pair_refusals(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(ZeroOneError):  # the same table twice
            uncrossed_pair([Table((1, 0, 0, 1))] * 2, cfg)
        with pytest.raises(MixedFiberError):
            uncrossed_pair([Table((1, 0, 0, 1)), Table((1, 1, 0, 0))], cfg)

    def test_generalized_full_set_trivially_covered(self):
        cfg = build_complete_independence((2, 2, 2))
        b0 = square_free_graver(cfg, 2)
        ok, cex = check_generalized_crossing(b0, b0)
        assert ok and cex is None

    def test_generalized_requires_subset(self):
        cfg = build_complete_independence((2, 2, 3))
        with pytest.raises(ZeroOneError, match="subset"):
            check_generalized_crossing(square_free_graver(cfg, 3), square_free_graver(cfg, 2))

    @pytest.mark.parametrize("make_b0", [
        lambda: degree2_threeway_patterns((2, 2, 3)),
        # the 2x2 swap is a move of the all-ones row too: a subset by its rows alone
        lambda: MoveSet.build(basic_moves_two_way(2, 2).matrix, "b0",
                              Configuration(CellSpace((4,)), ((1, 1, 1, 1),))),
    ], ids=["another-width", "same-width"])
    def test_generalized_refuses_another_model(self, make_b0):
        with pytest.raises(ZeroOneError, match="another model"):
            check_generalized_crossing(basic_moves_two_way(2, 2), make_b0())


def brute_crossing(x, y, cfg, weak):
    """Reference crossing search on explicit column sums: the first cells
    i1 < i2 with u > v, i3 with u < v and i4 (strong: u <= v) such that
    A[:, i1] + A[:, i2] == A[:, i3] + A[:, i4], for (u, v) = (x, y), then (y, x)."""
    cols = cfg.array.T.tolist()
    n = cfg.n_cells

    def swap(i1, i2, i3, i4):
        return all(a + b == c + d for a, b, c, d in zip(cols[i1], cols[i2], cols[i3], cols[i4]))

    for direction, (u, v) in ((1, (x.values, y.values)), (-1, (y.values, x.values))):
        for i1, i2 in itertools.combinations([i for i in range(n) if u[i] > v[i]], 2):
            for i3 in (i for i in range(n) if u[i] < v[i]):
                for i4 in range(n):
                    if i4 in (i1, i2, i3) or not (weak or u[i4] <= v[i4]):
                        continue
                    if swap(i1, i2, i3, i4):
                        return (i1, i2, i3, i4), direction
    return None


class TestCrossingAgainstBruteForce:
    @pytest.mark.parametrize(
        "cfg,outcomes",
        [
            (build_two_way_independence(3, 4), {True, False}),
            (build_complete_independence((2, 2, 3)), {True, False}),
            (build_quasi_independence(4, 4, {(i, j) for i in range(4) for j in range(4) if i != j}),
             {True, False}),
            (build_many_facet_rasch((2, 2, 3)), {True, False}),
            (Configuration(CellSpace((6,)), ((1, 1, 1, 1, 1, 1), (2, -1, 0, 1, -2, 1))),
             {True, False}),
            # line sums have no degree-2 move, so no crossing either
            (build_ntfi(3), {False}),
            (build_ntfi(4), {False}),  # 5^48 keys: no uint64 code
        ],
        ids=["two-way-3x4", "complete-2x2x3", "quasi-4x4", "rating-2x2x3", "signed-6",
             "ntfi-3x3x3", "ntfi-4x4x4"],
    )
    def test_witnesses_match(self, cfg, outcomes):
        rng = np.random.Generator(np.random.PCG64(7))
        found = set()
        for _ in range(40):
            x = Table(rng.integers(0, 2, size=cfg.n_cells))
            # a partner in x's fiber, else x with four cells flipped (4x4x4 is not enumerated)
            fiber = []
            if cfg.n_cells < 64:
                fiber = enumerate_zero_one_fiber(cfg, cfg.sufficient_stat(x))
            others = [z for z in fiber if z != x]
            if others:
                y = others[rng.integers(len(others))]
            else:
                flip = rng.choice(cfg.n_cells, size=4, replace=False)
                y = Table(np.array(x.values) ^ np.isin(np.arange(cfg.n_cells), flip))
            for weak in (False, True):
                want = brute_crossing(x, y, cfg, weak)
                assert check_crossing(x, y, cfg, weak) == want
                found.add(want is not None)
        assert found == outcomes


class TestCrossingFeatures:
    """On zero-one tables some swap crosses from u to v iff ``L[u] · R[v] > 0``
    for the features ``(L, R)`` of ``fiber._crossings``: tables of any key,
    so that the strong split shows where strong and weak differ."""

    @pytest.mark.parametrize(
        "cfg", [build_two_way_independence(3, 4), build_complete_independence((2, 2, 3))],
        ids=["two-way-3x4", "complete-2x2x3"])
    def test_product_matches_the_comparison_form(self, cfg):
        rng = np.random.Generator(np.random.PCG64(5))
        X = np.unique(rng.integers(0, 2, size=(60, cfg.n_cells), dtype=np.uint8), axis=0)
        tables = [Table(x) for x in X.tolist()]
        crosses = {}
        for weak in (False, True):
            L, R = fiber_module._crossings(X, cfg.swaps, weak)
            crosses[weak] = L @ R.T > 0
            for u, v in itertools.permutations(range(len(X)), 2):
                found = check_crossing(tables[u], tables[v], cfg, weak)
                assert crosses[weak][u, v] == (found is not None and found[1] == 1)
        # strong implies weak, and some pairs cross only weakly
        assert (crosses[True] >= crosses[False]).all()
        assert (crosses[True] > crosses[False]).sum() > 100


def off_diagonal(n):
    return {(i, j) for i in range(n) for j in range(n) if i != j}


SIGNED_6 = Configuration(CellSpace((6,)), ((1, 1, 1, 1, 1, 1), (2, -1, 0, 1, -2, 1)))


def brute_uncrossed(tables, cfg, weak):
    """Reference per-fiber loop: the first pair a < b in node order with no
    crossing by :func:`brute_crossing`, or None."""
    for a, b in itertools.combinations(range(len(tables)), 2):
        if brute_crossing(tables[a], tables[b], cfg, weak) is None:
            return tables[a], tables[b]
    return None


class TestSweepAgainstPerFiberLoop:
    """The first uncrossed pair of every fiber of ``iter_fibers``, and with
    it the first failing key, against the per-fiber loop, and the batched
    :func:`sweep_crossing` against both; ``_CHUNK`` is then small, so a
    fiber spans several row tiles of the pair kernel."""

    @pytest.mark.parametrize(
        "cfg,first_failing",
        [
            (build_quasi_independence(3, 3, off_diagonal(3)), (1, 1, 1, 1, 1, 1)),
            (build_quasi_independence(4, 4, off_diagonal(4)), (0, 1, 1, 1, 0, 1, 1, 1)),
            (build_many_facet_rasch((2, 2, 3)), (0, 0, 0, 0, 1, 0, 0)),
            (SIGNED_6, (1, 1)),
            (build_two_way_independence(2, 5), None),
            (build_two_way_independence(3, 4), None),
            (build_complete_independence((2, 2, 3)), None),
        ],
        ids=["quasi-3x3", "quasi-4x4", "rating-2x2x3", "signed-6", "two-way-2x5",
             "two-way-3x4", "complete-2x2x3"],
    )
    @pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
    def test_first_uncrossed_pair(self, cfg, first_failing, weak, monkeypatch):
        verdict = (first_failing is None, first_failing)
        assert sweep_crossing(cfg, weak) == verdict
        fibers = list(iter_fibers(cfg))
        wants = [brute_uncrossed([Table(x) for x in X.tolist()], cfg, weak) for _, X in fibers]
        assert next((key for (key, _), want in zip(fibers, wants) if want), None) == first_failing
        calls, kernel = [], fiber_module._far_pair  # [m, F, rows per fiber of each product, pair]

        class Tiles(np.ndarray):  # features whose products record their left operand
            def __matmul__(self, other):
                calls[-1][2].append(self.shape[1])
                return np.asarray(self) @ np.asarray(other)

        def spy(L, R, F, both):
            calls.append([len(L) // F, F, [], None])
            calls[-1][3] = kernel(L.view(Tiles), R.view(Tiles), F, both)
            return calls[-1][3]

        def tiled(chunk):
            # tiles of at most chunk // (F m) rows per fiber, up to the one
            # holding the first failing row; a tile of every row takes the
            # transpose, any other tile two products
            for m, F, rows, pair in calls:
                step = max(1, chunk // (F * m))
                assert max(rows) <= step
                tiles = pair[1] // step + 1 if pair else -(-m // step)
                assert len(rows) == (1 if step >= m else 2 * tiles)
            return [(m, F) for m, F, *_ in calls]

        monkeypatch.setattr(fiber_module, "_far_pair", spy)
        sizes = sorted(len(X) for _, X in fibers if len(X) > 1)
        for chunk in (1, 7, 100):
            monkeypatch.setattr(fiber_module, "_CHUNK", chunk)
            calls.clear()
            assert [uncrossed_pair(X, cfg, weak) for _, X in fibers] == wants
            # one call per fiber of two or more tables; at chunk 1 a fiber
            # with no uncrossed pair spans one row tile per member
            assert tiled(chunk) == [(len(X), 1) for _, X in fibers if len(X) > 1]
            assert chunk > 1 or first_failing or max(len(rows) for _, _, rows, _ in calls) > 2
            # one fiber per batch, sizes ascending; a passing sweep takes
            # each fiber of two or more tables once
            calls.clear()
            assert sweep_crossing(cfg, weak) == verdict
            batches = tiled(chunk)
            assert {F for _, F in batches} == {1}
            assert [m for m, _ in batches] == sorted(m for m, _ in batches)
            if first_failing is None:
                assert [m for m, _ in batches] == sizes and len(sizes) > len(set(sizes))

    def test_debug_record_per_call(self, caplog):
        passing = build_two_way_independence(2, 2)
        failing = build_quasi_independence(3, 3, off_diagonal(3))
        index = [key for key, _ in iter_fibers(failing)].index((1,) * 6)
        with caplog.at_level(logging.DEBUG, logger="zeroone.fiber"):
            sweep_crossing(passing)
            sweep_crossing(failing, weak=True)
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.fiber"]
        assert lines == [
            "strong crossing sweep: 16 tables, 15 fibers, first failing fiber None",
            f"weak crossing sweep: 64 tables, 63 fibers, first failing fiber {index}",
        ]


class TestCrossingBeyondZeroOne:
    """Comparisons, not bits: on distinct tables with entries 0..3 the
    witnesses are the reference search's."""

    @pytest.mark.parametrize(
        "cfg",
        [build_two_way_independence(3, 4), build_complete_independence((2, 2, 3)),
         build_many_facet_rasch((2, 2, 3)), SIGNED_6],
        ids=["two-way-3x4", "complete-2x2x3", "rating-2x2x3", "signed-6"],
    )
    def test_witnesses_match(self, cfg):
        rng = np.random.Generator(np.random.PCG64(11))
        found = set()
        for _ in range(60):
            x = rng.integers(0, 4, size=cfg.n_cells)
            y = x.copy()  # redrawn in a few cells, so that some pairs have no crossing
            cells = rng.choice(cfg.n_cells, size=rng.integers(1, cfg.n_cells + 1), replace=False)
            y[cells] = rng.integers(0, 4, size=len(cells))
            if (x == y).all():
                continue
            x, y = Table(x), Table(y)
            for weak in (False, True):
                want = brute_crossing(x, y, cfg, weak)
                assert check_crossing(x, y, cfg, weak) == want
                found.add(want is not None)
        assert found == {True, False}


class TestConformalDecompose:
    def test_single_move_difference(self):
        cfg = build_two_way_independence(2, 2)
        b0 = square_free_graver(cfg, 2)
        parts = conformal_decompose(Table((1, 0, 0, 1)), Table((0, 1, 1, 0)), b0)
        total = [0, 0, 0, 0]
        for z in parts:
            total = [a + v for a, v in zip(total, z.vec)]
        assert tuple(total) == (-1, 1, 1, -1)

    def test_no_decomposition_raises(self):
        b0 = MoveSet.build([], "t", build_two_way_independence(2, 2))
        with pytest.raises(NoDecompositionError):
            conformal_decompose(Table((1, 0, 0, 1)), Table((0, 1, 1, 0)), b0)


def brute_generalized_crossing(b, b0):
    """Reference: the per-move loop over ``b0`` and, for each member z
    outside ``b``, over the square-free members of ``b`` in both signs."""
    bvecs = {z.vec for z in b.moves}
    if not bvecs <= {z.vec for z in b0.moves}:
        raise ZeroOneError("b must be a subset of b0")
    # the +1 and the -1 cells of each square-free member of b, in both signs
    signed = [
        ([k for k, v in enumerate(zp.vec) if v * sgn > 0],
         [k for k, v in enumerate(zp.vec) if v * sgn < 0])
        for zp in b.moves if zp.square_free for sgn in (1, -1)
    ]

    def crosses(z, pos, neg):
        if any(z[k] <= 0 for k in neg) or any(z[k] > 0 for k in pos):
            return False
        return sum(1 for k in pos if z[k] < 0) >= len(pos) - 1

    for z in b0.moves:
        if z.vec in bvecs:
            continue
        if not any(crosses(z.vec, pos, neg) for pos, neg in signed):
            return False, z
    return True, None


def brute_conformal_decompose(x, y, b0):
    """Reference: recursive depth-first search over b0's members in order,
    each before its negation; None when there is no decomposition."""

    def fits(g, s):
        return all((a <= 0 or b >= a) and (a >= 0 or b <= a) for a, b in zip(g, s))

    def rec(d, acc):
        if not any(d):
            return list(acc)
        for z in b0.moves:
            for v in (z.vec, tuple(-w for w in z.vec)):
                if fits(v, d):
                    res = rec(tuple(a - bb for a, bb in zip(d, v)), acc + [Move(v)])
                    if res is not None:
                        return res
        return None

    return rec(tuple(b - a for a, b in zip(x.values, y.values)), [])


class TestMoveSetChecksAgainstBruteForce:
    """The array forms of the generalized crossing check and of the
    conformal decomposition against their per-move references, on random
    subsets of square-free Graver sets."""

    MODELS = [
        build_complete_independence((2, 2, 3)),
        build_complete_independence((2, 3, 3)),
        build_two_way_independence(3, 4),
        build_many_facet_rasch((2, 2, 3)),
    ]
    IDS = ["complete-2x2x3", "complete-2x3x3", "two-way-3x4", "rating-2x2x3"]

    @staticmethod
    def subset(rng, b0, also=None):
        keep = rng.random(len(b0)) < rng.uniform(0.05, 1.0)
        if also is not None:
            keep |= also
        return MoveSet.build(b0.matrix[keep], "subset", b0.source_config)

    @pytest.mark.parametrize("cfg", MODELS, ids=IDS)
    def test_generalized_crossing(self, cfg):
        rng = np.random.Generator(np.random.PCG64(11))
        b0 = square_free_graver(cfg, 4)
        # every other subset holds all members of degree <= 2, which cross the rest
        low = np.maximum(b0.matrix, 0).sum(axis=1) <= 2
        verdicts = set()
        for i in range(30):
            b = self.subset(rng, b0, low if i % 2 else None)
            got = check_generalized_crossing(b, b0)
            assert got == brute_generalized_crossing(b, b0)
            verdicts.add(got[0])
        assert verdicts == {True, False}

    @pytest.mark.parametrize("cfg", MODELS, ids=IDS)
    def test_conformal_decompose(self, cfg):
        rng = np.random.Generator(np.random.PCG64(12))
        b0 = square_free_graver(cfg, 4)
        found = set()
        for _ in range(40):
            x = Table(rng.integers(0, 2, size=cfg.n_cells))
            fiber = enumerate_zero_one_fiber(cfg, cfg.sufficient_stat(x))
            y = fiber[rng.integers(len(fiber))]
            b = self.subset(rng, b0)
            want = brute_conformal_decompose(x, y, b)
            if want is None:
                with pytest.raises(NoDecompositionError):
                    conformal_decompose(x, y, b)
            else:
                assert conformal_decompose(x, y, b) == want
            found.add(want is None)
        assert found == {True, False}


class TestSweep:
    def test_three_by_three_basic_connected(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        rep = sweep_connectivity(cfg, b, max_cells=9)
        assert rep.n_tables == 512
        assert rep.all_connected
        assert rep.n_components == rep.n_fibers

    def test_refuses_moves_of_another_model(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        rows = Configuration(cfg.cell_space, cfg.matrix[:3])  # row sums only
        other = MoveSet.build(b.moves, b.provenance, rows)
        with pytest.raises(ZeroOneError, match="another model"):
            sweep_connectivity(cfg, other, max_cells=9)

    def test_cell_limit_enforced(self):
        b = basic_moves_two_way(5, 5)
        cfg = b.source_config
        with pytest.raises(CapExceededError):
            sweep_connectivity(cfg, b, max_cells=9)
        with pytest.raises(CapExceededError):
            next(iter_fibers(cfg, max_cells=9))
        with pytest.raises(CapExceededError):
            sweep_crossing(cfg, max_cells=9)
        assert "swaps" not in vars(cfg)  # refused before the swaps are built

    @pytest.mark.parametrize("max_cells", [0, -1])
    def test_non_positive_cell_limit_refused(self, max_cells):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        for call in (lambda: sweep_connectivity(cfg, b, max_cells=max_cells),
                     lambda: sweep_crossing(cfg, max_cells=max_cells),
                     lambda: next(iter_fibers(cfg, max_cells=max_cells))):
            with pytest.raises(ZeroOneError, match="max_cells must be positive") as e:
                call()
            assert not isinstance(e.value, CapExceededError)

    def test_signed_matrix(self):
        cfg = Configuration(CellSpace((3,)), ((1, -1, 0), (0, 0, 1)))
        rep = sweep_connectivity(cfg, MoveSet.build([Move((1, 1, 0))], "t", cfg))
        assert (rep.n_tables, rep.n_fibers, rep.n_components) == (8, 6, 6)
        assert rep.all_connected


    def test_zero_row_matrix(self):
        # no statistic: every vector is a move and all tables form one fiber
        cfg = Configuration(CellSpace((2,)), ())
        assert cfg.array.shape == (0, 2)
        b = MoveSet.build([Move((1, -1)), Move((1, 0))], "t", cfg)
        assert len(enumerate_zero_one_fiber(cfg, ())) == 4
        rep = sweep_connectivity(cfg, b)
        assert (rep.n_tables, rep.n_fibers, rep.n_components) == (4, 1, 1)


    def test_debug_record_per_call(self, caplog):
        b = basic_moves_two_way(2, 2)
        cfg = b.source_config
        with caplog.at_level(logging.DEBUG, logger="zeroone.fiber"):
            sweep_connectivity(cfg, b)
            sweep_connectivity(cfg, MoveSet.build([], "t", cfg))
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.fiber"]
        assert lines == [
            # the swap joins the two tables with all margins 1 (0110 -> 1001)
            "connectivity sweep: 16 tables, 15 fibers, 1 edges, 15 components, "
            "1 propagation passes",
            "connectivity sweep: 16 tables, 15 fibers, 0 edges, 16 components, "
            "0 propagation passes",
        ]


def bfs_labels(m, edges):
    """Reference: each node labelled by the smallest node of its component."""
    adj = [[] for _ in range(m)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    labels = [-1] * m
    for s in range(m):
        if labels[s] < 0:
            labels[s] = s
            queue = [s]
            for u in queue:
                for v in adj[u]:
                    if labels[v] < 0:
                        labels[v] = s
                        queue.append(v)
    return labels


class TestComponents:
    def check(self, m, edges):
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        count, labels, rounds = _components(m, edges[:, 0], edges[:, 1])
        want = bfs_labels(m, edges.tolist())
        assert labels.tolist() == want
        assert count == len(set(want))
        return rounds

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 300))
        edges = rng.integers(0, m, size=(int(rng.integers(0, 2 * m)), 2))
        loops = rng.integers(0, m, size=5)
        # self-loops and every edge twice, the second time reversed
        edges = np.vstack([edges, np.c_[loops, loops], edges[:, ::-1]])
        self.check(m, edges[rng.permutation(len(edges))])

    def test_trivial_graphs(self):
        assert self.check(0, []) == 0
        assert self.check(1, []) == 0
        assert self.check(1, [(0, 0)]) == 0
        assert self.check(5, []) == 0
        self.check(6, [(4, 2), (2, 4), (5, 5)])  # isolated nodes 0, 1 and 3

    def test_long_paths(self):
        n = 5000
        # numbered in descending order: one hook round makes a chain of
        # n nodes that pointer jumping must compress
        down = np.arange(n)[::-1]
        self.check(n, np.c_[down[:-1], down[1:]])
        # numbered at random, most nodes are hooked a few rounds later
        path = np.random.default_rng(1).permutation(n)
        assert self.check(n, np.c_[path[:-1], path[1:]]) > 3

    def test_labels_are_int32(self):
        _, labels, _ = _components(3, np.array([0]), np.array([2]))
        assert labels.dtype == np.int32


class TestIterFibers:
    def test_fibers_partition_the_tables_in_key_order(self):
        cfg = build_many_facet_rasch((2, 2, 2))
        fibers = list(iter_fibers(cfg))
        keys = [key for key, _ in fibers]
        assert keys == sorted(set(keys))
        assert sum(len(X) for _, X in fibers) == 2 ** cfg.n_cells
        for key, X in fibers:
            assert (X @ cfg.array.T == key).all()
            assert (np.diff(X @ (1 << np.arange(cfg.n_cells))) > 0).all()  # sweep order

    def test_keys_are_exact(self):
        # one word, keys 0 .. 2^64 - 1: beyond int64, the product would wrap
        cfg = Configuration(CellSpace((3,)), ((2**63 - 1, 2**63 - 1, 1),))
        keys = [key for key, in (key for key, _ in iter_fibers(cfg))]
        assert keys == [0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]

    def test_unique_fallback_matches_radix_codes(self):
        # 70 copies of one row: 3^71 keys take two words, which np.unique ranks
        wide = Configuration(CellSpace((3,)), ((1, 1, 0),) * 70 + ((0, 1, 1),))
        narrow = Configuration(CellSpace((3,)), ((1, 1, 0), (0, 1, 1)))
        assert wide.key_terms[0].shape == (2,) and narrow.key_terms[0].shape == (1,)
        got = [(key[-2:], X.tolist()) for key, X in iter_fibers(wide)]
        assert got == [(key, X.tolist()) for key, X in iter_fibers(narrow)]


def brute_force(fiber, moves):
    """Reference for the bitmask kernel, one table, move and sign at a time.

    Returns the edges (the index in ``moves`` of the first (node, move) hit
    of ``node + move``), the components, and the first pair failing strong
    and weak distance reduction (None when there is none).
    """
    index = {x.values: i for i, x in enumerate(fiber)}
    nbrs = [set() for _ in fiber]
    edges = {}
    for i, x in enumerate(fiber):
        for k, z in enumerate(moves):
            for sign in (1, -1):
                j = index.get(tuple(a + sign * v for a, v in zip(x.values, z.vec)))
                if j is not None and j != i:
                    nbrs[i].add(j)
                    if sign == 1:
                        edges.setdefault((min(i, j), max(i, j)), k)
    label = bfs_labels(len(fiber), [(i, j) for i, js in enumerate(nbrs) for j in js])
    comps = sorted(tuple(i for i in range(len(fiber)) if label[i] == c) for c in set(label))

    def closer(i, j):
        dist = lambda a: sum(u != v for u, v in zip(fiber[a].values, fiber[j].values))
        return any(dist(k) < dist(i) for k in nbrs[i])

    pairs = [(i, j) for i in range(len(fiber)) for j in range(i + 1, len(fiber))]
    strong = next((p for p in pairs if not (closer(*p) and closer(*p[::-1]))), None)
    weak = next((p for p in pairs if not (closer(*p) or closer(*p[::-1]))), None)
    return [(i, j, k) for (i, j), k in edges.items()], comps, strong, weak


def assert_kernel_matches_brute_force(fiber, b):
    edges, comps, strong, weak = brute_force(fiber, b.moves)
    g = build_fiber_graph(fiber, b)
    assert list(g.edges) == edges
    assert list(g.components) == comps
    for want, is_strong in ((strong, True), (weak, False)):
        ok, cex = check_distance_reducing(b, fiber, strong=is_strong)
        assert ok == (want is None)
        assert cex == (None if ok else (fiber[want[0]], fiber[want[1]]))


class TestKernelAgainstBruteForce:
    @pytest.mark.parametrize(
        "cfg,max_degree",
        [
            (build_two_way_independence(2, 3), 2),
            (build_two_way_independence(3, 3), 3),
            (build_complete_independence((2, 2, 2)), 2),
            (build_quasi_independence(3, 3, {(i, j) for i in range(3) for j in range(3) if i != j}), 3),
            (build_ntfi(2), 4),
            (build_many_facet_rasch((2, 2, 2)), 6),
            (build_many_facet_rasch((2, 2, 2), True), 6),
        ],
    )
    def test_every_fiber(self, cfg, max_degree):
        b0 = square_free_graver(cfg, max_degree)
        # every other move too, so that some fibers fail and split
        for b in (b0, MoveSet.build(b0.moves[::2], b0.provenance[::2], cfg)):
            for _, X in iter_fibers(cfg):
                assert_kernel_matches_brute_force([Table(x) for x in X.tolist()], b)

    def test_partial_fibers_in_tiny_chunks(self, monkeypatch):
        # the kernel in chunks of one or two tables; moves leading outside
        # the given tables make no edge and take no table closer
        monkeypatch.setattr(fiber_module, "_CHUNK", 50)
        cfg = build_complete_independence((2, 2, 3))
        fiber = max((X for _, X in iter_fibers(cfg)), key=len)
        tables = [Table(x) for x in fiber.tolist()]
        b0 = square_free_graver(cfg, 3)
        for b in (b0, MoveSet.build(b0.moves[::2], b0.provenance[::2], cfg)):
            for part in (tables, tables[::2], tables[1::3]):
                assert_kernel_matches_brute_force(part, b)

    def test_tables_wider_than_one_word(self):
        # 2 x 33 = 66 cells; the busy columns 30..32 put cells 63..65 astride two words
        cfg = build_two_way_independence(2, 33)
        busy = (0, 1, 2, 30, 31, 32)
        fiber = enumerate_zero_one_fiber(cfg, (3, 3) + tuple(int(j in busy) for j in range(33)))
        assert len(fiber) == 20
        swaps = basic_moves_two_way(2, 33)
        for b in (swaps, MoveSet.build(swaps.moves[::3], swaps.provenance[::3], cfg)):
            assert_kernel_matches_brute_force(fiber, b)
        for weak in (False, True):
            assert uncrossed_pair(fiber, cfg, weak) == brute_uncrossed(fiber, cfg, weak)


def square_free_masks(b):
    """Packed +1 and -1 cells of the square-free rows of ``b.matrix``."""
    V = b.matrix[(np.abs(b.matrix) <= 1).all(axis=1)]
    return pack_bits(V == 1), pack_bits(V == -1)


def reference_closer(b, X):
    """Reference ``closer[i, j]``: some applicable move takes node i of the
    0/1 rows ``X`` strictly closer to node j.  The (table, signed move,
    target) triples come from the N x K test ``x & S == M``, targets
    outside ``X`` dropped, and a move of support s does so iff
    ``2 * popcount(s & (x ^ y)) > popcount(s)``; one dense m x m array.
    The masks come from the square-free rows of ``b.matrix``, not ``b.masks``."""
    m = len(X)
    P, M = square_free_masks(b)
    B = pack_bits(X)
    pos, neg = np.vstack([P, M]), np.vstack([M, P])
    i, k = np.nonzero(((B[:, None, :] & (pos | neg)) == neg).all(axis=2))
    j = find_rows(B, B[i] ^ (pos | neg)[k])
    keep = (j >= 0) & (j != i)
    i, j = i[keep], j[keep]
    supp = B[i] ^ B[j]
    size = np.bitwise_count(supp).sum(axis=1)
    shared = np.bitwise_count((B[i][:, None, :] ^ B) & supp[:, None, :]).sum(axis=2)
    closer = np.zeros((m, m), dtype=bool)
    np.logical_or.at(closer, i, 2 * shared > size[:, None])
    return closer


def reference_far_pair(closer, strong):
    """The first pair (x, y), x < y, in node order that fails, or None."""
    ok = closer & closer.T if strong else closer | closer.T
    bad = np.triu(~ok, 1)
    return divmod(int(bad.argmax()), len(bad)) if bad.any() else None


def reference_sweep(cfg, b):
    """The per-fiber loop over :func:`iter_fibers`: the first failing key,
    strong and weak (None when there is none).  Checks on the way that
    the single-fiber entry reports each fiber's first failing pair."""
    first = {True: None, False: None}
    for key, X in iter_fibers(cfg):
        if len(X) < 2:
            continue
        closer = reference_closer(b, X)
        for strong in (True, False):
            pair = reference_far_pair(closer, strong)
            want = (True, None) if pair is None else (False, (Table(X[pair[0]]), Table(X[pair[1]])))
            assert check_distance_reducing(b, X, strong) == want
            if pair is not None and first[strong] is None:
                first[strong] = key
    return first


def halved(b):
    return MoveSet.build(b.matrix[::2], b.provenance[::2], b.source_config)


class TestDistanceSweepAgainstReference:
    """The whole-model sweep and the single-fiber entry against the
    per-fiber reference, on the strong-reduction models of up to 2^12
    tables, with full and halved move sets."""

    MODELS = [
        (build_two_way_independence(2, 2), 2),
        (build_two_way_independence(2, 3), 2),
        (build_two_way_independence(2, 4), 2),
        (build_two_way_independence(3, 3), 3),
        (build_two_way_independence(3, 4), 3),
        (build_complete_independence((2, 2, 2)), 2),
        (build_complete_independence((2, 2, 3)), 3),
        (build_quasi_independence(3, 3, off_diagonal(3)), 3),
        (build_quasi_independence(4, 4, off_diagonal(4)), 4),
        (build_ntfi(2), 4),
        (build_many_facet_rasch((2, 2, 2)), 6),
        (build_many_facet_rasch((2, 2, 2), True), 6),
    ]
    IDS = ["two-way-2x2", "two-way-2x3", "two-way-2x4", "two-way-3x3", "two-way-3x4",
           "complete-2x2x2", "complete-2x2x3", "quasi-3x3", "quasi-4x4", "line-sums-2x2x2",
           "rating-2x2x2", "rating-2x2x2-const"]

    @staticmethod
    def check(cfg, b):
        first = reference_sweep(cfg, b)
        for strong, key in first.items():
            want = (True, None) if key is None else (False, key)
            assert sweep_distance_reducing(cfg, b, strong) == want
        return first

    @pytest.mark.parametrize("cfg,max_degree", MODELS, ids=IDS)
    def test_first_failing_key(self, cfg, max_degree):
        b0 = square_free_graver(cfg, max_degree)
        assert self.check(cfg, b0) == {True: None, False: None}
        self.check(cfg, halved(b0))

    def test_halved_sets_fail_somewhere(self):
        cfg = build_two_way_independence(3, 3)
        first = self.check(cfg, halved(square_free_graver(cfg, 3)))
        assert first[True] is not None and first[False] is not None

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_tiny_chunks(self, monkeypatch, chunk):
        # batches of one fiber, and closer in tiles of a few rows
        monkeypatch.setattr(fiber_module, "_CHUNK", chunk)
        cfg = build_two_way_independence(3, 3)
        b0 = square_free_graver(cfg, 3)
        for b in (b0, halved(b0), MoveSet.build([], "t", cfg)):
            self.check(cfg, b)

    def test_refusals(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        rows = Configuration(cfg.cell_space, cfg.matrix[:3])
        with pytest.raises(ZeroOneError, match="another model"):
            sweep_distance_reducing(cfg, MoveSet.build(b.moves, b.provenance, rows))
        with pytest.raises(CapExceededError):
            sweep_distance_reducing(cfg, b, max_cells=8)
        with pytest.raises(ZeroOneError, match="max_cells must be positive"):
            sweep_distance_reducing(cfg, b, max_cells=0)

    def test_debug_record_per_call(self, caplog):
        b = basic_moves_two_way(2, 2)
        cfg = b.source_config
        index = [key for key, _ in iter_fibers(cfg)].index((1, 1, 1, 1))
        with caplog.at_level(logging.DEBUG, logger="zeroone.fiber"):
            sweep_distance_reducing(cfg, b, strong=True)
            sweep_distance_reducing(cfg, MoveSet.build([], "t", cfg))
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.fiber"]
        # one fiber has two tables, 0110 and 1001, which only the swap joins
        assert lines == [
            "distance-reduction sweep: 16 tables, 15 fibers, first failing fiber None",
            f"distance-reduction sweep: 16 tables, 15 fibers, first failing fiber {index}",
        ]


def reference_edges(cfg, b):
    """The sweep's edges by the N x K test ``x & S == M`` over its 2^n
    tables, as sorted (source, target) pairs, with masks from ``b.matrix``."""
    P, M = square_free_masks(b)
    S = P | M
    X = np.arange(1 << cfg.n_cells, dtype=np.uint64)[:, None]
    src, k = np.nonzero(((X[:, None, :] & S) == M).all(axis=2))
    return sorted(zip(src.tolist(), (X[src, 0] ^ S[k, 0]).tolist()))


class TestSweepKernel:
    @pytest.mark.parametrize(
        "b, passes",
        [
            pytest.param(square_free_graver(build_two_way_independence(3, 3), 3), 1,
                         id="two-way-3x3"),
            pytest.param(square_free_graver(build_quasi_independence(3, 3, off_diagonal(3)), 3), 1,
                         id="quasi-3x3"),
            pytest.param(square_free_graver(build_complete_independence((2, 2, 2)), 3), 1,
                         id="complete-2x2x2"),
            pytest.param(MoveSet.build([Move((1, 1, 0))], "t",
                                       Configuration(CellSpace((3,)), ((1, -1, 0), (0, 0, 1)))),
                         1, id="signed-3"),
            # a move over every cell: its views of the label cube are 0-d
            pytest.param(MoveSet.build([Move((1, -1))], "t", Configuration(CellSpace((2,)), ())),
                         1, id="zero-row-2"),
            pytest.param(MoveSet.build([], "t", build_two_way_independence(2, 3)), 0,
                         id="no-moves"),
            # labels still differ after the first pass
            pytest.param(df1_loops(build_quasi_independence(4, 4, off_diagonal(4)).cell_space), 2,
                         id="quasi-4x4-df1"),
        ],
    )
    def test_components_match_the_reference(self, b, passes, caplog):
        cfg = b.source_config
        edges = reference_edges(cfg, b)
        with caplog.at_level(logging.DEBUG, logger="zeroone.fiber"):
            rep = sweep_connectivity(cfg, b)
        assert rep.n_components == len(set(bfs_labels(rep.n_tables, edges)))
        record = caplog.records[-1].getMessage()
        assert record.endswith(f"{len(edges)} edges, {rep.n_components} components, "
                               f"{passes} propagation passes")

    def test_peak_memory_per_table(self):
        cfg = build_quasi_independence(5, 5, off_diagonal(5))
        b = df1_loops(cfg.cell_space)
        _ = b.masks, cfg.key_terms  # cached before tracing
        tracemalloc.start()
        try:
            rep = sweep_connectivity(cfg, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_tables == 1 << 20 and rep.all_connected
        assert peak <= 10 * rep.n_tables
