import numpy as np
import pytest

from zeroone.cells import CellSpace, Move, Table
from zeroone.errors import (
    CapExceededError,
    MixedFiberError,
    NoDecompositionError,
    ZeroOneError,
)
from zeroone.fiber import (
    build_fiber_graph,
    check_distance_reducing,
    check_generalized_crossing,
    check_strong_crossing,
    check_weak_crossing,
    conformal_decompose,
    enumerate_zero_one_fiber,
    iter_fibers,
    sweep_connectivity,
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
from zeroone.movegen import basic_moves_two_way, degree2_threeway_patterns


def basic_with_config(I, J):
    cfg = build_two_way_independence(I, J)
    b = basic_moves_two_way(I, J)
    return cfg, MoveSet(b.moves, b.provenance, cfg)


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

    def test_key_length_checked(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(MixedFiberError):
            enumerate_zero_one_fiber(cfg, (1, 1))

    def test_signed_matrix(self):
        cfg = Configuration(CellSpace((2,)), ((1, -1),))
        assert {x.values for x in enumerate_zero_one_fiber(cfg, (0,))} == {(0, 0), (1, 1)}


class TestFiberGraph:
    def test_two_node_graph(self):
        cfg, b = basic_with_config(2, 2)
        fiber = enumerate_zero_one_fiber(cfg, (1, 1, 1, 1))
        g = build_fiber_graph(fiber, b)
        assert g.connected and g.n_components == 1
        assert len(g.edges) == 1

    def test_mixed_fiber_rejected(self):
        cfg, b = basic_with_config(2, 2)
        with pytest.raises(MixedFiberError):
            build_fiber_graph([Table((1, 0, 0, 1)), Table((1, 1, 0, 0))], b)

    def test_non_zero_one_member_refused(self):
        _, b = basic_with_config(2, 2)
        fiber = [Table((1, 0, 0, 1)), Table((2, 0, 0, 0))]
        with pytest.raises(ZeroOneError, match="zero-one"):
            build_fiber_graph(fiber, MoveSet(b.moves, b.provenance))
        with pytest.raises(ZeroOneError, match="zero-one"):
            check_distance_reducing(MoveSet(b.moves, b.provenance), fiber)

    def test_empty_move_set_gives_singletons(self):
        cfg = build_two_way_independence(2, 2)
        fiber = enumerate_zero_one_fiber(cfg, (1, 1, 1, 1))
        g = build_fiber_graph(fiber, MoveSet.build([], "t", cfg))
        assert g.n_components == 2


class TestDistanceReduction:
    def test_basic_on_small_fiber(self):
        cfg, b = basic_with_config(3, 3)
        fiber = enumerate_zero_one_fiber(cfg, (1, 1, 1, 1, 1, 1))
        ok, cex = check_distance_reducing(b, fiber, strong=True)
        assert ok and cex is None

    def test_counterexample_reported(self):
        cfg = build_ntfi(3)
        b0 = basic_moves_two_way(3, 3)  # wrong model: 9-cell moves never apply
        fiber = enumerate_zero_one_fiber(build_two_way_independence(3, 3), (1, 1, 1, 1, 1, 1))
        ok, cex = check_distance_reducing(MoveSet.build([], "t"), fiber)
        assert not ok
        x, y = cex
        assert x.values != y.values


class TestCrossing:
    def test_swap_pair_has_strong_crossing(self):
        cfg = build_two_way_independence(2, 2)
        rep = check_strong_crossing(Table((1, 0, 0, 1)), Table((0, 1, 1, 0)), cfg)
        assert rep.found and rep.condition == "strong"

    def test_weak_implied_by_strong(self):
        cfg = build_two_way_independence(2, 2)
        rep = check_weak_crossing(Table((1, 0, 0, 1)), Table((0, 1, 1, 0)), cfg)
        assert rep.found

    def test_identical_tables_rejected(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(ZeroOneError):
            check_strong_crossing(Table((1, 0, 0, 1)), Table((1, 0, 0, 1)), cfg)

    def test_generalized_full_set_trivially_covered(self):
        cfg = build_complete_independence((2, 2, 2))
        b0 = square_free_graver(cfg, 2)
        ok, cex = check_generalized_crossing(b0, b0)
        assert ok and cex is None

    def test_generalized_requires_subset(self):
        cfg = build_complete_independence((2, 2, 2))
        b0 = square_free_graver(cfg, 2)
        other = degree2_threeway_patterns((2, 2, 3))
        with pytest.raises(ZeroOneError):
            check_generalized_crossing(other, b0)


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
        b0 = MoveSet.build([], "t")
        with pytest.raises(NoDecompositionError):
            conformal_decompose(Table((1, 0, 0, 1)), Table((0, 1, 1, 0)), b0)


class TestSweep:
    def test_three_by_three_basic_connected(self):
        cfg, b = basic_with_config(3, 3)
        rep = sweep_connectivity(cfg, b, max_cells=9)
        assert rep.n_tables == 512
        assert rep.all_connected
        assert rep.n_components == rep.n_fibers

    def test_cell_limit_enforced(self):
        cfg, b = basic_with_config(5, 5)
        with pytest.raises(CapExceededError):
            sweep_connectivity(cfg, b, max_cells=9)
        with pytest.raises(CapExceededError):
            next(iter_fibers(cfg, max_cells=9))

    def test_signed_matrix(self):
        cfg = Configuration(CellSpace((3,)), ((1, -1, 0), (0, 0, 1)))
        rep = sweep_connectivity(cfg, MoveSet.build([Move((1, 1, 0))], "t", cfg))
        assert (rep.n_tables, rep.n_fibers, rep.n_components) == (8, 6, 6)
        assert rep.all_connected


class TestIterFibers:
    def test_fibers_partition_the_tables_in_key_order(self):
        cfg = build_many_facet_rasch((2, 2, 2))
        fibers = list(iter_fibers(cfg))
        keys = [key for key, _ in fibers]
        assert keys == sorted(set(keys))
        assert sum(len(X) for _, X in fibers) == 2 ** cfg.n_cells
        for key, X in fibers:
            assert (X @ cfg.array.T == key).all()

    def test_unique_fallback_matches_radix_codes(self):
        # 70 copies of one row: radix 2^70 does not fit, so np.unique ranks
        wide = Configuration(CellSpace((3,)), ((1, 1, 0),) * 70 + ((0, 1, 1),))
        narrow = Configuration(CellSpace((3,)), ((1, 1, 0), (0, 1, 1)))
        assert wide.key_radix is None and narrow.key_radix is not None
        got = [(key[-2:], X.tolist()) for key, X in iter_fibers(wide)]
        assert got == [(key, X.tolist()) for key, X in iter_fibers(narrow)]


def brute_force(fiber, moves):
    """Reference for the bitmask kernel, one table, move and sign at a time.

    Returns the edges (first (node, move) hit of ``node + move``), the
    components, and the first pair failing strong and weak distance
    reduction (None when there is none).
    """
    index = {x.values: i for i, x in enumerate(fiber)}
    nbrs = [set() for _ in fiber]
    edges = {}
    for i, x in enumerate(fiber):
        for z in moves:
            for sign in (1, -1):
                j = index.get(tuple(a + sign * v for a, v in zip(x.values, z.vec)))
                if j is not None and j != i:
                    nbrs[i].add(j)
                    if sign == 1:
                        edges.setdefault((min(i, j), max(i, j)), z)
    label = list(range(len(fiber)))
    changed = True
    while changed:
        changed = False
        for i, js in enumerate(nbrs):
            for j in js:
                if label[j] > label[i]:
                    label[j], changed = label[i], True
    comps = sorted(tuple(i for i in range(len(fiber)) if label[i] == c) for c in set(label))

    def closer(i, j):
        dist = lambda a: sum(u != v for u, v in zip(fiber[a].values, fiber[j].values))
        return any(dist(k) < dist(i) for k in nbrs[i])

    pairs = [(i, j) for i in range(len(fiber)) for j in range(i + 1, len(fiber))]
    strong = next((p for p in pairs if not (closer(*p) and closer(*p[::-1]))), None)
    weak = next((p for p in pairs if not (closer(*p) or closer(*p[::-1]))), None)
    return [(i, j, z) for (i, j), z in edges.items()], comps, strong, weak


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
        for b in (b0, MoveSet(b0.moves[::2], b0.provenance[::2], cfg)):
            for _, X in iter_fibers(cfg):
                assert_kernel_matches_brute_force([Table(x) for x in X.tolist()], b)

    def test_tables_wider_than_one_word(self):
        # 2 x 33 = 66 cells; the busy columns 30..32 put cells 63..65 astride two words
        cfg = build_two_way_independence(2, 33)
        busy = (0, 1, 2, 30, 31, 32)
        fiber = enumerate_zero_one_fiber(cfg, (3, 3) + tuple(int(j in busy) for j in range(33)))
        assert len(fiber) == 20
        swaps = basic_moves_two_way(2, 33)
        for b in (swaps, MoveSet(swaps.moves[::3], swaps.provenance[::3])):
            assert_kernel_matches_brute_force(fiber, MoveSet(b.moves, b.provenance, cfg))
