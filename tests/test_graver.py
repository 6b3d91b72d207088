import hashlib
import itertools
import logging
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroone import graver
from zeroone.cells import CellSpace, Move
from zeroone.fiber import sweep_connectivity
from zeroone.errors import BudgetExhaustedError, LengthMismatchError, NotAMoveError, ZeroOneError
from zeroone.graver import (
    MoveSet,
    _first_fit,
    _levels,
    degree_histogram,
    graver_basis,
    integer_kernel_basis,
    is_primitive,
    prune_by_one_cancellation,
    square_free_graver,
    square_free_subset,
    symmetry_orbit,
)
from zeroone.models import (
    Configuration,
    build_complete_independence,
    build_many_facet_rasch,
    build_ntfi,
    build_quasi_independence,
    build_two_way_independence,
    lawrence_lift,
)
from zeroone.movegen import basic_moves_two_way, loops_degree_r
from zeroone.sampler import latin_move_set

from conftest import box_models


def brute_square_free(cfg, max_degree):
    """Reference pair screen: every disjoint pair of same-statistic d-sets
    whose proper subsets share no statistic, by explicit search."""
    cols = cfg.array.T.tolist()

    def stat(cells):
        return tuple(sum(col[r] for col in (cols[c] for c in cells)) for r in range(cfg.n_rows))

    found = []
    for d in range(1, max_degree + 1):
        fibers = {}
        for u in itertools.combinations(range(cfg.n_cells), d):
            fibers.setdefault(stat(u), []).append(u)
        for members in fibers.values():
            for u, v in itertools.combinations(members, 2):
                if set(u) & set(v):
                    continue
                if any(
                    stat(a) == stat(b)
                    for k in range(1, d)
                    for a in itertools.combinations(u, k)
                    for b in itertools.combinations(v, k)
                ):
                    continue
                found.append([int(k in u) - int(k in v) for k in range(cfg.n_cells)])
    return MoveSet.build(found, "square-free", cfg)


ALL_ONES_4 = Configuration(CellSpace((4,)), ((1, 1, 1, 1),))


def input_forms(vecs):
    """The same vectors as moves, an int64 array and an int8 array."""
    return [
        [Move(v) for v in vecs],
        np.array(vecs, dtype=np.int64).reshape(len(vecs), -1),
        np.array(vecs, dtype=np.int8).reshape(len(vecs), -1),
    ]


def brute_first_fit(R, S, own=None):
    """Per row s of ``S``, the first row r of ``R`` with min(s, 0) <= r <=
    max(s, 0) in every cell, or -1; row i skips rows 2 own[i] and 2 own[i] + 1."""
    out = []
    for i, s in enumerate(S):
        skip = () if own is None else (2 * own[i], 2 * own[i] + 1)
        lo, hi = np.minimum(s, 0), np.maximum(s, 0)
        fits = [j for j, r in enumerate(R) if j not in skip and (lo <= r).all() and (r <= hi).all()]
        out.append(fits[0] if fits else -1)
    return out


def brute_is_primitive(cfg, z):
    """Every conformal assignment in turn: no proper nonzero one in ker A."""
    supp = [k for k, v in enumerate(z.vec) if v]
    ranges = [range(0, z.vec[k] + 1) if z.vec[k] > 0 else range(z.vec[k], 1) for k in supp]
    full, cols = tuple(z.vec[k] for k in supp), cfg.array[:, supp]
    for assign in itertools.product(*ranges):
        if any(assign) and assign != full and not (cols @ np.array(assign)).any():
            return False
    return bool(supp)


class TestMoveSet:
    def test_dedup_and_canonical_order(self):
        z2 = Move((0, -1, 1, 0))  # the same move as (0, 1, -1, 0), opposite sign
        for moves in input_forms([(1, -1, -1, 1), (0, 1, -1, 0), z2.vec]):
            ms = MoveSet.build(moves, ("c", "a", "b"), ALL_ONES_4)
            assert [z.vec for z in ms.moves] == [(0, 1, -1, 0), (1, -1, -1, 1)]  # smaller L1 first
            assert ms.provenance == ("a", "c")  # the first occurrence's tag
            assert z2 in ms
            assert Move((2**70, -1, -1, 1)) not in ms  # outside int64: no row equals it

    def test_zero_vector_dropped(self):
        for moves in input_forms([(0, 0, 0, 0)]):
            assert len(MoveSet.build(moves, "t", ALL_ONES_4)) == 0

    def test_validate_rejects_non_moves(self):
        cfg = build_two_way_independence(2, 2)
        for moves in input_forms([(1, 0, 0, 0)]):
            with pytest.raises(NotAMoveError):
                MoveSet.build(moves, "t", cfg)

    @pytest.mark.parametrize("v", [(2**62,) * 4, (-2**63, 0, 0, 0), (2**63, -1, 0, 0)],
                             ids=["product-wraps-to-zero", "no-negation", "beyond-int64"])
    def test_rejects_moves_too_large_to_check(self, v):
        # (2^62, ...): A v = 2^64, which int64 wraps to 0
        with pytest.raises(NotAMoveError, match="64 bits"):
            MoveSet.build([v], "t", ALL_ONES_4)

    def test_large_move_accepted(self):
        ms = MoveSet.build([(2**62, -2**62, 0, 0), (0, 1, -1, 0)], "t", ALL_ONES_4)
        assert ms.matrix.tolist() == [[0, 1, -1, 0], [2**62, -2**62, 0, 0]]  # L1 norm 2^63 last

    def test_rejects_length_mismatch(self):
        cfg = build_two_way_independence(2, 2)
        for moves in input_forms([(1, -1)]):
            with pytest.raises(LengthMismatchError):
                MoveSet.build(moves, "t", cfg)

    def test_rejects_zero_vector_of_wrong_length(self):
        for moves in input_forms([(0, 0, 0)]):
            with pytest.raises(LengthMismatchError):
                MoveSet.build(moves, "t", ALL_ONES_4)

    def test_rejects_tag_count_mismatch(self):
        for moves in input_forms([(1, -1, 0, 0), (0, 0, 1, -1)]):
            with pytest.raises(LengthMismatchError):
                MoveSet.build(moves, ("a",), ALL_ONES_4)

    def test_union_keeps_first_provenance(self):
        a = MoveSet.build([Move((1, -1, -1, 1))], "a", ALL_ONES_4)
        for moves in input_forms([(1, -1, -1, 1), (0, 1, -1, 0)]):
            u = a.union(MoveSet.build(moves, "b", ALL_ONES_4))
            assert len(u) == 2
            assert dict(zip((z.vec for z in u.moves), u.provenance))[(1, -1, -1, 1)] == "a"

    def test_union_of_two_models_refused(self):
        # another width, and the same width: (0, 1, -1, 0) moves the all-ones row only
        for other in (basic_moves_two_way(2, 3), MoveSet.build([(0, 1, -1, 0)], "b", ALL_ONES_4)):
            with pytest.raises(ZeroOneError, match="another model"):
                basic_moves_two_way(2, 2).union(other)

    @pytest.mark.parametrize(
        "a,b",
        [
            (MoveSet.build([(1, -1, -1, 1), (0, 1, -1, 0)], ("a1", "a2"), ALL_ONES_4),
             MoveSet.build([(0, -1, 1, 0), (1, 0, 0, -1), (1, -1, -1, 1)], ("b1", "b2", "b3"),
                           ALL_ONES_4)),
            (basic_moves_two_way(3, 3), basic_moves_two_way(3, 3)),
            (MoveSet.build([], "a", ALL_ONES_4), MoveSet.build([], "b", ALL_ONES_4)),
            (MoveSet.build([], "a", ALL_ONES_4), MoveSet.build([(1, -1, 0, 0)], "b", ALL_ONES_4)),
            (MoveSet.build([(2**62, -2**62, 0, 0), (0, 1, -1, 0)], "a", ALL_ONES_4),
             MoveSet.build([(0, 0, 2**62, -2**62), (0, 1, -1, 0)], "b", ALL_ONES_4)),
            (basic_moves_two_way(3, 4), loops_degree_r(3, 4, 3)),
        ],
        ids=["overlapping", "itself", "empty", "empty-first", "large-norm", "basic+loops"],
    )
    def test_union_equals_a_build_of_both(self, a, b, builds):
        for x, y in ((a, b), (b, a)):
            # the reference rebinds the concatenated rows, as union once did
            ref = MoveSet.build(np.concatenate([x.matrix, y.matrix]), x.provenance + y.provenance,
                                x.source_config)
            before = builds()
            u = x.union(y)
            assert builds() == before
            assert u == ref  # matrix bytes, provenance and model

    def test_matrix_is_read_only_int64(self):
        for moves in input_forms([(1, -1, -1, 1), (0, 1, -1, 0)]):
            for ms in (MoveSet.build(moves, "t", ALL_ONES_4),
                       MoveSet(moves, ("t",) * len(moves), ALL_ONES_4)):
                assert ms.matrix.dtype == np.int64
                with pytest.raises(ValueError):
                    ms.matrix[0, 0] = 5
        rows = np.array([[1, -1, 0, 0]])
        MoveSet(rows, ("t",), ALL_ONES_4)
        rows[0, 0] = 1  # the caller's array stays writable

    def test_pickle_keeps_matrix_read_only(self):
        b = basic_moves_two_way(3, 3)
        restored = pickle.loads(pickle.dumps(b))
        assert restored == b and hash(restored) == hash(b)
        assert not restored.matrix.flags.writeable

    def test_constructor_from_moves_equals_build(self):
        b = square_free_graver(build_complete_independence((2, 2, 3)), 4)
        same = MoveSet(b.moves, b.provenance, b.source_config)
        assert same == b and hash(same) == hash(b)
        assert MoveSet(b.moves, ("other",) * len(b), b.source_config) != b
        assert b.retag("other") != b
        assert MoveSet.build(b.matrix, b.provenance, build_complete_independence((2, 2, 3))) == b

    def test_array_paths_build_no_move_view(self):
        # the functions under src/ read a set as rows, never as Move objects
        from zeroone.fiber import (
            build_fiber_graph,
            check_distance_reducing,
            check_generalized_crossing,
            enumerate_zero_one_fiber,
            sweep_connectivity,
            sweep_distance_reducing,
        )
        from zeroone.sampler import exact_test

        cfg = build_two_way_independence(3, 3)
        b0 = square_free_graver(cfg, 3)
        b = MoveSet.build(basic_moves_two_way(3, 3).matrix, "basic", cfg)
        fiber = enumerate_zero_one_fiber(cfg, (1,) * 6)
        len(b)
        b.masks
        b.union(b0)
        b0.retag("other")
        degree_histogram(b0)
        square_free_subset(b0)
        build_fiber_graph(fiber, b)
        check_distance_reducing(b, fiber)
        sweep_connectivity(cfg, b)
        sweep_distance_reducing(cfg, b)
        check_generalized_crossing(b, b0)
        check_generalized_crossing(MoveSet.build(b0.matrix[:1], "one", cfg), b0)
        prune_by_one_cancellation(b0)
        exact_test(cfg, fiber[0], b, ("linear", [1.0] * 9), steps=100, seed=1)
        assert "moves" not in vars(b) and "moves" not in vars(b0)


class TestIntegerKernelBasis:
    @pytest.mark.parametrize(
        "cfg",
        [
            build_two_way_independence(3, 3),
            build_complete_independence((2, 2, 3)),
            build_ntfi(2),
            build_many_facet_rasch((2, 2, 2)),
        ],
    )
    def test_basis_spans_kernel(self, cfg):
        import sympy

        B = integer_kernel_basis(cfg.array)
        A = cfg.array
        for v in B:
            assert not (A @ np.array(v)).any()
        assert len(B) == cfg.n_cells - sympy.Matrix(cfg.matrix).rank()

    def test_primitive_vector_recovery(self):
        # kernel of (1 2 3) contains (2, -1, 0) up to sign; every basis
        # vector must be an exact integer kernel member
        B = integer_kernel_basis(np.array([[1, 2, 3]]))
        assert len(B) == 2
        for v in B:
            assert v[0] + 2 * v[1] + 3 * v[2] == 0


class TestGraverBasis:
    def test_two_by_two(self):
        b = graver_basis(build_two_way_independence(2, 2))
        assert [z.vec for z in b.moves] == [(1, -1, -1, 1)]

    def test_three_by_three_histogram(self):
        b = graver_basis(build_two_way_independence(3, 3))
        assert degree_histogram(b) == {2: 9, 3: 6}

    def test_trivial_kernel_gives_an_empty_set(self):
        cfg = Configuration(CellSpace((2,)), ((1, 0), (0, 1)))
        b = graver_basis(cfg)
        assert len(b) == 0 and b.matrix.shape == (0, 2) and b.source_config == cfg

    def test_three_by_three_equals_loops(self):
        b = graver_basis(build_two_way_independence(3, 3))
        loops = basic_moves_two_way(3, 3).union(loops_degree_r(3, 3, 3))
        assert {z.vec for z in b.moves} == {z.vec for z in loops.moves}

    @pytest.mark.parametrize(
        "cfg",
        [
            build_two_way_independence(2, 2),
            build_two_way_independence(2, 3),
            build_two_way_independence(3, 3),
            build_complete_independence((2, 2, 2)),
            build_two_way_independence(3, 4),
        ],
        ids=["2x2", "2x3", "3x3", "2x2x2", "3x4"],
    )
    def test_lawrence_lift(self, cfg):
        # the Graver basis of the Lawrence lifting is the lifts (z, -z)
        lifted = graver_basis(lawrence_lift(cfg))
        want = {z.vec + (-z).vec for z in graver_basis(cfg).moves}
        assert {z.vec for z in lifted.moves} == want and len(lifted) == len(want)

    def test_budget_error_carries_partial(self):
        with pytest.raises(BudgetExhaustedError) as exc:
            graver_basis(build_complete_independence((2, 2, 3)), max_candidates=5)
        assert isinstance(exc.value.partial, MoveSet)

    def test_all_members_primitive(self):
        cfg = build_complete_independence((2, 2, 2))
        b = graver_basis(cfg)
        assert all(is_primitive(cfg, z) for z in b.moves)

    def test_complete_2x2x3_pinned(self):
        # the basis of the completion without the sign-compatibility
        # criterion and the mask prefilter, move for move and in order
        cfg = build_complete_independence((2, 2, 3))
        b = graver_basis(cfg)
        assert len(b) == 129 and degree_histogram(b) == {2: 33, 3: 72, 4: 24}
        digest = hashlib.sha256(repr([z.vec for z in b.moves]).encode()).hexdigest()
        assert digest == "d1399e295352980b676ce4f8e8a8a9dff5da90bc5ae51d642bb0ee0bca47d2ef"
        assert set(b.provenance) == {"graver"} and b.source_config is cfg

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_refused(self, budget):
        with pytest.raises(ZeroOneError) as exc:
            graver_basis(build_two_way_independence(2, 2), max_candidates=budget)
        assert not isinstance(exc.value, BudgetExhaustedError)

    def test_debug_record_per_run(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="zeroone.graver"):
            graver_basis(build_two_way_independence(3, 3))
            with pytest.raises(BudgetExhaustedError):
                graver_basis(build_two_way_independence(3, 3), max_candidates=5)
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.graver"]
        assert lines == [
            # 136 popped = 121 reduced to zero + 15 accepted; the 15 members
            # meet 2 * (0 + 1 + ... + 14) = 210 members and negations
            "graver basis: 136 candidates popped, 121 reduced to zero, 132 sums pushed, "
            "78 sign-compatible sums skipped, 15 members before and 15 after finalizing",
            "graver basis: 5 candidates popped, 0 reduced to zero, 10 sums pushed, "
            "10 sign-compatible sums skipped, 5 members before and 5 after finalizing, "
            "budget exhausted",
        ]


class TestFitKernel:
    @pytest.mark.parametrize("n", [12, 70])
    def test_packed_fit_equals_elementwise(self, monkeypatch, n):
        monkeypatch.setattr(graver, "_BUDGET", 40)  # tiles of a few rows
        rng = np.random.default_rng(n)
        S = rng.integers(-3, 4, size=(60, n))
        # conformal parts of most rows of S, the same one step outside in one
        # cell, and random rows
        parts = np.sign(S[:40]) * np.minimum(np.abs(S[:40]), rng.integers(0, 4, size=(40, n)))
        bumped = parts.copy()
        bumped[np.arange(40), rng.integers(0, n, 40)] += rng.choice([-1, 1], 40)
        R = np.concatenate([parts, bumped, rng.integers(-3, 4, size=(20, n))])
        R = R[rng.permutation(len(R))]
        R = R[R.any(axis=1)]
        T = int(np.abs(R).max())
        got = _first_fit(_levels(R, T), _levels(S, T))
        want = brute_first_fit(R, S)
        assert got.tolist() == want
        assert -1 in want and sum(w >= 0 for w in want) > 20

    def test_own_pair_skipped(self, monkeypatch):
        monkeypatch.setattr(graver, "_BUDGET", 40)
        rng = np.random.default_rng(5)
        G = rng.integers(-2, 3, size=(20, 12))
        G = np.concatenate([G, np.sign(G) * np.minimum(np.abs(G), rng.integers(0, 3, G.shape))])
        G = G[G.any(axis=1)]
        R = np.stack([G, -G], axis=1).reshape(-1, 12)  # members and negations
        masks = _levels(R, 2)
        got = _first_fit(masks, masks[0::2], own=np.arange(len(G)))
        want = brute_first_fit(R, G, own=np.arange(len(G)))
        assert got.tolist() == want and -1 in want and max(want) >= 0


class TestIsPrimitive:
    def test_tiled_equals_brute_force(self, monkeypatch):
        c223 = build_complete_independence((2, 2, 3))
        lifted = lawrence_lift(build_two_way_independence(3, 4))
        cases = [(cfg, z) for cfg in (c223, lifted) for z in graver_basis(cfg).moves]
        V = graver_basis(c223).matrix
        rng = np.random.default_rng(0)
        pairs = [rng.choice(len(V), 2, replace=False) for _ in range(40)]
        cases += [(c223, Move(V[i] + V[j])) for i, j in pairs]
        verdicts = [is_primitive(cfg, z) for cfg, z in cases]
        assert verdicts == [brute_is_primitive(cfg, z) for cfg, z in cases]
        assert not all(verdicts[-40:]) and any(verdicts[-40:])
        monkeypatch.setattr(graver, "_BUDGET", 16)  # blocks of a few assignments
        assert [is_primitive(cfg, z) for cfg, z in cases] == verdicts

    def test_basic_move_primitive(self):
        cfg = build_two_way_independence(2, 2)
        assert is_primitive(cfg, Move((1, -1, -1, 1)))

    def test_conformal_sum_not_primitive(self):
        cfg = build_two_way_independence(2, 4)
        z = Move((1, -1, 1, -1, -1, 1, -1, 1))  # two disjoint swaps
        assert cfg.is_move(z)
        assert not is_primitive(cfg, z)

    def test_rejects_non_move(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(NotAMoveError):
            is_primitive(cfg, Move((1, 0, 0, 0)))


class TestSquareFreeGraver:
    @pytest.mark.parametrize(
        "cfg,max_degree",
        [
            (build_two_way_independence(3, 3), 3),
            (build_complete_independence((2, 2, 2)), 2),
            (build_complete_independence((2, 2, 3)), 3),
            (build_quasi_independence(3, 3, {(i, j) for i in range(3) for j in range(3) if i != j}), 3),
            (build_many_facet_rasch((2, 2, 2)), 6),
            (build_ntfi(2), 4),
        ],
    )
    def test_matches_completion_route(self, cfg, max_degree):
        direct = square_free_graver(cfg, max_degree)
        via_completion = square_free_subset(graver_basis(cfg))
        assert {z.vec for z in direct.moves} == {z.vec for z in via_completion.moves}

    @pytest.mark.parametrize(
        "cfg,max_degree",
        [
            # signed rows: the codes' per-cell terms wrap modulo 2^64
            (Configuration(CellSpace((4,)), ((1, 1, 1, 1), (1, -1, 1, -1))), 3),
            (Configuration(CellSpace((6,)), ((1, 1, 1, 1, 1, 1), (2, -1, 0, 1, -2, 1))), 4),
            # duplicate columns: degree-1 members
            (build_many_facet_rasch((2, 2, 2)), 6),
            (build_many_facet_rasch((2, 2, 3), True), 4),
            (build_complete_independence((2, 2, 3)), 4),
            # 66 cells: masks of two words
            (build_two_way_independence(2, 33), 2),
            # 5^48 keys: no uint64 code, statistics ranked instead
            (build_ntfi(4), 2),
        ],
        ids=["signed-4", "signed-6", "rating-2x2x2", "rating-2x2x3-const", "complete-2x2x3",
             "two-way-2x33", "ntfi-4x4x4"],
    )
    def test_matches_brute_force(self, cfg, max_degree):
        direct = square_free_graver(cfg, max_degree)
        ref = brute_square_free(cfg, max_degree)
        assert [z.vec for z in direct.moves] == [z.vec for z in ref.moves]
        assert direct.provenance == ref.provenance and direct.source_config is cfg
        assert all(cfg.is_move(z) for z in direct.moves)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_matches_brute_force_on_random_signed_rows(self, n, data):
        # an all-ones row makes any rows below it homogeneous
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                  max_size=2))
        cfg = Configuration(CellSpace((n,)), ((1,) * n, *rows))
        direct = square_free_graver(cfg, 3)
        assert [z.vec for z in direct.moves] == [z.vec for z in brute_square_free(cfg, 3).moves]

    def test_more_than_64_cells(self):
        cfg = build_two_way_independence(2, 33)
        b = square_free_graver(cfg, 3)
        assert [z.vec for z in b.moves] == [z.vec for z in basic_moves_two_way(2, 33).moves]

    def test_in_build_order(self):
        b = square_free_graver(build_complete_independence((2, 2, 4)), 4, min_degree=2)
        rebuilt = MoveSet.build(list(reversed(b.moves)), "square-free", b.source_config)
        assert b == rebuilt

    def test_debug_record_per_degree(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="zeroone.graver"):
            square_free_graver(build_two_way_independence(3, 3), 3, min_degree=2)
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.graver"]
        # the symmetries are the row and column permutations and the
        # transpose, 5 generators; cells are numbered 3i + j
        assert lines == [
            # the 9 two-member fibers are the diagonals of the 2x2 boxes,
            # one orbit; the least, {0, 4} and {1, 3}, is its one pair
            "degree 2: 36 d-sets, 9 multi-member groups in 1 orbits, "
            "1 pairs screened, 1 disjoint pairs, 1 primitive pairs",
            # one fiber holds the 6 permutation tables, its own orbit; 6 of
            # its 15 pairs are disjoint (two permutations that differ in
            # every row); the 12 fibers with margins (2, 1, 0) and (1, 1, 1)
            # in either order hold 3 members each, one orbit, whose least
            # fiber has 3 pairs that all meet
            "degree 3: 84 d-sets, 13 multi-member groups in 2 orbits, "
            "18 pairs screened, 6 disjoint pairs, 6 primitive pairs",
            # 9 basic swaps and 6 degree-3 loops
            "7 primitive pairs expanded to 15 moves by 5 symmetry generators",
        ]

    def test_debug_record_without_groups(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="zeroone.graver"):
            square_free_graver(build_two_way_independence(3, 3), 2)
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.graver"]
        # the 9 cells have 9 distinct margins: nothing to screen at degree 1
        assert lines[0] == (
            "degree 1: 9 d-sets, 0 multi-member groups in 0 orbits, "
            "0 pairs screened, 0 disjoint pairs, 0 primitive pairs"
        )
        assert lines[1].startswith("degree 2: 36 d-sets, 9 multi-member groups in 1 orbits")

    def test_requires_homogeneous(self):
        cfg = Configuration(CellSpace((2,)), ((1, 2),))
        with pytest.raises(NotAMoveError):
            square_free_graver(cfg, 3)

    @pytest.mark.parametrize("max_degree, min_degree", [(0, 1), (-2, 1), (3, 0)])
    def test_non_positive_degree_refused(self, max_degree, min_degree):
        with pytest.raises(ZeroOneError, match="degrees must be positive"):
            square_free_graver(build_two_way_independence(3, 3), max_degree, min_degree)

    def test_degree_one_members_from_duplicate_columns(self):
        # grade-0 cells of the rating-scale model share identical columns
        b = square_free_graver(build_many_facet_rasch((2, 2, 2)), 6)
        assert degree_histogram(b) == {1: 6, 2: 1}

    def test_all_members_are_square_free_moves(self):
        cfg = build_complete_independence((2, 2, 3))
        b = square_free_graver(cfg, 3)
        for z in b.moves:
            assert z.square_free and cfg.is_move(z)

    @pytest.mark.parametrize(
        "cfg,max_degree,size,sha",
        [
            (build_complete_independence((2, 3, 4)), 6, 8394,
             "3eb7d90393d8fe40f24b7bdd47d1560959d13f10cf7723b6bd8793d3b43b7a06"),
            (build_two_way_independence(4, 5), 5, 660,
             "00026bb63844e4356025b9d747daaacbd0b53fdb2b0754aa09dfd971a22cc906"),
            (build_ntfi(3), 6, 81,
             "522203ba18d2a2a3d1ea9829f1e394b87526cd9472dc9f982d2a59ad1fec3110"),
            (build_many_facet_rasch((2, 2, 3)), 4, 12,
             "2d16d022edb3198050d8dbbb3a194b26e1dfe107001bdbb95112f78fb2a820d4"),
        ],
        ids=["complete-2x3x4", "two-way-4x5", "ntfi-3", "rating-2x2x3"],
    )
    def test_pinned(self, cfg, max_degree, size, sha):
        b = square_free_graver(cfg, max_degree)
        assert len(b) == size
        assert hashlib.sha256(b.matrix.tobytes() + repr(b.provenance).encode()).hexdigest() == sha


def quasi_off_diagonal(n):
    return build_quasi_independence(n, n, {(i, j) for i in range(n) for j in range(n) if i != j})


# every model the tests screen, at the largest degree they screen it to;
# 3x3x3 complete independence is the shared b0_333
SCREENED = [
    ("two-way-2x2", build_two_way_independence(2, 2), 2),
    ("two-way-2x3", build_two_way_independence(2, 3), 2),
    ("two-way-2x4", build_two_way_independence(2, 4), 2),
    ("two-way-3x3", build_two_way_independence(3, 3), 3),
    ("two-way-3x4", build_two_way_independence(3, 4), 4),
    ("two-way-4x4", build_two_way_independence(4, 4), 4),
    ("two-way-2x33", build_two_way_independence(2, 33), 3),
    ("complete-2x2x2", build_complete_independence((2, 2, 2)), 3),
    ("complete-2x2x3", build_complete_independence((2, 2, 3)), 4),
    ("complete-2x2x4", build_complete_independence((2, 2, 4)), 5),
    ("complete-2x2x5", build_complete_independence((2, 2, 5)), 5),
    ("complete-2x3x3", build_complete_independence((2, 3, 3)), 5),
    ("complete-2x3x4", build_complete_independence((2, 3, 4)), 6),
    ("quasi-3x3", quasi_off_diagonal(3), 3),
    ("quasi-4x4", quasi_off_diagonal(4), 4),
    ("rating-2x2x2", build_many_facet_rasch((2, 2, 2)), 6),
    ("rating-2x2x2-const", build_many_facet_rasch((2, 2, 2), True), 6),
    ("rating-2x2x3", build_many_facet_rasch((2, 2, 3)), 4),
    ("rating-2x2x3-const", build_many_facet_rasch((2, 2, 3), True), 4),
    ("ntfi-2", build_ntfi(2), 4),
    ("ntfi-4", build_ntfi(4), 2),
    ("signed-6", Configuration(CellSpace((6,)), ((1, 1, 1, 1, 1, 1), (2, -1, 0, 1, -2, 1))), 4),
]


def with_trivial_group(cfg):
    """A copy of ``cfg`` whose symmetry group is forced to the identity."""
    copy = Configuration(cfg.cell_space, cfg.matrix, cfg.row_labels)
    vars(copy)["symmetry"] = np.zeros((0, cfg.n_cells), dtype=np.int64)
    return copy


class TestSymmetryReducedScreen:
    @pytest.mark.parametrize("cfg,max_degree", [c[1:] for c in SCREENED],
                             ids=[c[0] for c in SCREENED])
    def test_equals_the_trivial_group(self, cfg, max_degree):
        full = square_free_graver(cfg, max_degree)
        trivial = square_free_graver(with_trivial_group(cfg), max_degree)
        assert full.matrix.tolist() == trivial.matrix.tolist()
        assert full.provenance == trivial.provenance and full.source_config == cfg

    def test_equals_the_trivial_group_333(self, b0_333):
        trivial = square_free_graver(with_trivial_group(b0_333.source_config), 6)
        assert b0_333.matrix.tolist() == trivial.matrix.tolist()
        assert b0_333.provenance == trivial.provenance

    @settings(max_examples=40, deadline=None)
    @given(box_models())
    def test_equals_the_trivial_group_on_random_box_models(self, model):
        cfg = model[0]
        full = square_free_graver(cfg, 3)
        assert full == square_free_graver(with_trivial_group(cfg), 3)

    def test_trivial_group_screens_every_pair(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="zeroone.graver"):
            square_free_graver(with_trivial_group(build_two_way_independence(3, 3)), 3,
                               min_degree=3)
        # the six 3x3 permutation tables form one fiber; 6 of its 15 pairs
        # are disjoint
        assert caplog.records[0].getMessage() == (
            "degree 3: 84 d-sets, 13 multi-member groups in 13 orbits, "
            "51 pairs screened, 6 disjoint pairs, 6 primitive pairs")

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "cfg",
        [build_two_way_independence(3, 4), build_complete_independence((2, 2, 3)),
         build_complete_independence((3, 3, 3)), quasi_off_diagonal(4),
         build_many_facet_rasch((2, 2, 3))],
        ids=["two-way-3x4", "complete-2x2x3", "complete-3x3x3", "quasi-4x4", "rating-2x2x3"],
    )
    def test_representatives_are_orbit_minima(self, cfg, d):
        # the least key of each multi-member fiber's images over every
        # element of the group, the d-sets identified by their bitmasks
        n = cfg.n_cells
        group = symmetry_orbit(np.arange(n)[None], cfg)
        cells = np.array(list(itertools.combinations(range(n), d)))
        stats = cfg.array[:, cells].sum(axis=2).T
        _, first, fiber, size = np.unique(stats, axis=0, return_index=True,
                                          return_inverse=True, return_counts=True)
        fiber, multi = fiber.ravel(), np.flatnonzero(size >= 2)  # fibers in key order
        u = cells[first[multi]]
        masks = (1 << cells).sum(axis=1)
        order = np.argsort(masks)
        images = (1 << group[:, u]).sum(axis=2)
        least = fiber[order[np.searchsorted(masks[order], images)]].min(axis=0)
        origin, steps = cfg.key_terms
        screened = graver._least_fibers(cfg, u, origin + steps[u].sum(axis=1))
        assert screened.tolist() == (least == multi).tolist()
        assert 0 < np.count_nonzero(screened) < len(multi)


class TestScreenTiling:
    """With ``_BUDGET`` at 1 each chunk of the pair screen holds one fiber and
    each slice one pair; the moves and the DEBUG records are unchanged."""

    @pytest.mark.parametrize(
        "cfg,max_degree",
        [(build_two_way_independence(3, 3), 3), (build_complete_independence((2, 2, 3)), 4),
         (build_ntfi(4), 2)],  # 4x4x4: two key words
        ids=["two-way-3x3", "complete-2x2x3", "ntfi-4x4x4"],
    )
    def test_one_fiber_per_chunk_and_one_pair_per_slice(self, cfg, max_degree, monkeypatch,
                                                        caplog):
        def screen():
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="zeroone.graver"):
                b = square_free_graver(cfg, max_degree)
            return b, [r.getMessage() for r in caplog.records if r.name == "zeroone.graver"]

        want = screen()
        monkeypatch.setattr(graver, "_BUDGET", 1)
        chunks, slices = [], []
        shared, pairs = graver._shared_subset_bits, graver._pairs
        monkeypatch.setattr(graver, "_shared_subset_bits", lambda c, cells, s, p: (
            chunks.append(len(cells) // s) or shared(c, cells, s, p)))

        def spy(partners, step):
            for a, b in pairs(partners, step):
                slices.append(len(a))
                yield a, b

        monkeypatch.setattr(graver, "_pairs", spy)
        assert screen() == want
        assert set(chunks) <= {1} and set(slices) <= {1}
        assert bool(chunks) == bool(slices) == (cfg.n_cells < 64)  # 4x4x4 has no pairs to degree 2


class TestRowsOfBoundSets:
    """Unions and row subsets of bound sets keep their rows: no ``build``,
    and matrix bytes and provenance as rebinding with ``build`` gave them."""

    @pytest.mark.parametrize(
        "make,builds_made,sha",
        [
            (lambda: latin_move_set(4), 2,
             "9e124ec53515a5acc6e1bb04680cf0a66e80504fac43a4c0e535f1b1c7ca9880"),
            (lambda: square_free_subset(graver_basis(build_complete_independence((2, 2, 3)))), 1,
             "9f7c85d54091fbe20138385c3a7f5bab71083a7e31521e328f1811506a303128"),
            (lambda: prune_by_one_cancellation(
                square_free_graver(build_two_way_independence(4, 4), 4)), 1,
             "94a4f07d1983ea599479607b9c758db9bd0e1c07463559733cb3d80bf8937595"),
        ],
        ids=["latin-4", "square-free-subset-2x2x3", "prune-4x4"],
    )
    def test_pinned(self, make, builds_made, sha, builds):
        ms = make()
        assert builds() == builds_made  # one per generated or computed set
        assert hashlib.sha256(ms.matrix.tobytes() + repr(ms.provenance).encode()).hexdigest() == sha


class TestSquareFreeSubset:
    def test_filters_and_is_idempotent(self):
        cfg = build_ntfi(2)
        moves = [Move((2, -2, -2, 2, -2, 2, 2, -2)), graver_basis(cfg).moves[0]]
        mixed = MoveSet.build(moves, "t", cfg)
        sf = square_free_subset(mixed)
        assert all(z.square_free for z in sf.moves)
        assert {z.vec for z in square_free_subset(sf).moves} == {z.vec for z in sf.moves}


def brute_prune(b0):
    """The prune's rule, pair by pair: drop a member c = a + b or a - b of two
    members when the sum cancels in exactly one cell (entries of opposite
    signs) and c's support is larger than both a's and b's."""
    V = b0.matrix.tolist()
    members = set(map(tuple, V))

    def support(v):
        return sum(x != 0 for x in v)

    drop = set()
    for a, b in itertools.combinations(V, 2):
        for sign in (1, -1):
            sb = [sign * y for y in b]
            cancels = sum(x * y < 0 for x, y in zip(a, sb))
            c = Move.canonical([x + y for x, y in zip(a, sb)]).vec
            if cancels == 1 and support(c) > max(support(a), support(b)) and c in members:
                drop.add(c)
    return [v for v in V if tuple(v) not in drop]


class TestPruning:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: square_free_graver(build_two_way_independence(3, 3), 3),
            lambda: square_free_graver(build_complete_independence((2, 2, 3)), 4),
            lambda: graver_basis(build_complete_independence((2, 2, 3))),
            lambda: square_free_graver(build_many_facet_rasch((2, 2, 3)), 4),
            lambda: graver_basis(build_many_facet_rasch((2, 2, 3))),
        ],
        ids=["two-way-3x3", "complete-2x2x3", "graver-2x2x3", "rating-2x2x3", "graver-rating-2x2x3"],
    )
    def test_equals_brute_force(self, make, monkeypatch):
        b0 = make()
        want = brute_prune(b0)
        assert prune_by_one_cancellation(b0).matrix.tolist() == want
        monkeypatch.setattr(graver, "_BUDGET", 50)  # slices of 50 pairs of one word split rows
        assert prune_by_one_cancellation(b0).matrix.tolist() == want

    @pytest.mark.parametrize("square_free,kept", [(True, 12), (False, 22)])
    def test_drops_do_not_justify_each_other(self, square_free, kept):
        # the 6 degree-1 moves (pairs of grade-0 cells with equal columns) have
        # support 2: a + z and a degree-1 z would drop each other
        cfg = build_many_facet_rasch((2, 2, 3))
        b0 = square_free_graver(cfg, 4) if square_free else graver_basis(cfg)
        pruned = prune_by_one_cancellation(b0)
        assert len(pruned) == kept and degree_histogram(pruned)[1] == 6
        rep = sweep_connectivity(cfg, pruned, max_cells=cfg.n_cells)
        assert rep.all_connected and rep.n_fibers == 1065

    def test_three_by_three_leaves_basic(self):
        b0 = square_free_graver(build_two_way_independence(3, 3), 3)
        pruned = prune_by_one_cancellation(b0)
        basic = basic_moves_two_way(3, 3)
        assert {z.vec for z in pruned.moves} == {z.vec for z in basic.moves}

    def test_result_is_subset(self):
        b0 = square_free_graver(build_complete_independence((2, 2, 3)), 3)
        pruned = prune_by_one_cancellation(b0)
        assert {z.vec for z in pruned.moves} <= {z.vec for z in b0.moves}

    def test_pair_budget(self):
        b0 = square_free_graver(build_two_way_independence(3, 3), 3)  # 15 moves, 105 pairs
        assert prune_by_one_cancellation(b0, max_pairs=105) == prune_by_one_cancellation(b0)
        with pytest.raises(BudgetExhaustedError) as exc:
            prune_by_one_cancellation(b0, max_pairs=104)
        assert exc.value.partial is b0

    def test_debug_record_per_call(self, caplog):
        b0 = square_free_graver(build_two_way_independence(3, 3), 3)
        with caplog.at_level(logging.DEBUG, logger="zeroone.graver"):
            prune_by_one_cancellation(b0)
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.graver"]
        # the 6 degree-3 loops are dropped, the 9 basic swaps kept
        assert lines == ["prune: 15 members, 105 pairs screened, 6 dropped"]

    @pytest.mark.parametrize("max_pairs", [0, -1])
    def test_non_positive_pair_budget_refused(self, max_pairs):
        b0 = square_free_graver(build_two_way_independence(2, 2), 2)
        with pytest.raises(ZeroOneError) as exc:
            prune_by_one_cancellation(b0, max_pairs=max_pairs)
        assert not isinstance(exc.value, BudgetExhaustedError)
