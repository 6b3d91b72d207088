"""End-to-end checks of the package's headline claims.

Each test class covers one claim; every assertion is exact unless a
Monte Carlo tolerance is stated inline.
"""
import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from zeroone.cells import Table
from zeroone.fiber import (
    build_fiber_graph,
    conformal_decompose,
    enumerate_zero_one_fiber,
    sweep_connectivity,
    sweep_distance_reducing,
)
from zeroone.graver import degree_histogram, prune_by_one_cancellation, square_free_graver
from zeroone.models import (
    build_complete_independence,
    build_many_facet_rasch,
    build_ntfi,
    build_quasi_independence,
    build_two_way_independence,
)
from zeroone.movegen import (
    basic_moves_two_way,
    degree2_threeway_patterns,
    df1_loops,
    ntfi_333_moves,
    ntfi_basic_moves,
)
from zeroone.sampler import (
    at_least_as_extreme,
    exact_test,
    latin_fiber_key,
    latin_start_table,
    random_walk,
    resolve_statistic,
)


def diag_support(n):
    return {(i, j) for i in range(n) for j in range(n) if i != j}


def applicable(x: Table, z) -> bool:
    return all(a + v in (0, 1) for a, v in zip(x.values, z.vec))


class TestSquareFreeDegreeHistograms:
    """The complete square-free primitive move sets of small three-way
    complete-independence models, checked one degree past the maximum to
    confirm nothing is missing."""

    @pytest.mark.parametrize(
        "dims,expected",
        [
            ((2, 2, 2), {2: 12}),
            ((2, 2, 3), {2: 33, 3: 48}),
            ((2, 2, 4), {2: 64, 3: 192, 4: 96}),
            ((2, 2, 5), {2: 105, 3: 480, 4: 480}),
            ((2, 3, 3), {2: 90, 3: 480, 4: 396}),
            ((2, 3, 4), {2: 174, 3: 1632, 4: 5436, 5: 1152}),
        ],
    )
    def test_histogram(self, dims, expected):
        b0 = square_free_graver(build_complete_independence(dims), max(expected) + 1)
        assert degree_histogram(b0) == expected

    def test_histogram_333(self, b0_333):
        assert degree_histogram(b0_333) == {2: 243, 3: 3438, 4: 19008, 5: 12312}

    def test_histogram_235(self):
        b0 = square_free_graver(build_complete_independence((2, 3, 5)), 7)
        assert degree_histogram(b0) == {2: 285, 3: 3840, 4: 23220, 5: 33120, 6: 720}


EXAMPLE_X = Table(tuple(np.array(
    [[[0, 0, 0], [0, 0, 1], [0, 0, 1]],
     [[0, 1, 1], [0, 1, 1], [1, 1, 1]],
     [[0, 0, 0], [0, 0, 1], [1, 1, 1]]]).ravel()))
EXAMPLE_Y = Table(tuple(np.array(
    [[[0, 0, 0], [0, 0, 0], [0, 1, 1]],
     [[0, 0, 1], [1, 1, 1], [1, 1, 1]],
     [[0, 0, 1], [0, 0, 1], [0, 1, 1]]]).ravel()))


class TestDegreeTwoInsufficiency:
    """A same-fiber 3x3x3 pair that no degree-2 move can leave zero-one,
    yet whose difference decomposes conformally once degree-3 moves join."""

    def test_same_key(self):
        cfg = build_complete_independence((3, 3, 3))
        assert cfg.sufficient_stat(EXAMPLE_X) == cfg.sufficient_stat(EXAMPLE_Y)

    def test_no_degree_two_move_applies(self):
        d2 = degree2_threeway_patterns((3, 3, 3))
        for x in (EXAMPLE_X, EXAMPLE_Y):
            assert not any(applicable(x, s) for z in d2 for s in (z, -z))

    def test_decomposition_needs_degree_three(self, b0_333):
        parts = conformal_decompose(EXAMPLE_X, EXAMPLE_Y, b0_333)
        total = np.zeros(27, dtype=int)
        for z in parts:
            total += np.array(z.vec)
        assert tuple(total) == tuple(b - a for a, b in zip(EXAMPLE_X.values, EXAMPLE_Y.values))
        assert max(z.degree for z in parts) >= 3


class TestBasicMoveSweeps:
    @staticmethod
    def _check(I, J, tables, fibers):
        # every fixed-margin family of I x J zero-one tables is one component
        cfg = build_two_way_independence(I, J)
        rep = sweep_connectivity(cfg, basic_moves_two_way(I, J), max_cells=I * J)
        assert (rep.n_tables, rep.n_fibers) == (tables, fibers)
        assert rep.all_connected and rep.n_components == rep.n_fibers

    @pytest.mark.parametrize("I,J,tables,fibers", [(3, 3, 512, 328), (3, 4, 4096, 1856)],
                             ids=["3x3", "3x4"])
    def test_small_fibers_connected_by_swaps(self, I, J, tables, fibers):
        self._check(I, J, tables, fibers)

    def test_all_4x4_fibers_connected_by_swaps(self):
        self._check(4, 4, 65536, 16145)


class TestStructuredSupportSweeps:
    @pytest.mark.parametrize("n", [4, 5])
    def test_diagonal_zero_fibers_connected_by_df1_loops(self, n):
        cfg = build_quasi_independence(n, n, diag_support(n))
        b = df1_loops(cfg.cell_space)
        rep = sweep_connectivity(cfg, b, max_cells=n * n - n)
        assert rep.n_tables == 2 ** (n * n - n)
        assert rep.n_fibers == {4: 2_656, 5: 225_025}[n]
        assert rep.all_connected


PROP5_X = Table(tuple(np.array(
    [[[1, 0, 1], [0, 1, 0], [0, 0, 1]],
     [[0, 1, 0], [0, 1, 1], [1, 0, 0]],
     [[0, 0, 1], [1, 0, 0], [1, 1, 0]]]).ravel()))


class TestLineSumMoveFamilies:
    """Degree 4/6/9 orbits for 3x3x3 tables with all line sums fixed."""

    def test_counterexample_blocks_degree_four_and_six(self):
        bd = ntfi_333_moves("basic+deg6")
        assert not any(applicable(PROP5_X, s) for z in bd for s in (z, -z))

    def test_thousand_random_fibers_connected(self):
        cfg = build_ntfi(3)
        b = ntfi_333_moves("basic+deg6+deg9")
        rng = np.random.Generator(np.random.PCG64(424242))
        for _ in range(1000):
            x = Table(tuple(int(v) for v in rng.integers(0, 2, size=27)))
            fiber = enumerate_zero_one_fiber(cfg, cfg.sufficient_stat(x))
            assert build_fiber_graph(fiber, b).connected

    def test_latin_fiber_deg6_connected_basic_disconnected(self):
        cfg = build_ntfi(3)
        fiber = enumerate_zero_one_fiber(cfg, latin_fiber_key(3))
        assert len(fiber) == 12
        deg6 = ntfi_333_moves("deg6")
        assert build_fiber_graph(fiber, deg6).connected
        basic = ntfi_333_moves("basic")
        assert build_fiber_graph(fiber, basic).n_components == 12


class TestOrder4LatinSquares:
    def test_fiber_size_and_connectivity(self, deg8_444):
        cfg = build_ntfi(4)
        fiber = enumerate_zero_one_fiber(cfg, latin_fiber_key(4))
        assert len(fiber) == 576
        b = ntfi_basic_moves(4).union(deg8_444)
        assert build_fiber_graph(fiber, b).connected


class TestStrongDistanceReduction:
    """The square-free primitive set strongly reduces L1 distance on every
    fiber of each configuration that is exhaustively enumerable within the
    suite budget (full zero-one table spaces up to 2^16)."""

    @pytest.mark.parametrize(
        "name,cfg,max_degree",
        [
            ("two-way-2x2", build_two_way_independence(2, 2), 2),
            ("two-way-2x3", build_two_way_independence(2, 3), 2),
            ("two-way-2x4", build_two_way_independence(2, 4), 2),
            ("two-way-3x3", build_two_way_independence(3, 3), 3),
            ("two-way-3x4", build_two_way_independence(3, 4), 3),
            ("two-way-4x4", build_two_way_independence(4, 4), 4),
            ("complete-2x2x2", build_complete_independence((2, 2, 2)), 2),
            ("complete-2x2x3", build_complete_independence((2, 2, 3)), 3),
            ("complete-2x2x4", build_complete_independence((2, 2, 4)), 4),
            ("quasi-3x3", build_quasi_independence(3, 3, diag_support(3)), 3),
            ("quasi-4x4", build_quasi_independence(4, 4, diag_support(4)), 4),
            ("line-sums-2x2x2", build_ntfi(2), 4),
            ("rating-2x2x2", build_many_facet_rasch((2, 2, 2)), 6),
            ("rating-2x2x2-const", build_many_facet_rasch((2, 2, 2), True), 6),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_strong_reduction_on_all_fibers(self, name, cfg, max_degree):
        b0 = square_free_graver(cfg, max_degree)
        ok, key = sweep_distance_reducing(cfg, b0, strong=True)
        assert ok, (name, key)


class TestSamplerCorrectness:
    def test_uniformity_on_latin_fiber(self):
        # 10^6 proposals; the visit counts are thinned (every 20th state)
        # before the chi-square so the nominal calibration applies despite
        # chain autocorrelation
        cfg = build_ntfi(3)
        b = ntfi_333_moves("deg6")
        states, rate = random_walk(cfg, latin_start_table(3), b, 1_000_000, seed=20260823)
        assert 0 < rate < 1
        counts: dict = {}
        for s in states[::20]:
            counts[s.values] = counts.get(s.values, 0) + 1
        assert len(counts) == 12
        n = sum(counts.values())
        expected = n / 12
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2_dist.isf(0.001, 11)

    @pytest.mark.parametrize(
        "name,cfg,moves,x0,stat,steps,seed",
        [
            (
                "3x3-linear",
                build_two_way_independence(3, 3),
                basic_moves_two_way(3, 3),
                Table((1, 0, 0, 0, 1, 0, 0, 0, 1)),
                ("linear", (0.0, 1.0, 3.0, 2.0, 7.0, 1.0, 5.0, 0.0, 4.0)),
                40000,
                101,
            ),
            (
                "4x4-chi2",
                build_two_way_independence(4, 4),
                basic_moves_two_way(4, 4),
                Table((0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0)),
                "chi2-ipf",
                60000,
                202,
            ),
            (
                "quasi-linear",
                build_quasi_independence(4, 4, diag_support(4)),
                None,  # df1 loops, built below (need the masked cell space)
                Table((1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1)),
                ("linear", (2.0, 0.0, 5.0, 1.0, 3.0, 1.0, 4.0, 0.0, 2.0, 6.0, 1.0, 3.0)),
                40000,
                303,
            ),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_p_value_matches_enumeration(self, name, cfg, moves, x0, stat, steps, seed):
        b = df1_loops(cfg.cell_space) if moves is None else moves
        t = cfg.sufficient_stat(x0)
        fiber = enumerate_zero_one_fiber(cfg, t)
        sf = resolve_statistic(cfg, stat, t)
        obs = sf(x0.values)
        p_exact = sum(1 for x in fiber if at_least_as_extreme(sf(x.values), obs)) / len(fiber)
        run = exact_test(cfg, x0, b, stat, steps=steps, thinning=5, seed=seed)
        n = len(run.trajectory_stats)
        se = max(np.sqrt(p_exact * (1 - p_exact) / n), 1e-9)
        # 3 standard errors plus the conservative +1 correction's bias bound
        assert abs(run.p_value_estimate - p_exact) <= 3 * se + 2 / (n + 1)


class TestPruningSoundness:
    @pytest.mark.parametrize("I,J", [(3, 3), (3, 4), (4, 4)])
    def test_pruned_set_is_basic_and_still_connects(self, I, J):
        cfg = build_two_way_independence(I, J)
        b0 = square_free_graver(cfg, min(I, J))
        pruned = prune_by_one_cancellation(b0)
        assert {z.vec for z in pruned.moves} == {z.vec for z in basic_moves_two_way(I, J).moves}
        rep = sweep_connectivity(cfg, pruned, max_cells=I * J)
        assert rep.all_connected
