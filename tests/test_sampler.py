import hashlib
import logging

import numpy as np
import pytest

from zeroone.cells import Table
from zeroone.errors import IpfError, ZeroOneError
from zeroone.graver import MoveSet
from zeroone.models import (
    Configuration,
    build_many_facet_rasch,
    build_ntfi,
    build_two_way_independence,
)
from zeroone.movegen import basic_moves_two_way, ntfi_basic_moves
from zeroone.fiber import enumerate_zero_one_fiber
from zeroone import sampler
from zeroone.sampler import (
    at_least_as_extreme,
    chi_square_stat,
    exact_test,
    ipf_fit,
    latin_fiber_key,
    latin_move_set,
    latin_start_table,
    latin_symbols,
    random_walk,
    resolve_statistic,
    sample_latin_square,
)


class TestRandomWalk:
    def test_states_stay_in_fiber(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        x0 = Table((1, 0, 0, 0, 1, 0, 0, 0, 1))
        t = cfg.sufficient_stat(x0)
        states, rate = random_walk(cfg, x0, b, 500, seed=1)
        assert len(states) == 501
        assert 0 <= rate <= 1
        for x in states:
            assert x.zero_one and cfg.sufficient_stat(x) == t

    def test_seed_determinism(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        x0 = Table((1, 0, 0, 0, 1, 0, 0, 0, 1))
        s1, r1 = random_walk(cfg, x0, b, 300, seed=42)
        s2, r2 = random_walk(cfg, x0, b, 300, seed=42)
        s3, _ = random_walk(cfg, x0, b, 300, seed=43)
        assert [x.values for x in s1] == [x.values for x in s2] and r1 == r2
        assert [x.values for x in s1] != [x.values for x in s3]

    def test_rejects_non_zero_one_start(self):
        b = basic_moves_two_way(2, 2)
        cfg = b.source_config
        with pytest.raises(ZeroOneError):
            random_walk(cfg, Table((2, 0, 0, 0)), b, 10, seed=0)

    def test_refuses_moves_of_another_model(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        rows = Configuration(cfg.cell_space, cfg.matrix[:3])  # row sums only
        other = MoveSet.build(b.moves, b.provenance, rows)
        with pytest.raises(ZeroOneError, match="another model"):
            random_walk(cfg, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)), other, 10, seed=0)
        with pytest.raises(ZeroOneError, match="another model"):
            sample_latin_square(3, steps=10, seed=0, b=ntfi_basic_moves(4))

    def test_rejects_empty_move_set(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(ZeroOneError):
            random_walk(cfg, Table((1, 0, 0, 1)), MoveSet.build([], "t", cfg), 10, seed=0)

    def test_walk_length(self):
        b = basic_moves_two_way(2, 2)
        cfg = b.source_config
        assert random_walk(cfg, Table((1, 0, 0, 1)), b, 0, seed=0) == ([Table((1, 0, 0, 1))], 0.0)
        with pytest.raises(ZeroOneError, match="non-negative"):
            random_walk(cfg, Table((1, 0, 0, 1)), b, -4, seed=0)
        with pytest.raises(ZeroOneError, match="non-negative"):
            sample_latin_square(3, steps=-2, seed=0)

    def test_refuses_negative_seed(self):
        b = basic_moves_two_way(2, 2)
        cfg, x0 = b.source_config, Table((1, 0, 0, 1))
        with pytest.raises(ZeroOneError, match="seed must be non-negative, got -1"):
            random_walk(cfg, x0, b, 10, seed=-1)
        with pytest.raises(ZeroOneError, match="seed must be non-negative"):
            exact_test(cfg, x0, b, lambda v: 0.0, steps=10, seed=-1)
        with pytest.raises(ZeroOneError, match="seed must be non-negative"):
            sample_latin_square(3, steps=10, seed=-5)

    def test_debug_record_per_walk(self, caplog):
        b = basic_moves_two_way(3, 3)
        x0 = Table((1, 0, 0, 0, 1, 0, 0, 0, 1))
        with caplog.at_level(logging.DEBUG, logger="zeroone.sampler"):
            _, rate = random_walk(b.source_config, x0, b, 70_000, seed=1)
            random_walk(b.source_config, x0, b, 0, seed=1)
            table, _ = sample_latin_square(3, steps=300, seed=4)
        lines = [r.getMessage() for r in caplog.records if r.name == "zeroone.sampler"]
        assert lines[0] == f"walk: 70000 steps, {round(rate * 70_000)} accepted, 2 blocks"
        assert lines[1] == "walk: 0 steps, 0 accepted, 0 blocks"
        assert lines[2].startswith("walk: 300 steps, ") and lines[2].endswith(" accepted, 1 blocks")
        assert len(lines) == 3


class TestIpf:
    def test_uniform_margins(self):
        cfg = build_two_way_independence(3, 3)
        m = ipf_fit(cfg, (1, 1, 1, 1, 1, 1))
        assert np.allclose(m, 1 / 3)

    def test_matches_product_formula(self):
        cfg = build_two_way_independence(2, 3)
        t = (2, 1, 1, 1, 1)  # rows (2,1), cols (1,1,1), total 3
        m = ipf_fit(cfg, t)
        expected = np.array([2 * c / 3 for c in (1, 1, 1)] + [1 * c / 3 for c in (1, 1, 1)])
        assert np.allclose(m, expected)

    def test_zero_margin_zeroes_cells(self):
        cfg = build_two_way_independence(2, 2)
        m = ipf_fit(cfg, (0, 1, 1, 0))
        assert m[0] == m[1] == 0 and np.allclose(m[2:], (1, 0))

    def test_non_indicator_matrix_rejected(self):
        # a three-level grade axis puts a coefficient 2 in the matrix
        cfg = build_many_facet_rasch((2, 2, 3))
        with pytest.raises(IpfError):
            ipf_fit(cfg, (0,) * cfg.n_rows)


class TestStatistics:
    def test_linear(self):
        cfg = build_two_way_independence(2, 2)
        f = resolve_statistic(cfg, ("linear", (1.0, 2.0, 3.0, 4.0)))
        assert f((1, 0, 0, 1)) == 5.0

    def test_linear_length_checked(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(ZeroOneError):
            resolve_statistic(cfg, ("linear", (1.0,)))

    def test_chi_square_infinite_on_impossible_cell(self):
        cfg = build_two_way_independence(2, 2)
        f = chi_square_stat(cfg, np.array([0.0, 1.0, 1.0, 1.0]))
        assert f((1, 0, 1, 0)) == float("inf")

    def test_unknown_spec(self):
        cfg = build_two_way_independence(2, 2)
        with pytest.raises(ZeroOneError):
            resolve_statistic(cfg, "median")


class TestTies:
    def test_margin(self):
        assert at_least_as_extreme(8.749999999999996, 8.75)
        assert not at_least_as_extreme(8.7499, 8.75)
        assert at_least_as_extreme(-2.0000000000000004, -2.0)
        assert at_least_as_extreme(float("inf"), float("inf"))
        assert not at_least_as_extreme(1e300, float("inf"))
        assert list(at_least_as_extreme(np.array([0.0, 1.0]), 0.5)) == [False, True]

    def test_exact_p_of_4x4_chi2_fiber_is_one(self):
        # chi-square 8.75 or 10.5 in exact arithmetic; the observed table
        # has the smaller value, computed with different rounding than
        # others of the 51 tables
        cfg = build_two_way_independence(4, 4)
        x0 = Table((0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0))
        t = cfg.sufficient_stat(x0)
        sf = resolve_statistic(cfg, "chi2-ipf", t)
        fiber = enumerate_zero_one_fiber(cfg, t)
        assert len(fiber) == 51
        assert all(at_least_as_extreme(sf(x.values), sf(x0.values)) for x in fiber)


class TestExactTest:
    def test_reproducible_and_in_range(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        x0 = Table((1, 0, 0, 0, 1, 0, 0, 0, 1))
        r1 = exact_test(cfg, x0, b, ("linear", tuple(range(9))), steps=2000, seed=5)
        r2 = exact_test(cfg, x0, b, ("linear", tuple(range(9))), steps=2000, seed=5)
        assert r1 == r2
        assert 0 < r1.p_value_estimate <= 1
        assert 0 <= r1.acceptance_rate <= 1

    def test_callable_statistic(self):
        b = basic_moves_two_way(2, 2)
        cfg = b.source_config
        run = exact_test(cfg, Table((1, 0, 0, 1)), b, lambda v: float(v[0]), steps=500, seed=3)
        # the two-point fiber splits evenly on the corner-cell statistic
        assert abs(run.p_value_estimate - 0.5) < 0.1

    def test_refuses_moves_of_another_model(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        rows = Configuration(cfg.cell_space, cfg.matrix[:3])  # row sums only
        other = MoveSet.build(b.moves, b.provenance, rows)
        with pytest.raises(ZeroOneError, match="another model"):
            exact_test(cfg, Table((1, 0, 0, 0, 1, 0, 0, 0, 1)), other, "chi2-ipf", steps=10)

    def test_burn_in_default(self):
        b = basic_moves_two_way(2, 2)
        cfg = b.source_config
        run = exact_test(cfg, Table((1, 0, 0, 1)), b, lambda v: 0.0, steps=100, seed=1)
        assert run.burn_in == 10 * cfg.n_cells

    @pytest.mark.parametrize(
        "steps,burn_in,thinning",
        [(0, None, 1), (-5, None, 1), (10, -3, 1), (10, 0, 0), (10, 0, -1)],
    )
    def test_rejects_invalid_walk_length(self, steps, burn_in, thinning):
        b = basic_moves_two_way(2, 2)
        with pytest.raises(ZeroOneError, match="steps >= 1"):
            exact_test(b.source_config, Table((1, 0, 0, 1)), b, lambda v: 0.0,
                       steps=steps, burn_in=burn_in, thinning=thinning, seed=1)


X44 = Table((0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0))
X2_33 = Table((1, 0) * 16 + (1,) + (0, 1) * 16 + (0,))  # 66 cells: two words a state


class TestStreamedWalk:
    """The streamed walk gives the states and statistics of the whole trajectory."""

    def test_latin3_walk_digest(self):
        # pinned: a 70,000-step walk crosses a block boundary
        states, rate = random_walk(build_ntfi(3), latin_start_table(3), latin_move_set(3),
                                   70_000, seed=3)
        digest = hashlib.sha256()
        for x in states:
            digest.update(bytes(x.values))
        assert digest.hexdigest() == (
            "3772a6e91b2c3e0f893b82c960da4a197ebc594dd5d9db91eec5b03c51d5d7b8"
        )
        assert rate == 0.08337142857142857

    def test_chi2_exact_test_digest(self):
        # pinned to the last bit of every statistic value
        b = basic_moves_two_way(4, 4)
        run = exact_test(b.source_config, X44, b, "chi2-ipf", steps=70_000, seed=202)
        digest = hashlib.sha256(" ".join(map(float.hex, run.trajectory_stats)).encode())
        assert digest.hexdigest() == (
            "2c69ce9ca9120bdaab60bbe19521565c110db884a456fd27a3bc2d3981e02193"
        )
        assert run.acceptance_rate == 0.1415478905359179
        assert run.final_state == Table((0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0))

    @pytest.mark.parametrize(
        "b,x0,spec,steps,burn_in,thinning",
        [
            # samples in several blocks; neither the burn-in nor the thinning
            # divides the block length
            (basic_moves_two_way(4, 4), X44, "chi2-ipf", 100_000, 70_001, 7),
            (basic_moves_two_way(2, 33), X2_33, ("linear", [k % 7 for k in range(66)]),
             70_000, 5, 3),
        ],
        ids=["odd-blocks", "two-words"],
    )
    def test_exact_test_matches_random_walk(self, b, x0, spec, steps, burn_in, thinning):
        cfg = b.source_config
        run = exact_test(cfg, x0, b, spec, steps=steps, burn_in=burn_in, thinning=thinning,
                         seed=9)
        states, rate = random_walk(cfg, x0, b, burn_in + steps, seed=9)
        stat = resolve_statistic(cfg, spec, cfg.sufficient_stat(x0))
        assert run.trajectory_stats == tuple(stat(x.values) for x in states[burn_in + 1::thinning])
        assert run.final_state == states[-1] and run.acceptance_rate == rate
        for x in states[:: len(states) // 50]:
            assert cfg.sufficient_stat(x) == cfg.sufficient_stat(x0)

    def test_one_decode_and_statistic_call_per_distinct_state_and_block(self):
        b = basic_moves_two_way(3, 3)
        cfg = b.source_config
        x0 = Table((1, 0, 0, 0, 1, 0, 0, 0, 1))
        calls = []

        def stat(values):
            calls.append(values)
            return float(values[0] + 2 * values[4])

        run = exact_test(cfg, x0, b, stat, steps=100_000, seed=4)
        states, _ = random_walk(cfg, x0, b, run.burn_in + 100_000, seed=4)
        blocks = 1 + -(-(len(states) - 1) // sampler._CHUNK)  # the start state is a block
        distinct = len(set(states))
        assert distinct == 6 and len(run.trajectory_stats) == 100_000
        assert len(calls) <= distinct * blocks + 1  # +1: the observed table
        assert len({id(x) for x in states}) <= distinct * blocks
        assert run.trajectory_stats == tuple(stat(x.values) for x in states[run.burn_in + 1:])


def reference_walk(b, x0, steps, seed):
    """The walk one step at a time on a cell vector: the same block-wise draws,
    then ``x ± move``, accepted iff the result is zero-one.  Returns the
    states as value tuples and the number of accepted steps."""
    V = b.matrix[(np.abs(b.matrix) <= 1).all(axis=1)]  # the moves the walk draws from
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.array(x0.values, dtype=np.int64)
    states, accepted = [x0.values], 0
    for done in range(0, steps, sampler._CHUNK):
        k = min(sampler._CHUNK, steps - done)
        idx = rng.integers(0, len(V), size=k)
        sgn = rng.integers(0, 2, size=k)
        for i, negate in zip(idx, sgn):
            y = x - V[i] if negate else x + V[i]
            if ((y == 0) | (y == 1)).all():
                x, accepted = y, accepted + 1
            states.append(tuple(x.tolist()))
    return states, accepted


@pytest.mark.parametrize("steps", [0, 1, 4097, 65_537])
@pytest.mark.parametrize("case", ["basic-3x3", "latin-4", "two-words"])
def test_walk_equals_reference(case, steps, request):
    # 4097 and 65,537 steps cross the sub-slice and the block boundaries;
    # Latin-4 draws among 2 * 1,512 signed moves
    if case == "basic-3x3":
        b, x0 = basic_moves_two_way(3, 3), Table((1, 0, 0, 0, 1, 0, 0, 0, 1))
    elif case == "latin-4":
        b, x0 = ntfi_basic_moves(4).union(request.getfixturevalue("deg8_444")), \
            latin_start_table(4)
    else:
        b, x0 = basic_moves_two_way(2, 33), X2_33
    states, rate = random_walk(b.source_config, x0, b, steps, seed=17)
    want, accepted = reference_walk(b, x0, steps, seed=17)
    assert [x.values for x in states] == want
    assert rate == (accepted / steps if steps else 0.0)


class TestLatin:
    def test_key_and_start(self):
        assert latin_fiber_key(3) == (1,) * 27
        cfg = build_ntfi(3)
        assert cfg.sufficient_stat(latin_start_table(3)) == latin_fiber_key(3)

    def test_symbols_round_trip(self):
        sym = latin_symbols(latin_start_table(4), 4)
        for row in sym:
            assert sorted(row) == [1, 2, 3, 4]
        for col in zip(*sym):
            assert sorted(col) == [1, 2, 3, 4]

    @pytest.mark.parametrize("n", [3, 4])
    def test_array_helpers_equal_cell_loops(self, n, deg8_444):
        # the cells (i, j, k) by CellSpace.linear_index, as a reference
        space = build_ntfi(n).cell_space
        start = [0] * space.cell_count
        for i in range(n):
            for j in range(n):
                start[space.linear_index((i, j, (i + j) % n))] = 1
        assert latin_start_table(n).values == tuple(start)
        b = latin_move_set(3) if n == 3 else ntfi_basic_moves(4).union(deg8_444)
        for seed in range(20):
            x, sym = sample_latin_square(n, steps=100, seed=seed, b=b)
            assert sym == [[1 + next(k for k in range(n) if x[space.linear_index((i, j, k))])
                            for j in range(n)] for i in range(n)]

    def test_symbols_reject_invalid(self):
        with pytest.raises(ZeroOneError):
            latin_symbols(Table((0,) * 27), 3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_sampled_square_is_latin(self, n, deg8_444):
        b = latin_move_set(3) if n == 3 else ntfi_basic_moves(4).union(deg8_444)
        _, sym = sample_latin_square(n, steps=400, seed=9, b=b)
        want = list(range(1, n + 1))
        for row in sym:
            assert sorted(row) == want
        for col in zip(*sym):
            assert sorted(col) == want

    def test_sampled_square_is_final_walk_state(self):
        cfg = build_ntfi(3)
        b = latin_move_set(3)
        states, _ = random_walk(cfg, latin_start_table(3), b, 2000, seed=9)
        table, _ = sample_latin_square(3, steps=2000, seed=9)
        assert table == states[-1]
        assert sample_latin_square(3, steps=2000, seed=9, b=b)[0] == table

    def test_ntfi_basic_move_count(self):
        import math

        assert len(ntfi_basic_moves(4)) == math.comb(4, 2) ** 3

    def test_unsupported_size(self):
        with pytest.raises(ZeroOneError):
            sample_latin_square(5, steps=10, seed=0)
