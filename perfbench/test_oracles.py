"""Tests of the benchmark's reference oracles on cases checkable by hand.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_oracles.py
"""
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import oracles as O
import run
import tracer
import workloads

TWO_BY_TWO = O.quasi_independence_matrix(2, 2)
SWAP = (1, -1, -1, 1)
IDENTITY = (1, 0, 0, 1)
ANTI = (0, 1, 1, 0)


def test_two_way_matrix_is_rows_then_columns():
    assert TWO_BY_TWO.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
    assert (O.complete_independence_matrix((2, 2)) == TWO_BY_TWO).all()


def test_structural_zeros_drop_their_columns():
    A = O.quasi_independence_matrix(2, 2, [(0, 0), (1, 1)])
    assert A.tolist() == [[1, 0], [0, 1], [0, 1], [1, 0]]


def test_ntfi_line_sums():
    A = O.ntfi_matrix(2)
    assert A.shape == (12, 8)
    assert (A.sum(axis=0) == 3).all()  # every cell lies on three lines
    assert O.in_kernel(A, [(1, -1, -1, 1, -1, 1, 1, -1)]).all()


def test_kernel_membership():
    assert O.in_kernel(TWO_BY_TWO, [SWAP, (1, -1, 0, 0)]).tolist() == [True, False]


def test_canonical_sign():
    assert O.canonical((0, -1, 1)) == (0, 1, -1)
    assert O.canonical((0, 1, -1)) == (0, 1, -1)


def test_pair_screen():
    assert O.degree_le2_screen(TWO_BY_TWO) == {SWAP}
    assert len(O.degree_le2_screen(O.quasi_independence_matrix(3, 3))) == 9
    assert O.degree_le2_screen(O.ntfi_matrix(2)) == set()  # its only move has degree 4


def test_pair_screen_degree_one_and_split_moves():
    # columns 1, 1, 2, 0: cells 0 and 1 are a degree-1 move; {0, 1} and
    # {2, 3} both sum to 2 and make a primitive degree-2 move
    assert O.degree_le2_screen(np.array([[1, 1, 2, 0]])) == {(1, -1, 0, 0), (1, 1, -1, -1)}
    # columns 1, 1, 0, 0: e0 + e2 - e1 - e3 is the sum of two degree-1 moves
    assert O.degree_le2_screen(np.array([[1, 1, 0, 0]])) == {(1, -1, 0, 0), (0, 0, 1, -1)}


def test_components_by_union_find():
    assert O.components(3, []) == 3
    assert O.components(4, [(0, 1), (2, 3)]) == 2
    assert O.components(4, [(0, 1), (1, 2), (2, 0), (3, 3)]) == 2


def test_two_by_two_fiber_and_its_edges():
    fiber = O.fiber_of(TWO_BY_TWO, IDENTITY)
    assert {tuple(r) for r in fiber} == {IDENTITY, ANTI}
    edges = O.apply_moves(fiber, np.array([SWAP]))
    assert sorted(edges) == [(0, 1), (1, 0)]
    assert O.components(len(fiber), edges) == 1


def test_distinct_keys():
    # of the 16 tables only the two with all margins 1 share a key
    assert O.distinct_keys(TWO_BY_TWO) == 15
    # signed matrix: x0 - x1 and x2 separate all tables but 000/110 and 001/111
    assert O.distinct_keys(np.array([[1, -1, 0], [0, 0, 1]])) == 6


def test_exact_p_values_on_the_two_by_two_fiber():
    assert O.chi2_two_way(2, 2, IDENTITY) == 2
    assert O.exact_p_value(TWO_BY_TWO, IDENTITY, lambda x: O.chi2_two_way(2, 2, x)) == 1
    assert O.exact_p_value(TWO_BY_TWO, IDENTITY, O.linear_stat((1, 0, 0, 0))) == Fraction(1, 2)


def test_the_51_table_four_by_four_fiber():
    A = O.quasi_independence_matrix(4, 4)
    x = workloads.X44_CHI2
    fiber = O.fiber_of(A, x)
    assert len(fiber) == 51
    values = {O.chi2_two_way(4, 4, y) for y in fiber}
    assert values == {Fraction(35, 4), Fraction(21, 2)}
    assert O.chi2_two_way(4, 4, x) == Fraction(35, 4)
    assert O.exact_p_value(A, x, lambda y: O.chi2_two_way(4, 4, y)) == 1


def test_latin_squares():
    assert O.is_latin([[1, 2], [2, 1]])
    assert not O.is_latin([[1, 2], [1, 2]])
    A = O.ntfi_matrix(3)
    cyclic = [1 if k == (i + j) % 3 else 0 for i in range(3) for j in range(3) for k in range(3)]
    assert (A @ np.array(cyclic) == 1).all()


def test_batch_means_se():
    assert checks.batch_means_se(np.ones(400)) == 0
    halves = np.r_[np.zeros(200), np.ones(200)]
    assert checks.batch_means_se(halves, batches=2) == pytest.approx(0.5)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(checks.CHECKS)
    assert set(checks.CHECKS) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert set(checks.KNOWN_FAULTS) <= {op for ops in checks.CHECKS.values() for op in ops}
