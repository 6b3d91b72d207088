"""Reference computations the benchmark checks the program against.

Everything here is written apart from the ``zeroone`` package: constraint
matrices are built from their definitions, components come from a plain
union-find, p-values are exact rationals over every zero-one table, and
fiber keys are compared as whole integer vectors (or through a mixed-radix
code whose digit ranges are the observed ranges, which cannot collide).
Cells are ordered row-major (last axis fastest), skipping structural
zeros, which is the package's documented cell order.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------- matrices

def _indicator_matrix(cells, predicates) -> np.ndarray:
    return np.array([[1 if p(c) else 0 for c in cells] for p in predicates], dtype=np.int64)


def complete_independence_matrix(dims) -> np.ndarray:
    """One-dimensional marginals of a multi-way table."""
    cells = list(itertools.product(*(range(d) for d in dims)))
    preds = [lambda c, a=a, l=l: c[a] == l for a, d in enumerate(dims) for l in range(d)]
    return _indicator_matrix(cells, preds)


def quasi_independence_matrix(I: int, J: int, zeros=()) -> np.ndarray:
    """Row and column sums of an I x J table over the cells not in ``zeros``."""
    zeros = set(map(tuple, zeros))
    cells = [c for c in itertools.product(range(I), range(J)) if c not in zeros]
    preds = [lambda c, i=i: c[0] == i for i in range(I)]
    preds += [lambda c, j=j: c[1] == j for j in range(J)]
    return _indicator_matrix(cells, preds)


def ntfi_matrix(n: int) -> np.ndarray:
    """All line sums of an n x n x n table (the two-dimensional marginals)."""
    cells = list(itertools.product(range(n), repeat=3))
    preds = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for u, v in itertools.product(range(n), repeat=2):
            preds.append(lambda c, a=a, b=b, u=u, v=v: c[a] == u and c[b] == v)
    return _indicator_matrix(cells, preds)


# ------------------------------------------------------------------ moves

def in_kernel(A, moves) -> np.ndarray:
    """Per move, whether ``A z = 0`` (exact int64 arithmetic)."""
    Z = np.asarray(moves, dtype=np.int64).reshape(-1, A.shape[1])
    return ~(Z @ A.T).any(axis=1)


def canonical(vec) -> tuple[int, ...]:
    """The sign of {z, -z} whose first nonzero entry is positive."""
    vec = tuple(int(v) for v in vec)
    first = next((v for v in vec if v), 0)
    return vec if first >= 0 else tuple(-v for v in vec)


def degree_le2_screen(A) -> set[tuple[int, ...]]:
    """Square-free primitive moves of degree 1 and 2 by brute force.

    Degree 1: two cells with equal columns.  Degree 2: two disjoint cell
    pairs with equal column sums, unless the move splits into two
    degree-1 moves.
    """
    n = A.shape[1]
    cols = [tuple(A[:, k]) for k in range(n)]
    out = set()

    def unit(plus, minus):
        vec = [0] * n
        for k in plus:
            vec[k] += 1
        for k in minus:
            vec[k] -= 1
        return canonical(vec)

    for a, c in itertools.combinations(range(n), 2):
        if cols[a] == cols[c]:
            out.add(unit([a], [c]))
    by_sum: dict[tuple, list[tuple[int, int]]] = {}
    for a, b in itertools.combinations(range(n), 2):
        by_sum.setdefault(tuple(A[:, a] + A[:, b]), []).append((a, b))
    for pairs in by_sum.values():
        for (a, b), (c, d) in itertools.combinations(pairs, 2):
            if {a, b} & {c, d}:
                continue
            if cols[a] in (cols[c], cols[d]):
                continue  # the sum of two degree-1 moves
            out.add(unit([a, b], [c, d]))
    return out


def apply_moves(tables: np.ndarray, moves: np.ndarray):
    """All (i, j) with tables[j] = tables[i] + s z for a move z and sign s."""
    tables = np.asarray(tables, dtype=np.int8)
    index = {row.tobytes(): i for i, row in enumerate(tables)}
    edges = []
    for z in np.asarray(moves, dtype=np.int8):
        for s in (z, -z):
            y = tables + s
            ok = ((y == 0) | (y == 1)).all(axis=1)
            for i in np.flatnonzero(ok):
                j = index.get(y[i].tobytes())
                if j is not None:
                    edges.append((int(i), j))
    return edges


# ------------------------------------------------------------- components

def components(n_nodes: int, edges) -> int:
    """Connected components of an undirected graph by union-find."""
    parent = list(range(n_nodes))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    count = n_nodes
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


# ---------------------------------------------------------- zero-one space

def all_tables(n: int) -> np.ndarray:
    """Every zero-one table on n cells, one per row, table k = bits of k."""
    k = np.arange(1 << n, dtype=np.int64)
    return ((k[:, None] >> np.arange(n)) & 1).astype(np.int8)


def distinct_keys(A) -> int:
    """Number of distinct statistic vectors ``A x`` over all zero-one x."""
    keys = all_tables(A.shape[1]).astype(np.int64) @ A.T
    lo = keys.min(axis=0)
    spans = [int(v) for v in keys.max(axis=0) - lo + 1]
    if math.prod(spans) >= 2**62:
        return len(np.unique(keys, axis=0))
    radix = np.array([math.prod(spans[:r]) for r in range(len(spans))], dtype=np.int64)
    return len(np.unique((keys - lo) @ radix))


def fiber_of(A, x) -> np.ndarray:
    """All zero-one tables with ``A y = A x``, by exhaustive search."""
    X = all_tables(A.shape[1])
    t = np.asarray(A @ np.asarray(x, dtype=np.int64))
    return X[((X.astype(np.int64) @ A.T) == t).all(axis=1)]


# ------------------------------------------------------------- p-values

def chi2_two_way(I: int, J: int, x) -> Fraction:
    """Pearson chi-square against r_i c_j / N, in exact rationals."""
    x = [int(v) for v in x]
    r = [sum(x[i * J:(i + 1) * J]) for i in range(I)]
    c = [sum(x[j::J]) for j in range(J)]
    N = sum(x)
    total = Fraction(0)
    for i, j in itertools.product(range(I), range(J)):
        e = Fraction(r[i] * c[j], N)
        if e:
            total += (x[i * J + j] - e) ** 2 / e
    return total


def linear_stat(weights):
    """Weighted cell sum, exact for integer or rational weights."""
    w = [Fraction(v) for v in weights]
    return lambda x: sum((wi for wi, v in zip(w, x) if v), Fraction(0))


def exact_p_value(A, x_obs, stat) -> Fraction:
    """Share of the fiber of ``x_obs`` whose statistic is at least the observed."""
    fiber = fiber_of(A, x_obs)
    obs = stat(list(x_obs))
    return Fraction(sum(1 for y in fiber if stat(list(y)) >= obs), len(fiber))


# ---------------------------------------------------------- Latin squares

def is_latin(symbols) -> bool:
    n = len(symbols)
    want = list(range(1, n + 1))
    rows_ok = all(sorted(r) == want for r in symbols)
    cols_ok = all(sorted(symbols[i][j] for i in range(n)) == want for j in range(n))
    return len(symbols) > 0 and rows_ok and cols_ok


LATIN_SQUARES_OF_ORDER_4 = 576
