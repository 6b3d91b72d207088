"""Structured move families: two-way loops, df-1 loops on supports with
structural zeros, the n x n x n no-three-factor-interaction swaps, the
3x3x3 families and the 4x4x4 degree-8 transposition moves.

Each generator builds its model and returns a move set bound to it.
"""
from __future__ import annotations

import itertools

import numpy as np

from .cells import CellSpace
from .errors import DimensionError, StructuralZeroError
from .graver import MoveSet, symmetry_orbit
from .models import (
    build_complete_independence,
    build_ntfi,
    build_quasi_independence,
    build_two_way_independence,
)


def _loop_vec(space: CellSpace, i_seq, j_seq):
    """Cyclic +1/-1 pattern: +1 at (i_k, j_k), -1 at (i_k, j_{k+1})."""
    r = len(i_seq)
    vec = [0] * space.cell_count
    try:
        for k in range(r):
            vec[space.linear_index((i_seq[k], j_seq[k]))] += 1
            vec[space.linear_index((i_seq[k], j_seq[(k + 1) % r]))] -= 1
    except StructuralZeroError:
        return None
    return tuple(vec)


def loops_degree_r(I: int, J: int, r: int) -> MoveSet:
    """All distinct degree-r loop moves of an I x J table."""
    if not 2 <= r <= min(I, J):
        raise DimensionError(f"need 2 <= r <= min(I, J), got r={r} for {I}x{J}")
    cfg = build_two_way_independence(I, J)
    moves = []
    for rows in itertools.combinations(range(I), r):
        for cols in itertools.combinations(range(J), r):
            for rperm in itertools.permutations(rows):
                for cperm in itertools.permutations(cols):
                    moves.append(_loop_vec(cfg.cell_space, rperm, cperm))
    return MoveSet.build(moves, f"loop-{r}", cfg)


def basic_moves_two_way(I: int, J: int) -> MoveSet:
    """All degree-2 loops (2x2 swaps); count C(I,2) * C(J,2)."""
    return loops_degree_r(I, J, 2).retag("basic")


def df1_loops(space: CellSpace) -> MoveSet:
    """Loops on the support S whose index box meets S in exactly two cells
    per involved row and column, for degrees 2..min(I, J), bound to the
    quasi-independence model on S."""
    if len(space.dims) != 2:
        raise DimensionError("df-1 loops are defined for two-way tables")
    I, J = space.dims
    cfg = build_quasi_independence(I, J, space.cells)
    in_s = {c: True for c in space.cells}
    moves = []
    for r in range(2, min(I, J) + 1):
        for rows in itertools.combinations(range(I), r):
            for cols in itertools.combinations(range(J), r):
                box_counts_row = {
                    i: sum(1 for j in cols if (i, j) in in_s) for i in rows
                }
                box_counts_col = {
                    j: sum(1 for i in rows if (i, j) in in_s) for j in cols
                }
                if any(v != 2 for v in box_counts_row.values()):
                    continue
                if any(v != 2 for v in box_counts_col.values()):
                    continue
                for rperm in itertools.permutations(rows):
                    for cperm in itertools.permutations(cols):
                        vec = _loop_vec(space, rperm, cperm)
                        if vec is not None:
                            moves.append(vec)
    return MoveSet.build(moves, "df1", cfg)


_NTFI_BASIC = [
    [[1, -1, 0], [-1, 1, 0], [0, 0, 0]],
    [[-1, 1, 0], [1, -1, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
]
_NTFI_DEG6 = [
    [[1, -1, 0], [0, 1, -1], [-1, 0, 1]],
    [[-1, 1, 0], [0, -1, 1], [1, 0, -1]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
]
_NTFI_DEG9 = [
    [[1, -1, 0], [0, 1, -1], [-1, 0, 1]],
    [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
    [[-1, 0, 1], [1, -1, 0], [0, 1, -1]],
]


def ntfi_333_moves(level: str = "basic+deg6+deg9") -> MoveSet:
    """Symmetry orbits of the 3x3x3 no-three-factor-interaction families,
    under the model's per-axis level permutations and axis permutations.

    ``level`` selects the cumulative set: ``basic``, ``basic+deg6`` or
    ``basic+deg6+deg9``.
    """
    families = {"basic": _NTFI_BASIC, "deg6": _NTFI_DEG6, "deg9": _NTFI_DEG9}
    wanted = level.split("+")
    if any(w not in families for w in wanted):
        raise DimensionError(f"unknown move level {level!r}")
    cfg = build_ntfi(3)
    out = None
    for w in wanted:
        rep = np.array(families[w], dtype=np.int8).reshape(1, -1)
        orbit = MoveSet.build(symmetry_orbit(rep, cfg), w, cfg)
        out = orbit if out is None else out.union(orbit)
    return out


_DEG8_REP = [
    [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [-1, 0, 0, 1]],
    [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [1, 0, 0, -1]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
]


def degree8_moves_4x4() -> MoveSet:
    """Orbit of the 4x4x4 two-level-transposition move (degree 8) under the
    model's per-axis level permutations and axis permutations."""
    cfg = build_ntfi(4)
    rep = np.array(_DEG8_REP, dtype=np.int8).reshape(1, -1)
    return MoveSet.build(symmetry_orbit(rep, cfg), "deg8", cfg)


def degree2_threeway_patterns(dims) -> MoveSet:
    """All degree-2 moves of three-way complete independence, built from the
    four degenerate-variable patterns swept over every axis assignment."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 2 for d in dims):
        raise DimensionError(f"need three dims >= 2, got {dims}")
    cfg = build_complete_independence(dims)
    space = cfg.cell_space
    n = space.cell_count

    def mk(cells_plus, cells_minus):
        vec = [0] * n
        for c in cells_plus:
            vec[space.linear_index(c)] += 1
        for c in cells_minus:
            vec[space.linear_index(c)] -= 1
        return vec

    moves = []
    for axes in itertools.permutations(range(3)):
        a, b, c = axes

        def cell(ia, ib, ic):
            out = [0, 0, 0]
            out[a], out[b], out[c] = ia, ib, ic
            return tuple(out)

        for i1, i1p in itertools.permutations(range(dims[a]), 2):
            for i2, i2p in itertools.permutations(range(dims[b]), 2):
                # pattern with all three variables degenerate
                for i3, i3p in itertools.permutations(range(dims[c]), 2):
                    moves.append(
                        mk(
                            [cell(i1, i2, i3), cell(i1p, i2p, i3p)],
                            [cell(i1, i2p, i3p), cell(i1p, i2, i3)],
                        )
                    )
                    # first two variables degenerate
                    moves.append(
                        mk(
                            [cell(i1, i2, i3), cell(i1p, i2p, i3p)],
                            [cell(i1, i2p, i3), cell(i1p, i2, i3p)],
                        )
                    )
                # axes a and c degenerate, single b level
                for i3, i3p in itertools.permutations(range(dims[c]), 2):
                    for ib in range(dims[b]):
                        moves.append(
                            mk(
                                [cell(i1, ib, i3), cell(i1p, ib, i3p)],
                                [cell(i1, ib, i3p), cell(i1p, ib, i3)],
                            )
                        )
    return MoveSet.build(moves, "deg2-pattern", cfg)


def ntfi_basic_moves(n: int) -> MoveSet:
    """Degree-4 swap moves of the n x n x n NTFI model (2x2x2 sign patterns)."""
    cfg = build_ntfi(n)
    E = np.eye(n, dtype=np.int8)
    D = np.array([E[a] - E[b] for a, b in itertools.combinations(range(n), 2)])
    # the swap on levels (i1, i2) x (j1, j2) x (k1, k2) is the outer product
    # of e_i1 - e_i2, e_j1 - e_j2 and e_k1 - e_k2
    V = np.einsum("ai,bj,ck->abcijk", D, D, D).reshape(-1, n**3)
    return MoveSet.build(V, "basic", cfg)
