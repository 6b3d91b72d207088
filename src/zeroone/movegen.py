"""Structured move families: two-way loops, df-1 loops on supports with
structural zeros, the n x n x n no-three-factor-interaction swaps, the
3x3x3 families and the 4x4x4 degree-8 transposition moves.

Each family builds its model, writes its moves as the rows of one int8
array and binds them to the model with one
:meth:`~zeroone.graver.MoveSet.build`.  Loops are listed box by box from
arrays of cell indices; every symmetric family (the NTFI swaps and cycle
moves, the degree-2 moves of complete independence) is the
:func:`~zeroone.graver.symmetry_orbit` of its representatives.
Families are combined only by :meth:`~zeroone.graver.MoveSet.union`,
which binds nothing again.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .cells import CellSpace, _signed_rows
from .errors import DimensionError
from .graver import MoveSet, symmetry_orbit
from .models import (
    build_complete_independence,
    build_ntfi,
    build_quasi_independence,
    build_two_way_independence,
)


def _loop_cells(rows: np.ndarray, cols: np.ndarray, J: int) -> np.ndarray:
    """The loops on the boxes ``rows[b] x cols[b]`` of a grid with J columns,
    one per row of the result: its r +1 cells, (i_k, j_k), then its r -1
    cells, (i_k, j_{k+1}), as row-major grid indices.

    Each cycle starts at its box's smallest row, so a box gives (r-1)! row
    orders times r! column orders, and each loop comes out twice, as z and -z.
    """
    r = rows.shape[1]
    i = rows[:, [(0, *p) for p in itertools.permutations(range(1, r))]][:, :, None]
    j = cols[:, list(itertools.permutations(range(r)))][:, None]
    return np.concatenate([i * J + j, i * J + np.roll(j, -1, axis=-1)], axis=-1).reshape(-1, 2 * r)


def loops_degree_r(I: int, J: int, r: int) -> MoveSet:
    """All distinct degree-r loop moves of an I x J table."""
    if not 2 <= r <= min(I, J):
        raise DimensionError(f"need 2 <= r <= min(I, J), got r={r} for {I}x{J}")
    rows, cols = (np.array(list(itertools.combinations(range(k), r))) for k in (I, J))
    a, b = np.divmod(np.arange(len(rows) * len(cols)), len(cols))  # every box
    V = _signed_rows(_loop_cells(rows[a], cols[b], J), I * J)
    return MoveSet.build(V, f"loop-{r}", build_two_way_independence(I, J))


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
    index = np.full(I * J, -1)  # each grid cell's index in ``space``, -1 off S
    index[[i * J + j for i, j in space.cells]] = np.arange(space.cell_count)
    S = (index >= 0).reshape(I, J)
    blocks = [np.zeros((0, space.cell_count), dtype=np.int8)]
    for r in range(2, min(I, J) + 1):
        rows, cols = (np.array(list(itertools.combinations(range(k), r))) for k in (I, J))
        box = S[rows[:, None, :, None], cols[None, :, None, :]]  # (row set, column set, i, j)
        a, b = np.nonzero((box.sum(axis=3) == 2).all(axis=2) & (box.sum(axis=2) == 2).all(axis=2))
        cells = index[_loop_cells(rows[a], cols[b], J)]
        blocks.append(_signed_rows(cells[(cells >= 0).all(axis=1)], space.cell_count))
    return MoveSet.build(np.concatenate(blocks), "df1", cfg)


def _cycle_orbit(n: int, r: int, k: int, tag: str) -> MoveSet:
    """The orbit of the degree r*k cycle move of the n x n x n NTFI model
    under the model's per-axis level permutations and axis permutations.

    On the first r levels, slice s < k of the representative is
    C^s - C^((s+1) % k), C the cyclic shift of r levels; the other slices
    are zero.
    """
    cfg = build_ntfi(n)
    E = np.eye(r, dtype=np.int8)
    rep = np.zeros((n, n, n), dtype=np.int8)
    for s in range(k):  # C^s is E with its columns rolled s places
        rep[s, :r, :r] = np.roll(E, s, axis=1) - np.roll(E, (s + 1) % k, axis=1)
    return MoveSet.build(symmetry_orbit(rep.reshape(1, -1), cfg), tag, cfg)


def ntfi_333_moves(level: str = "basic+deg6+deg9") -> MoveSet:
    """The 3x3x3 no-three-factor-interaction families named in ``level``,
    joined by ``+``: ``basic`` (degree 4), ``deg6`` and ``deg9``, each the
    orbit of a cycle move on r levels and k slices; their union."""
    cycles = {"basic": (2, 2), "deg6": (3, 2), "deg9": (3, 3)}  # (r, k)
    wanted = level.split("+")
    if any(w not in cycles for w in wanted):
        raise DimensionError(f"unknown move level {level!r}")
    return functools.reduce(MoveSet.union, (_cycle_orbit(3, *cycles[w], w) for w in wanted))


def degree8_moves_4x4() -> MoveSet:
    """Orbit of the 4x4x4 two-level-transposition move (degree 8) under the
    model's per-axis level permutations and axis permutations."""
    return _cycle_orbit(4, 4, 2, "deg8")


# A degree-2 move of three-way complete independence on levels (x, x') of
# axis a, (y, y') of axis b and (z, z') of axis c, x != x' and z != z': +1 at
# (x, y, z) and (x', y', z'), -1 at (x, y', z') and (x', y, z), each cell as
# 0 for the first level of its pair and 1 for the second, per axis.  With
# y = y' it is the move on one level of b.  Every degree-2 move is one of
# these for some order of the axes.
_DEG2_PATTERN = np.array([(0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 0)])


def degree2_threeway_patterns(dims) -> MoveSet:
    """All degree-2 moves of three-way complete independence: the symmetry
    orbit of one sign pattern in every order of the axes."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 2 for d in dims):
        raise DimensionError(f"need three dims >= 2, got {dims}")
    cfg = build_complete_independence(dims)
    # axes[0..2] play a, b, c; y' = 1 gives y != y', y' = 0 one level of b
    reps = [np.ravel_multi_index(tuple((_DEG2_PATTERN * (1, y1, 1))[:, np.argsort(axes)].T), dims)
            for axes in itertools.permutations(range(3)) for y1 in (1, 0)]
    V = symmetry_orbit(_signed_rows(np.array(reps), cfg.n_cells), cfg)
    return MoveSet.build(V, "deg2-pattern", cfg)


def ntfi_basic_moves(n: int) -> MoveSet:
    """Degree-4 swap moves of the n x n x n NTFI model: the 2x2x2 cycle orbit."""
    return _cycle_orbit(n, 2, 2, "basic")
