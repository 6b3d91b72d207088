"""Cell spaces, integer tables and signed moves.

All values are immutable after construction; every method is a pure
function, so the types are safe to share between threads.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CellIndexError, LengthMismatchError, StructuralZeroError

MultiIndex = tuple[int, ...]


def pack_bits(X) -> np.ndarray:
    """Rows of a 0/1 matrix as little-endian uint64 words, shape (m, ceil(n/64)).

    Cell k of a row is bit ``k % 64`` of word ``k // 64``; an n-cell row
    takes at least one word.
    """
    X = np.asarray(X, dtype=np.uint8)
    m, n = X.shape
    words = max(1, -(-n // 64))
    buf = np.zeros((m, 64 * words), dtype=np.uint8)
    buf[:, :n] = X
    return np.packbits(buf, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def unpack_bits(words, n: int) -> np.ndarray:
    """The inverse of :func:`pack_bits`: (m, n) uint8 0/1 rows."""
    words = np.ascontiguousarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")


def _signed_rows(cells: np.ndarray, n: int) -> np.ndarray:
    """An (m, n) int8 matrix: +1 at the first half of each row of ``cells``
    and -1 at the second, the cells of a row all distinct."""
    V = np.zeros((len(cells), n), dtype=np.int8)
    h = cells.shape[1] // 2
    np.put_along_axis(V, cells[:, :h], 1, axis=1)
    np.put_along_axis(V, cells[:, h:], -1, axis=1)
    return V


def find_rows(X, Y) -> np.ndarray:
    """Position of each row of ``Y`` among the distinct rows of ``X``, or -1.
    Rows of one 8-byte word sort as uint64, many times faster than as bytes."""
    X = np.ascontiguousarray(X)
    Y = np.ascontiguousarray(Y, dtype=X.dtype)
    if len(X) == 0:
        return np.full(len(Y), -1, dtype=np.int64)
    width = X.dtype.itemsize * X.shape[1]
    row = np.uint64 if width == 8 else np.dtype((np.void, width))
    kx, ky = X.view(row)[:, 0], Y.view(row)[:, 0]
    order = np.argsort(kx)
    pos = order[np.minimum(np.searchsorted(kx[order], ky), len(X) - 1)]
    return np.where((X[pos] == Y).all(axis=1), pos, -1)


def _groups(codes: np.ndarray):
    """``(order, start, size)``: the positions of ``codes`` in a stable sort,
    and the start in ``order`` and the size of each run of equal codes."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    return order, start, np.diff(np.r_[start, len(codes)])


def _ranges(start, count) -> np.ndarray:
    """``start[i], ..., start[i] + count[i] - 1`` for each i, concatenated."""
    return np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)


def _pairs(partners: np.ndarray, step: int):
    """``(a, b)`` row arrays of at most ``step`` pairs each, pairing each row a
    with the ``partners[a]`` rows right after it: a ascending, then b."""
    end = np.cumsum(partners)
    total = int(end[-1]) if len(end) else 0
    for k in range(0, total, step):
        p = np.arange(k, min(k + step, total))
        a = np.searchsorted(end, p, side="right")  # the row whose pairs hold p
        yield a, p + a + 1 - (end[a] - partners[a])


def _components(m: int, src: np.ndarray, dst: np.ndarray):
    """``(count, labels, rounds)``: connected components of the undirected
    graph on nodes ``0 .. m-1`` with edges ``(src[e], dst[e])``.

    Hook and compress (Shiloach & Vishkin, 1982).  Each round hooks the
    larger root of every edge under the smaller one (``np.minimum.at``
    keeps the smallest), jumps pointers until every node points at its
    root, and replaces each edge by the pair of its roots, dropping the
    pairs within one root; the rounds end when no edge is left.  A node is
    only ever hooked under a smaller node, so ``labels[v]`` is the
    smallest node of v's component.  Labels and edges are int32 while
    ``m < 2**31``.  For graphs whose edges are listed: fiber graphs and the
    orbits of the square-free screen's fibers.
    """
    itype = np.int32 if m < 2**31 else np.int64
    labels = np.arange(m, dtype=itype)
    lo, hi = src.astype(itype, copy=False), dst.astype(itype, copy=False)  # not written
    rounds = 0
    while True:
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        del keep
        if not len(lo):
            break
        rounds += 1
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)
        np.minimum.at(labels, hi, lo)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        lo = labels[lo]
        hi = labels[hi]
    return int(np.count_nonzero(labels == np.arange(m, dtype=itype))), labels, rounds


@dataclass(frozen=True)
class CellSpace:
    """A box of cells ``I_1 x ... x I_V`` with an optional structural-zero mask.

    Cells are ordered row-major (last axis fastest) over the declared
    dimensions; masked cells are skipped, so linear indices rank only the
    cells that actually carry a table entry.
    """

    dims: tuple[int, ...]
    structural_zeros: frozenset[MultiIndex] = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise CellIndexError(f"dims must be positive, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        zeros = frozenset(tuple(int(c) for c in z) for z in self.structural_zeros)
        for z in zeros:
            if len(z) != len(self.dims) or any(not 0 <= c < d for c, d in zip(z, self.dims)):
                raise CellIndexError(f"structural zero {z} outside dims {self.dims}")
        object.__setattr__(self, "structural_zeros", zeros)

    @cached_property
    def cells(self) -> tuple[MultiIndex, ...]:
        """All non-masked multi-indices in row-major order."""
        return tuple(
            idx
            for idx in itertools.product(*(range(d) for d in self.dims))
            if idx not in self.structural_zeros
        )

    @cached_property
    def _index_of(self) -> dict[MultiIndex, int]:
        return {idx: k for k, idx in enumerate(self.cells)}

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def linear_index(self, idx: MultiIndex) -> int:
        idx = tuple(int(c) for c in idx)
        if len(idx) != len(self.dims) or any(not 0 <= c < d for c, d in zip(idx, self.dims)):
            raise CellIndexError(f"index {idx} outside dims {self.dims}")
        if idx in self.structural_zeros:
            raise StructuralZeroError(f"cell {idx} is a structural zero")
        return self._index_of[idx]

    def multi_index(self, k: int) -> MultiIndex:
        if not 0 <= k < self.cell_count:
            raise CellIndexError(f"linear index {k} out of range [0, {self.cell_count})")
        return self.cells[k]


@dataclass(frozen=True, slots=True)
class Table:
    """An integer frequency vector over the non-masked cells of a space."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(int, self.values)))

    @property
    def zero_one(self) -> bool:
        return all(v in (0, 1) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def check_length(self, space: CellSpace) -> None:
        if len(self.values) != space.cell_count:
            raise LengthMismatchError(
                f"table has {len(self.values)} entries, space has {space.cell_count} cells"
            )


@dataclass(frozen=True, slots=True)
class Move:
    """A signed integer vector over cells, stored dense in cell order.

    The canonical representative of the pair {z, -z} carries a positive
    entry at its smallest-index support cell; constructors normalise
    unless told otherwise.
    """

    vec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vec", tuple(map(int, self.vec)))

    @classmethod
    def canonical(cls, vec) -> "Move":
        vec = tuple(int(v) for v in vec)
        for v in vec:
            if v > 0:
                return cls(vec)
            if v < 0:
                return cls(tuple(-x for x in vec))
        return cls(vec)

    @property
    def degree(self) -> int:
        return sum(v for v in self.vec if v > 0)

    @property
    def square_free(self) -> bool:
        return all(v in (-1, 0, 1) for v in self.vec)

    def __neg__(self) -> "Move":
        return Move(tuple(-v for v in self.vec))

    def __len__(self) -> int:
        return len(self.vec)
