"""Model configurations: constraint matrices mapping tables to sufficient statistics.

Builders cover two-way independence, complete independence, quasi-independence
with structural zeros, the no-three-factor-interaction (NTFI) model and the
many-facet rating-scale model, plus the Lawrence lifting of any configuration.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cells import CellSpace, Move, Table, _ranges
from .errors import DimensionError, LengthMismatchError, ZeroOneError

FiberKey = tuple[int, ...]


@dataclass(frozen=True)
class Configuration:
    """Integer matrix ``A`` with one column per (non-masked) cell.

    ``A @ x`` is the sufficient statistic of table ``x``; integer kernel
    vectors of ``A`` are the moves of the model.
    """

    cell_space: CellSpace
    matrix: tuple[tuple[int, ...], ...]
    row_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        mat = tuple(tuple(int(v) for v in row) for row in self.matrix)
        n = self.cell_space.cell_count
        for r, row in enumerate(mat):
            if len(row) != n:
                raise LengthMismatchError(f"matrix row length {len(row)} != cell count {n}")
            if row and not -1 << 63 <= min(row) <= max(row) < 1 << 63:
                raise ZeroOneError(f"matrix row {r} has an entry outside int64")
        object.__setattr__(self, "matrix", mat)
        if not self.row_labels:
            object.__setattr__(self, "row_labels", tuple(f"row{i}" for i in range(len(mat))))
        elif len(self.row_labels) != len(mat):
            raise LengthMismatchError("row_labels length does not match matrix")

    @cached_property
    def array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=np.int64).reshape(self.n_rows, self.n_cells)

    @property
    def n_cells(self) -> int:
        return self.cell_space.cell_count

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @cached_property
    def homogeneity_witness(self) -> tuple[Fraction, ...] | None:
        """A rational ``w`` with ``w^T A = (1, ..., 1)``, or ``None``.

        Sparse exact elimination over :class:`~fractions.Fraction`: one
        equation ``sum_r A[r, c] w_r = 1`` per cell c, each reduced by its
        leading unknown against the pivot equation of that unknown until it
        vanishes or becomes the pivot of a new one.  The pivot unknowns are
        then the rows of A independent of the rows before them, as in the
        reduced row echelon form, and the free unknowns are set to 0, so
        ``w`` is the particular solution Gauss–Jordan elimination gives.
        Verified by exact multiplication before it is returned.
        """
        # pivots[u]: an equation ({unknown: coefficient}, rhs) whose
        # smallest unknown is u, with coefficient 1.  Integral values stay
        # Python ints, which are many times faster than Fractions.
        pivots: dict[int, tuple[dict, int | Fraction]] = {}
        columns = self.fiber_plan[1]
        for cells in columns:
            eq = {r: a for r, a, _, _ in cells}
            rhs = 1
            while eq:
                u = min(eq)
                a = eq[u]
                if u not in pivots:
                    pivots[u] = ({s: _exact_ratio(v, a) for s, v in eq.items()},
                                 _exact_ratio(rhs, a))
                    break
                peq, prhs = pivots[u]
                for s, v in peq.items():
                    v = eq.get(s, 0) - a * v
                    if v:
                        eq[s] = v
                    else:
                        del eq[s]
                rhs -= a * prhs
            else:
                if rhs:
                    return None
        w = [0] * self.n_rows
        for u in sorted(pivots, reverse=True):
            peq, prhs = pivots[u]
            w[u] = prhs - sum(v * w[s] for s, v in peq.items() if s != u)
        if any(sum(a * w[r] for r, a, _, _ in cells) != 1 for cells in columns):
            return None
        return tuple(map(Fraction, w))

    @cached_property
    def key_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(origin, steps)``, uint64 arrays of shape (W,) and (n, W): the
        key words of a zero-one table x are ``origin`` plus ``steps[c]`` for
        each cell c with x_c = 1, wrapping modulo 2^64, and
        :meth:`key_codes_of_sums` codes them.  Row r of the statistic, less
        its least value ``low_r`` (:attr:`fiber_plan`), is a digit of radix
        ``high_r - low_r + 1``; consecutive rows share a word while the
        product of their radices is at most 2^64 (filled from the last row),
        the first row most significant, so the words are exact and sort as
        the keys do.  Built in Python ints; a row taking more than 2^64
        values is refused.
        """
        ranges, touched = self.fiber_plan
        digit, words, total = [None] * len(ranges), 1, 1  # per row: (word from the end, place)
        for r in reversed(range(len(ranges))):
            s = ranges[r][1] - ranges[r][0] + 1
            if s > 1 << 64:
                raise ZeroOneError(f"row {r} ({self.row_labels[r]}) of the statistic takes "
                                   f"{s} values on zero-one tables, more than 2^64")
            if total * s > 1 << 64:
                words, total = words + 1, 1
            digit[r] = (words, total)
            total *= s
        origin, steps = [0] * words, [[0] * words for _ in touched]
        for (k, place), (low, _) in zip(digit, ranges):
            origin[-k] -= low * place
        for c, entries in enumerate(touched):
            for r, a, _, _ in entries:
                k, place = digit[r]
                steps[c][-k] = (steps[c][-k] + a * place) % (1 << 64)
        return (np.array(origin, dtype=np.uint64),
                np.array(steps, dtype=np.uint64).reshape(-1, words))

    @cached_property
    def symmetry(self) -> np.ndarray:
        """Generators of a group of cell permutations that map fibers onto
        fibers, as the rows ``g`` of an (m, n) array: the table ``x[g]``.

        The candidates come from the cell space: the level transposition
        (0 1) and the level cycle of each axis, and the swap of each pair
        of equal-size axes.  A candidate is kept iff it maps the non-masked
        cells onto themselves and ``A[:, g]`` is ``A`` with its rows
        permuted, so that the statistic of ``x[g]`` is a fixed row
        permutation of the statistic of ``x``.  A refused candidate only
        makes the group smaller; with none kept it is trivial (m = 0).
        """
        space = self.cell_space
        dims = space.dims
        box = np.arange(np.prod(dims)).reshape(dims)
        candidates = []
        for ax, d in enumerate(dims):
            if d > 1:
                candidates.append(np.take(box, [1, 0, *range(2, d)], axis=ax))
            if d > 2:
                candidates.append(np.take(box, [*range(1, d), 0], axis=ax))
        for a, b in itertools.combinations(range(len(dims)), 2):
            if dims[a] == dims[b]:
                candidates.append(np.swapaxes(box, a, b))
        live = np.ravel_multi_index(np.reshape(space.cells, (-1, len(dims))).T, dims)
        cell_of = np.full(box.size, -1)
        cell_of[live] = np.arange(len(live))
        A = self.array
        rows = A[np.lexsort(A.T[::-1])]
        kept = []
        for image in candidates:
            g = cell_of[image.ravel()[live]]
            if (g < 0).any():
                continue
            B = A[:, g]
            if np.array_equal(B[np.lexsort(B.T[::-1])], rows):
                kept.append(g)
        return np.array(kept, dtype=np.int64).reshape(len(kept), self.n_cells)

    def key_codes_of_sums(self, S) -> np.ndarray:
        """Key codes of sums of :attr:`key_terms`, the W words along the last
        axis: equal iff the keys are, and sorting as they do.  With one word
        the code is the word; with more, its rank among the words of ``S``
        (``np.unique``), so codes from different calls do not compare."""
        if S.shape[-1] == 1:
            return S[..., 0]
        rank = np.unique(S.reshape(-1, S.shape[-1]), axis=0, return_inverse=True)[1]
        return rank.reshape(S.shape[:-1]).astype(np.uint64)

    @cached_property
    def swaps(self) -> np.ndarray:
        """(Q, 4) rows (i1, i2, i3, i4) of distinct cells, i1 < i2, in
        lexicographic order, such that trading cells {i1, i2} of a zero-one
        table for {i3, i4} keeps its key: a move.  Pairs meet by key code."""
        origin, steps = self.key_terms
        i, j = np.nonzero(~np.eye(self.n_cells, dtype=bool))  # ordered pairs, lexicographic
        codes = self.key_codes_of_sums(origin + steps[i] + steps[j])
        order = np.argsort(codes, kind="stable")
        lo, hi = (np.searchsorted(codes[order], codes[i < j], side=s) for s in ("left", "right"))
        # each {i1, i2} against every (i3, i4) of its code, both in lexicographic order
        left = np.repeat(np.flatnonzero(i < j), hi - lo)
        right = order[_ranges(lo, hi - lo)]
        R = np.stack([i[left], j[left], i[right], j[right]], axis=1)
        return R[(R[:, 2:, None] != R[:, None, :2]).all(axis=(1, 2))]

    @cached_property
    def fiber_plan(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple, ...]]:
        """``(ranges, touched)``, Python ints, for walking the cells in order.

        ``ranges[r]`` is ``(low, high)``: the least and greatest value of
        row r of the statistic over zero-one tables, the sums of the row's
        negative and of its positive entries.  ``touched[p]`` holds one
        ``(r, A[r, p], low, high)`` per row r with ``A[r, p] != 0``, in row
        order, ``low`` and ``high`` being the same sums over the cells
        after p only.
        """
        nr, n = self.n_rows, self.n_cells
        cols, rows = np.nonzero(self.array.T)
        entries = [[] for _ in range(n)]
        for p, r, a in zip(cols.tolist(), rows.tolist(), self.array.T[cols, rows].tolist()):
            entries[p].append((r, a))
        # low[r], high[r]: sums of row r's negative and positive entries after p
        low, high = [0] * nr, [0] * nr
        touched = [()] * n
        for p in reversed(range(n)):
            touched[p] = tuple((r, a, low[r], high[r]) for r, a in entries[p])
            for r, a in entries[p]:
                if a < 0:
                    low[r] += a
                else:
                    high[r] += a
        return tuple(zip(low, high)), tuple(touched)

    def sufficient_stat(self, x: Table) -> FiberKey:
        """``A x`` in Python ints, exact for any integer table."""
        x.check_length(self.cell_space)
        return self._product(x.values)

    def is_move(self, z: Move) -> bool:
        """Whether ``A z = 0``, in Python ints, exact for any integer vector."""
        if len(z.vec) != self.n_cells:
            raise LengthMismatchError("move length does not match cell count")
        return not any(self._product(z.vec))

    def _product(self, values) -> FiberKey:
        stat = [0] * self.n_rows
        for v, cells in zip(values, self.fiber_plan[1]):
            if v:
                for r, a, _, _ in cells:
                    stat[r] += a * v
        return tuple(stat)


def _exact_ratio(x, y):
    """``x / y`` exactly: an int when it is integral, else a Fraction."""
    q = Fraction(x, y)
    return q.numerator if q.denominator == 1 else q


def _margin_model(space: CellSpace, margins, rows=(), labels=()) -> Configuration:
    """``rows`` and ``labels``, then the indicator rows of the ``(label,
    axes)`` margins of ``space``: per margin one row for each level
    combination of its axes, in row-major order, labelled ``label[i,j,...]``
    (the margin of no axes, the grand total, just ``label``)."""
    rows, labels = list(rows), list(labels)
    for label, axes in margins:
        key = [tuple(c[a] for a in axes) for c in space.cells]
        for levels in itertools.product(*(range(space.dims[a]) for a in axes)):
            rows.append(tuple(int(k == levels) for k in key))
            labels.append(f"{label}[{','.join(map(str, levels))}]" if axes else label)
    return Configuration(space, tuple(rows), tuple(labels))


def build_two_way_independence(I: int, J: int) -> Configuration:
    """Row-sum and column-sum statistics of an I x J table."""
    if I < 2 or J < 2:
        raise DimensionError(f"need I, J >= 2, got {I}x{J}")
    return build_quasi_independence(I, J, itertools.product(range(I), range(J)))


def build_complete_independence(dims) -> Configuration:
    """All one-dimensional marginals of a multi-way table."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise DimensionError("dims must be nonempty")
    if any(d < 2 for d in dims):
        raise DimensionError(f"each dim must be >= 2, got {dims}")
    return _margin_model(CellSpace(dims), [(f"axis{ax}_sum", (ax,)) for ax in range(len(dims))])


def build_quasi_independence(I: int, J: int, S) -> Configuration:
    """Row/column sums of an I x J table restricted to support cells ``S``.

    Cells outside ``S`` are structural zeros: they carry no column at all.
    """
    S = frozenset(tuple(int(c) for c in s) for s in S)
    if not S:
        raise DimensionError("support set S must be nonempty")
    box = set(itertools.product(range(I), range(J)))
    if not S <= box:
        raise DimensionError(f"S contains cells outside the {I}x{J} box")
    space = CellSpace((I, J), frozenset(box - S))
    return _margin_model(space, (("row_sum", (0,)), ("col_sum", (1,))))


def build_ntfi(n: int) -> Configuration:
    """No-three-factor-interaction model for an n x n x n table.

    The sufficient statistic is the full set of two-dimensional marginals
    (line sums along each axis).
    """
    if n < 2:
        raise DimensionError("need n >= 2")
    margins = (("sum_ij", (0, 1)), ("sum_ik", (0, 2)), ("sum_jk", (1, 2)))
    return _margin_model(CellSpace((n, n, n)), margins)


def build_many_facet_rasch(dims, constant_item_param: bool = False) -> Configuration:
    """Rating-scale model over V facets plus a grade axis (last dimension).

    Statistic rows are the grade-weighted two-dimensional sums for each
    facet level, plus either per-grade-level counts or the single grand
    total when ``constant_item_param`` is set.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 3:
        raise DimensionError("need at least two facets plus a grade axis")
    if any(d < 2 for d in dims):
        raise DimensionError(f"each dim must be >= 2, got {dims}")
    V = len(dims) - 1
    space = CellSpace(dims)
    cells = space.cells
    rows = []
    labels = []
    for v in range(V):
        for lvl in range(dims[v]):
            rows.append(tuple(c[V] if c[v] == lvl else 0 for c in cells))
            labels.append(f"grade_weighted_facet{v}[{lvl}]")
    counts = ("grand_total", ()) if constant_item_param else ("grade_count", (V,))
    return _margin_model(space, (counts,), rows, labels)


def lawrence_lift(cfg: Configuration) -> Configuration:
    """Block configuration ((A, 0), (E, E)) over a doubled cell space.

    The new leading axis of length 2 selects the original cells (0) or
    their complements (1); structural-zero masks carry over to both copies.
    """
    base = cfg.cell_space
    zeros = frozenset(
        (copy,) + z for copy in (0, 1) for z in base.structural_zeros
    )
    space = CellSpace((2,) + base.dims, zeros)
    n = base.cell_count
    rows = []
    labels = []
    for row, lab in zip(cfg.matrix, cfg.row_labels):
        rows.append(tuple(row) + (0,) * n)
        labels.append(lab)
    for k in range(n):
        e = tuple(1 if j == k else 0 for j in range(n))
        rows.append(e + e)
        labels.append(f"trial_total[{base.cells[k]}]")
    return Configuration(space, tuple(rows), tuple(labels))
