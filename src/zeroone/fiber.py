"""Zero-one fiber enumeration, connectivity, crossing and distance-reduction checks.

Fiber graphs and distance reduction share one bitmask kernel
(:func:`_distances`): zero-one tables are rows of uint64 words
(:func:`~zeroone.cells.pack_bits`) and square-free moves are the packed
masks of their +1 and -1 cells (:attr:`~zeroone.graver.MoveSet.masks`).
The connectivity sweep needs no pairs: it labels the 2^n tables in place,
each move's sources and targets two strided views of the label cube
(:func:`_cube_view`); the crossing and distance sweeps group the 2^n
tables by key code (:func:`~zeroone.cells._groups`, as the square-free
screen groups its d-sets) and share one loop over batches of equal-size
fibers (:func:`_first_failing`).  The crossing kernel takes the pairs of
each fiber from :func:`~zeroone.cells._pairs`, the pair enumerator of the
square-free screen and of the one-cancellation prune.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cells import Move, Table, _components, _groups, _pairs, find_rows, pack_bits, unpack_bits
from .errors import (
    CapExceededError,
    LengthMismatchError,
    MixedFiberError,
    NoDecompositionError,
    ZeroOneError,
)
from .graver import MoveSet
from .models import Configuration, FiberKey

DEFAULT_CAP = 5_000_000
_CHUNK = 1 << 16  # elements in one temporary of a kernel: 512 KB of words stays in cache
_LOG = logging.getLogger("zeroone.fiber")


def enumerate_zero_one_fiber(
    cfg: Configuration, t: FiberKey, cap: int = DEFAULT_CAP
) -> list[Table]:
    """All zero-one solutions of ``A x = t`` in canonical cell order.

    Iterative depth-first assignment over :attr:`Configuration.fiber_plan`,
    branching 0 before 1.  The key is checked against every row's range
    once; a branch at cell p is then pruned when one of the rows the cell
    touches leaves the range the later cells can still reach, so signed
    matrices are handled.  A row's range after its last nonzero cell is
    [0, 0], so every leaf is a solution.  Infeasible keys yield an empty
    list; exceeding ``cap`` raises and a non-positive ``cap`` is refused.
    One DEBUG record per call on the ``zeroone.fiber`` logger gives the
    search's counters.
    """
    if cap <= 0:
        raise ZeroOneError(f"cap must be positive, got {cap}")
    n = cfg.n_cells
    t = tuple(int(v) for v in t)
    if len(t) != cfg.n_rows:
        raise MixedFiberError(f"key length {len(t)} != {cfg.n_rows} rows")
    ranges, touched = cfg.fiber_plan
    out: list[Table] = []
    nodes = pruned = 0
    capped = False
    if all(lo <= v <= hi for v, (lo, hi) in zip(t, ranges)):
        nodes = 1
        resid, x = list(t), [0] * n
        # branch[p]: the next branch to try at cell p, 2 once both are tried
        branch = [0] * n
        p = 0
        while p >= 0:
            if p == n:
                if len(out) >= cap:
                    capped = True
                    break
                out.append(Table(tuple(x)))
                p -= 1
                continue
            rows = touched[p]
            if branch[p] == 0:
                branch[p] = 1
                for r, _, lo, hi in rows:
                    if not lo <= resid[r] <= hi:
                        pruned += 1
                        break
                else:
                    nodes += 1
                    p += 1
                    continue
            if branch[p] == 1:
                branch[p] = 2
                for r, a, lo, hi in rows:
                    if not lo <= resid[r] - a <= hi:
                        pruned += 1
                        break
                else:
                    for r, a, _, _ in rows:
                        resid[r] -= a
                    x[p] = 1
                    nodes += 1
                    p += 1
                    continue
            elif x[p]:
                for r, a, _, _ in rows:
                    resid[r] += a
                x[p] = 0
            branch[p] = 0
            p -= 1
    else:
        pruned = 1
    _LOG.debug(
        "fiber enumeration: %d cells, %d rows, %d nodes visited, %d branches pruned, "
        "%d tables found%s",
        n, cfg.n_rows, nodes, pruned, len(out), ", cap reached" if capped else "",
    )
    if capped:
        raise CapExceededError(cap)
    return out


def _fiber_bits(fiber, cfg: Configuration) -> np.ndarray:
    """Fiber members, Tables or the rows of an array, as an (m, n) 0/1 uint8
    matrix of one key of ``cfg``; other entries or lengths, or differing key
    words (:attr:`~Configuration.key_terms`), raise :class:`ZeroOneError`."""
    rows = fiber if isinstance(fiber, np.ndarray) else [x.values for x in fiber]
    if any(len(x) != cfg.n_cells for x in rows):
        raise LengthMismatchError(f"fiber members must have {cfg.n_cells} entries, one per cell")
    X = np.asarray(rows).reshape(len(rows), cfg.n_cells)
    if ((X != 0) & (X != 1)).any():
        raise ZeroOneError("fiber members must be zero-one tables")
    T = X.astype(np.uint64) @ cfg.key_terms[1]
    if (T != T[:1]).any():
        raise MixedFiberError("fiber members have differing sufficient statistics")
    return X.astype(np.uint8)


def _members(fiber, X: np.ndarray, rows) -> tuple[Table, ...]:
    return tuple(Table(X[r]) if isinstance(fiber, np.ndarray) else fiber[r] for r in rows)


def _distances(B: np.ndarray, P: np.ndarray, M: np.ndarray):
    """``(a, D)`` per chunk of ``_CHUNK`` words from row ``a`` of the packed
    tables ``B``: ``D[t, k] = popcount((B[a + t] ^ M[k]) & S[k])`` for the
    moves with +1 cells ``P``, -1 cells ``M`` and ``S = P | M``.  Move k
    applies to x iff ``D[x, k] == 0``, -k iff ``D[x, k] == |S[k]|``.
    """
    S = P | M
    step = max(1, _CHUNK // max(1, S.size))
    for a in range(0, len(B), step):
        d = B[a:a + step, None, :] ^ M
        d &= S
        ones = np.bitwise_count(d)
        # at most 64 per word: uint8 holds D and 2 * D for one-word tables
        yield a, ones[..., 0] if ones.shape[2] == 1 else ones.sum(axis=2, dtype=np.int32)


def _far_pair(B: np.ndarray, P: np.ndarray, M: np.ndarray, F: int, strong: bool,
              closed: bool = True):
    """The first ``(f, x, y)``, x < y, of F fibers of m tables each, packed
    one after another in ``B``, such that no move takes x strictly closer to
    y or (strong: and) none takes y closer to x; None if there is none.

    Over the moves, then their negations: ``A[x, c]`` iff c applies to x,
    ``G[y, c]`` iff c takes the tables it applies to closer to y, as move k
    turns S from M to P and the distance to y from ``D[y, k]`` to
    ``|S| - D[y, k]``.  ``closed=False`` drops the moves leading outside
    ``B``.  ``closer = A @ G^T`` goes in tiles of ``_CHUNK`` elements.
    """
    D = np.concatenate([D for _, D in _distances(B, P, M)]).reshape(F, len(B) // F, -1)
    F, m, _ = D.shape
    size = np.bitwise_count(P | M).sum(axis=1, dtype=np.int32)
    A = np.concatenate([D == 0, D == size], axis=2, dtype=np.float32)
    G = np.concatenate([2 * D > size, 2 * D < size], axis=2, dtype=np.float32)
    if not closed:
        f, x, c = np.nonzero(A)
        A[f, x, c] = find_rows(B, B[f * m + x] ^ np.vstack([P | M] * 2)[c]) >= 0
    step = max(1, _CHUNK // (F * m))
    for a in range(0, m, step):
        to = A[:, a:a + step] @ G.transpose(0, 2, 1) > 0  # closer[f, x, y]
        # closer[f, y, x]: the transpose when the tile holds every row
        back = to.transpose(0, 2, 1) if step >= m else G[:, a:a + step] @ A.transpose(0, 2, 1) > 0
        bad = ~(to & back) if strong else ~(to | back)
        bad &= np.arange(m) > np.arange(a, a + bad.shape[1])[:, None]
        hit = np.flatnonzero(bad.any(axis=(1, 2)))
        if len(hit):
            x, y = divmod(int(bad[hit[0]].argmax()), m)
            return int(hit[0]), a + x, y
    return None


@dataclass(frozen=True)
class FiberGraph:
    """Zero-one fiber members as nodes, applicable-move edges, components."""

    nodes: tuple[Table, ...]
    edges: tuple[tuple[int, int, int], ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def connected(self) -> bool:
        return len(self.components) <= 1


def build_fiber_graph(fiber, b: MoveSet) -> FiberGraph:
    """Graph with an edge (x, y) iff y - x is (plus or minus) a move of ``b``.

    ``fiber`` is a sequence of zero-one Tables or an (m, n) 0/1 array.
    Each edge ``(i, j, k)`` has ``i < j`` and the row k of ``b.matrix``
    of the first (node, move) pair, in node then move order, with the node
    plus that row in the fiber.  Components are sorted tuples, ordered by
    smallest member.  One DEBUG record per call counts the three.
    """
    X = _fiber_bits(fiber, b.source_config)
    m = len(X)
    edges, components = (), ((0,),) if m else ()
    if m > 1:
        P, M, index = b.masks
        B = pack_bits(X)
        K = max(1, len(P))
        flat = [np.flatnonzero(D == 0) + a * K for a, D in _distances(B, P, M)]
        i, k = np.divmod(np.concatenate(flat), K)
        j = find_rows(B, B[i] ^ (P | M)[k])  # the target, if in the fiber
        keep = (j >= 0) & (j != i)
        i, k, j = i[keep], k[keep], j[keep]
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        first = np.sort(np.unique(lo * m + hi, return_index=True)[1])
        edges = tuple(zip(lo[first].tolist(), hi[first].tolist(), index[k[first]].tolist()))
        labels = _components(m, lo, hi)[1]
        order = np.argsort(labels, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
        # labels are each component's smallest node, so the groups come in that order
        components = tuple(tuple(g.tolist()) for g in groups)
    _LOG.debug("fiber graph: %d nodes, %d edges, %d components", m, len(edges), len(components))
    return FiberGraph(_members(fiber, X, range(m)), edges, components)


def check_distance_reducing(b: MoveSet, fiber, strong: bool = False):
    """Verify the (strong) distance-reduction property over a complete fiber.

    Some applicable move must take x strictly closer to y (weak: or y
    closer to x; strong: and y closer to x) for every pair.  A move with
    support s does so iff ``2 * popcount(s & (x ^ y)) > popcount(s)``, and
    counts only if it leads to one of the given tables.
    ``fiber`` is a sequence of zero-one Tables or an (m, n) 0/1 array.
    Returns ``(True, None)`` or ``(False, (x, y))`` with the first failing
    pair in node order.
    """
    X = _fiber_bits(fiber, b.source_config)
    P, M, _ = b.masks
    pair = _far_pair(pack_bits(X), P, M, 1, strong, closed=False) if len(X) > 1 else None
    return pair is None, pair and _members(fiber, X, pair[1:])


def sweep_distance_reducing(cfg: Configuration, b: MoveSet, strong: bool = False,
                            max_cells: int = 24):
    """:func:`check_distance_reducing` on every fiber of the 2^n tables of
    ``cfg`` (:func:`_first_failing`): ``(True, None)`` or ``(False, key)``.
    A set bound to another model, or ``max_cells <= 0``, is refused."""
    b._check_model(cfg)
    P, M, _ = b.masks
    return _first_failing(cfg, _cube_fibers(cfg, max_cells), "distance-reduction", 2 * len(P),
                          lambda B, F: _far_pair(B, P, M, F, strong))


def _first_crossings(U: np.ndarray, V: np.ndarray, Q: np.ndarray, weak: bool) -> np.ndarray:
    """Per row pair (u, v) of ``U`` and ``V``: the first c such that the swap
    ``Q[c]`` crosses from u to v, else ``len(Q) + c`` for the first from v to
    u, else ``2 * len(Q)``.  (i1, i2, i3, i4) crosses from u to v iff u > v at
    i1 and i2, u < v at i3 and (strong) u <= v at i4, so any integer tables do."""
    gt, lt = np.ascontiguousarray((U > V).T), np.ascontiguousarray((U < V).T)  # cells x pairs
    hit = [g[Q[:, 0]] & g[Q[:, 1]] & l[Q[:, 2]] & (weak | ~g[Q[:, 3]])
           for g, l in ((gt, lt), (lt, gt))]
    return np.vstack(hit + [np.ones((1, len(U)), dtype=bool)]).argmax(axis=0)


def check_crossing(x: Table, y: Table, cfg: Configuration, weak: bool = False):
    """The first crossing of x and y, ``((i1, i2, i3, i4), direction)``, or None:
    the first row of :attr:`Configuration.swaps` with cells i1 < i2 where
    x > y, i3 where x < y and i4 where x <= y (``weak``: any i4), x to y
    (direction 1) before y to x (-1).  Two equal tables are refused."""
    if x.values == y.values:
        raise ZeroOneError("crossing patterns are defined for distinct tables")
    Q = cfg.swaps
    c = int(_first_crossings(np.array([x.values]), np.array([y.values]), Q, weak)[0])
    return (tuple(Q[c % len(Q)].tolist()), 1 if c < len(Q) else -1) if c < 2 * len(Q) else None


def _uncrossed(X: np.ndarray, F: int, Q: np.ndarray, weak: bool):
    """The first ``(f, a, b)``, a < b, of F fibers of m rows each, stacked in
    ``X``, such that no swap of ``Q`` crosses between the distinct rows a and
    b of fiber f, or None; pairs in node order (:func:`~zeroone.cells._pairs`),
    tiles of ``_CHUNK // (2 Q)``."""
    m = len(X) // F
    partners = m - 1 - np.arange(len(X)) % m  # the later rows of its fiber
    for u, v in _pairs(partners, max(1, _CHUNK // max(1, 2 * len(Q)))):
        for r in np.flatnonzero(_first_crossings(X[u], X[v], Q, weak) == 2 * len(Q))[:1]:
            if (X[u[r]] == X[v[r]]).all():
                raise ZeroOneError("crossing patterns are defined for distinct tables")
            return *divmod(int(u[r]), m), int(v[r]) % m
    return None


def uncrossed_pair(fiber, cfg: Configuration, weak: bool = False):
    """The first pair ``(x, y)``, in node order, of ``fiber`` (zero-one Tables or
    an (m, n) 0/1 array of one key) with no strong (``weak``: weak) crossing, or None."""
    X = _fiber_bits(fiber, cfg)
    pair = _uncrossed(X, 1, cfg.swaps, weak)
    return pair and _members(fiber, X, pair[1:])


def sweep_crossing(cfg: Configuration, weak: bool = False, max_cells: int = 24):
    """:func:`uncrossed_pair` on every fiber of the 2^n tables of ``cfg``
    (:func:`_first_failing`): ``(True, None)`` or ``(False, key)``."""
    groups = _cube_fibers(cfg, max_cells)  # first: a refused sweep builds no swaps
    Q = cfg.swaps
    return _first_failing(cfg, groups, f"{'weak' if weak else 'strong'} crossing", 2 * len(Q),
                          lambda B, F: _uncrossed(unpack_bits(B, cfg.n_cells), F, Q, weak))


def check_generalized_crossing(b: MoveSet, b0: MoveSet):
    """Every member of ``b0`` outside ``b`` must admit a crossing member of ``b``.

    Pattern: a square-free z' in ``b`` whose negative support sits inside
    supp(z+), whose positive support sits inside supp(z-) except possibly
    one designated cell where z <= 0 (or the sign-swapped version).  On
    packed masks, with ``zp``, ``zm`` the positive and the negative cells
    of z and ``pos``, ``neg`` the +1 and the -1 cells of z' in either
    sign: ``neg & ~zp == 0``, ``pos & zp == 0`` and ``popcount(pos & ~zm) <= 1``.
    Returns ``(True, None)`` or ``(False, first_uncovered_move)``.  Refuses
    a ``b`` of another model than ``b0``'s, or not a subset of ``b0``.
    """
    b._check_model(b0.source_config)
    if (find_rows(b0.matrix, b.matrix) < 0).any():
        raise ZeroOneError("b must be a subset of b0")
    uncovered = np.flatnonzero(find_rows(b.matrix, b0.matrix) < 0)
    P, M, _ = b.masks
    pos, neg = np.vstack([P, M]), np.vstack([M, P])
    V = b0.matrix[uncovered]
    ZP, ZM = pack_bits(V > 0)[:, None, :], pack_bits(V < 0)[:, None, :]
    step = max(1, _CHUNK // max(1, pos.size))
    for a in range(0, len(V), step):
        zp, zm = ZP[a:a + step], ZM[a:a + step]
        crossing = (
            ((neg & ~zp) == 0).all(axis=2)
            & ((pos & zp) == 0).all(axis=2)
            & (np.bitwise_count(pos & ~zm).sum(axis=2) <= 1)
        )
        lonely = np.flatnonzero(~crossing.any(axis=1))
        if len(lonely):
            return False, Move(V[a + lonely[0]])
    return True, None


def conformal_decompose(x: Table, y: Table, b0: MoveSet) -> list[Move]:
    """Signed members of ``b0`` summing to ``y - x`` with no sign cancellation.

    Depth-first over the rows of ``W``, each member of ``b0`` followed by
    its negation in canonical order; a row fits the remaining difference
    ``d`` iff ``min(d, 0) <= W <= max(d, 0)`` in every cell.  Raises
    :class:`NoDecompositionError` when ``b0`` cannot express the difference.
    """
    cfg = b0.source_config
    if cfg.sufficient_stat(x) != cfg.sufficient_stat(y):
        raise MixedFiberError("tables are not in the same fiber")
    V = b0.matrix
    W = np.stack([V, -V], axis=1).reshape(2 * len(V), V.shape[1])

    def fitting(d):
        return iter(np.flatnonzero(((np.minimum(d, 0) <= W) & (W <= np.maximum(d, 0))).all(1)))

    d = np.subtract(y.values, x.values, dtype=np.int64)
    rows, untried = [], [fitting(d)]  # the rows taken, and the rows left to try at each depth
    while d.any():
        r = next(untried[-1], None)
        if r is not None:
            rows.append(r)
            d = d - W[r]
            untried.append(fitting(d))
            continue
        untried.pop()
        if not rows:
            raise NoDecompositionError("difference is not a conformal sum over the given set")
        d = d + W[rows.pop()]
    return [Move(v) for v in W[rows].tolist()]


@dataclass(frozen=True)
class SweepReport:
    """Connectivity summary of all zero-one tables of a configuration."""

    n_tables: int
    n_fibers: int
    n_components: int

    @property
    def all_connected(self) -> bool:
        return self.n_components == self.n_fibers


def check_sweep_cells(cfg: Configuration, max_cells: int) -> None:
    """Refuse a sweep of the 2^n tables of ``cfg`` with more than ``max_cells``
    cells (:class:`CapExceededError`), and a non-positive ``max_cells``."""
    if max_cells <= 0:
        raise ZeroOneError(f"max_cells must be positive, got {max_cells}")
    if cfg.n_cells > max_cells:
        raise CapExceededError(1 << max_cells, f"sweep over 2^{cfg.n_cells} tables refused")


def _cube_codes(cfg: Configuration, max_cells: int) -> np.ndarray:
    """Fiber-key codes (:meth:`Configuration.key_codes_of_sums`) of all 2^n
    zero-one tables, table i having cell k equal to bit k of i.

    The sums of :attr:`Configuration.key_terms` are built by doubling, one
    cell at a time.  The sweep is refused as :func:`check_sweep_cells` says.
    """
    check_sweep_cells(cfg, max_cells)
    n = cfg.n_cells
    origin, steps = cfg.key_terms
    out = np.empty((1 << n,) + origin.shape, dtype=origin.dtype)
    out[0] = origin
    for k in range(n):
        out[1 << k:2 << k] = out[:1 << k] + steps[k]
    return cfg.key_codes_of_sums(out)


def _cube_fibers(cfg: Configuration, max_cells: int):
    """``(order, start, size)``: the 2^n sweep tables as a column of packed words
    grouped by :func:`_cube_codes` (:func:`~zeroone.cells._groups`), and each
    fiber's start in it and size."""
    order, start, size = _groups(_cube_codes(cfg, max_cells))
    return order.view(np.uint64)[:, None], start, size


def iter_fibers(cfg: Configuration, max_cells: int = 24):
    """Every zero-one fiber of ``cfg`` as ``(key, members)``, in increasing
    key order: the key in Python ints, the members an (m, n) 0/1 uint8 array
    of the sweep tables, table i having cell k equal to bit k of i, in
    increasing i.  More than ``max_cells`` cells raise
    :class:`CapExceededError`, and a non-positive ``max_cells`` is refused."""
    order, start, _ = _cube_fibers(cfg, max_cells)
    for group in np.split(order, start[1:]):
        X = unpack_bits(group, cfg.n_cells)
        yield cfg.sufficient_stat(Table(X[0])), X


def _first_failing(cfg: Configuration, groups, name: str, width: int, kernel):
    """``(True, None)``, or ``(False, key)`` of the first fiber of ``groups``
    (:func:`_cube_fibers`) in key order where ``kernel(B, F)`` finds a pair
    ``(f, x, y)`` among F fibers of m tables packed one after another in ``B``.
    Sizes ascend, in batches of about ``_CHUNK // max(m, width)`` tables, up
    to the first failing fiber so far.  One DEBUG record."""
    order, start, size = groups
    first = None  # the first failing fiber so far
    for m in sorted(set(size[size > 1].tolist())):  # np.unique imports numpy.ma
        fibers = np.flatnonzero(size[:first] == m)
        step = max(1, _CHUNK // (m * max(m, width)))
        for a in range(0, len(fibers), step):
            batch = fibers[a:a + step]
            pair = kernel(order[(start[batch, None] + np.arange(m)).ravel()], len(batch))
            if pair is not None:
                first = int(batch[pair[0]])
                break
    _LOG.debug("%s sweep: %d tables, %d fibers, first failing fiber %s",
               name, len(order), len(start), first)
    if first is None:
        return True, None
    return False, cfg.sufficient_stat(Table(unpack_bits(order[[start[first]]], cfg.n_cells)[0]))


def _cube_view(n: int, support: int, bits: int) -> tuple:
    """Index of the sweep tables with cell k equal to bit k of ``bits`` for
    each cell k of ``support``, in the label cube of n cells, whose axis j is
    cell n - 1 - j.  The trailing ``...`` keeps a full support a 0-d view."""
    cells = reversed(range(n))
    return tuple(bits >> k & 1 if support >> k & 1 else slice(None) for k in cells) + (...,)


def _propagate(cube: np.ndarray, views, check: bool) -> bool:
    """One pass over the moves' ``(source, target)`` view pairs of ``cube``:
    each pair that differs takes its elementwise minimum.  True if any did.
    Without ``check`` every pair takes it unseen, as on the first pass,
    where each differs: labels are the tables and no move is zero."""
    changed = False
    for src, dst in views:
        a, b = cube[src], cube[dst]
        if not check or not np.array_equal(a, b):
            np.minimum(a, b, out=a)
            b[...] = a
            changed = True
    return changed


def sweep_connectivity(cfg: Configuration, b: MoveSet, max_cells: int = 24) -> SweepReport:
    """Partition all 2^n zero-one tables by key and count move components.

    Moves preserve the key, so every fiber is connected iff the global
    component count equals the number of distinct keys.  Components are
    labelled in place, with no edge list: one label per table (int32
    below 2^31 tables), reshaped to the cube ``(2,) * n``.  The tables a
    move applies to, those with its -1 cells set and its +1 cells clear,
    are one strided view of the cube (:func:`_cube_view`), and their
    targets the view with those bits flipped.  Each pass lowers both views
    of every move to their minimum (:func:`_propagate`), then jumps
    pointers (``labels[labels]``) to a fixpoint; the passes end when no
    move's views differ.  A label is always a table of the same component,
    so each component ends with one label, the one table labelled by
    itself.  A move set bound to another model, or a non-positive
    ``max_cells``, is refused.
    """
    b._check_model(cfg)
    codes = _cube_codes(cfg, max_cells)
    codes.sort()
    n_fibers = 1 + int(np.count_nonzero(codes[1:] != codes[:-1]))
    del codes
    n = cfg.n_cells
    N = 1 << n
    P, M, _ = b.masks
    moves = [(p | m, m) for p, m in zip(P[:, 0].tolist(), M[:, 0].tolist())]
    views = [(_cube_view(n, s, m), _cube_view(n, s, s ^ m)) for s, m in moves]
    labels = np.arange(N, dtype=np.int32 if N < 2**31 else np.int64)
    passes = 0
    while _propagate(labels.reshape((2,) * n), views, passes > 0):
        passes += 1
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        del jumped
    n_comp = int(np.count_nonzero(labels == np.arange(N, dtype=labels.dtype)))
    _LOG.debug(
        "connectivity sweep: %d tables, %d fibers, %d edges, %d components, "
        "%d propagation passes",
        N, n_fibers, sum(1 << n - s.bit_count() for s, _ in moves), n_comp, passes,
    )
    return SweepReport(N, n_fibers, n_comp)
