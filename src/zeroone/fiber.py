"""Zero-one fiber enumeration, connectivity and distance-reduction checks.

Fiber graphs, distance reduction and whole-model sweeps share one bitmask
kernel (:func:`_apply_moves`): zero-one tables are rows of uint64 words
(:func:`~zeroone.cells.pack_bits`) and square-free moves are the packed
masks of their +1 and -1 cells (:attr:`~zeroone.graver.MoveSet.masks`).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cells import Move, Table, _components, find_rows, pack_bits
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
_CHUNK = 1 << 20  # words in one temporary of the bitmask kernel
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


def _fiber_bits(fiber) -> np.ndarray:
    """Fiber members, Tables or the rows of an array, as an (m, n) 0/1 matrix.

    Any entry other than 0 or 1 raises :class:`ZeroOneError`.
    """
    if isinstance(fiber, np.ndarray):
        X = fiber
    else:
        lengths = {len(x) for x in fiber}
        if len(lengths) > 1:
            raise LengthMismatchError("fiber members differ in length")
        n = lengths.pop() if lengths else 0
        X = np.array([x.values for x in fiber], dtype=np.int64).reshape(len(fiber), n)
    if ((X != 0) & (X != 1)).any():
        raise ZeroOneError("fiber members must be zero-one tables")
    return X.astype(np.uint8)


def _member(fiber, X: np.ndarray, r: int) -> Table:
    return Table(X[r]) if isinstance(fiber, np.ndarray) else fiber[r]


def _check_single_key(cfg: Configuration, X: np.ndarray) -> None:
    if not len(X):
        return
    if X.shape[1] != cfg.n_cells:
        raise LengthMismatchError(
            f"tables have {X.shape[1]} entries, the model has {cfg.n_cells} cells"
        )
    T = X.astype(np.int64) @ cfg.array.T
    if (T != T[0]).any():
        raise MixedFiberError("fiber members have differing sufficient statistics")


def _apply_moves(X: np.ndarray, P: np.ndarray, M: np.ndarray):
    """Every (table, move) pair where the move applies, and where it leads.

    ``X`` holds packed zero-one tables and ``P``, ``M`` the packed +1 and
    -1 cells of K square-free moves.  Move k applies to row x iff
    ``x & P[k] == 0`` and ``x & M[k] == M[k]``, that is (P and M being
    disjoint) iff ``x & S[k] == M[k]`` with ``S = P | M``; it leads to
    ``x ^ S[k]``.  Returns the flat indices ``row * K + k`` of the
    applicable pairs, increasing, and their target rows.  Rows go in
    chunks that keep each temporary near ``_CHUNK`` words.
    """
    K, W = P.shape
    S = P | M
    step = max(1, _CHUNK // max(1, K * W))
    flat, targets = [np.zeros(0, dtype=np.int64)], [np.zeros((0, W), dtype=np.uint64)]
    for a in range(0, len(X), step):
        x = X[a:a + step, None, :]
        f = np.flatnonzero(((x & S) == M).all(axis=2))
        flat.append(f + a * K)
        targets.append(X[a + f // K] ^ S[f % K])
    return np.concatenate(flat), np.concatenate(targets)


def _fiber_moves(X: np.ndarray, P: np.ndarray, M: np.ndarray):
    """Applicable pairs of :func:`_apply_moves` that stay in the fiber ``X``.

    Returns ``(i, k, j)``: table, move and target table; targets outside
    the fiber are dropped.
    """
    flat, targets = _apply_moves(X, P, M)
    i, k = np.divmod(flat, max(1, len(P)))
    j = find_rows(X, targets)
    keep = (j >= 0) & (j != i)
    return i[keep], k[keep], j[keep]


@dataclass(frozen=True)
class FiberGraph:
    """Zero-one fiber members as nodes, applicable-move edges, components."""

    nodes: tuple[Table, ...]
    edges: tuple[tuple[int, int, Move], ...]
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
    Each edge ``(i, j, z)`` has ``i < j`` and the move ``z`` of the first
    (node, move) pair, in node then move order, with ``node + z`` in the
    fiber.  Components are sorted tuples, ordered by smallest member.
    """
    X = _fiber_bits(fiber)
    _check_single_key(b.source_config, X)
    m = len(X)
    nodes = tuple(_member(fiber, X, r) for r in range(m))
    if m <= 1:
        return FiberGraph(nodes, (), ((0,),) if m else ())
    P, M, index = b.masks
    i, k, j = _fiber_moves(pack_bits(X), P, M)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    first = np.sort(np.unique(lo * m + hi, return_index=True)[1])
    moves = [b.moves[t] for t in index[k[first]].tolist()]
    edges = tuple(zip(lo[first].tolist(), hi[first].tolist(), moves))
    labels = _components(m, lo, hi)[1]
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    comps = sorted((tuple(g.tolist()) for g in groups), key=lambda c: c[0])
    return FiberGraph(nodes, edges, tuple(comps))


def check_distance_reducing(b: MoveSet, fiber, strong: bool = False):
    """Verify the (strong) distance-reduction property over a complete fiber.

    Some applicable move must take x strictly closer to y (weak: or y
    closer to x; strong: and y closer to x) for every pair.  A move with
    support s does so iff ``2 * popcount(s & (x ^ y)) > popcount(s)``.
    ``fiber`` is a sequence of zero-one Tables or an (m, n) 0/1 array.
    Returns ``(True, None)`` or ``(False, (x, y))`` with the first failing
    pair in node order.
    """
    X = _fiber_bits(fiber)
    _check_single_key(b.source_config, X)
    m = len(X)
    if m <= 1:
        return True, None
    P, M, _ = b.masks
    B = pack_bits(X)
    # both signs of every move
    i, _, j = _fiber_moves(B, np.vstack([P, M]), np.vstack([M, P]))
    supp = B[i] ^ B[j]
    size = np.bitwise_count(supp).sum(axis=1)
    # closer[i, j]: some applicable move takes node i strictly closer to node j
    closer = np.zeros((m, m), dtype=bool)
    step = max(1, _CHUNK // (m * B.shape[1]))
    for a in range(0, len(i), step):
        r, s = i[a:a + step], supp[a:a + step, None, :]
        shared = np.bitwise_count((B[r][:, None, :] ^ B) & s).sum(axis=2)
        rows, start = np.unique(r, return_index=True)
        closer[rows] |= np.logical_or.reduceat(2 * shared > size[a:a + step, None], start)
    ok = closer & closer.T if strong else closer | closer.T
    bad = np.triu(~ok, 1)
    if not bad.any():
        return True, None
    x, y = divmod(int(bad.argmax()), m)
    return False, (_member(fiber, X, x), _member(fiber, X, y))


@dataclass(frozen=True)
class CrossingReport:
    """Witness (or absence) of a crossing pattern between two tables."""

    condition: str
    witness: tuple[tuple[int, int, int, int], int] | None

    @property
    def found(self) -> bool:
        return self.witness is not None


def _crossing_search(x: Table, y: Table, cfg: Configuration, weak: bool) -> CrossingReport:
    if x.values == y.values:
        raise ZeroOneError("crossing patterns are defined for distinct tables")
    cond = "weak" if weak else "strong"
    # cells i1, i2 and i3, i4 swap along a move iff their pair codes are equal
    pair = cfg.pair_codes
    n = cfg.n_cells
    for direction, (u, v) in ((1, (x, y)), (-1, (y, x))):
        gt = [i for i in range(n) if u[i] > v[i]]
        lt = [i for i in range(n) if u[i] < v[i]]
        if weak:
            fourth = list(range(n))
        else:
            fourth = [i for i in range(n) if u[i] <= v[i]]
        for a in range(len(gt)):
            for bidx in range(a + 1, len(gt)):
                i1, i2 = gt[a], gt[bidx]
                lhs = pair[i1][i2]
                for i3 in lt:
                    for i4 in fourth:
                        if i4 in (i1, i2, i3):
                            continue
                        if pair[i3][i4] == lhs:
                            return CrossingReport(cond, ((i1, i2, i3, i4), direction))
    return CrossingReport(cond, None)


def check_strong_crossing(x: Table, y: Table, cfg: Configuration) -> CrossingReport:
    """Condition: distinct cells with x>y, x>y, x<y, x<=y (or the mirror),
    such that swapping along them is a move."""
    return _crossing_search(x, y, cfg, weak=False)


def check_weak_crossing(x: Table, y: Table, cfg: Configuration) -> CrossingReport:
    return _crossing_search(x, y, cfg, weak=True)


def check_generalized_crossing(b: MoveSet, b0: MoveSet):
    """Every member of ``b0`` outside ``b`` must admit a crossing member of ``b``.

    Pattern: a square-free z' in ``b`` whose negative support sits inside
    supp(z+), whose positive support sits inside supp(z-) except possibly
    one designated cell where z <= 0 (or the sign-swapped version).  On
    packed masks, with ``zp``, ``zm`` the positive and the negative cells
    of z and ``pos``, ``neg`` the +1 and the -1 cells of z' in either
    sign: ``neg & ~zp == 0``, ``pos & zp == 0`` and
    ``popcount(pos & ~zm) <= 1``.
    Returns ``(True, None)`` or ``(False, first_uncovered_move)``.
    """
    if b.matrix.shape[1] != b0.matrix.shape[1] or (find_rows(b0.matrix, b.matrix) < 0).any():
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
            return False, b0.moves[uncovered[a + lonely[0]]]
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


def _cube_codes(cfg: Configuration, max_cells: int) -> np.ndarray:
    """Fiber-key codes (:meth:`Configuration.key_codes`) of all 2^n zero-one
    tables, table i having cell k equal to bit k of i.

    The sums of :attr:`Configuration.key_terms` are built by doubling, one
    cell at a time.  A non-positive ``max_cells`` is refused.
    """
    if max_cells <= 0:
        raise ZeroOneError(f"max_cells must be positive, got {max_cells}")
    n = cfg.n_cells
    if n > max_cells:
        raise CapExceededError(1 << max_cells, f"sweep over 2^{n} tables refused")
    origin, steps = cfg.key_terms
    out = np.empty((1 << n,) + origin.shape, dtype=origin.dtype)
    out[0] = origin
    for k in range(n):
        out[1 << k:2 << k] = out[:1 << k] + steps[k]
    return cfg.key_codes_of_sums(out)


def iter_fibers(cfg: Configuration, max_cells: int = 24):
    """Every zero-one fiber of ``cfg``, by an exhaustive sweep of the 2^n tables.

    Yields ``(key, members)`` in increasing key order.  ``members`` is an
    (m, n) 0/1 uint8 array of the fiber's tables, table i of the sweep
    having cell k equal to bit k of i, in increasing order of i.  More
    than ``max_cells`` cells raise :class:`CapExceededError`, and a
    non-positive ``max_cells`` is refused.
    """
    codes = _cube_codes(cfg, max_cells)
    order = np.argsort(codes, kind="stable")
    cuts = np.flatnonzero(np.diff(codes[order])) + 1
    cells = np.arange(cfg.n_cells)
    for group in np.split(order, cuts):
        X = ((group[:, None] >> cells) & 1).astype(np.uint8)
        yield tuple((cfg.array @ X[0]).tolist()), X


def sweep_connectivity(cfg: Configuration, b: MoveSet, max_cells: int = 24) -> SweepReport:
    """Partition all 2^n zero-one tables by key and count move components.

    Moves preserve the key, so every fiber is connected iff the global
    component count equals the number of distinct keys.  Table i has cell
    k equal to bit k of i, so a move's target is its own index.  A move
    set bound to another model, or a non-positive ``max_cells``, is
    refused.
    """
    if b.source_config != cfg:
        raise ZeroOneError("the move set is bound to another model")
    N = 1 << cfg.n_cells
    codes = np.sort(_cube_codes(cfg, max_cells))
    n_fibers = 1 + int(np.count_nonzero(codes[1:] != codes[:-1]))
    del codes
    P, M, _ = b.masks
    flat, targets = _apply_moves(np.arange(N, dtype=np.uint64)[:, None], P, M)
    src = flat // max(1, len(P))
    del flat
    n_comp, _, rounds = _components(N, src, targets[:, 0].view(np.int64))
    _LOG.debug(
        "connectivity sweep: %d tables, %d fibers, %d edges, %d components, %d hook rounds",
        N, n_fibers, len(src), n_comp, rounds,
    )
    return SweepReport(N, n_fibers, n_comp)
