"""Primitive moves, Graver bases and square-free subsets.

Two independent routes are provided: a Pottier-style completion that
computes the full Graver basis of small configurations, and a direct
fiber-pairing enumeration of the square-free primitive moves that scales
to the desk-size models used throughout.  The pairing groups the d-sets
by key code with :func:`~zeroone.cells._groups` and enumerates the pairs
of each fiber with :func:`~zeroone.cells._pairs`, as the fiber sweeps and
:func:`prune_by_one_cancellation` do.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cells import Move, _components, _groups, _pairs, _ranges, find_rows, pack_bits, unpack_bits
from .errors import BudgetExhaustedError, LengthMismatchError, NotAMoveError, ZeroOneError
from .models import Configuration

_LOG = logging.getLogger("zeroone.graver")
_BUDGET = 1 << 18  # elements in one working array of the pair screen and the fit tests
_VERIFY_SAMPLE = 200  # members of a completed Graver basis checked by brute force


@dataclass(frozen=True, eq=False)
class MoveSet:
    """Ordered, deduplicated collection of canonical moves with provenance
    tags, bound to the configuration whose kernel they lie in, stored as
    the rows of ``matrix`` (int64, read-only).

    :meth:`build` binds new vectors, or rebinds a set to another model; the
    constructor takes rows, moves or vectors as given, unchecked, and serves
    :meth:`retag`, :meth:`union` and the row subsets of bound sets.
    """

    matrix: np.ndarray
    provenance: tuple[str, ...]
    source_config: Configuration

    def __post_init__(self):
        V = _as_rows(self.matrix, self.source_config.n_cells).astype(np.int64, copy=False).view()
        V.flags.writeable = False
        object.__setattr__(self, "matrix", V)

    @classmethod
    def build(cls, moves, tag, cfg: Configuration) -> "MoveSet":
        """Bind ``moves`` (an (m, n) integer array, or moves or vectors) to
        ``cfg``, tagged ``tag`` or one tag per move: canonical signs, each
        move once with its first tag, in (L1 norm, vector) order.  Raises
        :class:`LengthMismatchError` for a vector or a tag count of the wrong
        length and :class:`NotAMoveError` for a move outside ker A, or one
        too large for the product ``A v`` to be exact in 64 bits.
        """
        moves = _as_rows(moves, cfg.n_cells)
        tags = (tag,) * len(moves) if isinstance(tag, str) else tuple(tag)
        if len(tags) != len(moves):
            raise LengthMismatchError(f"{len(tags)} tags for {len(moves)} moves")
        V, first = _canonical_rows(moves)
        # int64 A V wraps modulo 2^64: exact while |A| |v| and the uint64 L1
        # norm are at most 2^63, checked for all rows at once, else in float64
        top = max(int(V.max(initial=0)), -int(V.min(initial=0)))
        wide = np.zeros(len(V), dtype=bool)
        if top * max([cfg.n_cells] + [high - low for low, high in cfg.fiber_plan[0]]) > 1 << 63:
            bound = np.abs(V.astype(np.float64)) @ np.abs(np.c_[np.ones(cfg.n_cells), cfg.array.T])
            # -2^63 is its own int64 negation
            wide = (bound > 2.0**63).any(axis=1) | (np.abs(V) < 0).any(axis=1)
        bad = np.flatnonzero(wide | (cfg.array @ V.T).any(axis=0))
        if len(bad):
            why = "too large to check exactly in 64 bits" if wide[bad[0]] else "not a move of the model"
            raise NotAMoveError(f"{tuple(V[bad[0]].tolist())} is {why}")
        return cls(V, tuple(tags[i] for i in first.tolist()), cfg)

    def __eq__(self, other) -> bool:
        return isinstance(other, MoveSet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return self.matrix.tobytes(), self.provenance, self.source_config  # the model fixes n

    def __reduce__(self):
        # through the constructor, which makes the restored matrix read-only
        return MoveSet, (self.matrix, self.provenance, self.source_config)

    @cached_property
    def moves(self) -> tuple[Move, ...]:
        """The rows as :class:`~zeroone.cells.Move` objects, built on first use."""
        return tuple(Move(v) for v in self.matrix.tolist())

    def __len__(self) -> int:
        return len(self.matrix)

    def __iter__(self):
        return iter(self.moves)

    def __contains__(self, z: Move) -> bool:
        v = Move.canonical(z.vec).vec
        fits = len(v) == self.matrix.shape[1] and all(-1 << 63 <= x < 1 << 63 for x in v)
        return fits and find_rows(self.matrix, [v])[0] >= 0

    @cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(P, M, index)``: the +1 and the -1 cells of the square-free moves
        as :func:`~zeroone.cells.pack_bits` rows, and their rows in ``matrix``.

        A square-free move applies to a zero-one table ``x`` iff
        ``x & P == 0`` and ``x & M == M``, and it leads to ``x ^ (P | M)``;
        the other moves never apply to a zero-one table.
        """
        V = self.matrix
        index = np.flatnonzero((np.abs(V) <= 1).all(axis=1))
        return pack_bits(V[index] == 1), pack_bits(V[index] == -1), index

    def union(self, other: "MoveSet") -> "MoveSet":
        """The moves of both sets of one model, each with its first tag."""
        other._check_model(self.source_config)
        V, first = _canonical_rows(np.concatenate([self.matrix, other.matrix]))
        tags = self.provenance + other.provenance
        return MoveSet(V, tuple(tags[i] for i in first.tolist()), self.source_config)

    def retag(self, tag: str) -> "MoveSet":
        """The same moves and model, every one tagged ``tag``."""
        return MoveSet(self.matrix, (tag,) * len(self), self.source_config)

    def _check_model(self, cfg: Configuration) -> None:
        if self.source_config != cfg:  # the one refusal of a set of another model
            raise ZeroOneError("the move set is bound to another model")


def _as_rows(moves, n: int) -> np.ndarray:
    """Moves or vectors as an int64 array, an (m, n) integer array as it is."""
    if isinstance(moves, np.ndarray):
        if moves.ndim != 2 or moves.shape[1] != n:
            raise LengthMismatchError(f"moves of shape {moves.shape} for {n} cells")
        return moves
    moves = [z.vec if isinstance(z, Move) else z for z in moves]
    lengths = {len(v) for v in moves} - {n}
    if lengths:
        raise LengthMismatchError(f"move length {min(lengths)} != {n} cells")
    try:
        return np.array(moves, dtype=np.int64).reshape(len(moves), n)
    except OverflowError:
        raise NotAMoveError("a move entry does not fit in 64 bits") from None


def _canonical_rows(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero rows of ``V`` up to sign, each once and with its first
    nonzero entry positive, in (L1 norm, vector) order; and the position in
    ``V`` of each one's first occurrence.  Works in ``V``'s dtype."""
    lead = V[np.arange(len(V)), (V != 0).argmax(axis=1)]
    keep = np.flatnonzero(lead)
    V = V[keep]
    V[lead[keep] < 0] *= -1
    order = np.lexsort((*V.T[::-1], np.abs(V).sum(axis=1, dtype=np.uint64)))
    V, keep = V[order], keep[order]
    new = np.ones(len(V), dtype=bool)
    new[1:] = (V[1:] != V[:-1]).any(axis=1)  # the sort is stable: first occurrences lead
    return V[new], keep[new]


def degree_histogram(b: MoveSet) -> dict[int, int]:
    degree, count = np.unique(np.maximum(b.matrix, 0).sum(axis=1), return_counts=True)
    return dict(zip(degree.tolist(), count.tolist()))


def square_free_subset(b: MoveSet) -> MoveSet:
    return MoveSet(b.matrix[b.masks[2]], ("square-free",) * len(b.masks[2]), b.source_config)


def integer_kernel_basis(A: np.ndarray) -> list[tuple[int, ...]]:
    """Lattice basis of the integer kernel of ``A`` by unimodular column reduction.

    Exact Python-int arithmetic throughout; the returned vectors generate
    ker(A) over the integers, not merely over the rationals.
    """
    nr, nc = A.shape
    # column c of A over column c of the unimodular transform, which starts as I
    cols = [[int(x) for x in A[:, c]] + [int(c == k) for k in range(nc)] for c in range(nc)]
    active = list(range(nc))
    for row in range(nr):
        while nz := [c for c in active if cols[c][row]]:
            piv = min(nz, key=lambda c: abs(cols[c][row]))
            for c in nz:
                if c != piv:
                    q = cols[c][row] // cols[piv][row]
                    cols[c] = [x - q * y for x, y in zip(cols[c], cols[piv])]
            if not any(cols[c][row] for c in nz if c != piv):
                active.remove(piv)
                break
    return [tuple(cols[c][nr:]) for c in active]


def graver_basis(cfg: Configuration, max_candidates: int = 2_000_000) -> MoveSet:
    """Full Graver basis by conformal completion of a lattice kernel basis.

    All pending candidates of the least L1 norm are taken at once, made
    unique up to sign and reduced by the members and their negations
    (:func:`_reduce`); the survivors are accepted by norm, each norm
    reducing the rest.  For a new member s, s + h is pushed only for the
    earlier members and negations h not sign-compatible with s (Pottier's
    and Hemmecke's criterion: a conformal sum reduces to zero).
    ``max_candidates`` counts the candidates popped and cuts the last
    batch; running out raises :class:`BudgetExhaustedError` carrying the
    partial set.  The first :data:`_VERIFY_SAMPLE` members are checked by
    :func:`is_primitive`.  One DEBUG record per run gives the counters.
    """
    if max_candidates <= 0:
        raise ZeroOneError(f"max_candidates must be positive, got {max_candidates}")
    basis = integer_kernel_basis(cfg.array)
    if not basis:
        return MoveSet.build([], "graver", cfg)

    R = np.zeros((0, cfg.n_cells), dtype=np.int64)  # each member g, then -g, as accepted
    pending: dict[int, list[np.ndarray]] = {}  # candidates by L1 norm, in push order

    def push(V):
        norm = np.abs(V).sum(axis=1)
        for level in set(norm.tolist()):  # np.unique imports numpy.ma on a first call
            pending.setdefault(level, []).append(V[norm == level])

    push(np.array(basis, dtype=np.int64))
    popped = 0
    while pending and popped < max_candidates:
        level, room = min(pending), max_candidates - popped
        batch = np.concatenate(pending.pop(level))
        if len(batch) > room:
            pending[level], batch = [batch[room:]], batch[:room]
        popped += len(batch)
        S = _reduce(_canonical_rows(batch)[0], R)  # a copy of a member reduces by itself
        while len(S):
            norm = np.abs(S).sum(axis=1)
            low = norm == norm.min()
            new, m0 = _canonical_rows(S[low])[0], len(R)
            R = np.concatenate([R, np.stack([new, -new], axis=1).reshape(-1, cfg.n_cells)])
            push(_incompatible_sums(R, m0))
            S = _reduce(S[~low], R[m0:])

    # the members that no other member or negation fits inside
    masks, m = _levels(R, int(np.abs(R).max())), len(R) // 2
    result = MoveSet.build(R[0::2][_first_fit(masks, masks[0::2], own=np.arange(m)) < 0],
                           "graver", cfg)
    # every sum pushed was popped or is pending; a member meets 2 per earlier member
    pushed = popped + sum(len(c) for chunks in pending.values() for c in chunks) - len(basis)
    _LOG.debug(
        "graver basis: %d candidates popped, %d reduced to zero, %d sums pushed, "
        "%d sign-compatible sums skipped, %d members before and %d after finalizing%s",
        popped, popped - m, pushed, m * (m - 1) - pushed, m, len(result),
        ", budget exhausted" if pending else "",
    )
    if pending:
        raise BudgetExhaustedError(result, f"graver completion popped {popped} candidates, "
                                   f"max_candidates={max_candidates}, with {m} members so far")
    for v in result.matrix[:_VERIFY_SAMPLE].tolist():
        if not is_primitive(cfg, Move(v)):
            raise NotAMoveError(f"completion produced non-primitive vector {tuple(v)}")
    return result


def _levels(V: np.ndarray, T: int) -> np.ndarray:
    """The cells with entry >= t, then those with entry <= -t, for t = 1..T,
    one after another in each row's :func:`~zeroone.cells.pack_bits` words:
    a row r with entries in -T..T fits conformally inside a row s
    (``min(s, 0) <= r <= max(s, 0)``) iff each mask of r lies inside s's."""
    t = np.arange(1, T + 1)[:, None]
    X = np.concatenate([V[:, None] >= t, V[:, None] <= -t], axis=1)
    return pack_bits(X.reshape(len(V), -1))


def _first_fit(R: np.ndarray, S: np.ndarray, own=None) -> np.ndarray:
    """For each row of ``S``, the first row of ``R`` whose :func:`_levels`
    masks lie inside it, or -1; with ``own``, row i skips rows ``2 own[i]``
    and ``2 own[i] + 1``.  Tiled by rows of ``S``, :data:`_BUDGET` pairs."""
    first = np.full(len(S), -1, dtype=np.int64)
    step = max(1, _BUDGET // max(1, len(R)))
    for i in range(0, len(S), step):
        out = R[:, 0] & ~S[i:i + step, 0, None]  # R's cells outside S's
        for w in range(1, R.shape[1]):
            out |= R[:, w] & ~S[i:i + step, w, None]
        fit = out == 0
        if own is not None:
            rows, pair = np.arange(len(fit)), 2 * own[i:i + step]
            fit[rows, pair] = fit[rows, pair + 1] = False
        first[i:i + step] = np.where(fit.any(axis=1), fit.argmax(axis=1), -1)
    return first


def _reduce(S: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The nonzero rows of ``S`` (changed in place) after each pass has taken
    from each row its first fitting row of ``R``, until none fits.  A row
    of R that does not fit s does not fit s minus a conformal part of s."""
    if len(R):
        T = int(np.abs(R).max())
        masks, rows = _levels(R, T), np.arange(len(S))
        while len(rows):
            first = _first_fit(masks, _levels(S[rows], T))
            rows, first = rows[first >= 0], first[first >= 0]
            S[rows] -= R[first]
    return S[S.any(axis=1)]


def _incompatible_sums(R: np.ndarray, m0: int) -> np.ndarray:
    """s + h for each new member s (an even row of ``R`` from ``m0`` on) and
    each earlier row h with a cell of sign opposite to s's.  s shares a
    sign cell with row j iff it has one of opposite sign with row j ^ 1,
    the negation of row j."""
    signs = _levels(R, 1)
    new = np.arange(m0, len(R), 2)
    step = max(1, _BUDGET // max(1, signs.size))
    sums = []
    for i in range(0, len(new), step):
        s = new[i:i + step]
        share = (signs[s, None] & signs[None, :s[-1]]).any(axis=2)
        a, j = np.nonzero(share & (np.arange(s[-1]) < s[:, None]))
        sums.append(R[s[a]] + R[j ^ 1])
    return np.concatenate(sums)


def is_primitive(cfg: Configuration, z: Move) -> bool:
    """Brute-force primitivity: no proper nonzero move fits conformally inside z.

    Tries every a with a_k between 0 and z_k, about :data:`_BUDGET` entries
    at a time (:func:`numpy.unravel_index`, which refuses 2^63 a's or more):
    0 and z have A a = 0, and a third such a is a proper part."""
    if not cfg.is_move(z):
        raise NotAMoveError("is_primitive requires a move")
    v = np.array(z.vec, dtype=np.int64)
    supp = np.flatnonzero(v)
    if not len(supp):
        return False
    cols = cfg.array[:, supp] * np.sign(v[supp])  # a's entries counted 0..|z_k|
    sizes = (np.abs(v[supp]) + 1).tolist()
    total = math.prod(sizes)
    step = max(1, _BUDGET // max(cfg.n_rows, len(supp)))
    zeros = 0
    for i in range(0, total, step):
        a = np.array(np.unravel_index(np.arange(i, min(i + step, total)), sizes))
        zeros += np.count_nonzero(~(cols @ a).any(axis=0))
        if zeros > 2:
            return False
    return True


def square_free_graver(
    cfg: Configuration,
    max_degree: int,
    min_degree: int = 1,
) -> MoveSet:
    """All square-free primitive moves of degree ``min_degree..max_degree``.

    A degree-d square-free move is an unordered pair of disjoint weight-d
    zero-one tables in the same fiber; it is primitive iff no pair of
    proper support subsets shares a sufficient statistic.  Enumeration
    groups the weight-d tables by fiber and screens the disjoint pairs,
    which is exact and independent of the completion route.  Degree-1
    members (differences of cells with identical statistic columns) exist
    only when the configuration has duplicate columns.

    Every weight-d table (d-set of cells) gets its exact fiber-key words
    as a sum of per-cell terms (:attr:`Configuration.key_terms`) and a code
    from them (:meth:`Configuration.key_codes_of_sums`); the d-sets are
    grouped by a sort of the codes, disjointness is an AND of
    :func:`~zeroone.cells.pack_bits` masks, and primitivity of a pair
    (u, v) is tested on the subsets of size k <= d // 2 only: if u' of u
    and v' of v share a statistic, so do u - u' and v - v', of size d - k.
    The test is an AND of per-fiber bitsets of the subsets' codes.

    The model's symmetries (:attr:`Configuration.symmetry`) map fibers,
    disjointness and primitivity onto themselves, so the moves are a union
    of orbits, and the fibers of each degree fall into orbits too.  Only
    the fibers whose key is the least of their orbit are screened
    (:func:`_least_fibers`), every pair of each; the moves found are then
    expanded to their orbits by :func:`symmetry_orbit`.  No orbit of pairs
    is missed: for a pair (a, b) of a fiber f, some g in the group maps f
    onto the least fiber m of f's orbit, and so maps (a, b) to a pair of
    m, which is screened.  With the trivial group every fiber is its own
    orbit and each pair of a fiber is screened once.

    Requires a homogeneous configuration (positive and negative parts of
    every move then have equal weight, so the pairing is exhaustive).  A
    degree bound below 1 is refused.
    """
    if min(max_degree, min_degree) < 1:
        raise ZeroOneError(f"degrees must be positive, got {min_degree}..{max_degree}")
    if cfg.homogeneity_witness is None:
        raise NotAMoveError("square_free_graver requires a homogeneous configuration")
    n = cfg.n_cells
    origin, steps = cfg.key_terms
    bits = pack_bits(np.eye(n, dtype=np.uint8))
    # level d: the d-sets of cells in lexicographic order, as masks, key
    # sums and ascending cell lists
    masks, sums = bits, origin + steps
    cells = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
    found = [np.zeros((0, n), dtype=np.int8)]
    for d in range(1, min(max_degree, n) + 1):
        if d > 1:
            masks, sums, cells = _next_level(masks, sums, cells, bits, steps)
        if d >= min_degree:
            found.append(_pair_screen(cfg, masks, cells, sums))
    del masks, sums, cells  # so that the expansion and the build reuse their memory
    found = np.concatenate(found)
    V = symmetry_orbit(found, cfg)
    _LOG.debug("%d primitive pairs expanded to %d moves by %d symmetry generators",
               len(found), len(V), len(cfg.symmetry))
    return MoveSet.build(V, "square-free", cfg)


def _next_level(masks, sums, cells, bits, steps):
    """The (k+1)-sets of cells from the k-sets, all in lexicographic order.

    The (k+1)-sets whose first cell is i are cell i joined to the k-sets
    whose first cell is above i, which form a suffix of the k-sets.
    """
    n = len(bits)
    start = np.searchsorted(cells[:, 0], np.arange(n), side="right")
    count = len(masks) - start
    head = np.repeat(np.arange(n), count)
    tail = _ranges(start, count)
    joined = np.empty((len(tail), cells.shape[1] + 1), dtype=cells.dtype)
    joined[:, 0] = head
    # with mode "clip" take writes into out without a buffer; no index is out of range
    np.take(cells, tail, axis=0, out=joined[:, 1:], mode="clip")
    return masks[tail] | bits[head], sums[tail] + steps[head], joined


def _least_fibers(cfg: Configuration, first, words) -> np.ndarray:
    """Whether each fiber is the least of its orbit under
    :attr:`Configuration.symmetry`, the fibers given in key order by the
    ascending cells ``first`` (F x d) of one member each and their key
    ``words`` (F x W).

    A generator g maps a member u to {g[c] : c in u}, its image under the
    inverse of x -> x[g], and so maps u's fiber onto that image's fiber,
    found by :func:`~zeroone.cells.find_rows` among ``words``; a generating
    set and its inverses give the same orbits.  The orbits are the
    connected components of these edges, each labelled with its least
    fiber by :func:`~zeroone.cells._components`.  The image words are
    summed one cell column at a time, so that each temporary is F x W.
    """
    origin, steps = cfg.key_terms
    src = np.arange(len(first))
    dst = [src]  # the identity, whose loops add no edge
    for g in cfg.symmetry:
        image = origin + steps[g[first[:, 0]]]
        for c in first.T[1:]:
            image += steps[g[c]]
        dst.append(find_rows(words, image))
    return _components(len(first), np.tile(src, len(dst)), np.concatenate(dst))[1] == src


def _pair_screen(cfg: Configuration, masks, cells, sums) -> np.ndarray:
    """The square-free primitive moves ``u - v`` between the d-sets ``masks``
    (with ascending ``cells``) whose key words ``sums`` agree, in the fibers
    least in their orbit (:func:`_least_fibers`), as +1/-1 rows.

    The d-sets are grouped by key code (:func:`~zeroone.cells._groups`), and
    each member of a screened fiber is paired with the members after it
    (:func:`~zeroone.cells._pairs`).  The fibers are screened sizes
    ascending, in chunks of whole fibers of one size, and their pairs in
    slices, each holding about :data:`_BUDGET` elements; a chunk takes at
    least one fiber.
    """
    n = cfg.n_cells
    d = cells.shape[1]
    order, start, size = _groups(cfg.key_codes_of_sums(sums))
    # held through the screen: int32 keeps the peak down
    order = order.astype(np.int32 if len(sums) < 2**31 else np.int64)
    multi = np.flatnonzero(size >= 2)
    first = order[start[multi]]
    least = multi[_least_fibers(cfg, cells[first], sums[first])]
    patterns = [
        np.array(list(itertools.combinations(range(d), k)), dtype=np.int64)
        for k in range(1, d // 2 + 1)
    ]
    per_member = d * max(1, sum(map(len, patterns))) * cfg.key_terms[1].shape[1]
    plus, minus = [], []
    pairs = disjoint = 0
    for s in sorted(set(size[least].tolist())):  # np.unique imports numpy.ma on a first call
        fibers = least[size[least] == s]
        step = max(1, _BUDGET // (s * per_member))
        for k in range(0, len(fibers), step):
            mem = order[(start[fibers[k:k + step], None] + np.arange(s)).ravel()]  # fiber by fiber
            M = masks[mem]
            B = _shared_subset_bits(cfg, cells[mem], s, patterns)
            partners = s - 1 - np.arange(len(mem)) % s  # the later members of its fiber
            for a, b in _pairs(partners, max(1, _BUDGET // max(M.shape[1], B.shape[1]))):
                pairs += len(a)
                apart = ~(M[a] & M[b]).any(axis=1)
                a, b = a[apart], b[apart]
                disjoint += len(a)
                primitive = ~(B[a] & B[b]).any(axis=1)
                plus.append(mem[a[primitive]])
                minus.append(mem[b[primitive]])
    plus = np.concatenate(plus) if plus else np.zeros(0, dtype=np.int64)
    minus = np.concatenate(minus) if minus else np.zeros(0, dtype=np.int64)
    _LOG.debug(
        "degree %d: %d d-sets, %d multi-member groups in %d orbits, %d pairs screened, "
        "%d disjoint pairs, %d primitive pairs",
        d, len(sums), len(multi), len(least), pairs, disjoint, len(plus),
    )
    V = unpack_bits(masks[plus], n).astype(np.int8)
    return V - unpack_bits(masks[minus], n).astype(np.int8)


def symmetry_orbit(V: np.ndarray, cfg: Configuration) -> np.ndarray:
    """The orbits of the rows ``V`` under :attr:`Configuration.symmetry`,
    up to sign: each move once, with its first nonzero entry positive.

    The closure of the canonical rows under the generators, one frontier
    of new rows at a time; works in ``V``'s dtype.
    """
    gens = cfg.symmetry
    orbit = new = _canonical_rows(V)[0]
    while len(new) and len(gens):
        images = _canonical_rows(new[:, gens].reshape(-1, V.shape[1]))[0]
        new = images[find_rows(orbit, images) < 0]
        orbit = np.concatenate([orbit, new])
    return orbit


def _shared_subset_bits(cfg: Configuration, cells: np.ndarray, s: int, patterns) -> np.ndarray:
    """For members ``cells`` of fibers of ``s`` members each, one fiber after
    another, a bitset of the statistics of their subsets on ``patterns``
    (positions in the member) that another member of the same fiber has.

    Bits are numbered within each fiber, so two members of one fiber share
    such a statistic iff their bitsets intersect.  The statistics of all
    the fibers are coded in one :meth:`Configuration.key_codes_of_sums` call.
    """
    m = len(cells)
    if not patterns:
        return np.zeros((m, 1), dtype=np.uint64)
    origin, steps = cfg.key_terms
    S = np.concatenate([steps[cells[:, p]].sum(axis=2) for p in patterns], axis=1)
    per = S.shape[1]
    code = cfg.key_codes_of_sums(S + origin).reshape(-1, s * per)  # a row per fiber
    o = np.argsort(code, axis=1)
    code = np.take_along_axis(code, o, axis=1)
    head = np.ones(code.shape, dtype=bool)
    head[:, 1:] = code[:, 1:] != code[:, :-1]
    head = np.flatnonzero(head)  # the first entry of each run of one code in one fiber
    member = (o // per + np.arange(0, m, s)[:, None]).ravel()
    shared = np.minimum.reduceat(member, head) != np.maximum.reduceat(member, head)
    # number the shared runs from 0 within each fiber
    rank = np.cumsum(shared) - shared
    local = rank - rank[np.searchsorted(head, head - head % (s * per))]
    run = np.repeat(np.arange(len(head)), np.diff(np.r_[head, len(member)]))
    hit = shared[run]
    X = np.zeros((m, int(local[shared].max(initial=0)) + 1), dtype=np.uint8)
    X[member[hit], local[run[hit]]] = 1
    return pack_bits(X)


def prune_by_one_cancellation(b0: MoveSet, max_pairs: int = 10**7) -> MoveSet:
    """Drop members that are one-sign-cancellation sums of two members.

    ``a + b`` cancels in the cells where one has +1 and the other -1.  A
    sum is dropped only when its support is larger than both parts'
    supports, so testing every sum against the original set ``b0`` (not
    against what is left) is well-founded: each dropped member is a sum of
    members of smaller support, and one pass over all pairs suffices.
    The pairs (:func:`~zeroone.cells._pairs`) are screened on bitmasks of
    the +1 cells (P) and the -1 cells (M): ``a + b`` cancels in
    ``popcount(P_a & M_b) + popcount(M_a & P_b)`` cells, ``a - b`` in
    ``popcount(P_a & P_b) + popcount(M_a & M_b)``.

    The screen is quadratic: a set of m members has m(m-1)/2 pairs, and
    more than ``max_pairs`` of them raise :class:`BudgetExhaustedError`
    carrying ``b0`` before any pair is screened.
    """
    if max_pairs <= 0:
        raise ZeroOneError(f"max_pairs must be positive, got {max_pairs}")
    pairs = len(b0) * (len(b0) - 1) // 2
    if pairs > max_pairs:
        raise BudgetExhaustedError(b0, f"{pairs} pairs to screen exceed max_pairs={max_pairs}")
    V = b0.matrix
    P, M = pack_bits(V == 1), pack_bits(V == -1)
    support = np.count_nonzero(V, axis=1)
    drop = np.zeros(len(V), dtype=bool)
    for a, b in _pairs(np.arange(len(V) - 1, -1, -1), max(1, _BUDGET // P.shape[1])):
        plus = (np.bitwise_count(P[a] & M[b]) + np.bitwise_count(M[a] & P[b])).sum(axis=1)
        minus = (np.bitwise_count(P[a] & P[b]) + np.bitwise_count(M[a] & M[b])).sum(axis=1)
        for sign, cancels in ((1, plus), (-1, minus)):
            i, j = a[cancels == 1], b[cancels == 1]
            c = V[i] + sign * V[j]
            c = c[np.count_nonzero(c, axis=1) > np.maximum(support[i], support[j])]
            hit = np.concatenate([find_rows(V, c), find_rows(V, -c)])  # V's rows are canonical
            drop[hit[hit >= 0]] = True
    V = V[~drop]
    return MoveSet(V, ("pruned-survivor",) * len(V), b0.source_config)
