"""Seeded random walks over zero-one fibers.

Proposals draw a move and a sign uniformly; invalid proposals are
rejected (the chain stays put), which keeps the kernel symmetric and the
stationary distribution uniform on the reachable component.  All
randomness comes from ``numpy.random.Generator(PCG64(seed))``, a named
portable generator with identical streams across platforms.
"""
from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cells import Table, _ints, pack_bits, unpack_bits
from .errors import IpfError, ZeroOneError
from .graver import MoveSet
from .models import Configuration, build_ntfi
from .movegen import degree8_moves_4x4, ntfi_333_moves, ntfi_basic_moves

_LOG = logging.getLogger("zeroone.sampler")
_CHUNK = 1 << 16
# proposals turned into Python ints at a time: ints above 256 are not cached,
# so a whole block of them would add about 2 MB resident
_SLICE = 1 << 12
_IPF_TOL = 1e-10
_IPF_MAX_CYCLES = 10_000


def _signed_masks(b: MoveSet) -> list:
    """``(s, m)`` Python-int masks of the square-free moves of ``b``, then of
    their negations, from ``b.masks``: ``s`` holds the cells a move changes
    and ``m`` its -1 cells, so it applies to a zero-one ``x`` iff
    ``x & s == m`` and leads to ``x ^ s``; the negation's -1 cells are
    ``s ^ m``.

    Moves that are not square-free never apply to a zero-one table.
    """
    S, M, _ = b.masks
    S, M = _ints(S), _ints(M)
    return list(zip(S, M)) + [(s, s ^ m) for s, m in zip(S, M)]


def _decode(masks, n: int) -> dict:
    """One :class:`Table` per distinct mask of ``masks``, decoded in one call."""
    distinct = list(set(masks))
    w = max(1, -(-n // 64))
    words = np.frombuffer(b"".join(m.to_bytes(8 * w, "little") for m in distinct), dtype="<u8")
    rows = unpack_bits(words.reshape(len(distinct), w), n).tolist()
    return {m: Table(row) for m, row in zip(distinct, rows)}


def random_walk(
    cfg: Configuration,
    x0: Table,
    b: MoveSet,
    steps: int,
    seed: int,
):
    """Trajectory of ``steps + 1`` states (including the start).

    Returns ``(states, acceptance_rate)`` where states are Tables; repeated
    states within a block of the walk are one shared (frozen) Table.  A
    ``b`` bound to another model than ``cfg`` is refused.
    """
    walk = _Walk(cfg, x0, b, steps, seed)
    states = []
    for chunk in walk:
        tables = _decode(chunk, cfg.n_cells)
        states += map(tables.__getitem__, chunk)
    return states, (walk.accepted / steps if steps else 0.0)


class _Walk:
    """A seeded walk streamed as Python-int masks: ``[x0]``, then one list per block.

    ``accepted`` and ``state`` (the current mask) follow the iteration, and
    one DEBUG record on the ``zeroone.sampler`` logger follows the last block.
    """

    def __init__(self, cfg, x0, b, steps, seed):
        b._check_model(cfg)
        x0.check_length(cfg.cell_space)
        if not x0.zero_one:
            raise ZeroOneError("start table must be zero-one")
        if steps < 0:
            raise ZeroOneError(f"walk length must be non-negative, got {steps}")
        if seed < 0:  # PCG64 would refuse it only at the first block
            raise ZeroOneError(f"seed must be non-negative, got {seed}")
        self.signed = _signed_masks(b)
        if not self.signed:
            raise ZeroOneError("empty move set")
        self.steps, self.seed = steps, seed
        self.state = _ints(pack_bits([x0.values]))[0]
        self.accepted = 0

    def __iter__(self):
        signed, x, accepted = self.signed, self.state, 0
        K = len(signed) // 2
        yield [x]
        rng = np.random.Generator(np.random.PCG64(self.seed))
        for done in range(0, self.steps, _CHUNK):
            k = min(_CHUNK, self.steps - done)
            # the moves, then the signs: this order fixes the states of a seed;
            # proposal j < K is move j, and K + j its negation
            idx = rng.integers(0, K, size=k)
            idx += K * rng.integers(0, 2, size=k)
            chunk = []
            append = chunk.append
            for lo in range(0, k, _SLICE):
                for j in idx[lo:lo + _SLICE].tolist():
                    s, m = signed[j]
                    if x & s == m:
                        x ^= s
                        accepted += 1
                    append(x)
            self.state, self.accepted = x, accepted
            yield chunk
        _LOG.debug("walk: %d steps, %d accepted, %d blocks",
                   self.steps, accepted, -(-self.steps // _CHUNK))


def at_least_as_extreme(s, obs: float):
    """``s >= obs`` with a margin for floating-point ties: ``s >= obs - 64·eps·|obs|``.

    Statistics that are equal in exact arithmetic can differ in their last
    bits (summation order), so a plain ``>=`` would miss ties; R's
    ``chisq.test`` allows the same margin (``almost.1``).  ``s`` may be an
    array; an infinite ``obs`` is compared as it is.
    """
    if math.isfinite(obs):
        obs -= 64 * sys.float_info.epsilon * abs(obs)
    return s >= obs


def batch_means_se(indicator) -> float:
    """Monte Carlo standard error of the mean of a correlated series, by
    batch means (Geyer 1992; Flegal & Jones 2010).

    The first ``k * (n // k)`` values go in ``k = isqrt(n)`` batches of
    equal length, and the error is the standard deviation of the batch
    means over ``sqrt(k)``.  With fewer than two batches (n < 4) it is
    ``inf``.
    """
    x = np.asarray(indicator, dtype=float)
    k = math.isqrt(len(x))
    if k < 2:
        return math.inf
    means = x[: k * (len(x) // k)].reshape(k, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(k))


@dataclass(frozen=True)
class SampleRun:
    """Result of one seeded exact-test run."""

    seed: int
    steps: int
    burn_in: int
    thinning: int
    trajectory_stats: tuple[float, ...]
    acceptance_rate: float
    p_value_estimate: float
    observed_stat: float
    final_state: Table


def ipf_fit(cfg: Configuration, t):
    """Expected cell counts by iterative proportional fitting of the key.

    Requires a 0/1 constraint matrix (marginal-sum rows); raises
    :class:`IpfError` otherwise or after :data:`_IPF_MAX_CYCLES` cycles.
    """
    A = cfg.array
    if not np.isin(A, (0, 1)).all():
        raise IpfError("IPF needs indicator (0/1) statistic rows")
    t = np.asarray(t, dtype=float)
    m = np.ones(cfg.n_cells, dtype=float)
    supports = [np.flatnonzero(A[r]) for r in range(cfg.n_rows)]
    for _ in range(_IPF_MAX_CYCLES):
        delta = 0.0
        for r, supp in enumerate(supports):
            cur = m[supp].sum()
            if t[r] == 0:
                if cur > 0:
                    m[supp] = 0.0
                    delta = max(delta, 1.0)
                continue
            if cur == 0:
                raise IpfError("key is infeasible for IPF (zero mass on a positive row)")
            f = t[r] / cur
            m[supp] *= f
            delta = max(delta, abs(f - 1.0))
        if delta < _IPF_TOL:
            return m
    raise IpfError(f"IPF did not converge within {_IPF_MAX_CYCLES} cycles")


def chi_square_stat(cfg: Configuration, expected: np.ndarray):
    """Statistic function: Pearson chi-square against fixed expected counts."""

    def stat(values) -> float:
        s = 0.0
        for x, e in zip(values, expected):
            if e > 0:
                s += (x - e) ** 2 / e
            elif x:
                return float("inf")
        return s

    return stat


def resolve_statistic(cfg: Configuration, spec, t=None):
    """Build a statistic callable from a spec.

    ``("linear", weights)`` gives a weighted cell sum; ``"chi2-ipf"``
    fits expected counts to the key ``t`` by IPF first.  Neither choice
    is canonical for these models; both are pragmatic defaults.
    """
    if isinstance(spec, tuple) and spec and spec[0] == "linear":
        weights = tuple(float(w) for w in spec[1])
        if len(weights) != cfg.n_cells:
            raise ZeroOneError("linear statistic weights length mismatch")
        return lambda values: float(sum(w * v for w, v in zip(weights, values)))
    if spec == "chi2-ipf":
        if t is None:
            raise ZeroOneError("chi2-ipf needs the fiber key")
        return chi_square_stat(cfg, ipf_fit(cfg, t))
    raise ZeroOneError(f"unknown statistic spec {spec!r}")


def exact_test(
    cfg: Configuration,
    x_obs: Table,
    b: MoveSet,
    statistic,
    steps: int,
    burn_in: int | None = None,
    thinning: int = 1,
    seed: int = 0,
) -> SampleRun:
    """Monte Carlo conditional test with the conservative +1 p-value.

    ``statistic`` is ``"chi2-ipf"``, ``("linear", weights)`` or any pure
    callable on cell-value tuples.  Large statistics are extreme.  The
    samples are walk states ``burn_in + 1``, then every ``thinning``-th; the
    statistic is called once per distinct sample of each block of the
    streamed walk, whose states are not kept.
    """
    if burn_in is None:
        burn_in = 10 * cfg.n_cells
    if steps < 1 or burn_in < 0 or thinning < 1:
        raise ZeroOneError(f"need steps >= 1, burn_in >= 0 and thinning >= 1, "
                           f"got {steps}, {burn_in}, {thinning}")
    if callable(statistic):
        stat = statistic
    else:
        stat = resolve_statistic(cfg, statistic, cfg.sufficient_stat(x_obs))
    walk = _Walk(cfg, x_obs, b, burn_in + steps, seed)
    n, start, samples = cfg.n_cells, 0, []
    for chunk in walk:
        skip = burn_in + 1 - start  # position of state burn_in + 1 in this chunk
        kept = chunk[skip if skip >= 0 else skip % thinning::thinning]
        scores = {m: stat(x.values) for m, x in _decode(kept, n).items()}
        samples += map(scores.__getitem__, kept)
        start += len(chunk)
    obs = stat(x_obs.values)
    exceed = int(np.count_nonzero(at_least_as_extreme(np.array(samples, dtype=float), obs)))
    p = (1 + exceed) / (1 + len(samples))
    return SampleRun(
        seed=seed,
        steps=steps,
        burn_in=burn_in,
        thinning=thinning,
        trajectory_stats=tuple(samples),
        acceptance_rate=walk.accepted / (burn_in + steps),
        p_value_estimate=p,
        observed_stat=obs,
        final_state=_decode([walk.state], n)[walk.state],
    )


def latin_fiber_key(n: int):
    """All line sums equal to one for the n x n x n NTFI configuration."""
    return tuple(1 for _ in range(3 * n * n))


def latin_start_table(n: int) -> Table:
    """Orthogonal-array form of the cyclic Latin square (symbol = row+col mod n);
    the NTFI cells (i, j, k) are row-major with no structural zeros."""
    i, j = np.indices((n, n))
    return Table(np.eye(n, dtype=np.int64)[(i + j) % n].ravel())


def latin_move_set(n: int) -> MoveSet:
    """The connecting family: degree-6 orbit for n=3, basic + degree-8 for n=4."""
    if n == 3:
        return ntfi_333_moves("deg6")
    if n == 4:
        return ntfi_basic_moves(4).union(degree8_moves_4x4())
    raise ZeroOneError(f"unsupported Latin-square size {n}")


def sample_latin_square(n: int, steps: int, seed: int, b: MoveSet | None = None):
    """Random walk over the all-line-sums-one fiber; returns the final state.

    The result is ``(table, symbols)`` where ``symbols`` is the n x n
    symbol matrix (entries 1..n).  ``b`` defaults to ``latin_move_set(n)``;
    callers drawing several squares build it once and pass it.  It must
    be bound to ``build_ntfi(n)``.  The walk
    is :func:`random_walk`'s, but only its final state is decoded.
    """
    if n not in (3, 4):
        raise ZeroOneError(f"unsupported Latin-square size {n}")
    cfg = build_ntfi(n)
    if b is None:
        b = latin_move_set(n)
    walk = _Walk(cfg, latin_start_table(n), b, steps, seed)
    for _ in walk:
        pass
    final = _decode([walk.state], cfg.n_cells)[walk.state]
    return final, latin_symbols(final, n)


def latin_symbols(x: Table, n: int):
    """Symbol-matrix rendering of an orthogonal-array zero-one table: the
    symbol of (i, j) is 1 + the k of its one nonzero cell (i, j, k)."""
    X = np.array(x.values) != 0
    if len(X) != n**3 or (X.reshape(n * n, n).sum(axis=1) != 1).any():
        raise ZeroOneError("table is not in orthogonal-array Latin form")
    return (X.reshape(n, n, n).argmax(axis=2) + 1).tolist()
