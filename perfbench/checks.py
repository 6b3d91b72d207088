"""Output checks of each workload, run in the benchmark's parent process.

Each check either recomputes the answer with ``oracles`` or tests a
property the method must have.  A few compare against an independent
route through the package (the degree-2 patterns, the two-way loops, the
basic swaps, the pairing result); those are called here, after the timed
process has exited.  ``CHECKS`` maps each operation to a function that
returns the list of problems found in its output (empty when correct).
"""
from __future__ import annotations

import math

import numpy as np

import oracles as O
import workloads as W

# Operations that fail because of a confirmed program fault.  They stay in
# their workload and count as failed until the fault is mended.
KNOWN_FAULTS = {
    "cli-graver-ntfi-4x4x4": "int64 overflow of the radix fiber key in square_free_graver",
    "prune-4x4": "greedy pruning deletes degree-3 loops before using them, six degree-4 loops stay",
    "signed-fiber": "suffix-mass pruning assumes a nonnegative matrix",
    "signed-sweep": "radix fiber codes collide when the matrix has negative entries",
    "cli-sample-4x4-chi2": "floating-point ties in the chi-square statistic",
}

# Degree histograms of the square-free Graver sets (the paper's table, as
# asserted by tests/test_acceptance.py).
HISTOGRAMS = {
    (2, 2, 4): {2: 64, 3: 192, 4: 96},
    (2, 2, 5): {2: 105, 3: 480, 4: 480},
    (2, 3, 3): {2: 90, 3: 480, 4: 396},
    (2, 3, 4): {2: 174, 3: 1632, 4: 5436, 5: 1152},
}


def _degree(v) -> int:
    return sum(x for x in v if x > 0)


def _histogram(moves) -> dict[int, int]:
    hist: dict[int, int] = {}
    for v in moves:
        hist[_degree(v)] = hist.get(_degree(v), 0) + 1
    return dict(sorted(hist.items()))


def _vecset(moves) -> set[tuple[int, ...]]:
    return {O.canonical(v) for v in moves}


def move_problems(A, moves, max_degree=None) -> list[str]:
    """Kernel membership, square-freeness, degree bound, duplicates."""
    out = []
    bad = int((~O.in_kernel(A, moves)).sum()) if moves else 0
    if bad:
        out.append(f"{bad} of {len(moves)} moves are not in ker A")
    if any(x not in (-1, 0, 1) for v in moves for x in v):
        out.append("a move is not square-free")
    if max_degree is not None and any(_degree(v) > max_degree for v in moves):
        out.append(f"a move exceeds degree {max_degree}")
    if len(_vecset(moves)) != len(moves):
        out.append("duplicate moves")
    return out


# ------------------------------------------------------------ graver-table

def _three_way(dims, max_degree):
    def check(out, ctx):
        A = O.complete_independence_matrix(dims)
        why = move_problems(A, out, max_degree)
        if _histogram(out) != HISTOGRAMS[dims]:
            why.append(f"histogram {_histogram(out)} != {HISTOGRAMS[dims]}")
        deg2 = {v for v in _vecset(out) if _degree(v) <= 2}
        if deg2 != {z.vec for z in ctx.zo().movegen.degree2_threeway_patterns(dims).moves}:
            why.append("degree-2 part differs from degree2_threeway_patterns")
        if deg2 != O.degree_le2_screen(A):
            why.append("degree-2 part differs from the brute-force pair screen")
        return why

    return check


def _two_way_45(out, ctx):
    why = move_problems(O.quasi_independence_matrix(4, 5), out, 5)
    loops = set()
    for r in range(2, 5):
        loops |= {z.vec for z in ctx.zo().movegen.loops_degree_r(4, 5, r).moves}
    if _vecset(out) != loops:
        why.append("differs from the union of loops_degree_r(4, 5, r), r = 2..4")
    return why


def _graver_basis_223(out, ctx):
    why = []
    if out and not O.in_kernel(O.complete_independence_matrix((2, 2, 3)), out).all():
        why.append("a move is not in ker A")
    if len(_vecset(out)) != len(out):
        why.append("duplicate moves")
    square_free = {v for v in _vecset(out) if all(x in (-1, 0, 1) for x in v)}
    zo = ctx.zo()
    pairing = zo.graver.square_free_graver(zo.models.build_complete_independence((2, 2, 3)), 4)
    if square_free != {z.vec for z in pairing.moves}:
        why.append("square-free part differs from square_free_graver(2x2x3, 4)")
    return why


def _prune_44(out, ctx):
    swaps = {z.vec for z in ctx.zo().movegen.basic_moves_two_way(4, 4).moves}
    why = move_problems(O.quasi_independence_matrix(4, 4), out, 4)
    if _vecset(out) != swaps:
        why.append(f"pruning left {len(out)} moves, not the {len(swaps)} basic swaps")
    if not set(map(tuple, ctx.setup["sf44"])) >= swaps:
        why.append("the input set does not contain the basic swaps")
    return why


def _ntfi_degree2(out, ctx):
    A = O.ntfi_matrix(4)
    truth = O.degree_le2_screen(A)
    why = [] if out["rc"] == 0 else [f"exit code {out['rc']}"]
    words = out["stdout"].split()
    printed = int(words[words.index("moves:") + 1]) if "moves:" in words else -1
    moves = out["moves"]
    if printed != len(moves):
        why.append(f"printed {printed} moves, wrote {len(moves)}")
    why += move_problems(A, moves, 2)
    if _vecset(moves) != truth:
        why.append(f"{len(moves)} moves, the brute-force screen of "
                   f"{math.comb(A.shape[1], 2)} cell pairs finds {len(truth)}")
    return why


# ------------------------------------------------------- fiber-connectivity

def _fiber_problems(A, fiber, key) -> list[str]:
    X = np.asarray(fiber, dtype=np.int64).reshape(-1, A.shape[1])
    out = []
    if not np.isin(X, (0, 1)).all():
        out.append("a member is not zero-one")
    if len({tuple(r) for r in X}) != len(X):
        out.append("duplicate members")
    if len(X) and not (X @ A.T == np.asarray(key)).all():
        out.append("a member has another key")
    return out


def _sweep_problems(A, moves, rep, union_find: bool) -> list[str]:
    n = A.shape[1]
    fibers = O.distinct_keys(A)
    out = []
    if rep["tables"] != 1 << n:
        out.append(f"{rep['tables']} tables, not 2^{n}")
    if rep["fibers"] != fibers:
        out.append(f"{rep['fibers']} fibers, {fibers} distinct keys")
    if union_find:
        comps = O.components(1 << n, O.apply_moves(O.all_tables(n), np.asarray(moves)))
        if rep["components"] != comps:
            out.append(f"{rep['components']} components, union-find finds {comps}")
    elif rep["components"] != fibers:
        out.append(f"{rep['components']} components for {fibers} fibers (expected all connected)")
    return out


def _latin4_fiber(out, ctx):
    A4 = O.ntfi_matrix(4)
    why = _fiber_problems(A4, out, np.ones(A4.shape[0], dtype=np.int64))
    if len(out) != O.LATIN_SQUARES_OF_ORDER_4:
        why.append(f"{len(out)} tables, there are {O.LATIN_SQUARES_OF_ORDER_4} Latin squares "
                   "of order 4")
    return why


def _latin4_graph(moves_key):
    def check(out, ctx):
        tables, moves = ctx.outputs["latin4-enumerate"], ctx.setup[moves_key]
        why = move_problems(O.ntfi_matrix(4), moves)
        edges = O.apply_moves(np.asarray(tables), np.asarray(moves))
        pairs = {(min(i, j), max(i, j)) for i, j in edges if i != j}
        want = O.components(len(tables), edges)
        if out["nodes"] != len(tables):
            why.append(f"{out['nodes']} nodes for {len(tables)} tables")
        if out["components"] != want:
            why.append(f"{out['components']} components, union-find finds {want}")
        if out["edges"] != len(pairs):
            why.append(f"{out['edges']} edges, {len(pairs)} expected")
        return why

    return check


def _random_fibers(out, ctx):
    A3 = O.ntfi_matrix(3)
    moves = np.asarray(ctx.setup["b333"])
    why = move_problems(A3, ctx.setup["b333"])
    if len(out) != len(ctx.setup["random_tables"]):
        why.append("not every table got a fiber")
    for x, res in zip(ctx.setup["random_tables"], out):
        fib = res["fiber"]
        problems = _fiber_problems(A3, fib, A3 @ np.asarray(x))
        if x not in fib:
            problems.append("the fiber misses its own table")
        edges = O.apply_moves(np.asarray(fib), moves) if len(fib) > 1 else []
        want = O.components(len(fib), edges)
        if res["components"] != want:
            problems.append(f"{res['components']} components, union-find finds {want}")
        if problems:
            why.append(f"table {x}: " + "; ".join(problems))
            break
    return why


def _distance_sweep(out, ctx):
    if out["rc"] != 0 or "distance reducing on every fiber" not in out["stdout"]:
        return [f"exit code {out['rc']}: {out['stdout'].strip()}"]
    return []


def _sweep_44(out, ctx):
    return _sweep_problems(O.quasi_independence_matrix(4, 4), ctx.setup["swaps44"], out, True)


def _sweep_55(out, ctx):
    Aq = O.quasi_independence_matrix(5, 5, [(i, i) for i in range(5)])
    moves = ctx.setup["df1_55"]
    return move_problems(Aq, moves) + _sweep_problems(Aq, moves, out, False)


def _signed_fiber(out, ctx):
    want = {tuple(int(v) for v in y) for y in O.fiber_of(np.array([[1, -1]]), (0, 0))}
    got = {tuple(y) for y in out}
    return [] if got == want else [f"fiber {sorted(got)}, brute force finds {sorted(want)}"]


def _signed_sweep(out, ctx):
    return _sweep_problems(np.array([[1, -1, 0], [0, 0, 1]]), [[1, 1, 0]], out, True)


# -------------------------------------------------------------- exact-test

def batch_means_se(indicator, batches: int = 100) -> float:
    """Standard error of the mean of a correlated series, by batch means."""
    x = np.asarray(indicator, dtype=float)
    size = len(x) // batches
    means = x[: size * batches].reshape(batches, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def _p_value(case, A, x_obs, stat):
    """The estimate is within 3 se + 2/n of the exact p.

    The walk's states are correlated, so se is the batch-means standard
    error of the exceedance indicator in the statistic trace the command
    wrote, not the binomial one, which is several times too small here.
    """
    def check(out, ctx):
        if out["rc"] != 0:
            return [f"exit code {out['rc']}"]
        f = out["fields"]
        n, p_hat, rate = int(f["samples"]), float(f["p_value"]), float(f["acceptance_rate"])
        trace = np.loadtxt(W.stat_trace_path(case), dtype=float, ndmin=1)
        if len(trace) != n:
            return [f"trace has {len(trace)} values for {n} samples"]
        se = batch_means_se(trace >= float(f["observed_stat"]))
        p = O.exact_p_value(A, x_obs, stat)
        tol = 3 * se + 2 / n
        why = [] if 0 < rate < 1 else [f"acceptance rate {rate}"]
        if abs(p_hat - float(p)) > tol:
            why.append(f"p-value {p_hat} is {abs(p_hat - float(p)):.4f} from the exact {p} "
                       f"(tolerance {tol:.4f})")
        return why

    return check


def _latin3(out, ctx):
    rows = [[int(v) for v in line.split()] for line in out["stdout"].strip().splitlines()]
    if out["rc"] != 0 or len(rows) != 3 or not O.is_latin(rows):
        return [f"not a Latin square: {out['stdout'].strip()!r}"]
    return []


def _walk_latin4(out, ctx):
    A4 = O.ntfi_matrix(4)
    why = move_problems(A4, ctx.setup["latin4_moves"])
    states = np.asarray(out["every_500th"] + [out["final"]], dtype=np.int64)
    if not (states @ A4.T == 1).all():
        why.append("a visited state is not a Latin square")
    if out["n_states"] != W.LATIN4_STEPS + 1:
        why.append(f"{out['n_states']} states for {W.LATIN4_STEPS} steps")
    if not 0 < out["rate"] < 1:
        why.append(f"acceptance rate {out['rate']}")
    return why


DIAG4 = [(i, i) for i in range(4)]

# workload -> operation -> check(output, context) -> list of problems
CHECKS = {
    "graver-table": {
        **{"square-free-graver-" + "x".join(map(str, d)): _three_way(d, md)
           for d, md in W.GRAVER_THREEWAY},
        "square-free-graver-4x5": _two_way_45,
        "graver-basis-2x2x3": _graver_basis_223,
        "prune-4x4": _prune_44,
        "cli-graver-ntfi-4x4x4": _ntfi_degree2,
    },
    "fiber-connectivity": {
        "latin4-enumerate": _latin4_fiber,
        "latin4-graph-basic": _latin4_graph("basic4"),
        "latin4-graph-basic+deg8": _latin4_graph("deg8"),
        "random-3x3x3-fibers": _random_fibers,
        "cli-check-two-way-3x4": _distance_sweep,
        "cli-check-complete-2x2x3": _distance_sweep,
        "sweep-4x4-swaps": _sweep_44,
        "sweep-5x5-diag-df1": _sweep_55,
        "signed-fiber": _signed_fiber,
        "signed-sweep": _signed_sweep,
    },
    "exact-test": {
        "cli-sample-4x4-chi2": _p_value("4x4-chi2", O.quasi_independence_matrix(4, 4),
                                        W.X44_CHI2, lambda x: O.chi2_two_way(4, 4, x)),
        "cli-sample-3x3-linear": _p_value("3x3-linear", O.quasi_independence_matrix(3, 3),
                                          W.X33, O.linear_stat(W.W33)),
        "cli-sample-quasi-4x4-linear": _p_value("quasi-4x4-linear",
                                                O.quasi_independence_matrix(4, 4, DIAG4),
                                                W.XQ, O.linear_stat(W.WQ)),
        "cli-latin-3": _latin3,
        "walk-latin-4": _walk_latin4,
    },
}
