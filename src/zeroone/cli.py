"""Command-line front end.

Subcommands: ``graver``, ``connect``, ``check``, ``sample``, ``latin``.
Exit codes: 0 pass/connected, 1 fail/disconnected, 2 usage error,
3 budget or cap exhausted.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .cells import CellSpace, Table  # Table: perfbench counts the calls of cli.Table
from .errors import BudgetExhaustedError, CapExceededError, ZeroOneError
from .fiber import (
    build_fiber_graph,
    check_distance_reducing,
    check_generalized_crossing,
    check_sweep_cells,
    enumerate_zero_one_fiber,
    sweep_crossing,
    sweep_distance_reducing,
    uncrossed_pair,
)
from .graver import (
    MoveSet,
    degree_histogram,
    graver_basis,
    prune_by_one_cancellation,
    square_free_graver,
    square_free_subset,
)
from .models import (
    build_complete_independence,
    build_many_facet_rasch,
    build_ntfi,
    build_quasi_independence,
    build_two_way_independence,
    lawrence_lift,
)
from .movegen import (
    basic_moves_two_way,
    degree2_threeway_patterns,
    degree8_moves_4x4,
    df1_loops,
    loops_degree_r,
    ntfi_333_moves,
    ntfi_basic_moves,
)
from .sampler import (
    at_least_as_extreme,
    batch_means_se,
    exact_test,
    latin_move_set,
    resolve_statistic,
    sample_latin_square,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_dims(s):
    try:
        dims = tuple(int(tok) for tok in s.split(","))
    except ValueError:
        raise ZeroOneError(f"bad dims {s!r}")
    if not dims:
        raise ZeroOneError("empty dims")
    return dims


def build_model(args):
    dims = _parse_dims(args.dims) if args.dims else None
    name = args.model
    if name == "two-way-indep":
        if dims is None or len(dims) != 2:
            raise ZeroOneError("two-way-indep needs --dims I,J")
        return build_two_way_independence(*dims)
    if name == "complete-indep":
        if dims is None:
            raise ZeroOneError("complete-indep needs --dims")
        return build_complete_independence(dims)
    if name == "quasi-indep":
        if dims is None or len(dims) != 2:
            raise ZeroOneError("quasi-indep needs --dims I,J")
        if not args.zeros:
            raise ZeroOneError("quasi-indep needs --zeros MASKFILE")
        space = CellSpace(dims, fileio.read_mask(args.zeros))  # refuses cells outside dims
        return build_quasi_independence(dims[0], dims[1], space.cells)
    if name == "ntfi":
        if dims is not None and len(dims) != 1:
            raise ZeroOneError("ntfi needs --dims N (one value)")
        return build_ntfi(dims[0] if dims else 3)
    if name == "many-facet-rasch":
        if dims is None:
            raise ZeroOneError("many-facet-rasch needs --dims")
        return build_many_facet_rasch(dims, getattr(args, "constant_item_param", False))
    raise ZeroOneError(f"unknown model {name!r}")


def _two_way(cfg):
    """The dimensions of a two-way model, or a usage error."""
    dims = cfg.cell_space.dims
    if len(dims) != 2:
        raise ZeroOneError("this move family needs a two-way model")
    return dims


def _basic(cfg, args):
    dims = cfg.cell_space.dims
    if len(dims) == 2:
        return basic_moves_two_way(*dims)
    if len(dims) == 3 and dims[0] == dims[1] == dims[2]:
        return ntfi_basic_moves(dims[0])
    raise ZeroOneError("no basic family for this model")


def _loops(cfg, args):
    I, J = _two_way(cfg)
    loops = (loops_degree_r(I, J, r) for r in range(3, min(I, J) + 1))
    return functools.reduce(MoveSet.union, loops, basic_moves_two_way(I, J))


def _square_free_graver(cfg, args):
    if args.max_degree is None:
        raise ZeroOneError("square-free-graver needs --max-degree")
    return square_free_graver(cfg, args.max_degree)


# --moves name -> builder(cfg, args) of the family; ``loop-<r>`` is parsed apart,
# and ``a+b`` is the union of the families a and b
FAMILIES = {
    "basic": _basic,
    "loops": _loops,
    "df1": lambda cfg, args: df1_loops(cfg.cell_space),
    "deg2-patterns": lambda cfg, args: degree2_threeway_patterns(cfg.cell_space.dims),
    "deg6": lambda cfg, args: ntfi_333_moves("deg6"),
    "deg9": lambda cfg, args: ntfi_333_moves("deg9"),
    "deg8": lambda cfg, args: degree8_moves_4x4(),
    "square-free-graver": _square_free_graver,
    "graver": lambda cfg, args: graver_basis(cfg),
}


def _family(name: str, cfg, args) -> MoveSet:
    """One generated family (:data:`FAMILIES`, ``loop-<r>``) bound to ``cfg``:
    a family of another model is checked against ``cfg``."""
    r = name.removeprefix("loop-")
    if r != name and r.isdigit():
        ms = loops_degree_r(*_two_way(cfg), int(r))
    elif name in FAMILIES:
        ms = FAMILIES[name](cfg, args)
    else:
        raise ZeroOneError(f"unknown move family {name!r}")
    if ms.source_config == cfg:
        return MoveSet(ms.matrix, ms.provenance, cfg)
    return MoveSet.build(ms.matrix, ms.provenance, cfg)


def resolve_moves(spec: str, cfg, args) -> MoveSet:
    """A move file, or the union of the generated families joined by ``+``
    in ``spec``, bound to ``cfg``; moves outside its kernel are a usage
    error."""
    if Path(spec).is_file():
        return MoveSet.build(fileio.read_matrix(spec), "file", cfg)
    return functools.reduce(MoveSet.union, (_family(name, cfg, args) for name in spec.split("+")))


def _get_key(args, cfg):
    if args.t:
        return fileio.read_vector(args.t)
    if args.from_table:
        return cfg.sufficient_stat(fileio.read_table(args.from_table))
    raise ZeroOneError("need --t or --from-table")


def cmd_graver(args) -> int:
    if args.max_degree is not None and not args.square_free:
        raise ZeroOneError("graver --max-degree needs --square-free")
    cfg = build_model(args)
    if args.lawrence:
        cfg = lawrence_lift(cfg)
    if args.max_degree is not None:
        b = square_free_graver(cfg, args.max_degree)
    else:
        b = graver_basis(cfg, max_candidates=args.budget)
        if args.square_free:
            b = square_free_subset(b)
    if args.prune:
        b = prune_by_one_cancellation(b)
    hist = degree_histogram(b)
    print(f"moves: {len(b)}")
    for d, c in hist.items():
        print(f"degree {d}: {c}")
    if args.out:
        fileio.write_matrix(args.out, b.matrix)
        print(f"wrote {args.out}")
    return EXIT_PASS


def cmd_connect(args) -> int:
    cfg = build_model(args)
    b = resolve_moves(args.moves, cfg, args)
    t = _get_key(args, cfg)
    fiber = enumerate_zero_one_fiber(cfg, t, cap=args.cap)
    graph = build_fiber_graph(fiber, b)
    print(f"fiber size: {len(fiber)}")
    print(f"components: {graph.n_components}")
    for k, comp in enumerate(graph.components):
        rep = fiber[comp[0]]
        print(f"component {k} (size {len(comp)}): {' '.join(str(v) for v in rep.values)}")
    if args.out:
        fileio.write_matrix(args.out, [list(x.values) for x in fiber])
    return EXIT_PASS if graph.connected else EXIT_FAIL


def cmd_check(args) -> int:
    if args.sweep and args.condition == "generalized":
        raise ZeroOneError("check --sweep does not apply to --condition generalized")
    if args.sweep and (args.t or args.from_table):
        raise ZeroOneError("check --sweep covers every fiber: it takes no --t or --from-table")
    cfg = build_model(args)
    if args.sweep:
        # every table of the model: 2^n of them (n >= 1), within the --cap budget,
        # refused before the moves are resolved
        if args.cap < 2:
            raise ZeroOneError(f"cap must be at least 2 with --sweep, got {args.cap}")
        max_cells = args.cap.bit_length() - 1
        check_sweep_cells(cfg, max_cells)
    b = resolve_moves(args.moves, cfg, args)

    if args.condition == "generalized":
        if args.max_degree is None:
            raise ZeroOneError("generalized check needs --max-degree for the reference set")
        ok, cex = check_generalized_crossing(b, square_free_graver(cfg, args.max_degree))
        if ok:
            print("generalized crossing: all covered")
            return EXIT_PASS
        print(f"uncovered move: {' '.join(str(v) for v in cex.vec)}")
        return EXIT_FAIL

    passed = f"{args.condition} crossing pattern exists for every pair"
    if args.sweep:
        if args.condition == "distance-reducing":
            ok, key = sweep_distance_reducing(cfg, b, args.strong, max_cells)
            print("distance reducing on every fiber" if ok else f"fails on key {key}")
        else:
            ok, key = sweep_crossing(cfg, args.condition == "weak", max_cells)
            print(passed if ok else f"no {args.condition} crossing for a pair in key {key}")
        return EXIT_PASS if ok else EXIT_FAIL

    fiber = enumerate_zero_one_fiber(cfg, _get_key(args, cfg), cap=args.cap)
    if args.condition == "distance-reducing":
        pair = check_distance_reducing(b, fiber, args.strong)[1]
        head, passed = "counterexample pair:", "distance reducing on this fiber"
    else:
        pair = uncrossed_pair(fiber, cfg, args.condition == "weak")
        head = "pair without crossing pattern:"
    print(head if pair else passed)
    for x in pair or ():
        print(" ".join(str(v) for v in x.values))
    return EXIT_FAIL if pair else EXIT_PASS


def _parse_stat(spec: str):
    if spec == "chi2-ipf":
        return "chi2-ipf"
    if spec.startswith("linear:"):
        try:
            return ("linear", [float(tok) for tok in spec.split(":", 1)[1].split(",")])
        except ValueError:
            raise ZeroOneError(f"bad linear weights in {spec!r}")
    raise ZeroOneError(f"unknown statistic {spec!r}")


def _trace_text(stats) -> str:
    """One ``.10g`` line per statistic, each distinct value formatted once.

    A walk revisits few distinct values (3 in 200,000 samples of the 4x4
    chi-square trace), so formatting each sample would dominate.
    """
    lines, out = {}, []
    for s in stats:
        key = s or repr(s)  # 0.0 and -0.0 are one dict key but format apart
        line = lines.get(key)
        if line is None:
            line = lines[key] = f"{s:.10g}\n"
        out.append(line)
    return "".join(out)


def cmd_sample(args) -> int:
    if args.cap <= 0:  # refused before the walk, not after its lines are printed
        raise ZeroOneError(f"cap must be positive, got {args.cap}")
    cfg = build_model(args)
    b = resolve_moves(args.moves, cfg, args)
    x0 = fileio.read_table(args.start)
    stat = _parse_stat(args.stat)
    run = exact_test(
        cfg,
        x0,
        b,
        stat,
        steps=args.steps,
        burn_in=args.burn_in,
        thinning=args.thinning,
        seed=args.seed,
    )
    print(f"seed: {run.seed}")
    print(f"steps: {run.steps}  burn_in: {run.burn_in}  thinning: {run.thinning}")
    print(f"samples: {len(run.trajectory_stats)}")
    print(f"acceptance_rate: {run.acceptance_rate:.6f}")
    print(f"observed_stat: {run.observed_stat:.10g}")
    print(f"p_value: {run.p_value_estimate:.6f}")
    if args.trace:
        Path(args.trace).write_text(_trace_text(run.trajectory_stats))
        print(f"wrote {args.trace}")
    if args.verify_exact:
        t = cfg.sufficient_stat(x0)
        fiber = enumerate_zero_one_fiber(cfg, t, cap=args.cap)
        sf = resolve_statistic(cfg, stat, t)
        obs = sf(x0.values)
        exact_p = sum(1 for x in fiber if at_least_as_extreme(sf(x.values), obs)) / len(fiber)
        n = len(run.trajectory_stats)
        # the walk's samples are correlated: the binomial error is several times too small
        se = batch_means_se(at_least_as_extreme(np.array(run.trajectory_stats), obs))
        diff = abs(run.p_value_estimate - exact_p)
        print(f"exact_p: {exact_p:.6f}  se: {se:.6f}  diff: {diff:.6f}")
        if diff > 3 * se + 2 / n:
            print("verify-exact: FAIL")
            return EXIT_FAIL
        print("verify-exact: ok")
    return EXIT_PASS


def cmd_latin(args) -> int:
    if args.count <= 0:  # refused before the move set is built
        raise ZeroOneError(f"count must be positive, got {args.count}")
    b = latin_move_set(args.n)
    for k in range(args.count):
        table, symbols = sample_latin_square(args.n, args.steps, args.seed + k, b)
        for row in symbols:
            print(" ".join(str(v) for v in row))
        if args.zero_one:
            print("cells: " + " ".join(str(v) for v in table.values))
        if k + 1 < args.count:
            print()
    return EXIT_PASS


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zeroone",
        description="Markov/Graver move sets, fiber connectivity and random walks "
        "for zero-one contingency tables",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_model(sp):
        sp.add_argument("--model", required=True,
                        choices=["two-way-indep", "complete-indep", "quasi-indep",
                                 "ntfi", "many-facet-rasch"])
        sp.add_argument("--dims")
        sp.add_argument("--zeros", help="structural-zero mask file")
        sp.add_argument("--constant-item-param", action="store_true")

    def add_moves(sp, note=""):
        sp.add_argument("--moves", required=True,
                        help=f"a move file, or families joined by '+' for their union: "
                        f"{', '.join(FAMILIES)}, loop-<r>{note}")
        sp.add_argument("--max-degree", type=int,
                        help="largest degree of a generated square-free Graver set")

    g = sub.add_parser("graver", help="compute a Graver basis or its square-free part")
    add_model(g)
    g.add_argument("--square-free", action="store_true")
    g.add_argument("--prune", action="store_true")
    g.add_argument("--max-degree", type=int,
                   help="with --square-free: the largest degree, by fiber pairing, not completion")
    g.add_argument("--lawrence", action="store_true")
    g.add_argument("--budget", type=int, default=2_000_000)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_graver)

    c = sub.add_parser("connect", help="fiber connectivity under a move set")
    add_model(c)
    add_moves(c)
    c.add_argument("--t")
    c.add_argument("--from-table")
    c.add_argument("--cap", type=int, default=5_000_000)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_connect)

    k = sub.add_parser("check", help="crossing patterns and distance reduction")
    add_model(k)
    k.add_argument("--condition", required=True,
                   choices=["strong", "weak", "generalized", "distance-reducing"])
    add_moves(k, "; validated, but unused by strong/weak crossing")
    k.add_argument("--t")
    k.add_argument("--from-table")
    k.add_argument("--sweep", action="store_true")
    k.add_argument("--strong", action="store_true",
                   help="strong variant of distance reduction")
    k.add_argument("--cap", type=int, default=5_000_000,
                   help="most tables to enumerate; with --sweep, the 2^n tables of the model")
    k.set_defaults(fn=cmd_check)

    s = sub.add_parser("sample", help="random-walk exact test")
    add_model(s)
    add_moves(s)
    s.add_argument("--start", required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--stat", default="chi2-ipf")
    s.add_argument("--burn-in", type=int)
    s.add_argument("--thinning", type=int, default=1)
    s.add_argument("--trace")
    s.add_argument("--verify-exact", action="store_true")
    s.add_argument("--cap", type=int, default=5_000_000)
    s.set_defaults(fn=cmd_sample)

    l = sub.add_parser("latin", help="sample random Latin squares")
    l.add_argument("n", type=int, choices=[3, 4])
    l.add_argument("--steps", type=int, default=1000)
    l.add_argument("--seed", type=int, required=True)
    l.add_argument("--count", type=int, default=1)
    l.add_argument("--zero-one", action="store_true",
                   help="also print the flat zero-one cell vector")
    l.set_defaults(fn=cmd_latin)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetExhaustedError, CapExceededError) as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ZeroOneError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
