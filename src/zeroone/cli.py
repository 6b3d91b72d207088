"""Command-line front end.

Subcommands: ``graver``, ``connect``, ``check``, ``sample``, ``latin``.
Exit codes: 0 pass/connected, 1 fail/disconnected, 2 usage or file error,
3 budget or cap exhausted; a 2 or a 3 comes before any result line.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .cells import CellSpace, Table  # Table: perfbench counts the calls of cli.Table
from .errors import BudgetExhaustedError, ZeroOneError
from .fiber import (
    DEFAULT_CAP,
    build_fiber_graph,
    check_distance_reducing,
    check_generalized_crossing,
    check_sweep_cells,
    enumerate_zero_one_fiber,
    sweep_crossing,
    sweep_connectivity,
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
    name = args.model
    for opt, model in (("zeros", "quasi-indep"), ("constant_item_param", "many-facet-rasch")):
        if getattr(args, opt) and name != model:
            raise ZeroOneError(f"--{opt.replace('_', '-')} applies to {model} only, not {name}")
    dims = _parse_dims(args.dims) if args.dims else None
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
        return build_many_facet_rasch(dims, args.constant_item_param)
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
    if args.max_degree is not None and args.budget is not None:
        raise ZeroOneError("graver --budget does not apply to --max-degree (fiber pairing)")
    cfg = build_model(args)
    if args.lawrence:
        cfg = lawrence_lift(cfg)
    if args.max_degree is not None:
        b = square_free_graver(cfg, args.max_degree)
    else:
        budget = {} if args.budget is None else {"max_candidates": args.budget}
        b = graver_basis(cfg, **budget)
        if args.square_free:
            b = square_free_subset(b)
    if args.prune:
        b = prune_by_one_cancellation(b)
    if args.out:
        fileio.write_matrix(args.out, b.matrix)
    print(f"moves: {len(b)}")
    for d, c in degree_histogram(b).items():
        print(f"degree {d}: {c}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_PASS


def _cap(args) -> int:
    """``--cap``, else :data:`~zeroone.fiber.DEFAULT_CAP`."""
    return DEFAULT_CAP if args.cap is None else args.cap


def _check_max_degree(args):
    """Refuse ``--max-degree`` where no square-free Graver set reads it."""
    if args.max_degree is not None and "square-free-graver" not in args.moves.split("+"):
        if getattr(args, "condition", None) != "generalized":
            raise ZeroOneError(f"{args.cmd} --max-degree applies only to square-free-graver moves")


def _sweep_model(args):
    """The model, and with ``--sweep`` the most cells its 2^n tables may have
    within ``--cap`` (else None).  An unread ``--max-degree``, and with a sweep
    (every fiber) a key or a cap below two tables, are refused before the
    model is built, and too many cells before the moves are resolved."""
    _check_max_degree(args)
    if args.sweep and (args.t or args.from_table):
        raise ZeroOneError(f"{args.cmd} --sweep covers every fiber: "
                           "it takes no --t or --from-table")
    if args.sweep and _cap(args) < 2:  # no model has fewer than 2^1 tables
        raise ZeroOneError(f"cap must be at least 2 with --sweep, got {args.cap}")
    cfg = build_model(args)
    if not args.sweep:
        return cfg, None
    max_cells = _cap(args).bit_length() - 1
    check_sweep_cells(cfg, max_cells)
    return cfg, max_cells


def cmd_connect(args) -> int:
    if args.sweep and args.out:
        raise ZeroOneError("connect --sweep writes no fiber: it takes no --out")
    cfg, max_cells = _sweep_model(args)
    b = resolve_moves(args.moves, cfg, args)
    if args.sweep:
        rep = sweep_connectivity(cfg, b, max_cells)
        print(f"tables: {rep.n_tables}")
        print(f"fibers: {rep.n_fibers}")
        print(f"components: {rep.n_components}")
        return EXIT_PASS if rep.all_connected else EXIT_FAIL
    t = _get_key(args, cfg)
    fiber = enumerate_zero_one_fiber(cfg, t, cap=_cap(args))
    graph = build_fiber_graph(fiber, b)
    if args.out:
        fileio.write_matrix(args.out, [list(x.values) for x in fiber])
    print(f"fiber size: {len(fiber)}")
    print(f"components: {graph.n_components}")
    for k, comp in enumerate(graph.components):
        rep = fiber[comp[0]]
        print(f"component {k} (size {len(comp)}): {' '.join(str(v) for v in rep.values)}")
    return EXIT_PASS if graph.connected else EXIT_FAIL


def cmd_check(args) -> int:
    ignored = {"distance-reducing": (), "strong": ("strong",), "weak": ("strong",),
               "generalized": ("sweep", "t", "from-table", "strong", "cap")}
    for opt in ignored[args.condition]:
        given = getattr(args, opt.replace("-", "_"))
        if given is not None and given is not False:
            raise ZeroOneError(f"check --{opt} does not apply to --condition {args.condition}")
    cfg, max_cells = _sweep_model(args)
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

    fiber = enumerate_zero_one_fiber(cfg, _get_key(args, cfg), cap=_cap(args))
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
    if args.cap is not None and not args.verify_exact:
        raise ZeroOneError("sample --cap applies only with --verify-exact")
    _check_max_degree(args)
    cfg = build_model(args)
    b = resolve_moves(args.moves, cfg, args)
    x0 = fileio.read_table(args.start)
    t = cfg.sufficient_stat(x0)
    stat = resolve_statistic(cfg, _parse_stat(args.stat), t)
    if args.verify_exact:  # the exact count finishes, or is refused, before the walk
        obs = stat(x0.values)
        scores = [stat(x.values) for x in enumerate_zero_one_fiber(cfg, t, cap=_cap(args))]
        exact_p = np.mean(at_least_as_extreme(np.array(scores), obs))
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
    if args.trace:
        Path(args.trace).write_text(_trace_text(run.trajectory_stats))
    print(f"seed: {run.seed}")
    print(f"steps: {run.steps}  burn_in: {run.burn_in}  thinning: {run.thinning}")
    print(f"samples: {len(run.trajectory_stats)}")
    print(f"acceptance_rate: {run.acceptance_rate:.6f}")
    print(f"observed_stat: {run.observed_stat:.10g}")
    print(f"p_value: {run.p_value_estimate:.6f}")
    if args.trace:
        print(f"wrote {args.trace}")
    if args.verify_exact:
        # the walk's samples are correlated: the binomial error is several times too small
        se = batch_means_se(at_least_as_extreme(np.array(run.trajectory_stats), obs))
        diff = abs(run.p_value_estimate - exact_p)
        print(f"exact_p: {exact_p:.6f}  se: {se:.6f}  diff: {diff:.6f}")
        if diff > 3 * se + 2 / len(run.trajectory_stats):
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
        sp.add_argument("--zeros", help="structural-zero mask file; quasi-indep only")
        sp.add_argument("--constant-item-param", action="store_true")

    def add_key(sp):
        sp.add_argument("--t")
        sp.add_argument("--from-table")
        sp.add_argument("--sweep", action="store_true",
                        help="every fiber: all 2^n tables of the model, grouped by key")
        sp.add_argument("--cap", type=int,
                        help="most tables to enumerate; with --sweep, the 2^n tables of the model")

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
    g.add_argument("--budget", type=int, help="most candidates the completion pops")
    g.add_argument("--out")
    g.set_defaults(fn=cmd_graver)

    c = sub.add_parser("connect", help="fiber connectivity under a move set")
    add_model(c)
    add_moves(c)
    add_key(c)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_connect)

    k = sub.add_parser("check", help="crossing patterns and distance reduction")
    add_model(k)
    k.add_argument("--condition", required=True,
                   choices=["strong", "weak", "generalized", "distance-reducing"])
    add_moves(k, "; validated, but unused by strong/weak crossing")
    add_key(k)
    k.add_argument("--strong", action="store_true",
                   help="strong variant of distance reduction; refused with other conditions")
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
    s.add_argument("--cap", type=int)
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
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExhaustedError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ZeroOneError, OSError, UnicodeDecodeError) as e:  # a file error is a usage error
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
