"""One benchmark workload, run in its own process.

``run.py`` starts this file with ``src`` on ``PYTHONPATH`` and every BLAS
and OpenMP pool set to one thread.  It imports ``zeroone``, builds the
workload's inputs several times, then repeats whole rounds of the
workload's operations until ``--seconds`` have passed.  Each operation is
timed alone; turning its result into plain data for the checks happens
after the clock stops.  Everything goes to one JSON file for ``run.py``,
which does the checking in a separate process, so reference computations
inflate neither the timings nor this process's peak memory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

SETUP_REPEATS = 2
WORK_DIR = Path(".perfbench") / "work"

# Walk seeds of the p-value operations are fixed, as in the package's
# acceptance tests: a 3-standard-error check fails by chance in some
# seeds, and a verdict that depends on the seed cannot be compared
# between runs.  The Latin-square walks and the random fibers take their
# seeds from --seed.
SAMPLE_SEEDS = {"4x4-chi2": 202, "3x3-linear": 101, "quasi-4x4-linear": 303}
SAMPLE_STEPS = 200_000
LATIN3_STEPS = 300_000
LATIN4_STEPS = 100_000
RANDOM_FIBERS = 1_000

X44_CHI2 = (0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0)
X33 = (1, 0, 0, 0, 1, 0, 0, 0, 1)
W33 = (0, 1, 3, 2, 7, 1, 5, 0, 4)
XQ = (1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1)
WQ = (2, 0, 5, 1, 3, 1, 4, 0, 2, 6, 1, 3)


def import_zeroone():
    """Import the package; the caller times this."""
    import zeroone.cells
    import zeroone.cli
    import zeroone.fiber
    import zeroone.fileio
    import zeroone.graver
    import zeroone.models
    import zeroone.movegen
    import zeroone.sampler

    return SimpleNamespace(
        cells=zeroone.cells, cli=zeroone.cli, fiber=zeroone.fiber,
        fileio=zeroone.fileio, graver=zeroone.graver, models=zeroone.models,
        movegen=zeroone.movegen, sampler=zeroone.sampler,
    )


def seeds_from(seed: int, k: int) -> list[int]:
    # numpy is imported here, not at the top, so that the timed package
    # import in ``main`` includes it
    import numpy as np

    return [int(v) for v in np.random.SeedSequence(seed).generate_state(k)]


def cli(zo, argv, outputs=()):
    """``zeroone <argv>`` in-process: (exit code, standard output).

    The files in ``outputs`` are removed first, so that a command that
    fails before writing them cannot pass off an earlier round's files.
    """
    for path in outputs:
        path.unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = zo.cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def bound(zo, ms, cfg):
    return zo.graver.MoveSet(ms.moves, ms.provenance, cfg)


def vecs(ms):
    return [list(z.vec) for z in ms.moves]


def bits(tables):
    return [list(x.values) for x in tables]


# ------------------------------------------------------------ graver-table

GRAVER_THREEWAY = (((2, 2, 4), 5), ((2, 2, 5), 5), ((2, 3, 3), 5), ((2, 3, 4), 6))


def setup_graver_table(zo, seed):
    m = zo.models
    inp = SimpleNamespace()
    inp.threeway = [(dims, md, m.build_complete_independence(dims)) for dims, md in GRAVER_THREEWAY]
    inp.two_way_45 = m.build_two_way_independence(4, 5)
    inp.c223 = m.build_complete_independence((2, 2, 3))
    inp.sf44 = zo.graver.square_free_graver(m.build_two_way_independence(4, 4), 4)
    inp.ntfi_out = WORK_DIR / "ntfi4-degree2.txt"
    return inp


def ops_graver_table(zo, inp):
    g = zo.graver
    ops = []
    for dims, md, cfg in inp.threeway:
        name = "square-free-graver-" + "x".join(map(str, dims))
        ops.append((name, lambda cfg=cfg, md=md: g.square_free_graver(cfg, md), vecs))
    ops.append(("square-free-graver-4x5", lambda: g.square_free_graver(inp.two_way_45, 5), vecs))
    ops.append(("graver-basis-2x2x3", lambda: g.graver_basis(inp.c223), vecs))
    ops.append(("prune-4x4", lambda: g.prune_by_one_cancellation(inp.sf44), vecs))
    argv = ["graver", "--model", "ntfi", "--dims", "4", "--square-free",
            "--max-degree", "2", "--out", inp.ntfi_out]

    def ntfi_summary(res):
        rows = [line.split() for line in inp.ntfi_out.read_text().splitlines()[1:]]
        return {"rc": res[0], "stdout": res[1], "moves": [[int(v) for v in r] for r in rows]}

    ops.append(("cli-graver-ntfi-4x4x4", lambda: cli(zo, argv, [inp.ntfi_out]), ntfi_summary))
    return ops


def setup_outputs_graver_table(zo, inp):
    return {"sf44": vecs(inp.sf44)}


# ------------------------------------------------------- fiber-connectivity

def setup_fiber_connectivity(zo, seed):
    import numpy as np  # after the timed import, see seeds_from

    m, mg, s = zo.models, zo.movegen, zo.sampler
    inp = SimpleNamespace()
    inp.c4 = m.build_ntfi(4)
    inp.latin_key = s.latin_fiber_key(4)
    basics = s.ntfi_basic_moves(4)
    inp.basic4 = bound(zo, basics, inp.c4)
    inp.deg8 = bound(zo, basics.union(mg.degree8_moves_4x4()), inp.c4)
    inp.c3 = m.build_ntfi(3)
    inp.b333 = bound(zo, mg.ntfi_333_moves("basic+deg6+deg9"), inp.c3)
    rng = np.random.Generator(np.random.PCG64(seeds_from(seed, 1)[0]))
    inp.random_tables = [zo.cells.Table(tuple(int(v) for v in row))
                         for row in rng.integers(0, 2, size=(RANDOM_FIBERS, 27))]
    inp.c44 = m.build_two_way_independence(4, 4)
    inp.swaps44 = bound(zo, mg.basic_moves_two_way(4, 4), inp.c44)
    diag_free = {(i, j) for i in range(5) for j in range(5) if i != j}
    inp.q55 = m.build_quasi_independence(5, 5, diag_free)
    inp.df1_55 = bound(zo, mg.df1_loops(inp.q55.cell_space), inp.q55)
    return inp


def ops_fiber_connectivity(zo, inp):
    f = zo.fiber
    latin = {}

    def enumerate_latin():
        latin["fiber"] = f.enumerate_zero_one_fiber(inp.c4, inp.latin_key)
        return latin["fiber"]

    def graph_summary(g):
        return {"nodes": len(g.nodes), "edges": len(g.edges), "components": g.n_components}

    def random_fibers():
        out = []
        for x in inp.random_tables:
            fib = f.enumerate_zero_one_fiber(inp.c3, inp.c3.sufficient_stat(x))
            out.append((fib, f.build_fiber_graph(fib, inp.b333).n_components))
        return out

    def random_summary(res):
        return [{"fiber": bits(fib), "components": k} for fib, k in res]

    def sweep_summary(r):
        return {"tables": r.n_tables, "fibers": r.n_fibers, "components": r.n_components}

    def check_argv(model, dims):
        return ["check", "--model", model, "--dims", dims, "--condition", "distance-reducing",
                "--sweep", "--strong", "--moves", "square-free-graver", "--max-degree", "3"]

    def cli_summary(res):
        return {"rc": res[0], "stdout": res[1]}

    # The signed models are built inside their operations: a program that
    # refuses signed matrices then fails those operations, not the set-up.
    def signed_fiber():
        cfg = zo.models.Configuration(zo.cells.CellSpace((2,)), ((1, -1),))
        return f.enumerate_zero_one_fiber(cfg, (0,))

    def signed_sweep():
        cfg = zo.models.Configuration(zo.cells.CellSpace((3,)), ((1, -1, 0), (0, 0, 1)))
        moves = zo.graver.MoveSet.build([zo.cells.Move((1, 1, 0))], "signed", cfg)
        return f.sweep_connectivity(cfg, moves)

    graph = f.build_fiber_graph
    sweep = f.sweep_connectivity
    return [
        ("latin4-enumerate", enumerate_latin, bits),
        ("latin4-graph-basic", lambda: graph(latin["fiber"], inp.basic4), graph_summary),
        ("latin4-graph-basic+deg8", lambda: graph(latin["fiber"], inp.deg8), graph_summary),
        ("random-3x3x3-fibers", random_fibers, random_summary),
        ("cli-check-two-way-3x4", lambda: cli(zo, check_argv("two-way-indep", "3,4")),
         cli_summary),
        ("cli-check-complete-2x2x3", lambda: cli(zo, check_argv("complete-indep", "2,2,3")),
         cli_summary),
        ("sweep-4x4-swaps", lambda: sweep(inp.c44, inp.swaps44, max_cells=16), sweep_summary),
        ("sweep-5x5-diag-df1", lambda: sweep(inp.q55, inp.df1_55, max_cells=20), sweep_summary),
        ("signed-fiber", signed_fiber, bits),
        ("signed-sweep", signed_sweep, sweep_summary),
    ]


def setup_outputs_fiber_connectivity(zo, inp):
    return {
        "basic4": vecs(inp.basic4), "deg8": vecs(inp.deg8), "b333": vecs(inp.b333),
        "random_tables": bits(inp.random_tables), "swaps44": vecs(inp.swaps44),
        "df1_55": vecs(inp.df1_55),
    }


# -------------------------------------------------------------- exact-test

def setup_exact_test(zo, seed):
    io_, s = zo.fileio, zo.sampler
    inp = SimpleNamespace()
    inp.files = {
        "x44": WORK_DIR / "start-4x4.txt",
        "x33": WORK_DIR / "start-3x3.txt",
        "xq": WORK_DIR / "start-quasi-4x4.txt",
        "diag4": WORK_DIR / "diagonal-zeros-4x4.txt",
    }
    io_.write_table(inp.files["x44"], zo.cells.Table(X44_CHI2))
    io_.write_table(inp.files["x33"], zo.cells.Table(X33))
    io_.write_table(inp.files["xq"], zo.cells.Table(XQ))
    io_.write_mask(inp.files["diag4"], [(i, i) for i in range(4)])
    inp.c4 = zo.models.build_ntfi(4)
    inp.latin4_moves = s.latin_move_set(4)
    inp.latin4_start = s.latin_start_table(4)
    inp.latin3_seed, inp.latin4_seed = seeds_from(seed, 2)
    return inp


def stat_trace_path(case) -> Path:
    return WORK_DIR / f"stat-trace-{case}.txt"


def sample_argv(inp, case):
    common = ["--steps", SAMPLE_STEPS, "--seed", SAMPLE_SEEDS[case],
              "--trace", stat_trace_path(case)]
    if case == "4x4-chi2":
        return ["sample", "--model", "two-way-indep", "--dims", "4,4", "--moves", "basic",
                "--start", inp.files["x44"], "--stat", "chi2-ipf"] + common
    if case == "3x3-linear":
        return ["sample", "--model", "two-way-indep", "--dims", "3,3", "--moves", "basic",
                "--start", inp.files["x33"], "--stat", "linear:" + ",".join(map(str, W33))] + common
    return ["sample", "--model", "quasi-indep", "--dims", "4,4", "--zeros", inp.files["diag4"],
            "--moves", "df1", "--start", inp.files["xq"],
            "--stat", "linear:" + ",".join(map(str, WQ))] + common


def ops_exact_test(zo, inp):
    def sample_summary(case):
        def summary(res):
            rc, out = res
            fields = {}
            for line in out.splitlines():
                for part in line.split("  "):
                    key, sep, val = part.partition(": ")
                    if sep:
                        fields[key.strip()] = val.strip()
            trace = hashlib.sha256(stat_trace_path(case).read_bytes()).hexdigest()
            return {"rc": rc, "stdout": out, "fields": fields, "stat_trace_sha256": trace}

        return summary

    def walk_summary(res):
        states, rate = res
        digest = hashlib.sha256()
        for x in states:
            digest.update(bytes(x.values))
        return {"rate": rate, "n_states": len(states), "digest": digest.hexdigest(),
                "every_500th": bits(states[::500]), "final": list(states[-1].values)}

    latin3 = ["latin", "3", "--steps", LATIN3_STEPS, "--seed", inp.latin3_seed]
    ops = [("cli-sample-" + case,
            lambda case=case: cli(zo, sample_argv(inp, case), [stat_trace_path(case)]),
            sample_summary(case)) for case in SAMPLE_SEEDS]
    ops.append(("cli-latin-3", lambda: cli(zo, latin3), lambda r: {"rc": r[0], "stdout": r[1]}))
    ops.append(("walk-latin-4", lambda: zo.sampler.random_walk(
        inp.c4, inp.latin4_start, inp.latin4_moves, LATIN4_STEPS, inp.latin4_seed), walk_summary))
    return ops


def setup_outputs_exact_test(zo, inp):
    return {"latin4_moves": vecs(inp.latin4_moves)}


WORKLOADS = {
    "graver-table": (setup_graver_table, ops_graver_table, setup_outputs_graver_table),
    "fiber-connectivity": (setup_fiber_connectivity, ops_fiber_connectivity,
                           setup_outputs_fiber_connectivity),
    "exact-test": (setup_exact_test, ops_exact_test, setup_outputs_exact_test),
}


# ------------------------------------------------------------------ rounds

def run_round(ops):
    """Time every operation once; summarise each result after its clock stops."""
    times, digests, outputs, errors = {}, {}, {}, {}
    for name, fn, summarise in ops:
        t0 = time.perf_counter()
        try:
            res = fn()
            times[name] = time.perf_counter() - t0
            outputs[name] = summarise(res)
        except Exception as e:  # a failing operation is reported, not fatal
            times.setdefault(name, time.perf_counter() - t0)
            errors[name] = f"{type(e).__name__}: {e}"
            continue
        digests[name] = hashlib.sha256(
            json.dumps(outputs[name], sort_keys=True, default=str).encode()).hexdigest()
    return times, digests, outputs, errors


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(ops, seconds):
    """Whole rounds until ``seconds`` have passed; at least one.

    Returns the rounds, the first round's outputs and errors, and the peak
    resident memory after set-up and the first round.  Later rounds are
    left out of the peak: memory that earlier rounds fragmented lifts it
    by a few megabytes, so it would depend on how many rounds fit.
    """
    rounds, first, peak = [], None, None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        times, digests, outputs, errors = run_round(ops)
        rounds.append({"times": times, "digests": digests, "errors": errors})
        if first is None:
            first, peak = (outputs, errors), peak_rss_mb()
    return rounds, first, peak


def versions():
    import numpy
    import scipy
    import sympy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    zo = import_zeroone()
    import_s = time.perf_counter() - t0

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    setup, make_ops, setup_outputs = WORKLOADS[args.workload]
    repeats = 1 if args.trace else SETUP_REPEATS
    build_s, inp = [], None
    for _ in range(repeats):
        inp = None  # release the previous build before timing the next
        t0 = time.perf_counter()
        inp = setup(zo, args.seed)
        build_s.append(time.perf_counter() - t0)

    rounds, (outputs, errors), peak = run_rounds(make_ops(zo, inp), args.seconds)
    result = {
        "import_s": import_s,
        "build_s": build_s,
        "rounds": rounds,
        "outputs": outputs,
        "errors": errors,
        "setup_outputs": setup_outputs(zo, inp),
        "versions": versions(),
        "peak_rss_mb": peak,
    }
    if args.trace:
        import tracer

        tr = tracer.Tracer(zo)
        tr.install()
        with tr.span("bench.setup"):
            inp = setup(zo, args.seed)
        traced = []
        for name, fn, summarise in make_ops(zo, inp):
            traced.append((name, tr.wrap("bench.op." + name, fn), summarise))
        times, digests, _, trace_errors = run_round(traced)
        result["traced_round"] = {"times": times, "digests": digests, "errors": trace_errors}
        result["per_layer"] = tr.metrics(import_s)
        tr.write(Path(args.out).with_suffix(".spans.json"))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
