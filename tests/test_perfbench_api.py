"""The package surface that the benchmark's tracer (``perfbench/tracer.py``)
hooks and reads.

A traced benchmark run installs ``Tracer`` on the package and then calls
the hooked functions; a renamed function, attribute or parameter kills
that process.  Here the tracer is installed in a subprocess, each hooked
function is called once on a tiny model, and the per-layer metrics are
read.  Nothing under ``perfbench/`` is written.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import tracer, workloads

zo = workloads.import_zeroone()
tr = tracer.Tracer(zo)
tr.install()
m, g, f, s, mg = zo.models, zo.graver, zo.fiber, zo.sampler, zo.movegen
cfg = m.build_two_way_independence(2, 3)
b = g.graver_basis(cfg)
sf = g.square_free_graver(cfg, 4)
g.MoveSet(b.moves, b.provenance, cfg)
b.union(sf).retag("both")
assert cfg.homogeneity_witness is not None
x = zo.cells.Table((1, 0, 0, 0, 1, 0))
fiber = f.enumerate_zero_one_fiber(cfg, cfg.sufficient_stat(x))
assert all(len(y.values) == 6 for y in fiber)
f.build_fiber_graph(fiber, b)
f.check_distance_reducing(b, fiber)
f.sweep_connectivity(cfg, b, max_cells=6)
states, rate = s.random_walk(cfg, x, b, 50, 1)
assert len(states[-1].values) == 6
s.exact_test(cfg, x, b, ("linear", (1, 2, 3, 4, 5, 6)), 50, seed=1)
s.resolve_statistic(cfg, ("linear", (1, 2, 3, 4, 5, 6)))
mg.ntfi_333_moves("basic")
s.ntfi_basic_moves(3).union(mg.ntfi_333_moves("deg6"))
mg.basic_moves_two_way(3, 3)
mg.loops_degree_r(3, 3, 3)
mg.degree2_threeway_patterns((2, 2, 2))
q = m.build_quasi_independence(4, 4, {(i, j) for i in range(4) for j in range(4) if i != j})
mg.df1_loops(q.cell_space)
mg.degree8_moves_4x4()
s.latin_move_set(3)
s.latin_start_table(3)
zo.cells.Move.canonical((0, -1, 1))
assert zo.cli.main(["graver", "--model", "two-way-indep", "--dims", "2,3"]) == 0
print(json.dumps(tr.metrics(0.0)))
"""


def test_traced_calls_of_every_hooked_function():
    # -B: no bytecode cache is written under perfbench/
    r = subprocess.run([sys.executable, "-B", "-c", SCRIPT, str(ROOT)], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    metrics = json.loads(r.stdout.splitlines()[-1])
    assert metrics["graver.moves_found"] > 0 and metrics["fiber.graph_edges"] > 0
