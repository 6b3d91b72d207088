"""Spans and counts at the package's module boundaries, for the traced run.

``Tracer.install`` replaces each public function of each ``zeroone``
module, and the methods named below, with a wrapper that records a span
(name, start, end, parent).  Every module that imported the function by
name, such as ``cli``, gets the wrapper too.  The source is not edited.
Calls made hundreds of thousands of times (``Move.canonical``, the
``Table`` constructor inside ``cli``, statistic evaluations) are counted
or timed in aggregate instead of getting a span each.  Counts come from
the arguments and results of the wrapped calls.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over the spans of that module.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import threading
import time
from collections import Counter

# (name, unit, better): the per-layer metrics, in the order reported.
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.tables_built", "count", "lower"),
    ("models.self_s", "s", "lower"),
    ("models.sufficient_stat_calls", "count", "lower"),
    ("models.homogeneity_witness_s", "s", "lower"),
    ("cells.canonical_calls", "count", "lower"),
    ("movegen.self_s", "s", "lower"),
    ("movegen.orbit_images", "count", "lower"),
    ("movegen.orbit_images_per_s", "1/s", "higher"),
    ("graver.square_free_graver_s", "s", "lower"),
    ("graver.candidate_tables", "count", "lower"),
    ("graver.candidate_tables_per_s", "1/s", "higher"),
    ("graver.moves_found", "count", "higher"),
    ("graver.graver_basis_s", "s", "lower"),
    ("graver.prune_s", "s", "lower"),
    ("graver.moveset_build_s", "s", "lower"),
    ("fiber.enumerate_s", "s", "lower"),
    ("fiber.tables_enumerated", "count", "higher"),
    ("fiber.graph_s", "s", "lower"),
    ("fiber.graph_edges", "count", "higher"),
    ("fiber.graph_node_moves_per_s", "1/s", "higher"),
    ("fiber.distance_s", "s", "lower"),
    ("fiber.distance_fibers", "count", "higher"),
    ("fiber.distance_pairs_per_s", "1/s", "higher"),
    ("fiber.sweep_s", "s", "lower"),
    ("fiber.sweep_tables_per_s", "1/s", "higher"),
    ("sampler.walk_s", "s", "lower"),
    ("sampler.steps", "count", "higher"),
    ("sampler.steps_per_s", "1/s", "higher"),
    ("sampler.accepted_steps", "count", "higher"),
    ("sampler.acceptance_ratio", "ratio", "higher"),
    ("sampler.stat_eval_s", "s", "lower"),
    ("sampler.ipf_s", "s", "lower"),
    ("sampler.peak_alloc_mb", "MB", "lower"),
    ("fileio.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

MODULES = ("cells", "models", "movegen", "graver", "fiber", "sampler", "fileio", "cli")
METHODS = {
    "models": {"Configuration": ("sufficient_stat", "is_move")},
    "graver": {"MoveSet": ("build", "union", "retag")},
}
WALKS = ("sampler.random_walk", "sampler.exact_test")  # spans whose memory growth is sampled
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


class ResidentPeak:
    """Highest resident memory above the level at entry, sampled every 2 ms.

    Allocation tracing (``tracemalloc``) slows the walks several times
    over; sampling from a thread costs a few percent.
    """

    def __init__(self):
        self.base = self.peak = _resident_mb()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self):
        while not self._stop.wait(0.002):
            self.peak = max(self.peak, _resident_mb())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _resident_mb())

    @property
    def growth_mb(self) -> float:
        return self.peak - self.base


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    def __init__(self, zo):
        self.zo = zo
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.in_walk = False
        self.hooks = {
            "models.Configuration.sufficient_stat": self._count("models.sufficient_stat_calls"),
            "movegen.degree8_moves_4x4": self._orbit_images,
            "movegen.ntfi_333_moves": self._orbit_images,
            "graver.square_free_graver": self._square_free_graver,
            "graver.graver_basis": self._moves_found,
            "fiber.enumerate_zero_one_fiber": self._enumerated,
            "fiber.build_fiber_graph": self._graph,
            "fiber.check_distance_reducing": self._distance,
            "fiber.sweep_connectivity": self._sweep,
            "sampler.random_walk": self._random_walk,
            "sampler.exact_test": self._exact_test,
            "sampler.resolve_statistic": self._statistic,
        }

    # ------------------------------------------------------------ spans

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        hook = self.hooks.get(name)
        sig = inspect.signature(fn) if hook else None
        walk = name in WALKS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with contextlib.ExitStack() as stack:
                if walk and not self.in_walk:
                    self.in_walk = True
                    stack.callback(setattr, self, "in_walk", False)
                    rss = ResidentPeak()
                    stack.callback(lambda: self._peak_mb(rss.growth_mb))
                    stack.enter_context(rss)
                stack.enter_context(self.span(name))
                res = fn(*args, **kwargs)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                res = hook(bound.arguments, res) or res
            return res

        return wrapper

    def _peak_mb(self, mb):
        self.counts["sampler.peak_alloc_mb"] = max(self.counts["sampler.peak_alloc_mb"], mb)

    def _counting(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every public function of each module and the listed methods."""
        mods = {m: getattr(self.zo, m) for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                w = self.wrap(f"{short}.{attr}", obj)
                for other in mods.values():  # names imported with ``from .x import f``
                    if vars(other).get(attr) is obj:
                        setattr(other, attr, w)
        for short, classes in METHODS.items():
            for cls_name, names in classes.items():
                cls = getattr(mods[short], cls_name)
                for attr in names:
                    raw = vars(cls)[attr]
                    if isinstance(raw, classmethod):
                        w = classmethod(self.wrap(f"{short}.{cls_name}.{attr}", raw.__func__))
                    else:
                        w = self.wrap(f"{short}.{cls_name}.{attr}", raw)
                    setattr(cls, attr, w)
        cfg_cls = mods["models"].Configuration
        prop = functools.cached_property(
            self.wrap("models.Configuration.homogeneity_witness",
                      vars(cfg_cls)["homogeneity_witness"].func))
        prop.__set_name__(cfg_cls, "homogeneity_witness")
        cfg_cls.homogeneity_witness = prop
        move = mods["cells"].Move
        canonical = vars(move)["canonical"].__func__
        move.canonical = classmethod(self._counting("cells.canonical_calls", canonical))
        mods["cli"].Table = self._counting("cli.tables_built", mods["cli"].Table)

    # ------------------------------------------------------------ hooks

    def _count(self, key):
        def hook(args, res):
            self.counts[key] += 1

        return hook

    def _orbit_images(self, args, res):
        # one image per axis permutation and per-axis level permutations
        if "level" in args:
            families = len(args["level"].split("+"))
            self.counts["movegen.orbit_images"] += families * 6 * math.factorial(3) ** 3
        else:
            self.counts["movegen.orbit_images"] += 6 * math.factorial(4) ** 3

    def _moves_found(self, args, res):
        self.counts["graver.moves_found"] += len(res)

    def _square_free_graver(self, args, res):
        n = args["cfg"].n_cells
        lo, hi = args["min_degree"], args["max_degree"]
        self.counts["graver.candidate_tables"] += sum(math.comb(n, d) for d in range(lo, hi + 1))
        self._moves_found(args, res)

    def _enumerated(self, args, res):
        self.counts["fiber.tables_enumerated"] += len(res)

    def _graph(self, args, res):
        self.counts["fiber.graph_edges"] += len(res.edges)
        self.counts["graph_node_moves"] += len(res.nodes) * len(args["b"].moves)

    def _distance(self, args, res):
        m = len(args["fiber"])
        self.counts["fiber.distance_fibers"] += 1
        self.counts["distance_pairs"] += m * (m - 1) // 2

    def _sweep(self, args, res):
        self.counts["sweep_tables"] += res.n_tables

    def _random_walk(self, args, res):
        self.counts["sampler.steps"] += args["steps"]
        self.counts["sampler.accepted_steps"] += round(res[1] * args["steps"])

    def _exact_test(self, args, res):
        total = res.burn_in + res.steps
        self.counts["sampler.steps"] += total
        self.counts["sampler.accepted_steps"] += round(res.acceptance_rate * total)

    def _statistic(self, args, stat):
        @functools.wraps(stat)
        def timed(values):
            t0 = time.perf_counter()
            try:
                return stat(values)
            finally:
                self.counts["stat_eval_s"] += time.perf_counter() - t0

        return timed

    # ---------------------------------------------------------- results

    def metrics(self, import_s):
        """Per-layer metrics of everything traced so far (wall metrics excepted)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        outer: Counter = Counter()  # duration of spans with no same-name ancestor
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name.split(".")[0]] += end - start - covered[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                outer[name] += end - start
        c = self.counts
        images = c["movegen.orbit_images"]
        orbit_s = outer["movegen.degree8_moves_4x4"] + outer["movegen.ntfi_333_moves"]
        walk_s = sum(outer[w] for w in WALKS)
        m = {
            "setup.import_s": import_s,
            "cli.self_s": self_s["cli"],
            "cli.tables_built": c["cli.tables_built"],
            "models.self_s": self_s["models"],
            "models.sufficient_stat_calls": c["models.sufficient_stat_calls"],
            "models.homogeneity_witness_s": outer["models.Configuration.homogeneity_witness"],
            "cells.canonical_calls": c["cells.canonical_calls"],
            "movegen.self_s": self_s["movegen"],
            "movegen.orbit_images": images,
            "movegen.orbit_images_per_s": _ratio(images, orbit_s),
            "graver.square_free_graver_s": outer["graver.square_free_graver"],
            "graver.candidate_tables": c["graver.candidate_tables"],
            "graver.candidate_tables_per_s": _ratio(c["graver.candidate_tables"],
                                                    outer["graver.square_free_graver"]),
            "graver.moves_found": c["graver.moves_found"],
            "graver.graver_basis_s": outer["graver.graver_basis"],
            "graver.prune_s": outer["graver.prune_by_one_cancellation"],
            "graver.moveset_build_s": outer["graver.MoveSet.build"],
            "fiber.enumerate_s": outer["fiber.enumerate_zero_one_fiber"],
            "fiber.tables_enumerated": c["fiber.tables_enumerated"],
            "fiber.graph_s": outer["fiber.build_fiber_graph"],
            "fiber.graph_edges": c["fiber.graph_edges"],
            "fiber.graph_node_moves_per_s": _ratio(c["graph_node_moves"],
                                                   outer["fiber.build_fiber_graph"]),
            "fiber.distance_s": outer["fiber.check_distance_reducing"],
            "fiber.distance_fibers": c["fiber.distance_fibers"],
            "fiber.distance_pairs_per_s": _ratio(c["distance_pairs"],
                                                 outer["fiber.check_distance_reducing"]),
            "fiber.sweep_s": outer["fiber.sweep_connectivity"],
            "fiber.sweep_tables_per_s": _ratio(c["sweep_tables"],
                                               outer["fiber.sweep_connectivity"]),
            "sampler.walk_s": walk_s,
            "sampler.steps": c["sampler.steps"],
            "sampler.steps_per_s": _ratio(c["sampler.steps"], walk_s),
            "sampler.accepted_steps": c["sampler.accepted_steps"],
            "sampler.acceptance_ratio": _ratio(c["sampler.accepted_steps"], c["sampler.steps"]),
            "sampler.stat_eval_s": c["stat_eval_s"],
            "sampler.ipf_s": outer["sampler.ipf_fit"],
            "sampler.peak_alloc_mb": c["sampler.peak_alloc_mb"],
            "fileio.self_s": self_s["fileio"],
        }
        return {k: float(v) for k, v in m.items()}

    def write(self, path):
        """All spans as JSON: name, start and end in seconds, parent index (-1 at a root)."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
