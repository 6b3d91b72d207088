#!/usr/bin/env python3
"""Exhaustive fiber-connectivity sweeps for the structured move families.

For each scenario, every zero-one table of the model is grouped by its
sufficient statistic and the number of move-connected components is
compared to the number of fibers.

Usage:
    python3 scripts/connectivity_sweeps.py
"""
import time

from zeroone.fiber import sweep_connectivity
from zeroone.models import build_quasi_independence, build_two_way_independence
from zeroone.movegen import basic_moves_two_way, df1_loops


def diag_support(n):
    return {(i, j) for i in range(n) for j in range(n) if i != j}


def main() -> None:
    scenarios = []
    for I, J in [(3, 3), (3, 4), (4, 4)]:
        cfg = build_two_way_independence(I, J)
        scenarios.append((f"{I}x{J} swaps", cfg, basic_moves_two_way(I, J)))
    for n in (4, 5):
        cfg = build_quasi_independence(n, n, diag_support(n))
        scenarios.append((f"{n}x{n} diag-zero df1", cfg, df1_loops(cfg.cell_space)))

    for name, cfg, b in scenarios:
        t0 = time.time()
        rep = sweep_connectivity(cfg, b, max_cells=cfg.n_cells)
        verdict = "connected" if rep.all_connected else "DISCONNECTED"
        print(
            f"{name:>20}: {rep.n_tables} tables, {rep.n_fibers} fibers, "
            f"{rep.n_components} components -> {verdict} ({time.time() - t0:.1f}s)"
        )


if __name__ == "__main__":
    main()
