#!/usr/bin/env python3
"""Latin-square fibers under line-sum-preserving moves.

Enumerates the order-3 and order-4 Latin-square fibers (as n x n x n
zero-one tables with all line sums one), reports component counts under
several move families — including the open question of whether the
degree-8 transposition moves alone connect the order-4 fiber — and
samples a few random squares.

Usage:
    python3 scripts/latin_square_walks.py [--seed N]
"""
import argparse
import time

from zeroone.fiber import build_fiber_graph, enumerate_zero_one_fiber
from zeroone.models import build_ntfi
from zeroone.movegen import degree8_moves_4x4, ntfi_333_moves, ntfi_basic_moves
from zeroone.sampler import latin_fiber_key, sample_latin_square


def report(name, fiber, b):
    t0 = time.time()
    g = build_fiber_graph(fiber, b)
    print(f"  {name:>24}: {g.n_components} components ({time.time() - t0:.1f}s)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    fiber3 = enumerate_zero_one_fiber(build_ntfi(3), latin_fiber_key(3))
    print(f"order 3: {len(fiber3)} squares")
    report("degree-4 swaps", fiber3, ntfi_333_moves("basic"))
    report("degree-6 orbit", fiber3, ntfi_333_moves("deg6"))

    fiber4 = enumerate_zero_one_fiber(build_ntfi(4), latin_fiber_key(4))
    print(f"order 4: {len(fiber4)} squares")
    basic4 = ntfi_basic_moves(4)
    deg8 = degree8_moves_4x4()
    report("degree-4 swaps", fiber4, basic4)
    report("degree-8 orbit alone", fiber4, deg8)
    both4 = basic4.union(deg8)
    report("degree-4 + degree-8", fiber4, both4)

    print("sampled squares (seeded):")
    for n, b in ((3, None), (4, both4)):
        _, sym = sample_latin_square(n, steps=5000, seed=args.seed, b=b)
        for row in sym:
            print("   " + " ".join(str(v) for v in row))
        print()


if __name__ == "__main__":
    main()
