"""Collect one A/B set of benchmark runs into a BENCH_<n>.json file.

Run the benchmark (``perfbench/run.py --trace 0``) in two checkouts, the
parent commit and the change, with the same seeds and alternating which
side runs first; each run leaves ``.perfbench/<workload>-seed<N>-trace0.result.json``
in its checkout.  Then, from the root of either checkout:

    python3 scripts/bench_ab.py --parent ../a/.perfbench --change ../b/.perfbench \\
        --tier1 parent-pytest.txt change-pytest.txt --out BENCH_12.json

pairs the runs of both sides by workload and seed and writes, per
workload: the seeds, each end-to-end metric's runs, median and quartiles
per side, the ratio of the medians, in how many pairs the change read
lower, the failed operations, and each operation's median time per side.
``--tier1`` takes the output of one Tier-1 pytest run per side and
records its wall time and pass, skip and fail counts.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def load(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*-trace0.result.json")):
        r = json.loads(path.read_text())
        r["mtime"] = path.stat().st_mtime
        runs[r["workload"], r["seed"]] = r
    return runs


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def tier1(path: Path) -> dict:
    """Wall time and counts from the last summary line of a pytest run."""
    line = [s for s in path.read_text().splitlines() if re.search(r" in [\d.]+s", s)][-1]
    out = {"seconds": float(re.search(r" in ([\d.]+)s", line).group(1))}
    for count, what in re.findall(r"(\d+) (passed|skipped|failed|errors?)", line):
        out[what] = int(count)
    return out


def side(runs: list[dict]) -> dict:
    shas = {r["env"].get("git_sha") for r in runs}
    return {"git_sha": shas.pop() if len(shas) == 1 else sorted(map(str, shas)),
            "env": {k: v for k, v in runs[0]["env"].items() if k != "git_sha"}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help=".perfbench directory of the parent")
    p.add_argument("--change", type=Path, required=True, help=".perfbench directory of the change")
    p.add_argument("--tier1", type=Path, nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    a, b = load(args.parent), load(args.change)
    pairs = sorted(set(a) & set(b))
    if not pairs:
        print("no (workload, seed) run on both sides", file=sys.stderr)
        return 1
    report = {"parent": side([a[k] for k in pairs]), "change": side([b[k] for k in pairs]),
              "workloads": {}}
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        A, B = [a[k] for k in keys], [b[k] for k in keys]
        entry = {
            "seeds": [s for _, s in keys],
            "parent_ran_first": sum(x["mtime"] < y["mtime"] for x, y in zip(A, B)),
            "attempted_per_run": {"parent": [len(x["op_times"]) * x["rounds"] for x in A],
                                  "change": [len(y["op_times"]) * y["rounds"] for y in B]},
            "failed": {"parent": sorted({op for x in A for op in x["failed"]}),
                       "change": sorted({op for y in B for op in y["failed"]})},
            "metrics": {},
            "op_medians": {},
        }
        for m in METRICS:
            pa, ch = [x["metrics"][m] for x in A], [y["metrics"][m] for y in B]
            entry["metrics"][m] = {
                "parent": summary(pa),
                "change": summary(ch),
                "ratio_of_medians": statistics.median(ch) / statistics.median(pa),
                "change_lower_in": f"{sum(y < x for x, y in zip(pa, ch))} of {len(keys)}",
            }
        for op in A[0]["op_times"]:
            entry["op_medians"][op] = {
                name: statistics.median(
                    statistics.median(t for t in r["op_times"][op] if t is not None) for r in runs)
                for name, runs in (("parent", A), ("change", B))
            }
        report["workloads"][workload] = entry
    if args.tier1:
        report["tier1"] = {"parent": tier1(args.tier1[0]), "change": tier1(args.tier1[1])}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
