"""Benchmark of the zeroone package: the Graver table, fiber connectivity, the exact test.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graver-table --seed 1 --seconds 10 --trace 0

The workload runs in a fresh single-threaded Python process
(``workloads.py``), preceded by import probes that sample the package
import alone.  This process then checks every output against ``oracles``
and prints, as its last line, one JSON object: whether the outputs are
correct, the operations attempted and failed, and the metrics.  With
``--trace 0`` these are the end-to-end metrics; with ``--trace 1`` the
workload is also run once under ``tracer`` and the per-layer metrics are
reported instead.  Results and spans are written under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
IMPORT_PROBES = 2  # extra processes that time the package import alone
CHILD_TIMEOUT_S = 150
PROBE = (
    "import time; t0 = time.perf_counter(); "
    "import zeroone.cells, zeroone.cli, zeroone.fiber, zeroone.fileio, zeroone.graver, "
    "zeroone.models, zeroone.movegen, zeroone.sampler; "
    "print(time.perf_counter() - t0)"
)
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def git_sha(root: Path) -> str | None:
    """HEAD of the repository whose top level is ``root``, else None."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def import_probes(root: Path, env: dict) -> list[float]:
    out = []
    for _ in range(IMPORT_PROBES):
        r = subprocess.run([sys.executable, "-c", PROBE], cwd=root, env=env,
                           capture_output=True, text=True, timeout=60)
        if r.returncode != 0:
            raise RuntimeError(f"import probe failed: {r.stderr.strip()}")
        out.append(float(r.stdout.split()[-1]))
    return out


def run_child(root: Path, env: dict, args, out_path: Path) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_path)]
    r = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"workload process exited {r.returncode}:\n{r.stderr}")
    return json.loads(out_path.read_text())


def program(root: Path):
    """Loader of the package from ``src``, for checks that use an independent route."""
    @functools.cache
    def load():
        sys.path.insert(0, str(root / "src"))
        return workloads.import_zeroone()

    return load


def verdicts(workload: str, res: dict, zo) -> dict[str, str]:
    """Problems per failed operation, after the checks in ``checks.CHECKS``."""
    ctx = argparse.Namespace(outputs=res["outputs"], setup=res["setup_outputs"], zo=zo)
    bad = {}
    for op, check in checks.CHECKS[workload].items():
        if op in res["errors"]:
            bad[op] = "raised " + res["errors"][op]
            continue
        try:
            why = check(res["outputs"][op], ctx)
        except Exception:
            why = ["the check could not read the output:\n" + traceback.format_exc()]
        if why:
            bad[op] = "; ".join(why)
    rounds = res["rounds"] + ([res["traced_round"]] if "traced_round" in res else [])
    for r in rounds[1:]:
        for op, digest in r["digests"].items():
            if digest != rounds[0]["digests"].get(op):
                bad.setdefault(op, "output differs between repeats of the same seed")
    return bad


def wall_s(rounds) -> float:
    """Sum over operations of the median of that operation's times."""
    return sum(statistics.median(r["times"][op] for r in rounds) for op in rounds[0]["times"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(checks.CHECKS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "zeroone" / "__init__.py").is_file():
        print(f"no zeroone package under {root / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env(root)
    try:
        probes = [] if args.trace else import_probes(root, env)
        res = run_child(root, env, args, out_dir / f"{stem}.child.json")
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1

    bad = verdicts(args.workload, res, program(root))
    unexpected = sorted(op for op in bad if op not in checks.KNOWN_FAULTS)
    n_ops = len(checks.CHECKS[args.workload])
    n_rounds = len(res["rounds"])
    wall = wall_s(res["rounds"])
    if args.trace:
        traced_wall = sum(res["traced_round"]["times"].values())
        values = dict(res["per_layer"], **{"trace.wall_s": traced_wall,
                                           "trace.overhead_s": traced_wall - wall})
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        values = {
            "wall_s": wall,
            "setup_s": (statistics.median([res["import_s"]] + probes)
                        + statistics.median(res["build_s"])),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = dict(END_TO_END)

    env_info = dict(res["versions"], nproc=os.cpu_count(), git_sha=git_sha(root))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_info, "rounds": n_rounds,
        "import_s": [res["import_s"]] + probes, "build_s": res["build_s"],
        "op_times": {op: [r["times"].get(op) for r in res["rounds"]]
                     for op in checks.CHECKS[args.workload]},
        "failed": bad, "unexpected_failures": unexpected, "metrics": values,
    }
    (out_dir / f"{stem}.result.json").write_text(json.dumps(report, indent=1))

    for op, why in sorted(bad.items()):
        tag = "known fault" if op in checks.KNOWN_FAULTS else "UNEXPECTED"
        print(f"failed [{tag}] {op}: {why}")
    print("env " + json.dumps(env_info, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": n_ops * n_rounds,
        "failed": len(bad) * n_rounds,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
