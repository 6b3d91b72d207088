"""``scripts/bench_ab.py`` collects A/B benchmark runs into one report.

The connectivity sweeps run as ``zeroone connect --sweep``; their verdicts
are checked in ``test_acceptance.py`` and ``test_cli.py``."""
import json
import os
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def fake_runs(directory, seeds, metrics, op_times, failed, mtimes, setups=None):
    """One ``*-trace0.result.json`` per seed of workload ``w``, as
    ``perfbench/run.py --trace 0`` leaves them, with the given mtimes;
    ``setups`` gives each run's ``(import_s, build_s)`` lists."""
    directory.mkdir()
    setups = setups or [([0.1], [0.1])] * len(seeds)
    for seed, m, ops, fail, mtime, (imports, builds) in zip(seeds, metrics, op_times, failed,
                                                            mtimes, setups):
        path = directory / f"w-seed{seed}-trace0.result.json"
        path.write_text(json.dumps({
            "workload": "w", "seed": seed, "env": {"python": "3", "git_sha": str(directory)},
            "rounds": 2, "op_times": ops, "failed": fail, "import_s": imports, "build_s": builds,
            "metrics": dict(zip(("wall_s", "setup_s", "peak_rss_mb"), m)),
        }))
        os.utime(path, (mtime, mtime))


def test_bench_ab(tmp_path):
    main = runpy.run_path(str(SCRIPTS / "bench_ab.py"))["main"]
    ops = [{"a": [1.0, None, 3.0], "b": [5.0]}, {"a": [4.0], "b": [7.0]}]
    # the parent ran first for seed 1 and second for seed 2
    fake_runs(tmp_path / "parent", [1, 2], [(1.0, 0.2, 40.0), (3.0, 0.4, 42.0)], ops,
              [{}, {}], [100, 300],
              [([0.25, 0.75, 0.5], [0.25]), ([0.125, 0.25, 1.0], [0.5, 1.0])])
    fake_runs(tmp_path / "change", [1, 2], [(0.5, 0.3, 41.0), (1.5, 0.3, 41.0)],
              [{"a": [1.0], "b": [1.0]}, {"a": [3.0], "b": [2.0, 4.0]}], [{}, {"b": "error"}],
              [200, 250], [([0.5, 0.5, 0.25], [0.125, 0.375]), ([1.0, 0.75, 0.25], [0.25])])
    (tmp_path / "p.txt").write_text("....\n705 passed in 27.00s\n")
    (tmp_path / "c.txt").write_text("..F.\n=== 703 passed, 2 failed, 1 skipped in 30.50s ===\n")
    out = tmp_path / "BENCH.json"
    assert main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                 "--tier1", str(tmp_path / "p.txt"), str(tmp_path / "c.txt"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["parent"]["git_sha"] == str(tmp_path / "parent")
    w = report["workloads"]["w"]
    assert w["seeds"] == [1, 2] and w["parent_ran_first"] == 1
    assert w["attempted_per_run"] == {"parent": [4, 4], "change": [4, 4]}
    assert w["failed"] == {"parent": [], "change": ["b"]}
    wall = w["metrics"]["wall_s"]
    # two runs: the inclusive quartiles lie a quarter of the way from each end
    assert wall["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5, "runs": [1.0, 3.0]}
    assert wall["change"] == {"median": 1.0, "q1": 0.75, "q3": 1.25, "runs": [0.5, 1.5]}
    assert wall["ratio_of_medians"] == 0.5 and wall["change_lower_in"] == "2 of 2"
    assert w["metrics"]["setup_s"]["change_lower_in"] == "1 of 2"
    assert w["metrics"]["peak_rss_mb"]["ratio_of_medians"] == 1.0
    # the parent's (Q3 - Q1) / median against each metric's bound in BENCHMARK.json
    assert wall["parent_spread"] == 0.5 and not wall["resolved"]
    assert w["metrics"]["peak_rss_mb"]["parent_spread"] == 1 / 41
    assert w["metrics"]["peak_rss_mb"]["resolved"]
    # per run the median of its import probes and of its builds, then the median of the runs
    assert w["setup_split"] == {"import_s": {"parent": 0.375, "change": 0.625},
                                "build_s": {"parent": 0.5, "change": 0.25}}
    # per run the median of the timed rounds, then the median of the runs
    assert w["op_medians"] == {"a": {"parent": 3.0, "change": 2.0},
                               "b": {"parent": 6.0, "change": 2.0}}
    assert report["tier1"] == {"parent": {"seconds": 27.0, "passed": 705},
                               "change": {"seconds": 30.5, "passed": 703, "failed": 2,
                                          "skipped": 1}}
    assert "traced" not in report


def test_bench_ab_resolves_a_wide_spread_only_when_every_change_run_is_better(tmp_path):
    main = runpy.run_path(str(SCRIPTS / "bench_ab.py"))["main"]
    ops = [{"a": [1.0]}] * 3
    fake_runs(tmp_path / "parent", [1, 2, 3], [(1.0, 0.125, 40.0), (2.0, 0.25, 40.0),
                                               (3.0, 0.375, 40.0)], ops, [{}] * 3, [100, 300, 500])
    # wall_s: every change run is lower; setup_s: one change run is not
    fake_runs(tmp_path / "change", [1, 2, 3], [(0.5, 0.0625, 40.0), (0.75, 0.125, 40.0),
                                               (0.9, 0.375, 40.0)], ops, [{}] * 3, [200, 400, 600])
    out = tmp_path / "BENCH.json"
    assert main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                 "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
    assert metrics["wall_s"]["parent_spread"] == 0.5 and metrics["wall_s"]["resolved"]
    assert metrics["setup_s"]["parent_spread"] == 0.5 and not metrics["setup_s"]["resolved"]
    assert metrics["peak_rss_mb"]["parent_spread"] == 0 and metrics["peak_rss_mb"]["resolved"]


def test_bench_ab_records_traced_runs_of_both_sides(tmp_path):
    main = runpy.run_path(str(SCRIPTS / "bench_ab.py"))["main"]
    for side, seeds, mtime in (("parent", [1], 100), ("change", [1], 200)):
        fake_runs(tmp_path / side, seeds, [(1.0, 0.2, 40.0)], [{"a": [1.0]}], [{}], [mtime])
    for side, seed, rate in (("parent", 9, 2e6), ("change", 9, 4e6), ("change", 8, 1.0)):
        (tmp_path / side / f"w-seed{seed}-trace1.result.json").write_text(json.dumps({
            "workload": "w", "seed": seed, "metrics": {"sampler.steps_per_s": rate}}))
    out = tmp_path / "BENCH.json"
    assert main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["workloads"]["w"]["seeds"] == [1]  # traced runs are no A/B pair
    assert report["traced"] == {"w-seed9": {"parent": {"sampler.steps_per_s": 2e6},
                                            "change": {"sampler.steps_per_s": 4e6}}}


def test_bench_ab_without_common_runs(tmp_path, capsys):
    main = runpy.run_path(str(SCRIPTS / "bench_ab.py"))["main"]
    fake_runs(tmp_path / "parent", [1], [(1.0, 0.2, 40.0)], [{"a": [1.0]}], [{}], [100])
    fake_runs(tmp_path / "change", [2], [(1.0, 0.2, 40.0)], [{"a": [1.0]}], [{}], [200])
    out = tmp_path / "BENCH.json"
    assert main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                 "--out", str(out)]) == 1
    assert not out.exists() and "no (workload, seed) run on both sides" in capsys.readouterr().err
