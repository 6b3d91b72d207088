"""The scripts under ``scripts/`` run and print their verdicts."""
import re
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_connectivity_sweeps(capsys):
    runpy.run_path(str(SCRIPTS / "connectivity_sweeps.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert [re.sub(r" \(\d+\.\ds\)$", "", line) for line in lines] == [  # timings dropped
        "           3x3 swaps: 512 tables, 328 fibers, 328 components -> connected",
        "           3x4 swaps: 4096 tables, 1856 fibers, 1856 components -> connected",
        "           4x4 swaps: 65536 tables, 16145 fibers, 16145 components -> connected",
        "   4x4 diag-zero df1: 4096 tables, 2656 fibers, 2656 components -> connected",
        "   5x5 diag-zero df1: 1048576 tables, 225025 fibers, 225025 components -> connected",
    ]
