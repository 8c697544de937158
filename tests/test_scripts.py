"""The scripts under scripts/ run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def run_script(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["reproduce_tables.py"],
    ["top_of_range.py", "5", "6"],
    ["density_scan.py", "6"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


# Multi-g scans: each process sweeps the witnesses of every dimension in
# turn, so these outputs judge the witnesses a core reuses across g.
@pytest.mark.parametrize("argv, pinned", [
    (["top_of_range.py", "5", "12"], "script_top_of_range_5_12.txt"),
    (["density_scan.py", "25"], "script_density_scan_25.txt"),
    (["reproduce_tables.py"], "script_reproduce_tables.txt"),
], ids=["top_of_range", "density_scan", "reproduce_tables"])
def test_script_output_is_pinned(argv, pinned):
    proc = run_script(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (DATA / pinned).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["top_of_range.py", "5", "6", "--top", "0"],
    ["top_of_range.py", "5", "6", "--top", "-1"],
    ["top_of_range.py", "5", "3"],
    ["top_of_range.py", "0", "3"],
    ["top_of_range.py", "5", "101"],
    ["density_scan.py", "0"],
    ["density_scan.py", "101"],
    ["density_scan.py", "1000"],
    ["reproduce_tables.py", "--fixtures", str(DATA / "no_such_file.json")],
    ["reproduce_tables.py", "--fixtures", str(DATA / "custom_catalog.json")],
    ["reproduce_tables.py", "--fixtures", str(DATA / "fixture_above_dimension_limit.json")],
], ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_script_refuses_bad_arguments(argv):
    proc = run_script(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "Traceback" not in proc.stderr, proc.stderr
