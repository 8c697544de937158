#!/usr/bin/env python3
"""Golden CLI output: stdout and exit code of a fixed list of invocations.

    python scripts/cli_golden.py            # compare against the golden file
    python scripts/cli_golden.py --write    # regenerate tests/data/cli_golden.json

The list covers every subcommand in each of the md/json/csv encodings,
the md branches that print ``(none)`` or a failed check, ``--star``,
``--char 0`` (with ``--p-split``, a precondition error), the non-default
catalog modes and a ``--catalog`` file with several single-class entries,
all with g <= 12 so that a replay stays fast.  tests/test_cli.py replays
the file byte for byte, from the repository root, where the ``--catalog``
path is resolved; a deliberate change of output is made by regenerating
it and reviewing the diff.  Run with the package importable (installed,
or ``PYTHONPATH=src``).
"""

import argparse
import io
import json
import os
import sys
from pathlib import Path

from picard_ranges.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
CATALOG = "tests/data/custom_catalog.json"  # relative to ROOT

INVOCATIONS = [
    ["rho", "ss^3 * cm^2 * ord"],
    ["rho", "[IV(1,2); dim=2]^2 * ord", "--format", "json"],
    ["rho", "cm*cm*ord", "--format", "csv"],
    ["rho", "ss^"],
    ["rho", "[IV(1); dim=2]"],
    ["rho", "[I(1,2); dim=2]"],
    ["range", "1"],
    ["range", "4"],
    ["range", "5", "--format", "json"],
    ["range", "6", "--format", "csv"],
    ["range", "6", "--star", "--format", "json"],
    ["range", "5", "--star", "--format", "csv"],
    ["range", "4", "--mode", "upper", "--format", "json"],
    ["range", "6", "--mode", "upper", "--format", "csv"],
    ["range", "6", "--mode", "upper", "--star"],
    ["range", "5", "--mode", "conservative", "--format", "json"],
    ["range", "4", "--p-split", "split", "--format", "json"],
    ["range", "3", "--char", "0", "--format", "json"],
    ["range", "6", "--char", "0", "--format", "csv"],
    ["range", "5", "--char", "0", "--p-split", "split"],
    ["range", "6", "--catalog", CATALOG],
    ["range", "6", "--catalog", CATALOG, "--format", "json"],
    ["range", "6", "--catalog", CATALOG, "--star", "--format", "csv"],
    ["range", "6", "--catalog", CATALOG, "--p-split", "split", "--format", "json"],
    ["range", "6", "--catalog", CATALOG, "--char", "0"],
    ["range", "0"],
    ["membership", "13", "5"],
    ["membership", "12", "4", "--format", "json"],
    ["membership", "5", "2", "--format", "csv"],
    ["membership", "30", "6", "--format", "json"],
    ["membership", "7", "3", "--char", "0", "--format", "json"],
    ["membership", "130", "12"],
    ["membership", "91", "12", "--format", "json"],
    ["gaps", "5"],
    ["gaps", "6", "--format", "json"],
    ["gaps", "4", "--char", "0", "--format", "csv"],
    ["gaps", "1"],
    ["gaps", "1", "--format", "csv"],
    ["max-by-length", "6"],
    ["max-by-length", "5", "--format", "json"],
    ["max-by-length", "4", "--format", "csv"],
    ["max-by-length", "0"],
    ["witness", "20", "6"],
    ["witness", "7", "4", "--format", "json"],
    ["witness", "20", "6", "--format", "csv"],
    ["density", "6"],
    ["density", "5", "--format", "csv"],
    ["density", "4", "--format", "json"],
    ["density", "12", "--char", "0"],
    ["density", "10", "--p-split", "split", "--format", "csv"],
    ["distribution", "5", "1"],
    ["distribution", "6", "1", "--format", "json"],
    ["distribution", "5", "1", "--format", "csv"],
    ["distribution", "7", "2", "--char", "0"],
    ["distribution", "7", "2", "--char", "0", "--format", "json"],
    ["conjecture", "4"],
    ["conjecture", "6", "--format", "json"],
    ["conjecture", "5", "--format", "csv"],
    ["conjecture", "5", "--char", "0"],
    ["nonadditivity", "5"],
    ["nonadditivity", "4", "--format", "csv"],
    ["nonadditivity", "5", "--format", "json"],
    ["nonadditivity", "2"],
    ["nonadditivity", "10", "--format", "csv"],
    ["nonadditivity", "8", "--char", "0"],
    ["nonadditivity", "7", "--p-split", "split"],
    ["moduli", "6", "--f", "3", "--r", "2"],
    ["moduli", "5", "--format", "json"],
    ["moduli", "6", "--f", "3", "--r", "2", "--format", "csv"],
    ["moduli", "5", "--format", "csv"],
    ["verify"],
    ["verify", "--format", "json"],
    ["verify", "--format", "csv"],
]


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    # stdout is stored line by line so that a diff of the file names the
    # lines that changed
    return {"argv": argv, "exit": code, "stdout": out.getvalue().splitlines(keepends=True)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden file")
    args = parser.parse_args()

    os.chdir(ROOT)
    cases = [invoke(argv) for argv in INVOCATIONS]
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(cases)} invocations to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = [case["argv"] for case, want in zip(cases, golden) if case != want]
    if len(golden) != len(cases):
        print(f"golden file holds {len(golden)} invocations, the list {len(cases)}")
    for argv in changed:
        print("changed:", " ".join(argv))
    return 1 if changed or len(golden) != len(cases) else 0


if __name__ == "__main__":
    sys.exit(main())
