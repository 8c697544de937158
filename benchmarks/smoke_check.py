#!/usr/bin/env python3
"""Smoke check of the benchmark harness itself, kept out of the tier-1
suite (pytest does not collect this file):

    python3 benchmarks/smoke_check.py

Runs every workload at its smoke size, untraced and traced, and checks
that each run exits 0 and ends in a result line carrying exactly the
metrics BENCHMARK.json names, each with its unit, and a correct answer.
Then checks that the benchmark refuses to run, without a result line, in
a directory holding only BENCHMARK.json and the benchmark's own files.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from common import BENCH, ROOT, WORKLOADS, python_child, run_child


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    res = run_child(python_child(str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
                                 "--seconds", "0", "--trace", str(trace), "--scale", "smoke"),
                    timeout=300)
    where = f"{workload} --trace {trace}"
    lines = res.stdout.decode().splitlines()
    if res.code != 0 or not lines:
        return [f"{where}: exit {res.code}\n{res.stderr.decode()[-2000:]}"]
    out = json.loads(lines[-1])
    errors = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(out)}")
    if out.get("correct") is not True or not out.get("attempted", 0) >= 1:
        errors.append(f"{where}: correct={out.get('correct')} attempted={out.get('attempted')}")
    if not any(line.startswith("# failed_ratio = ") and " ratio " in line for line in lines):
        errors.append(f"{where}: no failed_ratio line")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in out.get("metrics", {}).items()}
    if got != wanted:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
                      f"units {sorted((k, got[k], wanted[k]) for k in set(got) & set(wanted) if got[k] != wanted[k])}")
    bad = [name for name, m in out.get("metrics", {}).items()
           if not isinstance(m.get("value"), (int, float))]
    if bad:
        errors.append(f"{where}: non-numeric values {bad}")
    return errors


def check_refuses_without_program(spec: dict) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        res = run_child(spec["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                           "--seconds", "1", "--trace", "0"],
                        timeout=180, cwd=Path(tmp))
    lines = res.stdout.decode().splitlines()
    if res.code == 0 or (lines and lines[-1].startswith("{")):
        return [f"without the program: exit {res.code}, stdout {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
    errors += check_refuses_without_program(spec)
    for error in errors:
        print("FAIL", error)
    print("smoke check:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
