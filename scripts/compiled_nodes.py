#!/usr/bin/env python3
"""Count the AST nodes that the fresh starts of ``cli_mix`` passes compile.

    python scripts/compiled_nodes.py [--seeds 3801-3810] [--scale full|smoke]

Run from anywhere; it measures the checkout it lives in.  For every
invocation of the benchmark's ``cli_mix`` plan of each seed, one fresh
``python -X importtime -m picard_ranges ARGV`` lists the package modules
that start imports.  A start without bytecode caches compiles each of
them, so a start compiles the sum of their ``ast.walk`` node counts and a
pass the sum over its starts.  Prints the node count of each module, the
mean nodes per start of each command, and the nodes of each pass with
their total.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "picard_ranges"
sys.path.insert(0, str(ROOT / "benchmarks"))

from cli_mix import plan  # noqa: E402
from common import SCALES, load_reference  # noqa: E402


def module_nodes(name: str) -> int:
    """The AST node count of the package module ``name`` (``picard_ranges`` or
    ``picard_ranges.<module>``)."""
    short = name.partition(".")[2]
    path = PACKAGE / (f"{short}.py" if short else "__init__.py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def loaded(argv: list[str]) -> list[str]:
    """The package modules a fresh ``python -m picard_ranges ARGV`` imports."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PICARD_FIXTURES", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "picard_ranges", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    names = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:"))
    return sorted(n for n in names if n == "picard_ranges" or n.startswith("picard_ranges."))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("3801-3810"),
                        help="one seed or an inclusive range lo-hi (default 3801-3810)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    ref = load_reference()
    nodes: dict[str, int] = {}
    per_kind: dict[str, list[int]] = defaultdict(list)
    passes = []
    for seed in args.seeds:
        total = 0
        for call in plan(seed, SCALES[args.scale], ref):
            modules = loaded(call.argv)
            for name in modules:
                if name not in nodes:
                    nodes[name] = module_nodes(name)
            start = sum(nodes[name] for name in modules)
            per_kind[call.kind].append(start)
            total += start
        passes.append((seed, total))
    for name in sorted(nodes):
        print(f"module {name} {nodes[name]}")
    for kind in sorted(per_kind):
        starts = per_kind[kind]
        print(f"command {kind} {len(starts)} starts, {sum(starts) / len(starts):.0f} nodes each")
    for seed, total in passes:
        print(f"pass {seed} {total}")
    print(f"total {sum(total for _, total in passes)} nodes in {len(passes)} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
