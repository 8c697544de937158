"""The scripts under scripts/ run against the current package, and every
package name that they and the benchmark read resolves."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import picard_ranges

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
    ["compiled_nodes.py", "--seeds", "3801", "--scale", "smoke"],
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


def _package_names():
    """(file, module, name) for every package name that the files of benchmarks/
    and scripts/ read, found by walking their syntax trees: each
    ``from picard_ranges... import name``, each ``alias.name`` read of an
    ``import picard_ranges as alias`` or of a submodule bound by
    ``from picard_ranges import submodule``, and each ``("picard_ranges...",
    "name")`` pair of strings in a tuple, as the tracer's ``TIMED`` table holds."""
    for path in sorted([*ROOT.glob("benchmarks/*.py"), *ROOT.glob("scripts/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        file = path.relative_to(ROOT).as_posix()
        modules = {alias.asname or alias.name: "picard_ranges" for node in nodes
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "picard_ranges"}
        modules.update({alias.asname or alias.name: f"picard_ranges.{alias.name}" for node in nodes
                        if isinstance(node, ast.ImportFrom) and node.module == "picard_ranges"
                        for alias in node.names if alias.name not in picard_ranges.__all__})
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module and not node.level \
                    and node.module.partition(".")[0] == "picard_ranges":
                yield from ((file, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                yield file, modules[node.value.id], node.attr
            elif isinstance(node, ast.Tuple):
                strings = [e.value if isinstance(e, ast.Constant) else None for e in node.elts]
                yield from ((file, module, name) for module, name in zip(strings, strings[1:])
                            if isinstance(module, str) and isinstance(name, str)
                            and module.partition(".")[0] == "picard_ranges" and name.isidentifier())


PACKAGE_NAMES = sorted(set(_package_names()))


def test_the_benchmark_and_the_scripts_read_package_names():
    # the scan below finds something to check: the benchmark's answer checks
    # parse witnesses through decomp, and its workers call the package names
    assert ("benchmarks/cli_mix.py", "picard_ranges.decomp", "parse") in PACKAGE_NAMES
    assert ("benchmarks/worker.py", "picard_ranges", "attainable") in PACKAGE_NAMES
    # the tracer's TIMED table and its reads of the submodules it imports
    assert ("benchmarks/tracer.py", "picard_ranges.ranges", "structure_witnesses") in PACKAGE_NAMES
    assert ("benchmarks/tracer.py", "picard_ranges.catalog", "blocks_for_dim") in PACKAGE_NAMES


@pytest.mark.parametrize("path, module, name", PACKAGE_NAMES,
                         ids=[f"{path} {module}.{name}" for path, module, name in PACKAGE_NAMES])
def test_every_package_name_in_the_benchmark_and_the_scripts_resolves(path, module, name):
    # a broken name would show only as a failed benchmark operation
    namespace = {}
    exec(f"from {module} import {name} as value", namespace)  # a submodule name too
    if name in picard_ranges.__all__ or name in picard_ranges._EXPORTS:
        assert namespace["value"] is getattr(picard_ranges, name)
