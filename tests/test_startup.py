"""What a fresh start loads and holds, and the lazy public names of the package."""

import argparse
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import picard_ranges

ROOT = Path(__file__).resolve().parent.parent
HEAVY = {"ranges", "catalog", "asymptotics", "verify"}


def _imported(*args):
    """Every module a fresh ``python -X importtime ARGS`` imports."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=env, capture_output=True, text=True, timeout=60)
    return {line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def _loaded(*args):
    """The picard_ranges submodules a fresh ``python -X importtime ARGS``
    imports, by their short names."""
    return {name.removeprefix("picard_ranges.") for name in _imported(*args)
            if name.startswith("picard_ranges.")}


def test_import_loads_no_submodule():
    assert _loaded("-c", "import picard_ranges") == set()


@pytest.mark.parametrize("argv", [["rho", "cm * ss"], ["range", "abc"]], ids=" ".join)
def test_rho_and_usage_errors_load_no_enumeration_module(argv):
    loaded = _loaded("-m", "picard_ranges", *argv)
    assert "cli" in loaded and not loaded & HEAVY


def test_range_loads_neither_asymptotics_nor_verify():
    loaded = _loaded("-m", "picard_ranges", "range", "4")
    assert {"ranges", "catalog"} <= loaded and not loaded & {"asymptotics", "verify"}


@pytest.mark.parametrize("argv", [["rho", "cm * ss"], ["range", "abc"], ["range", "4"],
                                  ["witness", "40", "20"]], ids=" ".join)
def test_cli_loads_neither_dataclasses_nor_inspect(argv):
    # the value types are NamedTuples and slotted classes, whose import
    # costs no dataclasses (nor the inspect, ast and dis it pulls in)
    imported = _imported("-m", "picard_ranges", *argv)
    assert "picard_ranges.cli" in imported
    assert not imported & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [["witness", "40", "20"], ["moduli", "6", "--f", "2"]],
                         ids=" ".join)
def test_asymptotics_commands_load_no_fractions(argv):
    imported = _imported("-m", "picard_ranges", *argv)
    assert "picard_ranges.formulas" in imported and "fractions" not in imported


@pytest.mark.parametrize("argv", [["witness", "40", "20"], ["moduli", "6"]], ids=" ".join)
def test_formula_commands_load_neither_ranges_nor_catalog(argv):
    loaded = _loaded("-m", "picard_ranges", *argv)
    assert "formulas" in loaded and not loaded & HEAVY


@pytest.mark.parametrize("argv", [["rho", "cm * ss"], ["membership", "13", "5"], ["gaps", "5"]],
                         ids=" ".join)
def test_md_output_loads_neither_json_nor_csv(argv):
    imported = _imported("-m", "picard_ranges", *argv)
    assert "picard_ranges.cli" in imported and not imported & {"json", "csv"}


@pytest.mark.parametrize("argv", [["membership", "13", "5"], ["gaps", "5"], ["range", "5"]],
                         ids=" ".join)
def test_enumeration_commands_load_no_formulas(argv):
    # the core's two closed forms live in decomp, which every start loads
    loaded = _loaded("-m", "picard_ranges", *argv)
    assert "ranges" in loaded and "formulas" not in loaded


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_a_command_name_builds_its_subparser_alone():
    from picard_ranges.cli import COMMANDS, build_parser

    assert list(_subcommands(build_parser("rho"))) == ["rho"]
    assert list(_subcommands(build_parser())) == [cmd.name for cmd in COMMANDS]
    assert len(COMMANDS) == 12


def test_moved_formulas_are_one_object_under_every_name():
    from picard_ranges import asymptotics, formulas, ranges

    for name in picard_ranges._EXPORTS["formulas"]:  # the package's names: see the test below
        assert getattr(asymptotics, name) is getattr(formulas, name), name
    assert ranges.max_picard is formulas.max_picard and ranges.ss_rho is formulas.ss_rho


# Runs one command with its stdout discarded and prints the process's own
# peak resident set (VmHWM, kB).  wait4's ru_maxrss would not do: it also
# counts the parent's image from before the exec.
_PEAK_CHILD = """
import io, sys
from picard_ranges.cli import run
assert run(sys.argv[1:], io.StringIO()) == 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def _peak_kb(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *argv],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return int(proc.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_md_range_100_peak_stays_near_the_start_up_floor():
    # md range prints the core's value bitset and builds no set per value;
    # the g = 100 core holds a few MB, well inside the 8 MB allowed
    floor = _peak_kb("rho", "ss")
    assert _peak_kb("range", "100") - floor <= 8 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_json_witness_listing_at_100_has_a_bounded_peak():
    # Every value of the g = 100 upper set with its witness, encoded as
    # json: the child peaked at 32.6 MB above a rho ss child (3 runs,
    # 2-vCPU x86_64, CPython 3.11); 38 MB leaves 16% headroom.
    floor = _peak_kb("rho", "ss")
    assert _peak_kb("range", "100", "--mode", "upper", "--format", "json") - floor <= 38 * 1024


def test_public_names_are_the_submodule_objects():
    for module, names in picard_ranges._EXPORTS.items():
        submodule = importlib.import_module(f"picard_ranges.{module}")
        if module not in picard_ranges.__all__:  # picard_ranges.verify is the function
            assert getattr(picard_ranges, module) is submodule
        for name in names:
            assert getattr(picard_ranges, name) is getattr(submodule, name), name
    # no name is listed under two modules
    assert len(picard_ranges.__all__) == sum(map(len, picard_ranges._EXPORTS.values()))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from picard_ranges import *", namespace)
    for name in picard_ranges.__all__:
        assert namespace[name] is getattr(picard_ranges, name), name
    assert set(picard_ranges.__all__) <= set(dir(picard_ranges))


def test_verify_is_the_function_after_its_module_is_imported():
    from picard_ranges.verify import verify
    import picard_ranges.verify as imported

    assert picard_ranges.verify is verify and imported is verify
    assert "verify" not in vars(picard_ranges)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        picard_ranges.no_such_name
    assert not hasattr(picard_ranges, "no_such_name")


def test_a_rebound_submodule_name_is_visible_through_the_package(monkeypatch):
    from picard_ranges import ranges

    def replacement(*args):
        return []

    monkeypatch.setattr(ranges, "gaps", replacement)
    assert picard_ranges.gaps is replacement
