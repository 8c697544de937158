"""What a fresh start loads, and the lazy public names of the package."""

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
    assert "picard_ranges.asymptotics" in imported and "fractions" not in imported


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
