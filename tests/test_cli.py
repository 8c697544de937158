import argparse
import contextlib
import csv
import gc
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from picard_ranges.cli import (COMMANDS, EXIT_BROKEN_PIPE, MAX_DIM, _plain_args, _UsageError,
                               build_parser, run)
from picard_ranges._grammar import parse

ROOT = Path(__file__).resolve().parent.parent

# stdout and exit code of a fixed list of invocations; regenerate with
# scripts/cli_golden.py --write
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


def _golden_script():
    path = ROOT / "scripts" / "cli_golden.py"
    spec = importlib.util.spec_from_file_location("cli_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_rho_command():
    code, out, _ = invoke(["rho", "ss^4"])
    assert code == 0 and out == "28\n"
    code, out, _ = invoke(["rho", "ss^3 * cm^2 * ord"])
    assert code == 0 and out == "20\n"


def test_rho_parse_error_is_usage():
    code, _, err = invoke(["rho", "ss^"])
    assert code == 2 and "parse error" in err
    code, _, err = invoke(["rho", "[I(0); dim=2]"])
    assert code == 3


@pytest.mark.parametrize("text", ["ss^{}", "[I(1); dim={}]", "[I({}); dim=2]"],
                         ids=["power", "dim", "label"])
def test_rho_with_an_integer_past_the_digit_limit_is_a_parse_error(text):
    # 4,301 digits: one past the interpreter's default limit for int()
    code, out, err = invoke(["rho", text.format("9" * 4301)])
    assert (code, out) == (2, "")
    assert err == "parse error: an integer has more digits than int() accepts (at position 0)\n"


@pytest.mark.parametrize("argv, field", [
    (["rho", "ss^" + "9" * 2200], "rho"),  # ss^n has rho 2n^2 - n
    (["rho", "[IV(1,1); dim={}]^{}".format("9" * 4290, "9" * 20)], "dim"),
    (["moduli", "9" * 4000], "dim_moduli"),  # g(g+1)/2
], ids=["rho", "rho dim", "moduli"])
@pytest.mark.parametrize("fmt", ["md", "json", "csv"])
def test_a_field_past_the_digit_limit_is_a_precondition_error(argv, field, fmt):
    # the arguments parse, but one field of the answer has more than the
    # interpreter's default 4,300 digits, so str() refuses it
    code, out, err = invoke(argv + ["--format", fmt])
    assert (code, out) == (3, "")
    assert err == f"error: {field} has more digits than str() accepts\n"


def test_range_command_defaults():
    code, out, _ = invoke(["range", "2"])
    assert code == 0 and out == "1 2 3 4 6\n"
    code, out, _ = invoke(["range", "3"])
    assert code == 0 and out == "1 2 3 4 5 6 7 9 15\n"
    code, out, _ = invoke(["range", "4"])
    assert code == 0 and out == "1 2 3 4 5 6 7 8 9 10 16 28\n"


def test_range_star_and_modes():
    code, out, _ = invoke(["range", "3", "--star"])
    assert code == 0 and out == "1 2 3 4 5 6 9\n"
    code, out, _ = invoke(["range", "4", "--mode", "upper"])
    assert out.split() == "1 2 3 4 5 6 7 8 9 10 12 16 28".split()
    code, out, _ = invoke(["range", "2", "--char", "0"])
    assert out == "1 2 3 4\n"


def test_range_json_schema():
    code, out, _ = invoke(["range", "2", "--format", "json"])
    payload = json.loads(out)
    assert payload["g"] == 2 and payload["char"] == "p" and payload["mode"] == "paper"
    assert [v["rho"] for v in payload["values"]] == [1, 2, 3, 4, 6]
    for v in payload["values"]:
        assert set(v) == {"rho", "status", "star", "witness"}
        assert v["status"] == "certified"
        assert isinstance(v["star"], bool)
    six = payload["values"][-1]
    assert six["witness"] == "ss^2" and six["star"] is False


# one invocation per subcommand: its csv columns, the JSON records its csv
# rows come from, and a record key whose values the md output shows
FORMAT_CASES = [
    (["rho", "ss^3 * cm^2 * ord"], ("decomp", "rho", "dim", "length", "ss_index"),
     lambda p: [p], "rho"),
    (["range", "2"], ("rho", "status", "star", "witness"), lambda p: p["values"], "rho"),
    (["membership", "13", "5"], ("rho", "g", "status", "witness"), lambda p: [p], "witness"),
    (["gaps", "5"], ("lo", "hi"), lambda p: p["gaps"], "hi"),
    (["max-by-length", "4"], ("r", "enumerated", "closed_form", "matches"),
     lambda p: p["lengths"], "enumerated"),
    (["witness", "20", "6"], ("n", "g", "witness", "rho", "dim"), lambda p: [p], "witness"),
    (["density", "4"], ("g", "count", "bound", "delta"), lambda p: p["densities"], "delta"),
    (["distribution", "7", "2"], ("check", "ok"),
     lambda p: [{"check": c, "ok": p[c]["ok"]} for c in ("distribution", "correspondence")], "check"),
    (["conjecture", "5", "--char", "0"], ("g", "ok", "rhs_only", "lower_only"), lambda p: [p], "g"),
    (["nonadditivity", "5"], ("a", "rho_a", "b", "rho_b", "sum"),
     lambda p: p["counterexamples"], "sum"),
    (["moduli", "6", "--f", "3"], ("g", "dim_moduli", "dim_supersingular_locus", "dim_p_rank_locus",
                                    "dim_large_picard_locus"), lambda p: [p], "dim_p_rank_locus"),
    (["verify"], ("label", "kind", "rho", "direction", "witness", "witness_ok", "documented"),
     lambda p: [{"label": f["label"], **d} for f in p["fixtures"] for d in f["diffs"]], "direction"),
]


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


@pytest.mark.parametrize("argv, columns, records, md_key", FORMAT_CASES,
                         ids=[case[0][0] for case in FORMAT_CASES])
def test_formats_encode_same_data(argv, columns, records, md_key):
    md_code, md, _ = invoke(argv)
    js_code, js, _ = invoke(argv + ["--format", "json"])
    cs_code, cs, _ = invoke(argv + ["--format", "csv"])
    assert md_code == js_code == cs_code
    want = records(json.loads(js))
    header, *rows = csv.reader(io.StringIO(cs))
    assert tuple(header) == columns
    assert len(rows) == len(want)
    for row, record in zip(rows, want):
        assert set(record) >= set(columns)
        assert row == [_csv_cell(record[c]) for c in columns]
        assert str(record[md_key]) in md


def test_format_cases_cover_every_command():
    assert sorted(case[0][0] for case in FORMAT_CASES) == sorted(cmd.name for cmd in COMMANDS)


@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_range_star_witnesses_are_supersingularity_free(mode):
    for g in range(1, 9):
        _, full, _ = invoke(["range", str(g), "--mode", mode, "--format", "json"])
        code, star, _ = invoke(["range", str(g), "--mode", mode, "--star", "--format", "json"])
        assert code == 0
        values = json.loads(star)["values"]
        assert [v["rho"] for v in values] == [v["rho"] for v in json.loads(full)["values"] if v["star"]]
        for v in values:
            d = parse(v["witness"])
            assert v["star"] and d.ss_index() == 0 and d.rho() == v["rho"] and d.dim() == g


def test_membership_and_exit_codes():
    code, out, _ = invoke(["membership", "6", "2"])
    assert code == 0 and out == "certified ss^2\n"
    code, out, _ = invoke(["membership", "5", "2"])
    assert code == 0 and out == "refuted\n"
    code, _, err = invoke(["membership", "7", "2"])  # above 2g^2-g
    assert code == 3
    code, _, err = invoke(["membership", "6"])
    assert code == 2


def test_p_split_under_char_zero_is_a_precondition_error():
    for argv in (["range", "5"], ["gaps", "4"], ["verify"]):
        code, out, err = invoke([*argv, "--char", "0", "--p-split", "split"])
        assert (code, out) == (3, "")
        assert err == "error: a p_split_policy makes no sense in characteristic zero\n"
    assert invoke(["range", "5", "--char", "0", "--p-split", "unknown"]) == invoke(
        ["range", "5", "--char", "0"])


@pytest.mark.parametrize("flags", [[], ["--star"], ["--mode", "upper"], ["--mode", "upper", "--star"],
                                   ["--p-split", "split"], ["--char", "0"],
                                   ["--p-split", "split", "--star"]], ids=" ".join)
def test_range_md_lists_the_values_of_the_json_output(flags):
    # md reads the value sets alone; json carries the witnessed values
    for g in (1, 5, 9):
        _, md, _ = invoke(["range", str(g), *flags])
        _, out, _ = invoke(["range", str(g), *flags, "--format", "json"])
        assert md == " ".join(str(v["rho"]) for v in json.loads(out)["values"]) + "\n"


def test_md_range_sweeps_no_witness():
    from picard_ranges.albert import CHAR_P
    from picard_ranges.catalog import builtin
    from picard_ranges.ranges import _core

    _core.cache_clear()  # a fresh core: no earlier search built its candidate index
    for flags in ([], ["--star"]):
        assert invoke(["range", "30", *flags])[0] == 0
    core = _core(30, builtin("paper", 30, CHAR_P), CHAR_P)
    assert core._fitting == ([], [0])  # the candidate index indexes nothing
    assert invoke(["range", "30", "--format", "json"])[0] == 0
    assert len(core._fitting[1]) == 31


@pytest.mark.parametrize("argv", [["rho", "ss"], ["range", "8", "--format", "csv"],
                                  ["range", "30", "--format", "json"]], ids=" ".join)
def test_a_closed_stdout_exits_without_a_traceback(argv):
    # a reader that has gone, as behind `| head -1`: the short output is
    # lost at exit, the long one in the middle of the write
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "picard_ranges", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")


def test_gaps_command():
    code, out, _ = invoke(["gaps", "2"])
    assert code == 0 and out == "5\n"
    code, out, _ = invoke(["gaps", "5"])
    assert out == "14 20-24 26-28 30-44\n"


def test_witness_command():
    code, out, _ = invoke(["witness", "20", "6"])
    assert code == 0 and out == "ss^3 * cm^2 * ord\n"
    code, _, err = invoke(["witness", "45", "5"])
    assert code == 3 and "inequality" in err


def test_density_command():
    code, out, _ = invoke(["density", "4"])
    lines = out.splitlines()
    assert lines[1] == "g=2 count=5 bound=6 delta=5/6"
    assert lines[2] == "g=3 count=9 bound=15 delta=9/15"
    assert lines[3] == "g=4 count=12 bound=28 delta=12/28"


def test_distribution_command():
    code, out, _ = invoke(["distribution", "12", "2"])
    assert code == 0
    assert "distribution g=12 ell=2: PASS" in out
    assert "correspondence g=12 ell=2: PASS" in out
    code, _, err = invoke(["distribution", "6", "2"])
    assert code == 3


def test_conjecture_and_nonadditivity_commands():
    code, out, _ = invoke(["conjecture", "4"])
    assert code == 0 and out == "conjecture g=4: MATCH\n"
    code, out, _ = invoke(["nonadditivity", "4"])
    assert out == "a=2 rho_a=6 b=2 rho_b=6 sum=12\n"


def test_moduli_command():
    code, out, _ = invoke(["moduli", "4", "--f", "2"])
    assert out == "dim_moduli=10 dim_supersingular_locus=4 dim_p_rank_locus=8\n"
    code, out, _ = invoke(["moduli", "10", "--r", "2"])
    assert "dim_large_picard_locus=19" in out
    code, _, _ = invoke(["moduli", "4", "--f", "9"])
    assert code == 3


def test_max_by_length_command():
    code, out, _ = invoke(["max-by-length", "4"])
    assert code == 0
    assert out.splitlines()[0] == "r=1 enumerated=28 closed_form=28"
    assert "MISMATCH" not in out


ABOVE_LIMIT = {"range": ["101"], "membership": ["5", "101"], "gaps": ["101"], "max-by-length": ["101"],
               "density": ["101"], "distribution": ["101", "1"], "conjecture": ["101"],
               "nonadditivity": ["101"]}


def test_dimension_limit_covers_the_enumeration_commands():
    assert MAX_DIM == 100
    assert sorted(ABOVE_LIMIT) == sorted(cmd.name for cmd in COMMANDS if cmd.dim)


@pytest.mark.parametrize("name", sorted(ABOVE_LIMIT))
def test_dimension_above_limit_exits_3_at_once(name):
    start = time.perf_counter()
    code, out, err = invoke([name, *ABOVE_LIMIT[name]])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and "above the dimension limit 100" in err


def test_distribution_with_ell_at_least_g_exits_3_at_once():
    for argv in (["distribution", "50", "100000"], ["distribution", "5", "5"]):
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == "" and "need g >= ell + 1" in err and "Traceback" not in err


def test_max_by_length_rejects_nonpositive_dimension():
    for g in ("0", "-2"):
        code, out, err = invoke(["max-by-length", g])
        assert code == 3 and out == "" and "g must be positive" in err


def test_verify_with_an_empty_fixtures_path_exits_2():
    # an empty path names no file, like any other missing one: no fallback
    # to the published tables
    for code, out, err in (invoke(["verify", "--fixtures", ""]),
                           invoke_fresh(["verify", "--fixtures", ""])):
        assert (code, out) == (2, "") and "Traceback" not in err, err


@pytest.mark.parametrize("argv", [["range", "3", "--catalog"], ["verify", "--fixtures"]],
                         ids=["catalog", "fixtures"])
def test_deeply_nested_json_file_is_a_parse_error(argv, tmp_path):
    # the JSON decoder recurses once per nesting level; in a fresh process
    # verify reads its file before it loads decomp, and the error is still 2
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    expected = (2, "", "parse error: arrays or objects nested too deeply\n")  # no place: the decoder gives none
    assert invoke(argv + [str(path)]) == expected
    assert invoke_fresh(argv + [str(path)]) == expected


@pytest.mark.parametrize("argv", [["range", "3", "--catalog"], ["verify", "--fixtures"]],
                         ids=["catalog", "fixtures"])
@pytest.mark.parametrize("content, message", [
    (b"\xff", "not UTF-8 at byte 0xff (invalid start byte): line 1 column 1 (char 0)"),
    (b"[1, 2, \xff]", "not UTF-8 at byte 0xff (invalid start byte): line 1 column 8 (char 7)"),
    (b'[\n "\xc3\xa9", \xe9]', "not UTF-8 at byte 0xe9 (invalid continuation byte): line 2 column 7 (char 8)"),
    (b"[" + b"9" * 5000 + b"]", "an integer has more digits than int() accepts"),
], ids=["not-utf-8", "not-utf-8-placed", "not-utf-8-second-line", "long-int"])
def test_an_undecodable_json_file_is_a_parse_error(argv, content, message, tmp_path):
    # a byte that is not UTF-8, placed by line and column of the text before
    # it, and an integer literal above the interpreter's 4,300-digit limit for
    # int(), which the decoder calls and which gives no place
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert invoke(argv + [str(path)]) == (2, "", f"parse error: {message}\n")
    assert invoke_fresh(argv + [str(path)]) == (2, "", f"parse error: {message}\n")


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(ROOT)  # where the --catalog path starts
    code, out, _ = invoke(case["argv"])
    assert code == case["exit"]
    assert out == "".join(case["stdout"])


def test_every_command_row_resolves_its_handler():
    for cmd in COMMANDS:
        handler = cmd.handler()
        assert callable(handler) and handler.__module__ == f"picard_ranges.{cmd.module}", cmd.name


def _first_golden_case_per_command_and_exit():
    first = {}
    for case in GOLDEN:
        first.setdefault((case["argv"][0], case["exit"]), case)
    assert list(dict.fromkeys(name for name, _ in first)) == [cmd.name for cmd in COMMANDS]
    assert {code for _, code in first} == {0, 2, 3, 4}
    return list(first.values())


def _fresh(*args):
    """``python ARGS`` in a fresh process started at the repository root."""
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, timeout=60)


def invoke_fresh(argv):
    """``invoke`` in a fresh ``python -m picard_ranges`` process, which loads
    only the modules its command needs; ``invoke`` runs where the session
    has loaded every module."""
    proc = _fresh("-m", "picard_ranges", *argv)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


@pytest.mark.parametrize("case", _first_golden_case_per_command_and_exit(),
                         ids=lambda case: " ".join(case["argv"]))
def test_golden_output_in_a_fresh_process(case):
    # the replay above loads every handler module into one process, where
    # an import cycle between cli and a handler module would not show; each
    # exit code goes through main and the interpreter's exit once per command
    proc = _fresh("-m", "picard_ranges", *case["argv"])
    assert proc.returncode == case["exit"]
    assert proc.stdout.decode("utf-8") == "".join(case["stdout"])


# registers an atexit probe, then runs main as the console script does
EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"probe: frozen {gc.get_freeze_count()}\\n"))
from picard_ranges.cli import main
main()
"""


@pytest.mark.parametrize("argv, code", [(["rho", "ss"], 0), (["range", "abc"], 2),
                                        (["range", "0"], 3), (["verify"], 4)],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_main_freezes_the_heap_and_still_runs_atexit(argv, code):
    proc = _fresh("-c", EXIT_PROBE, *argv)
    assert proc.returncode == code
    assert (code, proc.stdout.decode("utf-8")) == invoke(argv)[:2]
    last = proc.stderr.decode("utf-8").splitlines()[-1]
    assert last.startswith("probe: frozen ") and int(last.split()[-1]) > 0


def test_run_leaves_the_collector_unfrozen():
    before = gc.get_freeze_count()
    for argv in (["rho", "ss"], ["range", "abc"], ["range", "0"], ["verify"]):
        invoke(argv)
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", [["gaps", "5"], ["rho", "ss"], ["range", "4", "--format", "json"],
                                  ["range", "abc"], ["verify"]], ids=" ".join)
def test_the_cli_module_as_main_matches_the_package(argv):
    package, module = _fresh("-m", "picard_ranges", *argv), _fresh("-m", "picard_ranges.cli", *argv)
    assert (module.returncode, module.stdout, module.stderr) == \
        (package.returncode, package.stdout, package.stderr)


@pytest.mark.parametrize("argv", [["rho", "ss"], ["range", "abc"]], ids=" ".join)
def test_a_file_path_run_is_a_usage_error(argv):
    # outside the package no handler module can be imported
    proc = _fresh("src/picard_ranges/cli.py", *argv)
    err = proc.stderr.decode("utf-8")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "picard-ranges" in err and "python -m picard_ranges" in err


# sha256 of the stdout of commands at the largest dimension: the witness
# listings pin every witness byte at g = 100, and the other three the
# questions that read every dimension n <= 100
NORTH_STAR = [
    ("range 100 --format json", "eb5a5de74372ab948b5029992e00b4fcc74a0fb9007c22b38e0e823fb1f1e0ac"),
    ("range 100 --mode upper --format json",
     "08e2a93f1d02db48c1f5f123f953b0f389c187782a73a12a4e74d259ddce04e7"),
    ("range 100 --star --format json", "8d121be50896a402364cb5894d3b3b3b0d9c820933870237d6597b6e9829910f"),
    ("nonadditivity 100", "e4301df0d76c87b69af5cd15e90d02ebf6727c7027c5704e87eaebe129acfbad"),
    ("density 100 --format json", "3b9a56b9bfc66e4a30108a6681096bbc8aeff3832c6da87ffec58fd200545c82"),
    ("distribution 100 4 --format json",
     "6100f834da3ccafb99de4b391bf754d1821c2e8b97f379e4429ccb80da480e10"),
    ("max-by-length 100 --format json",
     "c9ab3c09b94b10ada4781b1bbf3b2bfed5a8d6701a4d1a07af7a4a096d3e63ac"),
    # md range prints the values alone, with no witness sweep
    ("range 100", "8bd9472992c5ce79ce36de85465707211941cc101330ff71717ecf7300b33248"),
    ("range 100 --mode upper", "7ea78456b113e7ec6a8ac8ed3a73fe9e039d264ddf1efdc8aa8e4898787d9f44"),
    ("range 100 --star", "336034764685c6e199d3ad8d788fed86c4748e489912bb262d1b6f4849940f13"),
]


@pytest.mark.parametrize("command, digest", NORTH_STAR, ids=[c for c, _ in NORTH_STAR])
def test_north_star_witness_bytes(command, digest):
    code, out, err = invoke(command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_golden_covers_every_command_in_every_format():
    invocations = _golden_script().INVOCATIONS
    assert [case["argv"] for case in GOLDEN] == invocations
    covered = {(argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "md")
               for argv in invocations}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.choices
    for name in sub.choices:
        for fmt in ("md", "json", "csv"):
            assert (name, fmt) in covered, f"{name} --format {fmt} is not in the golden list"


def test_range_mode_choices_are_the_built_in_modes():
    # cli spells the modes out, so that a start need not import catalog
    from picard_ranges.catalog import BUILTIN_MODES

    sub = next(a for a in build_parser("range")._actions if isinstance(a, argparse._SubParsersAction))
    mode = next(a for a in sub.choices["range"]._actions if a.dest == "mode")
    assert tuple(mode.choices) == BUILTIN_MODES


def test_unknown_command_is_usage_error():
    code, _, err = invoke(["frobnicate", "2"])
    assert code == 2


TOP_HELP = """\
usage: picard-ranges [-h]
                     {rho,range,membership,gaps,max-by-length,witness,density,distribution,conjecture,nonadditivity,moduli,verify}
                     ...

Attainable Picard numbers of abelian varieties

positional arguments:
  {rho,range,membership,gaps,max-by-length,witness,density,distribution,conjecture,nonadditivity,moduli,verify}
    rho                 Picard number of a decomposition
    range               attainable set for one dimension
    membership          certified / refuted / undetermined status of a value
    gaps                refuted intervals
    max-by-length       largest value per number of isogeny factors
    witness             constructive witness for a value in a dimension
    density             certified-set density per dimension
    distribution        top-of-range block distribution and index
                        correspondence
    conjecture          recursive description versus enumeration
    nonadditivity       sums of attainable values that are not attainable
    moduli              printed moduli dimension formulas
    verify              compare computed tables against the published ones

options:
  -h, --help            show this help message and exit
"""

RANGE_HELP = """\
usage: picard-ranges range [-h] [--format {md,json,csv}] [--char {p,0}]
                           [--p-split {split,nonsplit,unknown}]
                           [--mode {upper,paper}] [--catalog CATALOG] [--star]
                           g

positional arguments:
  g

options:
  -h, --help            show this help message and exit
  --format {md,json,csv}
  --char {p,0}
  --p-split {split,nonsplit,unknown}
  --mode {upper,paper}
  --catalog CATALOG     path to a JSON catalog overriding --mode
  --star                only supersingularity-free values
"""

RHO_HELP = """\
usage: picard-ranges rho [-h] [--format {md,json,csv}] decomp

positional arguments:
  decomp

options:
  -h, --help            show this help message and exit
  --format {md,json,csv}
"""

CHOICES = ", ".join(repr(c.name) for c in COMMANDS)

# (argv, exit code, stderr, what argparse prints to sys.stdout); run's out
# stays empty on every one of these paths
USAGE_PATHS = [
    ([], 2, "error: the following arguments are required: command\n", ""),
    (["-h"], 0, "", TOP_HELP),
    (["range", "-h"], 0, "", RANGE_HELP),
    (["rho", "-h"], 0, "", RHO_HELP),
    (["frobnicate", "2"], 2,
     f"error: argument command: invalid choice: 'frobnicate' (choose from {CHOICES})\n", ""),
    (["range", "abc"], 2, "error: argument g: invalid int value: 'abc'\n", ""),
    (["range", "5", "--mode", "conservative"], 2,
     "error: argument --mode: invalid choice: 'conservative' (choose from 'upper', 'paper')\n", ""),
    (["range", "3", "extra"], 2, "error: unrecognized arguments: extra\n", ""),
    (["membership", "5"], 2, "error: the following arguments are required: g\n", ""),
    (["gaps", "3", "--format", "xml"], 2,
     "error: argument --format: invalid choice: 'xml' (choose from 'md', 'json', 'csv')\n", ""),
    (["range", "3", "--catalog", "{bad}"], 2,
     "parse error: Expecting property name enclosed in double quotes: line 1 column 11 (char 10)\n",
     ""),
]


@pytest.mark.parametrize("argv, code, err, printed", USAGE_PATHS,
                         ids=[" ".join(argv) or "(none)" for argv, *_ in USAGE_PATHS])
def test_usage_help_and_parse_error_bytes(argv, code, err, printed, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1,', encoding="utf-8")
    assert invoke([str(bad) if a == "{bad}" else a for a in argv]) == (code, "", err)
    assert capsys.readouterr().out == printed


def _argparse_args(argv):
    """``vars()`` of the namespace ``run``'s argparse parser returns for
    ``argv``, or ``None`` where it raises a usage error or prints help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser(argv[0] if argv else None).parse_args(argv))
        except (_UsageError, SystemExit):
            return None


_FLAGS = sorted({flag for cmd in COMMANDS for flag, _ in cmd.arguments() if flag.startswith("-")})
_CHOICES = sorted({c for cmd in COMMANDS for _, kw in cmd.arguments() for c in kw.get("choices", ())})
_INTS = ["0", "1", "3", "5", "12", "40", "101", "-3", "1_0", " 7", "\u0663", "+4", "9" * 4301]
TOKENS = st.sampled_from(
    [cmd.name for cmd in COMMANDS] + ["frobnicate", "Range", "gap"]
    + _FLAGS + sorted({f[:k] for f in _FLAGS for k in range(3, len(f))})
    + ["--format=json", "-h", "--help", "--", "-"]
    + _CHOICES + ["xml", "conservative", "P", "Split"]
    + _INTS + ["ss", "cm * ss", "ss^2 * ord", "abc", "-x", "-ss", "--star2", ""])


@st.composite
def _plain_lines(draw):
    """A command name, then each of its positionals and a random subset of
    its flags, with values from the token alphabet, in a random order."""
    cmd = draw(st.sampled_from(COMMANDS))
    words = []
    for flag, keywords in cmd.arguments():
        if not flag.startswith("-"):
            words.append([draw(st.sampled_from(_INTS + ["ss * cm"]))])
        elif keywords.get("action"):
            words.append([flag] * draw(st.integers(0, 1)))
        elif draw(st.booleans()):
            values = keywords.get("choices") or _INTS + ["abc", "-x", "--star"]
            words.append([flag, draw(st.sampled_from(values))])
    return [cmd.name] + [w for group in draw(st.permutations(words)) for w in group]


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.lists(TOKENS, max_size=7), _plain_lines(),
                 st.builds(lambda line, extra: line + extra, _plain_lines(),
                           st.lists(TOKENS, min_size=1, max_size=2))))
@example(["range", "5", "--catalog", "--star"])  # argparse: --catalog expects one argument
@example(["moduli", "4", "--f", "-3"])  # argparse: f = -3
@example(["gaps", "5", "--format=json"])
@example(["range", "5", "--form", "json"])
@example(["rho", "--", "-ss"])
def test_the_plain_parse_returns_argparse_namespace_or_none(argv):
    plain = _plain_args(argv)
    assert plain is None or vars(plain) == _argparse_args(argv)


def test_every_golden_line_argparse_accepts_takes_the_plain_path():
    # the plain path is the start-up gain: no argparse, gettext or locale
    refused = []
    for argv in _golden_script().INVOCATIONS:
        expected, plain = _argparse_args(argv), _plain_args(argv)
        assert (None if plain is None else vars(plain)) == expected, argv
        if expected is None:
            refused.append(argv)
    assert refused == [["range", "5", "--mode", "conservative"]]


@pytest.mark.parametrize("argv", [["rho", "ss"], ["witness", "40", "20"], ["moduli", "6", "--f", "2"]],
                         ids=" ".join)
def test_a_command_without_char_gets_no_char_in_either_parse(argv):
    # so run builds no CharContext for it, and moduli loads no albert
    for namespace in (vars(_plain_args(argv)), _argparse_args(argv)):
        assert not namespace.keys() & {"char", "p_split"}


def test_outputs_are_deterministic():
    for argv in (["range", "5", "--format", "json"], ["verify"], ["gaps", "6"]):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_range_with_custom_catalog(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([
        {"dim": 1, "type": "I(1)", "classes": "unbounded"},
        {"dim": 1, "type": "III(1)", "classes": "one"},
    ]))
    code, out, _ = invoke(["range", "3", "--catalog", str(path)])
    assert code == 0 and out == "3 4 6 7 15\n"
    code, _, err = invoke(["range", "3", "--catalog", str(tmp_path / "missing.json")])
    assert code == 3 or code == 2


@pytest.mark.parametrize("entry, message", [
    ({"dim": 1, "type": 5}, "malformed Albert type 5"),
    ({"dim": 2.7, "type": "I(1)"}, "dim must be an integer, not 2.7"),
    ({"dim": True, "type": "I(1)"}, "dim must be an integer, not True"),
    ({"dim": 2, "type": "IV(1)"}, "type IV needs two parameters"),
])
def test_range_with_malformed_catalog_entry_exits_3(tmp_path, entry, message):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([entry]))
    code, out, err = invoke(["range", "3", "--catalog", str(path)])
    assert (code, out) == (3, "")
    assert err == f"error: bad catalog entry #0: {message}\n"
