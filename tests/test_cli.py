import argparse
import csv
import hashlib
import importlib.util
import io
import json
import time
from pathlib import Path

import pytest

from picard_ranges.cli import COMMANDS, MAX_DIM, build_parser, run
from picard_ranges.decomp import parse

# stdout and exit code of a fixed list of invocations; regenerate with
# scripts/cli_golden.py --write
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


def _golden_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "cli_golden.py"
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
                                   ["--mode", "conservative"], ["--char", "0"],
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
    from picard_ranges.ranges import _core, _family_core, attainable

    _core.cache_clear()  # a fresh core: no earlier search built its candidate index
    _family_core.cache_clear()
    attainable.cache_clear()
    for flags in ([], ["--star"]):
        assert invoke(["range", "30", *flags])[0] == 0
    core = _core(30, builtin("paper", 30, CHAR_P), CHAR_P)
    assert "_fitting" not in vars(core)
    assert invoke(["range", "30", "--format", "json"])[0] == 0
    assert "_fitting" in vars(core)


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


@pytest.mark.parametrize("argv", [["range", "3", "--catalog"], ["verify", "--fixtures"]],
                         ids=["catalog", "fixtures"])
def test_deeply_nested_json_file_is_a_parse_error(argv, tmp_path):
    # the JSON decoder recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = invoke(argv + [str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)  # where the --catalog path starts
    code, out, _ = invoke(case["argv"])
    assert code == case["exit"]
    assert out == "".join(case["stdout"])


# sha256 of the stdout of commands at the largest dimension: the witness
# listings pin every witness byte at g = 100, and the other three the
# questions that read every dimension n <= 100
NORTH_STAR = [
    ("range 100 --format json", "79063eb107179c8e1a2e4354d829ad2f867cd934e5051b5d0b346c3a3ca68828"),
    ("range 100 --mode upper --format json",
     "4d93fc93a6e24f45d93c46c2668914fdc71284baf85c80a934b13b5672fa3f9c"),
    ("range 100 --star --format json", "25267ac793bc5985e78b590dd61223df4ce59e4eb2b4b514eb636a8194c55b53"),
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
                           [--mode {upper,paper,conservative}]
                           [--catalog CATALOG] [--star]
                           g

positional arguments:
  g

options:
  -h, --help            show this help message and exit
  --format {md,json,csv}
  --char {p,0}
  --p-split {split,nonsplit,unknown}
  --mode {upper,paper,conservative}
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
])
def test_range_with_malformed_catalog_entry_exits_3(tmp_path, entry, message):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([entry]))
    code, out, err = invoke(["range", "3", "--catalog", str(path)])
    assert (code, out) == (3, "")
    assert err == f"error: bad catalog entry #0: {message}\n"
