import argparse
import csv
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
    (["distribution", "7", "2", "--char", "0"], ("check", "ok"),
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


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(case):
    code, out, _ = invoke(case["argv"])
    assert code == case["exit"]
    assert out == "".join(case["stdout"])


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
