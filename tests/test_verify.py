import importlib
import io
import json
import re
from pathlib import Path

import pytest

from picard_ranges.catalog import _load_json as load_json
from picard_ranges.cli import run
from picard_ranges.decomp import parse
from picard_ranges.ranges import _core
from picard_ranges.verify import load_allowlist, load_fixtures, verify

# (fixture, kind, rho) -> direction expected from comparing the computed
# tables with the published ones
EXPECTED_DIFFS = {
    ("R_4", "star", 8): "computed-star",
    ("R_5", "value", 13): "computed-only",
    ("R_5", "value", 16): "computed-only",
    ("R_5", "value", 18): "computed-only",
    ("R_5", "value", 19): "computed-only",
    ("R_5", "star", 12): "computed-star",
    ("R_5", "star", 17): "computed-star",
    ("R_6", "star", 22): "published-star",
    ("R_6", "star", 26): "computed-star",
}


def test_fixtures_well_formed():
    fixtures = load_fixtures()
    assert [f.label for f in fixtures] == ["R_2", "R_3", "R_4", "R_5", "R_6"]
    for f in fixtures:
        assert list(f.values) == sorted(set(f.values))
        assert set(f.star) <= set(f.values)


def test_verify_report_matches_expected_diffs():
    report = verify()
    got = {(d.label, d.kind, d.rho): d.direction for d in report.diffs}
    assert got == EXPECTED_DIFFS
    for d in report.diffs:
        assert d.documented, d
        assert d.witness is not None
        assert d.witness_ok
        w = parse(d.witness)
        assert w.rho() == d.rho
    by_label = {f.label: f for f in report.fixtures}
    assert by_label["R_2"].values_match and by_label["R_2"].star_match
    assert by_label["R_3"].values_match and by_label["R_3"].star_match
    assert by_label["R_4"].values_match and not by_label["R_4"].star_match
    assert not by_label["R_5"].values_match
    assert by_label["R_6"].values_match and not by_label["R_6"].star_match


def test_verify_never_adopts_either_side():
    # the published-star entry at 22 keeps its supersingular witness, showing
    # the enumeration only reaches it through the supersingular block
    report = verify()
    diff = next(d for d in report.diffs if (d.label, d.kind, d.rho) == ("R_6", "star", 22))
    assert parse(diff.witness).ss_index() > 0
    diff = next(d for d in report.diffs if (d.label, d.kind, d.rho) == ("R_6", "star", 26))
    assert parse(diff.witness).ss_index() == 0


def test_allowlist_covers_known_errata():
    allow = load_allowlist()
    assert {("R_5", "value", 13), ("R_4", "star", 8), ("R_5", "star", 12),
            ("R_5", "star", 17), ("R_6", "star", 22), ("R_6", "star", 26)} <= allow


def test_verify_cli_exit_code_and_idempotence():
    out1, out2 = io.StringIO(), io.StringIO()
    assert run(["verify"], out1, out1) == 4
    assert run(["verify"], out2, out2) == 4
    assert out1.getvalue() == out2.getvalue()
    assert "VERIFY: 9 difference(s), 9 documented" in out1.getvalue()


def test_verify_custom_fixture_file(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps({"fixtures": [
        {"label": "R_2", "dimension": 2, "source": "test",
         "values": [1, 2, 3, 4, 6], "star": [1, 2, 3, 4]},
    ]}))
    report = verify(str(path))
    assert report.ok
    out = io.StringIO()
    assert run(["verify", "--fixtures", str(path)], out, out) == 0
    assert "R_2 values: PASS" in out.getvalue()


def test_verify_reports_a_published_value_the_enumeration_lacks(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps({"fixtures": [
        {"label": "R_2x", "dimension": 2, "values": [1, 2, 3, 4, 5, 6], "star": [1, 2, 3, 4]},
    ]}))
    out, err = io.StringIO(), io.StringIO()
    assert run(["verify", "--fixtures", str(path)], out, err) == 4
    assert err.getvalue() == ""
    assert out.getvalue().splitlines() == [
        "R_2x values: DIFF",
        "R_2x star: PASS",
        "  R_2x value 5: published-only | UNDOCUMENTED",
        "VERIFY: 1 difference(s), 0 documented",
    ]


def test_verify_command_reads_its_fixtures_file_once(tmp_path, monkeypatch):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps({"fixtures": [
        {"label": "R_2", "dimension": 2, "values": [1, 2, 3, 4, 6], "star": [1, 2, 3, 4]},
    ]}))
    reads = []

    def counted(p):
        reads.append(p)
        return load_json(p)

    # the module, not the function ``picard_ranges.verify`` the package exports
    monkeypatch.setattr(importlib.import_module("picard_ranges.verify"), "_load_json", counted)
    assert run(["verify", "--fixtures", str(path)], io.StringIO(), io.StringIO()) == 0
    assert reads == [str(path)]


def test_verify_fixture_env_override(tmp_path, monkeypatch):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps({"fixtures": [
        {"label": "R_3", "dimension": 3, "source": "test",
         "values": [1, 2, 3, 4, 5, 6, 7, 9, 15], "star": [1, 2, 3, 4, 5, 6, 9]},
    ]}))
    monkeypatch.setenv("PICARD_FIXTURES", str(path))
    out = io.StringIO()
    assert run(["verify"], out, out) == 0


def test_verify_checks_every_fixture_dimension_before_enumerating():
    # R_2 comes first and is fine; R_101 is above the limit, so nothing runs
    path = Path(__file__).parent / "data" / "fixture_above_dimension_limit.json"
    _core.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    assert run(["verify", "--fixtures", str(path)], out, err) == 3
    assert err.getvalue() == "error: fixture R_101 dimension = 101 is above the dimension limit 100\n"
    assert out.getvalue() == ""
    assert _core.cache_info().currsize == 0


def test_verify_rejects_malformed_fixture(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps({"fixtures": [
        {"label": "bad", "dimension": 2, "values": [3, 1], "star": []},
    ]}))
    with pytest.raises(ValueError):
        verify(str(path))


@pytest.mark.parametrize("raw, message", [
    ([{"label": "R_2", "dimension": 2, "values": [1], "star": [1]}], "'fixtures' list"),
    ({"fixtures": {"label": "R_2"}}, "'fixtures' list"),
    ({"fixtures": ["R_2"]}, "bad fixture entry #0"),
    ({"fixtures": [{"label": "R_2", "values": [1, 2], "star": [1]}]}, "entry #0: missing 'dimension'"),
    ({"fixtures": [{"dimension": 2, "values": [1], "star": [1]}]}, "entry #0: missing 'label'"),
    ({"fixtures": [{"label": "R_2", "dimension": 2, "star": [1]}]}, "entry #0: missing 'values'"),
    ({"fixtures": [{"label": "R_2", "dimension": 2, "values": [1]}]}, "entry #0: missing 'star'"),
    ({"fixtures": [{"label": "R_2", "dimension": "two", "values": [1], "star": [1]}]}, "entry #0"),
    ({"fixtures": [{"label": "R_2", "dimension": 0, "values": [1], "star": [1]}]}, "dimension must be"),
    ({"fixtures": [{"label": "R_2", "dimension": 2, "values": 12, "star": [1]}]}, "entry #0"),
    ({"fixtures": [{"label": "R_2", "dimension": 2, "values": [1], "star": [None]}]}, "entry #0"),
    ({"fixtures": [{"label": "R_2", "dimension": 2.7, "values": [1], "star": [1]}]},
     "entry #0: dimension must be an integer, not 2.7"),
    ({"fixtures": [{"label": "R_2", "dimension": True, "values": [1], "star": [1]}]},
     "entry #0: dimension must be an integer, not True"),
    ({"fixtures": [{"label": "R_2", "dimension": 2, "values": "246", "star": []}]},
     "entry #0: values must be an array, not '246'"),
    ({"fixtures": [{"label": "R_2", "dimension": 2, "values": [1, 2.0], "star": [1]}]},
     "entry #0: values item must be an integer, not 2.0"),
    ({"fixtures": [{"label": "R_2", "dimension": 2, "values": [1], "star": "1"}]},
     "entry #0: star must be an array, not '1'"),
    ({"fixtures": [{"label": "R_2", "dimension": 2, "values": [1], "star": [False]}]},
     "entry #0: star item must be an integer, not False"),
    ({"fixtures": [{"label": 5, "dimension": 2, "values": [1, 2, 3, 4, 6], "star": [1, 2, 3, 4]}]},
     "bad fixture entry #0: label must be a string, not 5"),
])
def test_malformed_fixture_files_name_the_entry(tmp_path, raw, message):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_fixtures(str(path))
    out, err = io.StringIO(), io.StringIO()
    assert run(["verify", "--fixtures", str(path)], out, err) == 3
    assert message in err.getvalue() and out.getvalue() == ""
