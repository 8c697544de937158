import importlib
import inspect
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from oracles import brute_force_builtin_entries
import picard_ranges
from picard_ranges._catalog_file import from_obj, load
from picard_ranges._views import blocks_for_dim
from picard_ranges.albert import CHAR_P, CHAR_ZERO, CharContext, type_I, type_III, type_IV
from picard_ranges.catalog import Catalog, CatalogEntry, _builtin, builtin
from picard_ranges.decomp import SUPERSINGULAR_TYPE
from picard_ranges.ranges import _core

SPLIT = CharContext(p_split_policy="split")
NONSPLIT = CharContext(p_split_policy="nonsplit")


def test_entry_validation():
    with pytest.raises(ValueError):
        CatalogEntry(0, type_I(1))
    with pytest.raises(ValueError):
        CatalogEntry(1, type_I(1), "many")
    with pytest.raises(ValueError):
        CatalogEntry(1, SUPERSINGULAR_TYPE, "unbounded")
    with pytest.raises(ValueError):
        Catalog((CatalogEntry(1, type_I(1)), CatalogEntry(1, type_I(1))))


def test_builtin_paper_contents():
    cat = builtin("paper", 4, CHAR_P)
    keys = {(e.simple_dim, e.albert) for e in cat.entries}
    assert (1, type_IV(1, 1)) in keys
    assert (1, SUPERSINGULAR_TYPE) in keys
    assert all((n, type_I(1)) in keys for n in range(1, 5))
    conditional = {e.simple_dim for e in cat.entries if e.condition == "p_split"}
    assert conditional == {2, 3, 4}
    cm = next(e for e in cat.entries if e.albert == type_IV(1, 1))
    assert cm.class_count == "unbounded"


def test_builtin_upper_contents():
    cat = builtin("upper", 4, CHAR_P)
    assert (4, type_IV(2, 2)) in {(e.simple_dim, e.albert) for e in cat.entries}
    assert all(e.condition == "always" for e in cat.entries)
    ss = [e for e in cat.entries if e.is_supersingular]
    assert len(ss) == 1 and ss[0].class_count == "one"


@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO, SPLIT, NONSPLIT],
                         ids=["char_p", "char_0", "split", "nonsplit"])
def test_builtin_upper_is_unconditional_up_to_the_dimension_limit(ctx):
    # The core counts a conditional entry only where the context's split
    # policy rules it in; the upper catalog loses nothing by that, because
    # it has no conditional entry.
    for g in range(1, 101):
        assert all(e.condition == "always" for e in builtin("upper", g, ctx).entries), g


def test_builtin_rejects_bad_mode():
    for mode in ("best", "conservative"):  # conservative is a retired mode
        with pytest.raises(ValueError, match="unknown catalog mode"):
            builtin(mode, 3, CHAR_P)


@pytest.mark.parametrize("mode", ["upper", "paper"])
@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["char_p", "char_0"])
def test_builtin_entries_match_oracle(mode, ctx):
    for g in range(1, 21):
        assert builtin(mode, g, ctx).entries == brute_force_builtin_entries(mode, g, ctx)


def test_builtin_is_cached_per_key():
    for mode in ("upper", "paper"):
        cat = builtin(mode, 6, CHAR_P)
        assert builtin(mode, 6, CHAR_P) is cat
        assert builtin(mode, 6) is cat
        assert builtin(mode=mode, g_max=6, ctx=CHAR_P) is cat
        assert builtin(mode, 6, CHAR_ZERO) is not cat
        assert builtin(mode, 7, CHAR_P) is not cat
    maxsize = _builtin.cache_info().maxsize
    assert maxsize is not None and f"The {maxsize} most recent" in builtin.__doc__


def test_every_cache_states_its_bound():
    # each bounded cache names its size in its docstring and in README's
    # paragraph on the caches, so the byte budget has a fixed list of caches
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("* **One core per family; the caches.**"):]
    paragraph = " ".join(paragraph[:paragraph.index("\n* ")].split())
    for name, cache, doc in [("builtin", _builtin, builtin.__doc__), ("_core", _core, _core.__doc__)]:
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and f"The {maxsize} most recent" in doc, name
        assert re.search(rf"`{name}`[^`]*\b{maxsize} most recent", paragraph), name


def test_family_entries_are_shared_by_the_split_policies():
    # the entries depend on the characteristic alone; the split policy acts in the core
    for mode in ("upper", "paper"):
        entries = builtin(mode, 30, CHAR_P).entries
        for ctx in (SPLIT, NONSPLIT):
            other = builtin(mode, 30, ctx).entries
            assert len(other) == len(entries) and all(a is b for a, b in zip(other, entries))


def test_builtin_errors_are_not_cached():
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown catalog mode"):
            builtin("best", 3, CHAR_P)
        with pytest.raises(ValueError, match="g_max"):
            builtin("upper", 0, CHAR_P)


def test_catalog_hash_is_by_value_and_keys_the_core():
    entries = builtin("paper", 5, CHAR_P).entries
    first, second = Catalog(entries), Catalog(entries)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert Catalog(entries[1:]) != first
    core = _core(5, first, CHAR_P)
    hits = _core.cache_info().hits
    assert _core(5, second, CHAR_P) is core
    assert _core.cache_info().hits == hits + 1


def test_catalog_hash_survives_pickling_across_processes():
    # the child hashes strings under another seed than this process
    code = ("import pickle, sys; from picard_ranges.catalog import builtin; "
            "sys.stdout.buffer.write(pickle.dumps(builtin('upper', 4)))")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    data = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, timeout=60).stdout
    cat = pickle.loads(data)
    assert cat == builtin("upper", 4, CHAR_P)
    assert hash(cat) == hash(builtin("upper", 4, CHAR_P))


@pytest.mark.parametrize("g_max", range(1, 13))
def test_mode_inclusion_chain(g_max):
    paper = {(e.simple_dim, e.albert) for e in builtin("paper", g_max, CHAR_P).entries}
    upper = {(e.simple_dim, e.albert) for e in builtin("upper", g_max, CHAR_P).entries}
    assert paper <= upper


@pytest.mark.parametrize("mode", ["upper", "paper"])
@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["char_p", "char_0"])
def test_builtin_entries_pass_restrictions(mode, ctx):
    builtin(mode, 8, ctx).validate(ctx)


def test_char_zero_catalogs_have_no_supersingular_entry():
    for mode in ("upper", "paper"):
        assert not any(e.is_supersingular for e in builtin(mode, 6, CHAR_ZERO).entries)


def test_blocks_for_dim_paper_dimension_two():
    cat = builtin("paper", 4, CHAR_P)
    got = {str(b) for b, _ in blocks_for_dim(cat, 2, CHAR_P)}
    assert {"ord^2", "cm^2", "ss^2", "[I(1); dim=2]"} <= got
    assert "[IV(1,2); dim=2]" not in got  # conditional, policy unknown


def test_blocks_for_dim_split_policy_only_adds():
    cat = builtin("paper", 4, CHAR_P)
    unknown = {str(b) for b, _ in blocks_for_dim(cat, 2, CHAR_P)}
    split = {str(b) for b, _ in blocks_for_dim(cat, 2, SPLIT)}
    nonsplit = {str(b) for b, _ in blocks_for_dim(cat, 2, NONSPLIT)}
    assert unknown <= split
    assert "[IV(1,2); dim=2]" in split
    assert nonsplit == unknown
    upper_view = {str(b) for b, _ in blocks_for_dim(cat, 2, CHAR_P, include_uncertain=True)}
    assert "[IV(1,2); dim=2]" in upper_view


def test_blocks_for_dim_always_offers_supersingular():
    for mode in ("upper", "paper"):
        cat = builtin(mode, 3, CHAR_P)
        assert "ss" in {str(b) for b, _ in blocks_for_dim(cat, 1, CHAR_P)}


def test_blocks_for_dim_equal_across_catalogs_and_include_uncertain_by_keyword():
    small = blocks_for_dim(builtin("upper", 5), 4, CHAR_P)
    large = blocks_for_dim(builtin("upper", 6), 4, CHAR_P, include_uncertain=True)
    assert [b for b, _ in small] == [b for b, _ in large]  # upper has no conditional entry
    # benchmarks/tracer.py binds the arguments by name
    bound = inspect.signature(blocks_for_dim).bind(builtin("paper", 4), 2)
    bound.apply_defaults()
    assert bound.arguments["include_uncertain"] is False


def test_load_rejects_restricted_entry(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"dim": 3, "type": "IV(2,2)", "classes": "one"}]))
    with pytest.raises(ValueError, match="divisibility"):
        load(str(path), CHAR_P)


def test_load_round_trip(tmp_path):
    entries = [
        {"dim": 2, "type": "II(1)", "classes": "one", "condition": "unknown"},
        {"dim": 1, "type": "I(1)", "classes": "unbounded"},
    ]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(entries))
    cat = load(str(path), CHAR_P)
    assert (2, type_III(1)) not in {(e.simple_dim, e.albert) for e in cat.entries}
    assert {(e.simple_dim, str(e.albert)) for e in cat.entries} == {(2, "II(1)"), (1, "I(1)")}
    q = next(e for e in cat.entries if e.simple_dim == 2)
    assert q.condition == "unknown"
    assert not any(b for b, _ in blocks_for_dim(cat, 2, CHAR_P) if str(b) == "[II(1); dim=2]")
    assert any(str(b) == "[II(1); dim=2]"
               for b, _ in blocks_for_dim(cat, 2, CHAR_P, include_uncertain=True))


def test_from_obj_error_reporting():
    with pytest.raises(ValueError, match="JSON array"):
        from_obj({"dim": 1})
    with pytest.raises(ValueError, match="entry #0"):
        from_obj([{"type": "I(1)"}])
    with pytest.raises(ValueError, match="entry #1"):
        from_obj([{"dim": 1, "type": "I(1)"}, {"dim": 1, "type": "X(1)"}])


@pytest.mark.parametrize("item, message", [
    ({"dim": 1, "type": 5}, "malformed Albert type 5"),
    ({"dim": 2.7, "type": "I(1)"}, "dim must be an integer, not 2.7"),
    ({"dim": True, "type": "I(1)"}, "dim must be an integer, not True"),
    ({"dim": "1", "type": "I(1)"}, "dim must be an integer, not '1'"),
])
def test_from_obj_refuses_to_coerce(item, message):
    with pytest.raises(ValueError, match=re.escape(f"bad catalog entry #0: {message}")):
        from_obj([item])


def test_value_type_annotations_resolve():
    # Every annotation of every class names something its module imports:
    # the fields of a NamedTuple, and the arguments of a __new__ or
    # __init__ written in the package (the validating and slotted value
    # types), which for a value type are exactly its fields.
    checked = 0
    for info in pkgutil.iter_modules(picard_ranges.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"picard_ranges.{info.name}")
        for obj in vars(module).values():
            if not (isinstance(obj, type) and obj.__module__ == module.__name__):
                continue
            fields = getattr(obj, "_fields", None)
            if issubclass(obj, tuple) and fields is not None:
                assert list(typing.get_type_hints(obj)) == list(fields), obj
                checked += 1
            for name in ("__new__", "__init__"):
                func = vars(obj).get(name)
                func = getattr(func, "__func__", func)  # a __new__ is a staticmethod
                if func is None or func.__module__ != module.__name__:
                    continue  # absent, or generated by NamedTuple
                hints = typing.get_type_hints(func)
                hints.pop("return", None)
                if fields is not None:
                    assert list(hints) == list(fields), obj
                checked += 1
    assert checked >= 10
