import gc
import random
from collections import Counter
from functools import reduce
from operator import or_
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_decompositions,
    brute_force_gaps,
    brute_force_max_by_length,
    brute_force_star,
    brute_force_values,
    counted_entries,
    knapsack_index_classes,
    knapsack_values,
    set_bits,
)
from picard_ranges import albert, asymptotics, decomp, formulas, ranges
from picard_ranges._catalog_file import load as load_catalog
from picard_ranges._grammar import parse
from picard_ranges._moduli import moduli_dims
from picard_ranges._views import (
    blocks_for_dim, parity_filter, structure_witnesses, translated_range, upper_catalog,
)
from picard_ranges.albert import CHAR_P, CHAR_ZERO, CharContext, admissible_types, type_I, type_IV
from picard_ranges.catalog import CLASS_COUNTS, Catalog, CatalogEntry, builtin
from picard_ranges.cli import MAX_DIM
from picard_ranges.decomp import SUPERSINGULAR_TYPE, Block, Decomposition, max_picard
from picard_ranges.ranges import (
    _SS_BIT,
    RangeValue,
    _Core,
    _core,
    _members,
    attainable,
    gaps,
    length_max_closed_form,
    max_by_length,
    membership,
    paper_catalog,
)

DATA = Path(__file__).parent / "data"

# attainable sets for the certified catalog, frozen from the recursive oracle
CERTIFIED = {
    2: ([1, 2, 3, 4, 6], [1, 2, 3, 4]),
    3: ([1, 2, 3, 4, 5, 6, 7, 9, 15], [1, 2, 3, 4, 5, 6, 9]),
    4: ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 28],
        [1, 2, 3, 4, 5, 6, 7, 8, 10, 16]),
    5: ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 25, 29, 45],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 17, 25]),
    6: (list(range(1, 23)) + [24, 26, 29, 30, 31, 32, 36, 46, 66],
        list(range(1, 22)) + [26, 36]),
}


def _grown(source, ctx, g):
    """A fresh core of its own for the source, grown to g."""
    core = _Core(source, ctx)
    core.grow(g)
    return core


def _rows(core):
    """Every entry row ``(bit, n, albert, rhos)`` of a core, by simple
    dimension, then in catalog order."""
    return [row for rows in core._by_dim for row in rows]


def _count_blocks(monkeypatch):
    """The list of the blocks made from here on, in the core and in
    ``supersingular_block``, through a counting subclass patched over ``Block``."""
    made = []

    class CountedBlock(Block):
        __slots__ = ()

        def __init__(self, *fields):
            super().__init__(*fields)
            made.append(self)

    monkeypatch.setattr(ranges, "Block", CountedBlock)
    monkeypatch.setattr(decomp, "Block", CountedBlock)
    return made


@pytest.mark.parametrize("g", sorted(CERTIFIED))
def test_certified_sets_and_stars(g):
    values, star = CERTIFIED[g]
    result = attainable(g, paper_catalog(g, CHAR_P), CHAR_P)
    assert sorted(result.value_set()) == values
    assert sorted(result.star_set()) == star
    no_ss = attainable(g, paper_catalog(g, CHAR_P), CHAR_P, allow_ss=False)
    assert no_ss.value_set() == result.star_set()


@pytest.mark.parametrize("g", range(1, 9))
@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_dp_matches_recursive_oracle(g, mode):
    cat = paper_catalog(g, CHAR_P) if mode == "paper" else upper_catalog(g, CHAR_P)
    result = attainable(g, cat, CHAR_P)
    assert result.value_set() == brute_force_values(g, cat, CHAR_P)
    assert result.star_set() == brute_force_star(g, cat, CHAR_P)


def test_char_zero_sets():
    # no supersingular block: the maximum is g^2, reached by CM powers
    r2 = attainable(2, upper_catalog(2, CHAR_ZERO), CHAR_ZERO)
    assert sorted(r2.value_set()) == [1, 2, 3, 4]
    r3 = attainable(3, upper_catalog(3, CHAR_ZERO), CHAR_ZERO)
    assert max(r3.value_set()) == 9


@pytest.mark.parametrize("g", range(2, 9))
def test_rho_bounds_and_unique_maximum(g):
    result = attainable(g, upper_catalog(g, CHAR_P), CHAR_P)
    values = result.value_set()
    assert min(values) == 1
    assert max(values) == max_picard(g)
    witnesses = structure_witnesses(g, max_picard(g), CHAR_P, mode="upper")
    assert [str(w) for w in witnesses] == [f"ss^{g}"]


@pytest.mark.parametrize("g", range(1, 9))
def test_single_block_star_values_bounded_by_g_squared(g):
    core = _core(g, upper_catalog(g, CHAR_P), CHAR_P)
    for s in range(g + 1):
        assert core.index_class(g, s).bit_length() - 1 <= (g * g if s == 0 else max_picard(g)), s


@pytest.mark.parametrize("g", range(1, 31))
def test_witnesses_are_valid(g):
    # Every sweep witness passes the full check: re-normalized, re-parsed,
    # and of the right dimension and Picard number.
    # The split policy puts witnesses with IV(1,n) blocks through it too.
    split = CharContext(p_split_policy="split")
    results = {}
    for label, mode, ctx in (("paper", "paper", CHAR_P), ("split", "paper", split), ("upper", "upper", CHAR_P)):
        cat = builtin(mode, g, ctx)
        for allow_ss in (True, False):
            result = results[label, allow_ss] = attainable(g, cat, ctx, allow_ss)
            for v in result.values:
                w = v.witness
                assert w is not None
                assert Decomposition.from_blocks(w.blocks) == w
                assert parse(str(w)) == w
                assert (w.dim(), w.rho()) == (g, v.rho)
                if not v.star:
                    assert w.ss_index() > 0
    for allow_ss in (True, False):
        lower, split_lower, upper = (results[label, allow_ss].value_set()
                                     for label in ("paper", "split", "upper"))
        assert lower == split_lower <= upper
    for label in ("paper", "split", "upper"):
        assert results[label, False].value_set() <= results[label, True].value_set()


def test_membership_examples():
    m = membership(6, 2, CHAR_P)
    assert m.status == "certified" and str(m.witness) == "ss^2"
    assert membership(5, 2, CHAR_P).status == "refuted"
    m = membership(13, 5, CHAR_P)
    assert m.status == "certified" and str(m.witness) == "cm^3 * cm^2"
    assert membership(8, 3, CHAR_P).status == "refuted"
    for rho in range(11, 16):
        assert membership(rho, 4, CHAR_P).status != "certified"
    with pytest.raises(ValueError):
        membership(0, 3, CHAR_P)
    with pytest.raises(ValueError):
        membership(16, 3, CHAR_P)


@pytest.mark.parametrize("g", range(1, 8))
@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["p", "0"])
def test_membership_matches_oracle(g, ctx):
    certified = brute_force_values(g, paper_catalog(g, ctx), ctx)
    restricted = brute_force_values(g, upper_catalog(g, ctx), ctx)
    for rho in range(1, max_picard(g) + 1):
        m = membership(rho, g, ctx)
        if rho in certified:
            assert m.status == "certified"
            assert m.witness == structure_witnesses(g, rho, ctx)[0]
        else:
            assert m.status == ("undetermined" if rho in restricted else "refuted")
            assert m.witness is None


def test_membership_walks_a_witness_only_for_a_certified_value(monkeypatch):
    g = 13
    _core.cache_clear()  # a fresh paper core: no earlier test has swept it
    core = _core(g, "paper", CHAR_P)
    assert core._swept == {}
    sweeps, sweep = [], _Core.sweep

    def counted(self, *args):
        sweeps.append(args)
        return sweep(self, *args)

    monkeypatch.setattr(_Core, "sweep", counted)
    statuses, certified = set(), core.values(g)
    # every value that is not certified first, so that each of them meets an unswept core
    for rho in sorted(range(1, max_picard(g) + 1), key=lambda rho: certified >> rho & 1):
        before = list(core._swept), dict(core._searched)
        status = membership(rho, g, CHAR_P).status
        statuses.add(status)
        if status != "certified":
            assert (list(core._swept), core._searched) == before
        else:  # the first certified query sweeps dimension g, the later ones read its sweep
            assert sweeps == [(g, True)] and list(core._swept) == [(g, True)]
    assert statuses == {"certified", "undetermined", "refuted"}


def test_undetermined_status_exists():
    # a value passing the divisibility screen without a certified construction:
    # the square of a dimension-2 factor of type III(2)
    assert membership(12, 4, CHAR_P).status == "undetermined"
    up = attainable(4, upper_catalog(4, CHAR_P), CHAR_P)
    assert str(up.witness_for(12)) == "[III(2); dim=2]^2"


def test_gap_examples():
    assert gaps(2, CHAR_P) == [(5, 5)]
    assert gaps(3, CHAR_P) == [(8, 8), (10, 14)]
    assert gaps(4, CHAR_P) == [(11, 11), (13, 15), (17, 27)]
    assert gaps(5, CHAR_P) == [(14, 14), (20, 24), (26, 28), (30, 44)]


@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["p", "0"])
def test_gaps_match_the_per_value_walk(ctx):
    for g in range(1, 101):
        values = attainable(g, upper_catalog(g, ctx), ctx).value_set()
        assert gaps(g, ctx) == brute_force_gaps(values, max_picard(g)), g


@pytest.mark.parametrize("g", range(1, 9))
def test_max_by_length_matches_closed_form_and_oracle(g):
    for r in range(1, g + 1):
        res = max_by_length(r, g, CHAR_P)
        assert res.matches, (r, g, res)
        assert res.enumerated == brute_force_max_by_length(r, g, upper_catalog(g, CHAR_P), CHAR_P)
    with pytest.raises(ValueError):
        max_by_length(g + 1, g, CHAR_P)


def test_max_by_length_closed_form_examples():
    assert length_max_closed_form(1, 7) == max_picard(7)
    assert length_max_closed_form(7, 7) == 7
    assert max_by_length(2, 6, CHAR_P).enumerated == 46


def test_every_length_has_a_decomposition_in_characteristic_zero():
    # r - 1 factors ord and one [I(1); dim=g-r+1] have length r, in either
    # characteristic, so max_by_length meets no length without a decomposition;
    # test_criterion_4_closed_form_up_to_the_dimension_limit covers characteristic p
    longest = _core(MAX_DIM, upper_catalog(MAX_DIM, CHAR_ZERO), CHAR_ZERO).longest
    for g in range(1, MAX_DIM + 1):
        assert min(longest[g][1:]) >= 0, g


@pytest.mark.parametrize("g", range(2, 31))
def test_length_maxima_strictly_decreasing_in_length(g):
    chain = [length_max_closed_form(r, g) for r in range(1, g + 1)]
    assert all(a > b for a, b in zip(chain, chain[1:]))


def test_structure_witness_examples():
    assert [str(w) for w in structure_witnesses(2, 6, CHAR_P)] == ["ss^2"]
    second = structure_witnesses(8, 2 * 49 - 7 + 1, CHAR_P)
    assert {str(w) for w in second} == {"ss^7 * ord", "ss^7 * cm"}
    third = structure_witnesses(8, 2 * 36 - 6 + 4, CHAR_P)
    assert [str(w) for w in third] == ["ss^6 * cm^2"]


def test_structure_witnesses_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown catalog mode 'best'"):
        structure_witnesses(3, 3, CHAR_P, mode="best")


def test_structure_witnesses_against_dp():
    for g in range(1, 7):
        cat = paper_catalog(g, CHAR_P)
        values = attainable(g, cat, CHAR_P).value_set()
        for rho in range(1, max_picard(g) + 1):
            ws = structure_witnesses(g, rho, CHAR_P)
            assert (len(ws) > 0) == (rho in values)
            for w in ws:
                assert w.rho() == rho and w.dim() == g


def test_translated_range_examples():
    g = 6
    assert translated_range(g, 1, CHAR_P) == {2 * 25 - 5 + 1}
    assert translated_range(6, 2, CHAR_P) == {29, 30, 31, 32}
    assert translated_range(5, 2, CHAR_P) == {16, 17, 18, 19}
    with pytest.raises(ValueError):
        translated_range(3, 4, CHAR_P)


@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["p", "0"])
def test_translated_range_is_the_ss_index_class(ctx):
    # the n-th translated block holds the values of supersingularity index
    # g - n, judged by every decomposition of the paper catalog
    for g in range(1, 12):
        by_index = {}
        for d in brute_force_decompositions(g, paper_catalog(g, ctx), ctx):
            by_index.setdefault(d.ss_index(), set()).add(d.rho())
        for n in range(1, g + 1):
            assert translated_range(g, n, ctx) == by_index.get(g - n, set()), (g, n)


def test_translated_range_is_empty_below_g_in_characteristic_zero():
    # characteristic 0 has no supersingular factor to fill the remaining g - n
    for g in range(2, 13):
        assert all(translated_range(g, n, CHAR_ZERO) == set() for n in range(1, g)), g


def test_parity_filter():
    assert parity_filter(attainable(2, paper_catalog(2, CHAR_P), CHAR_P)) == [2, 4, 6]
    assert parity_filter(attainable(3, paper_catalog(3, CHAR_P), CHAR_P)) == [1, 3, 5, 7, 9, 15]
    for g in range(2, 7):
        assert max_picard(g) in parity_filter(attainable(g, paper_catalog(g, CHAR_P), CHAR_P))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.booleans())
def test_star_subset_of_full(g, use_upper):
    cat = upper_catalog(g, CHAR_P) if use_upper else paper_catalog(g, CHAR_P)
    full = attainable(g, cat, CHAR_P)
    star = attainable(g, cat, CHAR_P, allow_ss=False)
    assert star.value_set() == full.star_set() <= full.value_set()


def test_single_class_entries_used_at_most_once():
    from picard_ranges._catalog_file import from_obj

    cat = from_obj([
        {"dim": 2, "type": "II(1)", "classes": "one"},
        {"dim": 4, "type": "I(1)", "classes": "unbounded"},
        {"dim": 1, "type": "III(1)", "classes": "one"},
    ], CHAR_P)
    for g in range(2, 7):
        dp = attainable(g, cat, CHAR_P)
        assert dp.value_set() == brute_force_values(g, cat, CHAR_P), g
    # two power-1 copies of the single dimension-2 class would give 6 in
    # dimension 4; only the supersingular route reaches 6 in dimension 2
    assert 6 not in attainable(4, cat, CHAR_P).value_set()
    assert str(attainable(2, cat, CHAR_P).witness_for(6)) == "ss^2"


def test_single_nonsupersingular_block_bounded_by_g_squared():
    from picard_ranges.albert import admissible_types, rho_power

    for g in range(1, 9):
        for n in range(1, g + 1):
            if g % n:
                continue
            for t in admissible_types(n, CHAR_P):
                if n == 1 and t.kind == "III":
                    continue  # that block is the supersingular one
                assert rho_power(t, g // n) <= g * g, (t, n, g)


def _oracle_listing(g, cat, allow_ss):
    """rho -> every decomposition, in canonical order."""
    listed = {}
    for d in brute_force_decompositions(g, cat, CHAR_P, allow_ss):
        listed.setdefault(d.rho(), []).append(d)
    return listed


@pytest.mark.parametrize("g", range(1, 9))
@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_witnesses_are_first_in_canonical_order_of_oracle(g, mode):
    # Canonical order is the witness rule: each witness is the oracle's
    # first decomposition of its value, each listing (g <= 7) the oracle's list.
    cat = builtin(mode, g, CHAR_P)
    for allow_ss in (True, False):
        listed = _oracle_listing(g, cat, allow_ss)
        result = attainable(g, cat, CHAR_P, allow_ss=allow_ss)
        assert result.value_set() == set(listed)
        for v in result.values:
            assert str(v.witness) == str(listed[v.rho][0]), (v.rho, allow_ss)
            if allow_ss and g <= 7:
                assert structure_witnesses(g, v.rho, CHAR_P, mode=mode) == listed[v.rho]


_CUSTOM_POOL = [(n, t) for n in (1, 2, 3) for t in admissible_types(n, CHAR_P)
                if not (n == 1 and t == SUPERSINGULAR_TYPE)]


@st.composite
def custom_catalogs(draw):
    """Up to five entries of dimension <= 3, each with one or unboundedly
    many classes and possibly conditional, with or without the
    supersingular entry."""
    chosen = draw(st.lists(st.sampled_from(_CUSTOM_POOL), min_size=1, max_size=5, unique=True))
    conditions = st.sampled_from(("always", "always", "unknown"))
    entries = [CatalogEntry(n, t, draw(st.sampled_from(CLASS_COUNTS)), draw(conditions))
               for n, t in chosen]
    if draw(st.booleans()):
        entries.append(CatalogEntry(1, SUPERSINGULAR_TYPE, "one", draw(conditions)))
    return Catalog(tuple(sorted(entries, key=lambda e: e.sort_key)))


def _on_edge_catalogs(test):
    """Also run a (catalog, g) test, for g = 1..6, on a catalog without an
    entry of dimension 1 or 2, whose search nodes of dimension 1 or 2 have
    no candidate, and on the empty catalog, whose search has none at all."""
    edges = [Catalog((CatalogEntry(3, type_I(1)), CatalogEntry(4, type_I(1), "one"))), Catalog(())]
    for cat in edges:
        for g in range(1, 7):
            test = example(cat, g)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(custom_catalogs(), st.integers(1, 6))
@_on_edge_catalogs
# two single-class entries of value 1 (ord, cm): at g = 2 the value 2 is ord * cm alone, not ord * ord
@example(Catalog((CatalogEntry(1, type_I(1), "one"), CatalogEntry(1, type_IV(1, 1), "one"))), 2)
def test_core_matches_oracle_on_custom_catalogs(cat, g):
    full = attainable(g, cat, CHAR_P)
    star = attainable(g, cat, CHAR_P, allow_ss=False)
    for result, allow_ss in ((full, True), (star, False)):
        listed = _oracle_listing(g, cat, allow_ss)
        assert result.value_set() == set(listed)
        assert {v.rho: str(v.witness) for v in result.values} == {
            rho: str(ds[0]) for rho, ds in listed.items()}
    assert full.star_set() == star.value_set()
    core = _core(g, cat, CHAR_P)
    by_index = [0] * (g + 1)
    for d in brute_force_decompositions(g, cat, CHAR_P):
        by_index[d.ss_index()] |= 1 << d.rho()
    assert [core.index_class(g, s) for s in range(g + 1)] == by_index
    # the oracle judges the walk's prune, which the sweep shares, in the
    # shared core, which may be grown past g, and in one built at g
    for walker in (core, _grown(cat, CHAR_P, g)):
        for allow_ss in (True, False):
            listed = _oracle_listing(g, cat, allow_ss)
            for v in range(max_picard(g) + 1):
                assert list(walker.walk(g, v, allow_ss)) == listed.get(v, []), (v, allow_ss)


@settings(max_examples=150, deadline=None)
@given(custom_catalogs(), st.integers(1, 6))
@_on_edge_catalogs
def test_longest_matches_oracle_on_custom_catalogs(cat, g):
    # brute_force_max_by_length keeps the ``unknown`` entries, which the
    # core drops, so the decompositions themselves are the judge
    longest = _core(g, cat, CHAR_P).longest
    assert longest[0] == [0]
    for d in range(1, g + 1):
        best = [-1] * (d + 1)
        for x in brute_force_decompositions(d, cat, CHAR_P):
            best[x.length()] = max(best[x.length()], x.rho())
        assert longest[d] == best, d


def _members_by_shifts(bits):
    """The set bits by one shift of the whole integer per position."""
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.just(0), st.integers(0, 20000).map(lambda k: 1 << k),
                 st.integers(0, 1 << 20000)))
def test_members_matches_shift_loop(bits):
    assert _members(bits) == _members_by_shifts(bits)


def _first_walks(core, g, bits, allow_ss):
    """The judge of the sweep: the first decomposition the walk gives for
    each value of the bitset that has one."""
    first = {}
    for v in _members(bits):
        witness = next(core.walk(g, v, allow_ss), None)
        if witness is not None:
            first[v] = witness
    return first


@pytest.mark.parametrize("g", [8, 20, 40])
@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_sweep_matches_walk(g, mode):
    core = _core(g, builtin(mode, g, CHAR_P), CHAR_P)
    for allow_ss in (True, False):
        bits = core.values(g) if allow_ss else core.star[g]
        swept = core.sweep(g, allow_ss)
        assert set(swept) == set(_members(bits))
        assert swept == _first_walks(core, g, bits, allow_ss), allow_ss


@settings(max_examples=150, deadline=None)
@given(custom_catalogs(), st.integers(1, 6), st.booleans())
def test_sweep_matches_walk_on_custom_catalogs(cat, g, allow_ss):
    core = _core(g, cat, CHAR_P)
    every_value = (2 << max_picard(g)) - 1  # 0..2g^2-g, unattainable ones included
    assert core.sweep(g, allow_ss) == _first_walks(core, g, every_value, allow_ss)


def _largest_index(core, g, rho):
    """The largest s with rho in the index class (g, s)."""
    return max(s for s in range(g + 1) if core.index_class(g, s) >> rho & 1)


@pytest.mark.parametrize("mode", ["paper", "upper"])
@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["p", "0"])
def test_a_witness_has_the_largest_supersingularity_index_of_its_value(mode, ctx):
    core = _core(30, mode, ctx)
    for g in range(1, 31):
        values = attainable(g, builtin(mode, g, ctx), ctx).values
        assert all(v.witness.ss_index() == _largest_index(core, g, v.rho) for v in values), g
    for g in range(1, 8):  # every listing, from the witness on
        for rho in _members(core.values(g)):
            index = [d.ss_index() for d in structure_witnesses(g, rho, ctx, mode=mode)]
            assert index == sorted(index, reverse=True), (g, rho)


@settings(max_examples=100, deadline=None)
@given(custom_catalogs(), st.integers(1, 6))
def test_a_witness_has_the_largest_index_on_custom_catalogs(cat, g):
    core = _core(g, cat, CHAR_P)
    for v in attainable(g, cat, CHAR_P).values:
        assert v.witness.ss_index() == _largest_index(core, g, v.rho), v.rho
        index = [d.ss_index() for d in core.walk(g, v.rho)]
        assert index == sorted(index, reverse=True), v.rho


@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_witness_for_matches_linear_scan(mode):
    for g in range(1, 9):
        result = attainable(g, builtin(mode, g, CHAR_P), CHAR_P)
        for rho in range(-1, max_picard(g) + 2):
            expected = next((v.witness for v in result.values if v.rho == rho), None)
            assert result.witness_for(rho) == expected


@settings(max_examples=100, deadline=None)
@given(custom_catalogs(), st.integers(1, 6), st.booleans())
def test_result_answers_do_not_depend_on_read_order(cat, g, allow_ss):
    every_rho = range(-1, max_picard(g) + 2)  # one past each end of [0, 2g^2 - g]
    _core.cache_clear()  # an unswept core: no witness of the result has been read yet
    result = attainable(g, cat, CHAR_P, allow_ss)
    value_set, star_set = result.value_set(), result.star_set()
    before = [result.witness_for(rho) for rho in every_rho]
    values = result.values
    assert value_set == result.value_set() == {v.rho for v in values}
    assert star_set == result.star_set() == {v.rho for v in values if v.star}
    assert [result.witness_for(rho) for rho in every_rho] == before
    evicted = attainable(g, cat, CHAR_P, allow_ss)
    _core.cache_clear()  # the first read finds no cached core
    assert [evicted.witness_for(rho) for rho in every_rho] == before
    assert evicted.values == values


@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_walk_outside_the_value_range_is_empty_at_once(mode):
    g = 6
    core = _core(g, builtin(mode, g, CHAR_P), CHAR_P)
    for rho in (-1, max_picard(g) + 1, 10**12):
        for allow_ss in (True, False):
            assert list(core.walk(g, rho, allow_ss)) == []
        assert structure_witnesses(g, rho, CHAR_P, mode=mode) == []


def test_value_queries_build_no_witness_tables(monkeypatch):
    from picard_ranges.asymptotics import conjecture_check, density

    g = 30
    _core.cache_clear()  # fresh cores: no earlier test has searched them
    made = _count_blocks(monkeypatch)
    refuted = gaps(g, CHAR_P)[0][0]
    density(g, CHAR_P)
    conjecture_check(g, CHAR_P)
    assert membership(refuted, g, CHAR_P).status == "refuted"
    for read in (lambda r: r.values, lambda r: r.witness_for(1)):
        for cat in (paper_catalog(g, CHAR_P), upper_catalog(g, CHAR_P)):
            core = _core(g, cat, CHAR_P)
            results = [attainable(g, cat, CHAR_P, allow_ss) for allow_ss in (True, False)]
            for result in results:
                assert result.value_set() and result.star_set() and parity_filter(result)
                # unread, it holds neither the core nor a tuple of values
                assert not any(isinstance(x, _Core) or type(x) is tuple for x in gc.get_referents(result))
            # the candidate index indexes nothing, no tail is kept and no block is made
            assert core._fitting == ([], [0]) and core._tails == {} and core._searched == {}
            assert made == []
            read(results[0])  # the full sweep builds the index and the tails
            assert len(core._fitting[1]) == g + 1 and core._tails[g] and core._searched[g]
            assert made  # the index's blocks
            made.clear()
        del core  # a core dies with its last key: fresh cores for the next way of reading
        _core.cache_clear()


@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_results_hold_no_witness_and_share_the_cores_sweep(mode, monkeypatch):
    """The core is the one owner of a witness: a read result holds no dict
    and no core, and a second result with the same key reads the same
    Decomposition objects off the core's kept sweep, sweeping nothing."""
    g = 9
    cat = builtin(mode, g, CHAR_P)
    for allow_ss in (True, False):
        result = attainable(g, cat, CHAR_P, allow_ss)
        values = result.values
        top = result.witness_for(values[-1].rho)
        assert not any(isinstance(x, (dict, _Core)) for x in gc.get_referents(result))
        sweeps = []
        monkeypatch.setattr(_Core, "sweep", lambda self, *args: sweeps.append(args))
        again = attainable(g, cat, CHAR_P, allow_ss)
        assert again is not result
        assert all(a.witness is b.witness for a, b in zip(again.values, values, strict=True))
        assert again.witness_for(values[-1].rho) is top
        assert sweeps == []
        monkeypatch.undo()


@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_a_second_sweep_searches_nothing(mode, monkeypatch):
    """Each star value of each dimension is searched once per core: after a
    sweep of every g = 1..20 in ascending order, with and without ss, a
    second sweep at any g <= 20 runs no search and gives the same witnesses."""
    core, first = _Core(mode, CHAR_P), {}
    for g in range(1, 21):
        core.grow(g)
        for allow_ss in (True, False):
            first[g, allow_ss] = core.sweep(g, allow_ss)
    calls = []
    search = _Core._search

    def counted(self, *args):
        calls.append(args[0])
        return search(self, *args)

    monkeypatch.setattr(_Core, "_search", counted)
    for g in random.Random(20).sample(range(1, 21), 20):
        for allow_ss in (True, False):
            assert core.sweep(g, allow_ss) == first[g, allow_ss]
    assert calls == []


@pytest.mark.parametrize("mode", ["paper", "upper"])
@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["p", "0"])
@pytest.mark.parametrize("allow_ss", [True, False])
def test_values_are_the_records_of_the_value_set(mode, ctx, allow_ss):
    for g in range(1, 13):
        result = attainable(g, builtin(mode, g, ctx), ctx, allow_ss)
        status = "upper-only" if mode == "upper" else "certified"
        expected = tuple(RangeValue(rho, status, rho in result.star_set(), result.witness_for(rho))
                         for rho in sorted(result.value_set()))
        values = result.values
        assert values == expected
        assert all(type(v) is RangeValue for v in values)
        assert all(v.witness is not None and v.witness.rho() == v.rho for v in values)


@pytest.mark.parametrize("mode", ["paper", "upper"])
@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO, CharContext(p_split_policy="split")],
                         ids=["p", "0", "split"])
def test_star_sets_of_a_built_in_catalog_are_prefix_stable(mode, ctx):
    # The asymptotics checks read the dimension-n star and value sets off
    # the dimension-g core; the per-dimension cores are the oracle.
    big = _core(30, builtin(mode, 30, ctx), ctx)
    for n in range(1, 31):
        small = _grown(builtin(mode, n, ctx), ctx, n)
        assert big.star[n] == small.star[n], n
        classes = [big.index_class(n, s) for s in range(n + 1)]
        assert classes == [small.index_class(n, s) for s in range(n + 1)], n
        assert reduce(or_, classes) == small.values(n), n


def test_the_split_policy_changes_no_paper_value_set():
    # The conditional IV(1,n) entries change witnesses only: for every
    # g <= MAX_DIM the paper core has the same value and star bitsets
    # under each split policy.
    cores = [_core(MAX_DIM, paper_catalog(MAX_DIM, ctx), ctx)
             for ctx in (CharContext(p_split_policy=policy) for policy in ("unknown", "nonsplit", "split"))]
    for g in range(1, MAX_DIM + 1):
        assert len({(core.values(g), core.star[g]) for core in cores}) == 1, g


@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["p", "0"])
@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_value_and_star_sets_match_the_knapsack_up_to_max_dim(mode, ctx):
    # Above the brute force's reach, the knapsack over the entries judges
    # every g <= MAX_DIM: one run at MAX_DIM gives every lower dimension.
    top = builtin(mode, MAX_DIM, ctx)
    values, star = knapsack_values(MAX_DIM, top, ctx), knapsack_values(MAX_DIM, top, ctx, allow_ss=False)
    for g in range(1, MAX_DIM + 1):
        result = attainable(g, builtin(mode, g, ctx), ctx)
        assert result.value_set() == set_bits(values[g]) and result.star_set() == set_bits(star[g]), g


@settings(max_examples=60, deadline=None)
@given(custom_catalogs(), st.sampled_from([CHAR_P, CharContext(p_split_policy="split"), CHAR_ZERO]))
@example(Catalog((CatalogEntry(3, type_I(1)), CatalogEntry(4, type_I(1), "one"))), CHAR_P)
def test_custom_value_and_star_sets_match_the_knapsack(cat, ctx):
    # several single-class entries each give at most one power, up to g = 16
    values, star = knapsack_values(16, cat, ctx), knapsack_values(16, cat, ctx, allow_ss=False)
    for g in range(1, 17):
        result = attainable(g, cat, ctx)
        assert result.value_set() == set_bits(values[g]) and result.star_set() == set_bits(star[g]), g


def _seeded_catalogs(count):
    """Seeded random catalogs of four to seven entries from the custom pool,
    each single-class or unbounded and ``always`` or ``p_split`` at random,
    every other one with the supersingular entry."""
    rng, cats, conditions = random.Random(61), [], ("always", "p_split")
    for i in range(count):
        entries = [CatalogEntry(n, t, rng.choice(CLASS_COUNTS), rng.choice(conditions))
                   for n, t in rng.sample(_CUSTOM_POOL, rng.randint(4, 7))]
        if i % 2:
            entries.append(CatalogEntry(1, SUPERSINGULAR_TYPE, "one", rng.choice(conditions)))
        cats.append(Catalog(tuple(sorted(entries, key=lambda e: e.sort_key))))
    return cats


@pytest.mark.parametrize("policy", ["split", "nonsplit"])
def test_p_split_entries_count_under_the_split_policy_alone(policy):
    # No built-in value set depends on the split policy, so 61 catalogs with
    # conditional entries judge the core's reading of it against the
    # knapsack's: the committed custom catalog and 60 seeded ones, g <= 30.
    ctx = CharContext(p_split_policy=policy)
    cats = [load_catalog(str(DATA / "custom_catalog.json"), ctx)] + _seeded_catalogs(60)
    conditional = Counter(e.class_count for cat in cats for e in cat.entries if e.condition == "p_split")
    assert min(conditional["one"], conditional["unbounded"]) >= 60  # many of either kind
    for cat in cats:
        values, star = knapsack_values(30, cat, ctx), knapsack_values(30, cat, ctx, allow_ss=False)
        for g in range(1, 31):
            result = attainable(g, cat, ctx)
            assert result.value_set() == set_bits(values[g]), (cat, g)
            assert result.star_set() == set_bits(star[g]), (cat, g)


@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["p", "0"])
@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_index_classes_match_the_knapsack_by_ss_power(mode, ctx):
    # one run at 30 gives every lower dimension, split by the power of ss
    classes = knapsack_index_classes(30, builtin(mode, 30, ctx), ctx)
    for g in range(1, 31):
        core = _core(g, builtin(mode, g, ctx), ctx)
        assert [core.index_class(g, s) for s in range(g + 1)] == classes[g], g


@pytest.mark.parametrize("mode", ["paper", "upper"])
@pytest.mark.parametrize("allow_ss", [True, False])
def test_every_witness_at_max_dim_is_offered_by_the_catalog(mode, allow_ss):
    # Above test_sweep_matches_walk's reach, each listed witness is judged
    # on its own, its blocks against the catalog's entries, not the core.
    g = MAX_DIM
    cat = builtin(mode, g, CHAR_P)
    offered = {(e.simple_dim, e.albert): e.class_count for e in counted_entries(cat, CHAR_P, allow_ss)}
    core, largest, seen = _core(g, cat, CHAR_P), {}, 0
    for s in range(g if allow_ss else 0, -1, -1):  # each value at the largest index that holds it
        fresh = core.index_class(g, s) & ~seen
        largest.update(dict.fromkeys(set_bits(fresh), s))
        seen |= fresh
    values = attainable(g, cat, CHAR_P, allow_ss).values
    assert [v.rho for v in values] == sorted(largest)
    for v in values:
        w = v.witness
        assert parse(str(w)) == w and (w.rho(), w.dim()) == (v.rho, g), v.rho
        keys = [(b.simple_dim, b.albert) for b in w.blocks]
        assert all(key in offered for key in keys), w
        single = [key for key in keys if offered[key] != "unbounded"]
        assert len(single) == len(set(single)), w  # a single-class entry gives one block
        assert w.ss_index() == largest[v.rho], w


def _check_entry_table(g, catalog, ctx):
    """The core's entry rows against ``blocks_for_dim``, the per-dimension
    view of the catalog, as (dimension, type, power, value, unbounded)."""
    core = _grown(catalog, ctx, g)
    table = [(n, albert, k, rho, bit == 0) for bit, n, albert, rhos in _rows(core)
             for k, rho in enumerate(rhos, 1)]
    reference = [(b.simple_dim, b.albert, b.power, b.rho, count == "unbounded")
                 for m in range(1, g + 1) for b, count in blocks_for_dim(catalog, m, ctx)]
    assert Counter(table) == Counter(reference)
    assert all(row[1] == n for n, rows in enumerate(core._by_dim) for row in rows)
    entries = {(e.simple_dim, e.albert): e for e in catalog.entries}
    single_bits = []
    for bit, n, albert, rhos in _rows(core):
        entry = entries[n, albert]
        assert len(rhos) == g // n  # its powers 1..g // n, which the table above places
        if entry.is_supersingular:
            assert bit == _SS_BIT
        elif entry.class_count == "unbounded":
            assert bit == 0
        else:
            single_bits.append(bit)
    assert len(set(single_bits)) == len(single_bits)
    assert all(bit > _SS_BIT and bit & (bit - 1) == 0 for bit in single_bits)
    assert core.has_ss == any(bit == _SS_BIT for bit, *_ in _rows(core))


@pytest.mark.parametrize("g", [1, 7, 30])
@pytest.mark.parametrize("mode", ["paper", "upper"])
@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO, CharContext(p_split_policy="split")],
                         ids=["p", "0", "split"])
def test_entry_table_matches_blocks_for_dim(g, mode, ctx):
    _check_entry_table(g, builtin(mode, g, ctx), ctx)


@settings(max_examples=150, deadline=None)
@given(custom_catalogs(), st.integers(1, 7),
       st.sampled_from([CHAR_P, CharContext(p_split_policy="split")]))
def test_entry_table_matches_blocks_for_dim_on_custom_catalogs(cat, g, ctx):
    _check_entry_table(g, cat, ctx)


def test_entry_table_drops_the_supersingular_entry_in_characteristic_zero():
    # a catalog built for characteristic p, asked in characteristic 0
    core = _grown(builtin("paper", 7, CHAR_P), CHAR_ZERO, 7)
    assert not core.has_ss and all(bit != _SS_BIT for bit, *_ in _rows(core))
    assert core.values(7) == _grown(builtin("paper", 7, CHAR_ZERO), CHAR_ZERO, 7).values(7)


def test_a_shorter_built_in_catalog_keeps_its_own_entries():
    # the paper family's core is grown past 10 first, so sharing it would
    # bring in the entries of dimensions 6..10
    big = _core(12, paper_catalog(12, CHAR_P), CHAR_P)
    small = paper_catalog(5, CHAR_P)
    assert _core(10, paper_catalog(12, CHAR_P), CHAR_P) is big
    assert _core(10, small, CHAR_P) is not big
    for g in (6, 8, 10):
        result = attainable(g, small, CHAR_P)
        assert result.value_set() == brute_force_values(g, small, CHAR_P)
        assert result.star_set() == brute_force_star(g, small, CHAR_P)
        assert result.value_set() != attainable(g, paper_catalog(g, CHAR_P), CHAR_P).value_set()
    listed = _oracle_listing(8, small, True)
    assert {v.rho: str(v.witness) for v in attainable(8, small, CHAR_P).values} == {
        rho: str(ds[0]) for rho, ds in listed.items()}


@pytest.mark.parametrize("entries", [
    builtin("paper", 6, CHAR_P).entries[:-1],  # dimension 6 only in part
    builtin("paper", 6, CHAR_P).entries + (CatalogEntry(2, type_I(2)),),
    tuple(e for e in builtin("paper", 6, CHAR_P).entries if e.albert != SUPERSINGULAR_TYPE),
], ids=["cut", "extra", "no-ss"])
def test_a_hand_built_catalog_with_other_entries_keeps_them(entries):
    cat = Catalog(tuple(sorted(entries, key=lambda e: e.sort_key)), mode="paper")
    _core(12, paper_catalog(12, CHAR_P), CHAR_P)  # the family's core, grown past 6
    for g in range(1, 8):
        result = attainable(g, cat, CHAR_P)
        assert result.value_set() == brute_force_values(g, cat, CHAR_P), g
        assert result.star_set() == brute_force_star(g, cat, CHAR_P), g
        if g <= 6:
            listed = _oracle_listing(g, cat, True)
            assert {v.rho: str(v.witness) for v in result.values} == {
                rho: str(ds[0]) for rho, ds in listed.items()}, g


def test_an_equal_catalog_shares_the_family_core():
    entries = builtin("upper", 9, CHAR_P).entries
    assert _core(7, Catalog(entries, mode="upper"), CHAR_P) is _core(7, upper_catalog(8, CHAR_P), CHAR_P)
    assert _core(7, Catalog(entries), CHAR_P) is not _core(7, upper_catalog(9, CHAR_P), CHAR_P)


def test_one_core_per_family_after_the_family_is_evicted():
    # as many new families as _core has keys evict the paper family's keys,
    # and its core with them; the next key builds one core, which all share
    _core.cache_clear()  # no key made by an earlier test
    _core(10, builtin("paper", 10, CHAR_P), CHAR_P)
    for n in range(1, _core.cache_info().maxsize + 1):
        _core(1, Catalog((CatalogEntry(n, type_I(1)),)), CHAR_P)
    grown = _core(12, builtin("paper", 12, CHAR_P), CHAR_P)
    assert _core(10, builtin("paper", 10, CHAR_P), CHAR_P) is grown
    assert grown is _core(12, "paper", CHAR_P) and grown.g == 12


def test_no_more_cores_are_alive_than_core_keys():
    # a core lives while a key of _core holds it, and the keys of one
    # family share its one core while other families' keys come and go
    maxsize = _core.cache_info().maxsize
    _core.cache_clear()
    for n in range(1, maxsize + 5):
        _core(1, Catalog((CatalogEntry(n, type_I(1)),)), CHAR_P)
        _core(n % 3 + 8, "paper", CHAR_P)
    gc.collect()
    cores = [x for x in gc.get_objects() if isinstance(x, _Core)]
    assert len(cores) == len(ranges._CORES) <= maxsize
    assert [c.g for c in cores if c.source == "paper" and c.ctx == CHAR_P] == [10]


@pytest.mark.parametrize("source", ["upper", Catalog(tuple(sorted((
    CatalogEntry(1, type_I(1)), CatalogEntry(1, SUPERSINGULAR_TYPE, "one"), CatalogEntry(2, type_I(1), "one"),
    CatalogEntry(3, type_I(1)), CatalogEntry(5, type_I(1), "one")), key=lambda e: e.sort_key)))],
    ids=["upper", "single-class-entry-with-growth"])
def test_longest_grows_by_rows_and_rebuilds_none(source):
    g, k = 4, 5  # the custom catalog's dimension-5 entry arrives with the growth
    core = _Core(source, CHAR_P)
    core.grow(g)
    rows = core.longest
    kept = list(rows)
    assert core.longest is rows and all(a is b for a, b in zip(core.longest, kept))  # a second read builds no row
    core.grow(g + k)
    longest = core.longest
    assert len(longest) == g + k + 1 and all(a is b for a, b in zip(longest, kept))
    fresh = _Core(source, CHAR_P)
    fresh.grow(g + k)
    assert longest == fresh.longest


def _assert_same_answers(grown, fresh, g):
    """Every answer and table of dimension g of a grown core against a fresh
    core built at g."""
    def rows(core):  # each entry row of simple dimension n <= g, its powers up to g
        return [(bit, n, albert, rhos[:g // n]) for bit, n, albert, rhos in _rows(core) if n <= g]

    assert rows(grown) == rows(fresh)
    assert all(row[1] == n for n, rows_n in enumerate(grown._by_dim) for row in rows_n)
    for n in range(g + 1):
        assert grown.values(n) == fresh.values(n) and grown.star[n] == fresh.star[n], n
        assert all(grown.index_class(n, s) == fresh.index_class(n, s) for s in range(n + 1)), n
        assert grown.longest[n] == fresh.longest[n], n
    for m in range(g + 1):
        for d in range(g + 1):
            assert grown.snapshots[m][d] == fresh.snapshots[m][d], (m, d)
    for allow_ss in (True, False):
        bits = fresh.values(g) if allow_ss else fresh.star[g]
        assert grown.sweep(g, allow_ss) == fresh.sweep(g, allow_ss), allow_ss
        for rho in _members(bits)[-3:]:
            assert list(grown.walk(g, rho, allow_ss)) == list(fresh.walk(g, rho, allow_ss)), rho
    (order, ends), (fresh_order, fresh_ends) = grown._index(), fresh._index()
    assert (len(ends), len(fresh_ends)) == (grown.g + 1, g + 1)  # each indexed to its own g
    for m in range(g + 1):
        assert order[:ends[m]] == fresh_order[:fresh_ends[m]], m


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("ctx, mode", [
    (CHAR_P, "paper"), (CHAR_P, "upper"), (CHAR_ZERO, "paper"), (CHAR_ZERO, "upper"),
    (CharContext(p_split_policy="split"), "paper"),  # the conditional IV(1,n) entries grow too
], ids=["p-paper", "p-upper", "0-paper", "0-upper", "split-paper"])
def test_a_grown_core_matches_fresh_cores(order, mode, ctx):
    gs = list(range(1, 25))
    if order == "descending":
        gs.reverse()
    elif order == "shuffled":
        random.Random(19).shuffle(gs)
    grown = _Core(mode, ctx)
    for g in gs:
        grown.grow(g)
        assert grown.g == max(gs[:gs.index(g) + 1])
        _assert_same_answers(grown, _grown(builtin(mode, g, ctx), ctx, g), g)


@settings(max_examples=60, deadline=None)
@given(custom_catalogs(), st.lists(st.integers(1, 6), min_size=1, max_size=6))
def test_a_grown_custom_core_matches_fresh_cores(cat, gs):
    grown = _Core(cat, CHAR_P)
    for g in gs:
        grown.grow(g)
        _assert_same_answers(grown, _grown(cat, CHAR_P, g), g)


def test_growing_a_core_builds_and_reads_only_the_new_blocks(monkeypatch):
    """Growing the upper core, candidate index included, from 40 to 41
    reads the values of no entry row that gains none, except those of the
    single-class rows, whose stage adds each of their powers to the new
    column, and of a growing row only its new power.  A core makes no block
    before its index exists; then growth makes one per new (row, power):
    the index appends each but ss^41, which goes to the search's root."""
    read = set()

    class ReadList(list):
        def __getitem__(self, i):
            read.add((id(self), i))
            return super().__getitem__(i)

        def __iter__(self):
            read.add((id(self), "all"))
            return super().__iter__()

    made = _count_blocks(monkeypatch)
    core = _Core("upper", CHAR_P)
    core.grow(40)
    assert made == []  # no index yet
    old = list(core._index()[0])
    assert len(made) == len(old) + len(core._ss) == sum(len(rhos) for *_, rhos in _rows(core))
    swap = {}  # every row's values, as a ReadList, in its row and in its stage alike
    for rows in core._by_dim:
        rows[:] = [(bit, n, albert, swap.setdefault(id(rhos), ReadList(rhos)))
                   for bit, n, albert, rhos in rows]
    core._stages[:] = [(m, free, swap.get(id(rhos), rhos), row) for m, free, rhos, row in core._stages]
    made.clear()
    core.grow(41)
    grown = [rhos for _, n, _, rhos in _rows(core) if n < 41 and 41 % n == 0]
    allowed = {(id(rhos), len(rhos) - 1) for rhos in grown}  # a growing row's new power
    allowed |= {(id(rhos), "all") for bit, *_, rhos in _rows(core) if bit}
    assert read <= allowed
    entries = builtin("upper", 41, CHAR_P).entries
    assert Counter((b.simple_dim, b.albert, b.power) for b in made) == Counter(
        (e.simple_dim, e.albert, 41 // e.simple_dim) for e in entries if 41 % e.simple_dim == 0)
    order, ends = core._fitting  # grown by grow itself, as a search had built it
    indexed = [b for b in made if b is not core._ss[-1]]
    assert order[:len(old)] == old and ends[41] == len(order)  # the new blocks go at the end
    assert sorted(id(block) for block, *_ in order[len(old):]) == sorted(id(b) for b in indexed)


def test_a_paper_scan_checks_each_kept_tail_once(monkeypatch):
    """The linear normal-form check runs once per kept tail, where the search
    finds it, and once per lone ss^g; every other witness is ss^s joined to a
    kept tail in O(1).  A paper scan g = 1..18 reading every witness keeps
    344 tails and lists 1,966 witnesses."""
    calls = []
    check = decomp.check_normalized

    def counted(blocks):
        calls.append(blocks)
        check(blocks)

    monkeypatch.setattr(decomp, "check_normalized", counted)
    monkeypatch.setattr(ranges, "check_normalized", counted)
    core, listed = _Core("paper", CHAR_P), 0
    for g in range(1, 19):
        core.grow(g)
        listed += len(core.witnesses(g, True))
    kept = {id(tail) for tails in core._tails.values() for tail in tails.values()}
    assert (len(calls), len(kept), listed) == (362, 344, 1966)
    assert sorted(id(blocks) for blocks in calls if id(blocks) in kept) == sorted(kept)
    assert [blocks for blocks in calls if id(blocks) not in kept] == [(b,) for b in core._ss[:18]]


def test_every_paper_scan_witness_has_the_ss_index_of_a_scan_over_its_blocks():
    core = _Core("paper", CHAR_P)
    for g in range(1, 19):
        core.grow(g)
        for allow_ss in (True, False):
            for w in core.witnesses(g, allow_ss).values():
                assert w.ss_index() == next((b.power for b in w.blocks if b.is_supersingular), 0)


@pytest.mark.parametrize("source, ctx", [
    *[(mode, ctx) for mode in ("paper", "upper") for ctx in (CHAR_P, CHAR_ZERO)],
    *[(load_catalog(str(DATA / "custom_catalog.json"), ctx), ctx)
      for ctx in (CharContext(p_split_policy=policy) for policy in ("split", "nonsplit"))],
], ids=["paper-p", "paper-0", "upper-p", "upper-0", "custom-split", "custom-nonsplit"])
def test_blocks_of_dim_are_the_entry_blocks_of_that_dimension(source, ctx):
    core = _grown(source, ctx, MAX_DIM)
    by_dim = {d: [] for d in range(1, MAX_DIM + 1)}
    for bit, n, albert, rhos in _rows(core):  # the block_dim == d filter, for every d in one pass
        for k, rho in enumerate(rhos, 1):
            by_dim[n * k].append((bit, n, albert, rho))
    for d in range(1, MAX_DIM + 1):
        assert core.blocks_of_dim(d) == by_dim[d], d


# Every public reader that takes a dimension, with the exact message of its
# refusal below 1.  The readers that ask the core first (attainable, gaps,
# density, conjecture_rhs) get the core's one check; the others check first
# themselves, as their own message or another argument would speak first.
DIMENSION_CHECKS = {
    "attainable": (lambda g: attainable(g, builtin("paper", 5, CHAR_P)), "g must be positive"),
    "membership": (lambda g: membership(1, g), "g must be positive"),
    "max_by_length": (lambda g: max_by_length(1, g), "g must be positive"),
    "gaps": (gaps, "g must be positive"),
    "density": (asymptotics.density, "g must be positive"),
    "density_table": (asymptotics.density_table, "g_max must be positive"),
    "conjecture_rhs": (asymptotics.conjecture_rhs, "g must be positive"),
    "conjecture_check": (asymptotics.conjecture_check, "the recursive description needs g >= 2"),
    "nonadditivity_counterexamples": (asymptotics.nonadditivity_counterexamples,
                                      "g must be at least 2"),
    "structure_witnesses": (lambda g: structure_witnesses(g, 1), "g must be positive"),
    "blocks_for_dim": (lambda g: blocks_for_dim(builtin("paper", 5, CHAR_P), g),
                       "dimension must be positive"),
    "completeness_bound": (formulas.completeness_bound, "g must be positive"),
    "completeness_witness": (lambda g: formulas.completeness_witness(1, g), "g must be positive"),
    "moduli_dims": (moduli_dims, "g must be positive"),
    "restrictions_ok": (lambda g: albert.restrictions_ok(type_I(1), g), "dimension must be positive"),
    "admissible_types": (albert.admissible_types, "dimension must be positive"),
    "rho_power": (lambda g: albert.rho_power(type_I(1), g), "power must be positive"),
    "endo_dim": (lambda g: albert.endo_dim(type_I(1), g), "power must be positive"),
}


@pytest.mark.parametrize("g", [0, -1])
@pytest.mark.parametrize("name", DIMENSION_CHECKS)
def test_a_dimension_below_one_is_refused_with_its_message(name, g):
    call, message = DIMENSION_CHECKS[name]
    with pytest.raises(ValueError) as info:
        call(g)
    assert str(info.value) == message
