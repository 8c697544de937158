import gc
from collections import Counter
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_decompositions,
    brute_force_max_by_length,
    brute_force_star,
    brute_force_values,
)
from picard_ranges.albert import CHAR_P, CHAR_ZERO, CharContext, admissible_types
from picard_ranges.catalog import CLASS_COUNTS, Catalog, CatalogEntry, blocks_for_dim, builtin
from picard_ranges.decomp import SUPERSINGULAR_TYPE, Decomposition, parse
from picard_ranges.ranges import (
    _SS_BIT,
    _Core,
    _core,
    _members,
    attainable,
    attainable_by_ss_index,
    gaps,
    length_max_closed_form,
    max_by_length,
    max_picard,
    membership,
    paper_catalog,
    parity_filter,
    ss_rho,
    structure_witnesses,
    translated_range,
    upper_catalog,
)

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
    for s, vals in attainable_by_ss_index(g, upper_catalog(g, CHAR_P), CHAR_P).items():
        if s == 0:
            assert all(v <= g * g for v in vals)
        else:
            assert all(v <= 2 * g * g - g for v in vals)


@pytest.mark.parametrize("g", range(1, 31))
def test_witnesses_are_valid(g):
    # Every sweep witness passes the full check: re-normalized, re-parsed,
    # and of the right dimension and Picard number.
    results = {}
    for mode in ("paper", "conservative", "upper"):
        cat = builtin(mode, g, CHAR_P)
        for allow_ss in (True, False):
            result = results[mode, allow_ss] = attainable(g, cat, CHAR_P, allow_ss)
            for v in result.values:
                w = v.witness
                assert w is not None
                assert Decomposition.from_blocks(w.blocks) == w
                assert parse(str(w)) == w
                assert (w.dim(), w.rho()) == (g, v.rho)
                if not v.star:
                    assert w.ss_index() > 0
    for allow_ss in (True, False):
        conservative, lower, upper = (results[mode, allow_ss].value_set()
                                      for mode in ("conservative", "paper", "upper"))
        assert conservative <= lower <= upper
    for mode in ("paper", "conservative", "upper"):
        assert results[mode, False].value_set() <= results[mode, True].value_set()


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


def test_membership_walks_a_witness_only_for_a_certified_value():
    g = 13
    statuses = set()
    misses = 0
    for rho in range(1, max_picard(g) + 1):
        before = attainable.cache_info()
        status = membership(rho, g, CHAR_P).status
        after = attainable.cache_info()
        statuses.add(status)
        if status == "certified":
            # one call to attainable(g, paper catalog), a hit after the first
            assert after.hits + after.misses == before.hits + before.misses + 1
            misses += after.misses - before.misses
        else:
            assert after == before
    assert misses <= 1
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
    from picard_ranges.catalog import from_obj

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
    """rho -> every decomposition, sorted by formatted string."""
    listed = {}
    for d in brute_force_decompositions(g, cat, CHAR_P, allow_ss):
        listed.setdefault(d.rho(), []).append(d)
    return listed


@pytest.mark.parametrize("g", range(1, 9))
@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_witnesses_are_smallest_strings_of_oracle(g, mode):
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


@settings(max_examples=150, deadline=None)
@given(custom_catalogs(), st.integers(1, 6))
def test_core_matches_oracle_on_custom_catalogs(cat, g):
    full = attainable(g, cat, CHAR_P)
    star = attainable(g, cat, CHAR_P, allow_ss=False)
    for result, allow_ss in ((full, True), (star, False)):
        listed = _oracle_listing(g, cat, allow_ss)
        assert result.value_set() == set(listed)
        assert {v.rho: str(v.witness) for v in result.values} == {
            rho: str(ds[0]) for rho, ds in listed.items()}
    assert full.star_set() == star.value_set()
    by_index = attainable_by_ss_index(g, cat, CHAR_P)
    assert set().union(*by_index.values()) == full.value_set()
    assert by_index[0] == star.value_set()
    # the oracle judges the walk's prune, which the sweep shares
    core = _core(g, cat, CHAR_P)
    for allow_ss in (True, False):
        listed = _oracle_listing(g, cat, allow_ss)
        for v in range(max_picard(g) + 1):
            assert list(core.walk(v, allow_ss)) == listed.get(v, []), (v, allow_ss)


@settings(max_examples=150, deadline=None)
@given(custom_catalogs(), st.integers(1, 6))
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


@pytest.mark.parametrize("g", [1, 6, 10])
@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_supersingular_tables_match_their_definitions(g, mode):
    core = _Core(g, builtin(mode, g, CHAR_P), CHAR_P)  # fresh: no cell is filled yet

    def one_ss_at_most(m, d, top):
        """Values of dimension d from blocks of dimension at most m and one
        ss^s with s <= top."""
        out = 0
        for s in range(min(top, d) + 1):
            out |= core.snapshots[min(m, d - s)][d - s] << ss_rho(s)
        return out

    core.sweep(core.values)  # fills the cells the search reads
    filled = [(m, d) for m, row in enumerate(core.below_ss)
              for d, bits in enumerate(row) if bits is not None]
    assert filled
    for m, d in filled:
        assert core.below_ss[m][d] == one_ss_at_most(m, d, m - 1), (m, d)
    for m in range(g + 1):  # every cell, through the accessor that fills it
        for d in range(g + 1):
            assert core._below(m, d) == one_ss_at_most(m, d, m - 1), (m, d)


def test_one_structure_query_fills_a_small_part_of_the_table():
    g = 30
    _core.cache_clear()  # a fresh core: no earlier search has filled a cell
    assert structure_witnesses(g, 600, CHAR_P)
    below = _core(g, paper_catalog(g, CHAR_P), CHAR_P).below_ss
    filled = sum(bits is not None for row in below for bits in row)
    assert 0 < filled < (g + 1) ** 2 / 4


def _first_walks(core, bits, allow_ss):
    """The judge of the sweep: the first decomposition the walk gives for
    each value of the bitset that has one."""
    first = {}
    for v in _members(bits):
        witness = next(core.walk(v, allow_ss), None)
        if witness is not None:
            first[v] = witness
    return first


@pytest.mark.parametrize("g", [8, 20, 40])
@pytest.mark.parametrize("mode", ["paper", "upper"])
def test_sweep_matches_walk(g, mode):
    core = _core(g, builtin(mode, g, CHAR_P), CHAR_P)
    for allow_ss in (True, False):
        bits = core.values if allow_ss else core.star[g]
        swept = core.sweep(bits, allow_ss)
        assert set(swept) == set(_members(bits))
        assert swept == _first_walks(core, bits, allow_ss), allow_ss


@settings(max_examples=150, deadline=None)
@given(custom_catalogs(), st.integers(1, 6), st.booleans())
def test_sweep_matches_walk_on_custom_catalogs(cat, g, allow_ss):
    core = _core(g, cat, CHAR_P)
    every_value = (2 << max_picard(g)) - 1  # 0..2g^2-g, unattainable ones included
    assert core.sweep(every_value, allow_ss) == _first_walks(core, every_value, allow_ss)


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
    attainable.cache_clear()  # a fresh result: nothing of it has been read yet
    result = attainable(g, cat, CHAR_P, allow_ss)
    value_set, star_set = result.value_set(), result.star_set()
    before = [result.witness_for(rho) for rho in every_rho]
    values = result.values
    assert value_set == result.value_set() == {v.rho for v in values}
    assert star_set == result.star_set() == {v.rho for v in values if v.star}
    assert [result.witness_for(rho) for rho in every_rho] == before
    attainable.cache_clear()
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
            assert list(core.walk(rho, allow_ss)) == []
        assert structure_witnesses(g, rho, CHAR_P, mode=mode) == []


def test_value_queries_build_no_witness_tables():
    from picard_ranges.asymptotics import conjecture_check, density

    g = 30
    _core.cache_clear()  # fresh cores: no earlier test has searched them
    attainable.cache_clear()
    refuted = gaps(g, CHAR_P)[0][0]
    density(g, CHAR_P)
    conjecture_check(g, CHAR_P)
    assert membership(refuted, g, CHAR_P).status == "refuted"
    tables = {"below_ss", "_fitting"}
    for read in (lambda r: r.values, lambda r: r.witness_for(1)):
        for cat in (paper_catalog(g, CHAR_P), upper_catalog(g, CHAR_P)):
            core = _core(g, cat, CHAR_P)
            results = [attainable(g, cat, CHAR_P, allow_ss) for allow_ss in (True, False)]
            for result in results:
                assert result.value_set() and result.star_set() and parity_filter(result)
                # unread, it holds neither the core nor a tuple of values
                assert not any(isinstance(x, _Core) or type(x) is tuple for x in gc.get_referents(result))
            assert not tables & set(vars(core))
            read(results[0])  # the full sweep builds both; a star sweep reads no below_ss
            assert tables <= set(vars(core))
        _core.cache_clear()  # fresh cores and results for the next way of reading
        attainable.cache_clear()


@pytest.mark.parametrize("mode", ["paper", "conservative", "upper"])
@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO, CharContext(p_split_policy="split")],
                         ids=["p", "0", "split"])
def test_star_sets_of_a_built_in_catalog_are_prefix_stable(mode, ctx):
    # The asymptotics checks read the dimension-n star and value sets off
    # the dimension-g core; the per-dimension cores are the oracle.
    big = _core(30, builtin(mode, 30, ctx), ctx)
    for n in range(1, 31):
        small = _core(n, builtin(mode, n, ctx), ctx)
        assert big.star[n] == small.star[n], n
        assert big.by_index_at(n) == small.by_index_at(n), n
        assert reduce(or_, big.by_index_at(n).values()) == small.values, n


def _check_entry_table(g, catalog, ctx):
    """The core's entry table against ``blocks_for_dim``, the per-dimension
    view of the catalog."""
    core = _Core(g, catalog, ctx)
    table = [(b, bit == 0) for bit, blocks in core.entries for b in blocks]
    reference = [(b, count == "unbounded")
                 for m in range(1, g + 1) for b, count in blocks_for_dim(catalog, m, ctx)]
    assert Counter(table) == Counter(reference)
    # the very blocks blocks_for_dim hands out, shared across cores
    assert {id(b) for b, _ in table} == {id(b) for b, _ in reference}
    entries = {(e.simple_dim, e.albert): e for e in catalog.entries}
    single_bits = []
    for bit, blocks in core.entries:
        entry = entries[blocks[0].simple_dim, blocks[0].albert]
        assert [(b.simple_dim, b.albert, b.power) for b in blocks] == [
            (entry.simple_dim, entry.albert, k) for k in range(1, g // entry.simple_dim + 1)]
        if entry.is_supersingular:
            assert bit == _SS_BIT
        elif entry.class_count == "unbounded":
            assert bit == 0
        else:
            single_bits.append(bit)
    assert len(set(single_bits)) == len(single_bits)
    assert all(bit > _SS_BIT and bit & (bit - 1) == 0 for bit in single_bits)
    assert core.has_ss == any(bit == _SS_BIT for bit, _ in core.entries)


@pytest.mark.parametrize("g", [1, 7, 30])
@pytest.mark.parametrize("mode", ["paper", "conservative", "upper"])
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
    core = _Core(7, builtin("paper", 7, CHAR_P), CHAR_ZERO)
    assert not core.has_ss and all(bit != _SS_BIT for bit, _ in core.entries)
    assert core.values == _Core(7, builtin("paper", 7, CHAR_ZERO), CHAR_ZERO).values
