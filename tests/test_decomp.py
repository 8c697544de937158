import copy
import gc
import pickle
import time
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from picard_ranges._grammar import parse
from picard_ranges.albert import ParseError, type_I, type_II, type_III, type_IV
from picard_ranges.decomp import (
    SUPERSINGULAR_TYPE,
    Block,
    CM_TYPE,
    Decomposition,
    ORDINARY_TYPE,
    check_normalized,
    normalize,
    supersingular_block,
)

formal_type = st.one_of(
    st.integers(1, 3).map(type_I),
    st.integers(1, 3).map(type_II),
    st.integers(1, 3).map(type_III),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda p: type_IV(*p)),
)
formal_block = st.builds(
    Block,
    simple_dim=st.integers(1, 4),
    albert=formal_type,
    power=st.integers(1, 4),
)
raw_blocks = st.lists(formal_block, min_size=1, max_size=6)
decomposition = raw_blocks.map(Decomposition.from_blocks)


def test_parse_aliases_and_powers():
    d = parse("ss^3 * cm^2 * ord")
    assert [str(b) for b in d.blocks] == ["ss^3", "cm^2", "ord"]
    assert d.blocks[0].is_supersingular
    assert d.blocks[1].albert == CM_TYPE and d.blocks[1].power == 2
    assert d.blocks[2].albert == ORDINARY_TYPE and d.blocks[2].power == 1


def test_parse_merges_supersingular_factors():
    assert str(parse("ss^2 * ss^2")) == "ss^4"
    assert str(parse("[III(1); dim=1]^2 * ss")) == "ss^3"


def test_parse_bracket_blocks():
    d = parse("[II(1); dim=2]^3")
    assert d.length() == 1
    b = d.blocks[0]
    assert b.simple_dim == 2 and b.power == 3 and b.albert == type_II(1)
    assert not b.is_supersingular


def test_parse_whitespace_tolerance():
    assert str(parse("ss^2*ord")) == "ss^2 * ord"
    assert str(parse("  ss^2   *   ord  ")) == "ss^2 * ord"
    assert str(parse("[ IV( 1 , 2 ) ; dim = 2 ]")) == "[IV(1,2); dim=2]"


def test_parse_errors_carry_position():
    for text, pos in (("", 0), ("ss^", 2), ("ss * ", 5), ("ss & ord", 2), ("ss^0", 0)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.pos == pos
    # a bracketed label is read by parse_albert_type: its syntax errors are
    # placed at their block, and its invariants stay a plain ValueError
    for text, message in (("[IV(1); dim=2]", "type IV needs two parameters (at position 0)"),
                          ("[I(1,2); dim=2]", "type I takes one parameter (at position 0)"),
                          ("ord * [IV(1); dim=2]", "type IV needs two parameters (at position 6)"),
                          ("cm^2 * [V(1); dim=2]", "malformed Albert type 'V(1)' (at position 7)")):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.pos, str(exc.value)) == (text.index("["), message)
    # an integer past int()'s digit limit, as a power, a dimension or a
    # label's parameter, is a syntax error placed at its block
    nines = "9" * 4301
    for text, pos in ((f"ord * ss^{nines}", 6), (f"[I(1); dim={nines}]", 0), (f"cm * [IV(1,{nines}); dim=2]", 5)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.pos, str(exc.value)) == (
            pos, f"an integer has more digits than int() accepts (at position {pos})")
    for text in ("[I(0); dim=2]", "[IV(1,0); dim=2]", "[I(1); dim=0]"):
        with pytest.raises(ValueError) as exc:
            parse(text)
        assert type(exc.value) is ValueError


def test_format_examples():
    assert str(parse("ord * ss^2")) == "ss^2 * ord"
    assert str(Decomposition.from_blocks([supersingular_block(4)])) == "ss^4"
    assert str(parse("[I(1); dim=3]^1 * cm^2")) == "[I(1); dim=3] * cm^2"


@settings(max_examples=300)
@given(decomposition)
def test_parse_format_round_trip(d):
    assert parse(str(d)) == d


@pytest.mark.parametrize("alias, albert", [("ss", SUPERSINGULAR_TYPE), ("ord", ORDINARY_TYPE),
                                           ("cm", CM_TYPE)], ids=["ss", "ord", "cm"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_dimension_1_block_prints_its_alias_and_a_wider_one_the_bracket_form(alias, albert, k):
    power = "" if k == 1 else f"^{k}"
    one, two = Block(1, albert, k), Block(2, albert, k)
    assert (str(one), str(two)) == (alias + power, f"[{albert}; dim=2]{power}")
    for block in (one, two):
        assert parse(str(block)).blocks == (block,)


def test_parse_time_is_linear_in_the_text():
    # An end-of-input test that copies the rest of the text once per block
    # makes doubling 10k blocks take about 6.5 times as long; linear takes
    # 2.0.  The two sizes alternate, each timed with the collector off,
    # whose runs in a process holding many objects would blur the ratio.
    texts = [(" " * 60 + "*" + " " * 60).join(["ord"] * n) for n in (10_000, 20_000)]
    best = [float("inf")] * 2
    for _ in range(4):
        for i, text in enumerate(texts):
            gc.disable()
            try:
                start = time.perf_counter()
                parse(text)
                best[i] = min(best[i], time.perf_counter() - start)
            finally:
                gc.enable()
    assert best[1] / best[0] < 2.6


@settings(max_examples=300)
@given(st.lists(st.one_of(formal_block, st.integers(1, 4).map(supersingular_block)),
                min_size=1, max_size=6).map(Decomposition.from_blocks))
def test_ss_index_is_the_power_of_the_one_ss_block(d):
    assert d.ss_index() == sum(b.power for b in d.blocks if b.is_supersingular)


@given(raw_blocks)
def test_normalize_idempotent_and_dimension_preserving(blocks):
    once = normalize(blocks)
    assert normalize(once) == once
    assert sum(b.block_dim for b in once) == sum(b.block_dim for b in blocks)
    assert sum(1 for b in once if b.is_supersingular) <= 1


def test_normalize_keeps_distinct_ordinary_classes():
    b = Block(1, ORDINARY_TYPE, 1)
    assert len(normalize([b, b])) == 2
    assert str(Decomposition.from_blocks([b, b])) == "ord * ord"


def test_rho_examples():
    assert parse("ss^2").rho() == 6
    assert parse("ss^4").rho() == 28
    assert parse("ss^3 * cm^2 * ord").rho() == 20


def test_counting_invariants():
    d = parse("ss^3 * cm^2 * ord")
    assert (d.dim(), d.length(), d.ss_index()) == (6, 3, 3)
    d = parse("ss^4")
    assert (d.dim(), d.length(), d.ss_index()) == (4, 1, 4)
    d = parse("[I(1); dim=5]")
    assert (d.dim(), d.length(), d.ss_index()) == (5, 1, 0)


def test_endo_dim_and_tate_obstruction():
    assert parse("ss").endo_dim() == 4
    assert parse("ss").tate_obstruction() is False
    assert parse("[I(1); dim=3]").endo_dim() == 1
    assert parse("[I(1); dim=3]").tate_obstruction() is True
    assert parse("cm^2").endo_dim() == 8
    assert parse("cm^2").tate_obstruction() is False


def test_decomposition_construction_guards():
    with pytest.raises(ValueError):
        Decomposition(())
    with pytest.raises(ValueError):
        Decomposition((supersingular_block(1), supersingular_block(1)))
    unsorted = (Block(1, ORDINARY_TYPE, 1), Block(2, type_I(1), 1))
    with pytest.raises(ValueError):
        Decomposition(unsorted)
    with pytest.raises(ValueError):
        Decomposition([Block(1, ORDINARY_TYPE, 1)])  # a list is not a normalized tuple


# Raw tuples, normalized ones, and normalized ones reversed (unsorted unless
# every key is equal), with extra supersingular blocks mixed in.
any_block = st.one_of(formal_block, st.integers(1, 4).map(supersingular_block))
block_tuples = st.lists(any_block, max_size=6).map(tuple)


@settings(max_examples=300)
@given(st.one_of(block_tuples, block_tuples.map(normalize),
                 block_tuples.map(lambda t: normalize(t)[::-1])))
@example(())
@example((supersingular_block(1), supersingular_block(1)))
@example((Block(1, ORDINARY_TYPE, 1), Block(2, type_I(1), 1)))
def test_decomposition_accepts_exactly_the_normalized_tuples(blocks):
    normalized = (len(blocks) > 0 and sum(b.is_supersingular for b in blocks) <= 1
                  and blocks == normalize(blocks))
    if normalized:
        assert Decomposition(blocks).blocks == blocks
    else:
        with pytest.raises(ValueError):
            Decomposition(blocks)


@given(formal_block)
def test_block_identity_ignores_its_derived_data(block):
    derived = (str(block), block.sort_key, block.rho, block.is_supersingular)
    twin = Block(block.simple_dim, block.albert, block.power)
    for name in ("is_supersingular", "rho", "sort_key", "_text"):
        object.__setattr__(twin, name, None)  # spoil every derived slot
    assert twin == block and hash(twin) == hash(block)
    assert pickle.dumps(twin) == pickle.dumps(block)
    for copied in (pickle.loads(pickle.dumps(twin)), copy.copy(twin), copy.deepcopy(twin)):
        assert copied == block and hash(copied) == hash(block)
        assert (str(copied), copied.sort_key, copied.rho, copied.is_supersingular) == derived


# A small pool for the constructor's check: two supersingular powers, two
# equal blocks (equal keys), and blocks of falling size, so that a drawn
# sequence can hold a second ss, a tie or a decreasing pair.
CHECK_POOL = [
    supersingular_block(1), supersingular_block(2),
    Block(1, CM_TYPE, 1), Block(1, CM_TYPE, 1),
    Block(1, ORDINARY_TYPE, 2), Block(2, type_I(1), 1), Block(3, type_IV(1, 1), 1),
]


def _three_pass_check(blocks):
    """The constructor's check as three passes over the blocks, as it stood
    before it became one loop; the oracle of the test below."""
    if not blocks:
        raise ValueError("a decomposition needs at least one block")
    if [b.is_supersingular for b in blocks].count(True) > 1:
        raise ValueError("at most one supersingular block is allowed")
    keys = [b.sort_key for b in blocks]
    if not isinstance(blocks, tuple) or not all(map(le, keys, keys[1:])):
        raise ValueError("blocks are not in normalized form")


def _outcome(check, blocks):
    try:
        check(blocks)
    except Exception as error:  # noqa: BLE001  (the outcome is compared, type included)
        return type(error), str(error)
    return None


@settings(max_examples=400)
@given(st.lists(st.sampled_from(CHECK_POOL), max_size=5), st.booleans())
def test_constructor_check_matches_its_three_pass_form(blocks, as_tuple):
    if as_tuple:
        blocks = tuple(blocks)
    expected = _outcome(_three_pass_check, blocks)
    assert _outcome(Decomposition, blocks) == expected
    if expected is None:
        assert Decomposition(blocks).blocks is blocks


@settings(max_examples=200)
@given(st.lists(st.sampled_from(CHECK_POOL), min_size=1, max_size=5).map(normalize),
       st.sampled_from(CHECK_POOL[:2]))
def test_the_join_agrees_with_the_constructor_on_checked_tails(tail, ss):
    # For a tail that passed the linear check (ss-led or not) and a head that
    # is empty or one ss block, the O(1) join accepts and refuses what
    # __init__ does.
    check_normalized(tail)
    for head in ((), (ss,)):
        expected = _outcome(Decomposition, head + tail)
        assert _outcome(lambda _: Decomposition._joined(head, tail), None) == expected
        if expected is None:
            assert Decomposition._joined(head, tail) == Decomposition(head + tail)
    assert Decomposition._joined((), tail).blocks is tail


def test_the_join_refuses_a_head_other_than_one_ss_block_and_a_tail_that_starts_with_ss():
    ss, cm = supersingular_block(2), Block(1, CM_TYPE, 1)
    tail = (Block(3, type_IV(1, 1), 1), Block(2, type_I(1), 1))
    for head in ((cm,), (Block(4, type_I(1), 1),), (ss, ss), (ss, cm)):
        with pytest.raises(ValueError, match="^blocks are not in normalized form$"):
            Decomposition._joined(head, tail)
    with pytest.raises(ValueError, match="^at most one supersingular block is allowed$"):
        Decomposition._joined((ss,), (supersingular_block(1),) + tail)
