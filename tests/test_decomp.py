import copy
import pickle
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from picard_ranges.albert import type_I, type_II, type_III, type_IV
from picard_ranges.decomp import (
    Block,
    CM_TYPE,
    Decomposition,
    ORDINARY_TYPE,
    ParseError,
    SUPERSINGULAR_TYPE,
    normalize,
    parse,
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
    for text, message in (("[IV(1); dim=2]", "type IV needs two parameters (at position 0)"),
                          ("[I(1,2); dim=2]", "type I takes one parameter (at position 0)")):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.pos, str(exc.value)) == (0, message)
    with pytest.raises(ValueError):
        parse("[I(0); dim=2]")
    with pytest.raises(ValueError):
        parse("[IV(1,0); dim=2]")
    with pytest.raises(ValueError):
        parse("[I(1); dim=0]")


def test_format_examples():
    assert str(parse("ord * ss^2")) == "ss^2 * ord"
    assert str(Decomposition.from_blocks([supersingular_block(4)])) == "ss^4"
    assert str(parse("[I(1); dim=3]^1 * cm^2")) == "[I(1); dim=3] * cm^2"


@settings(max_examples=300)
@given(decomposition)
def test_parse_format_round_trip(d):
    assert parse(str(d)) == d


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


def test_p_rank_intervals():
    assert parse("ss^6").p_rank_interval() == (0, 0)
    assert parse("ss^5 * ord").p_rank_interval() == (1, 1)
    assert parse("[I(1); dim=3]").p_rank_interval() == (0, 3)
    assert parse("[II(1); dim=2]^3").p_rank_interval() == (3, 6)
    assert parse("ss^2 * cm^2 * [I(1); dim=4]").p_rank_interval() == (2, 6)


@given(decomposition)
def test_p_rank_interval_within_dimension(d):
    lo, hi = d.p_rank_interval()
    assert 0 <= lo <= hi <= d.dim()
    # zero upper bound characterizes purely supersingular classes
    assert (hi == 0) == (d.ss_index() == d.dim())


low_dim_block = st.one_of(
    st.builds(Block, simple_dim=st.just(1),
              albert=st.sampled_from([SUPERSINGULAR_TYPE, ORDINARY_TYPE, CM_TYPE]),
              power=st.integers(1, 5)),
    st.builds(Block, simple_dim=st.just(2),
              albert=st.sampled_from([type_I(1), type_II(1)]),
              power=st.integers(1, 3)),
)


@given(st.lists(low_dim_block, min_size=1, max_size=5))
def test_p_rank_zero_forces_supersingular_in_low_dimension(blocks):
    # with factors of dimension <= 2 only, p-rank 0 happens just for ss^g
    d = Decomposition.from_blocks(blocks)
    lo, hi = d.p_rank_interval()
    assert (lo == hi == 0) == (d.ss_index() == d.dim())


def test_slope_half_multiplicity():
    assert parse("ss^3").slope_half_multiplicity() == 6
    assert parse("[I(1); dim=4]").slope_half_multiplicity() == 0
    assert parse("ss^2 * ord").slope_half_multiplicity() == 4


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
