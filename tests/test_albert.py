import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_admissible_types
from picard_ranges.albert import (
    CHAR_P,
    CHAR_ZERO,
    AlbertType,
    CharContext,
    admissible_types,
    endo_dim,
    parse_albert_type,
    restrictions_ok,
    rho_power,
    type_I,
    type_II,
    type_III,
    type_IV,
)

any_type = st.one_of(
    st.integers(1, 10).map(type_I),
    st.integers(1, 10).map(type_II),
    st.integers(1, 10).map(type_III),
    st.tuples(st.integers(1, 10), st.integers(1, 10)).map(lambda p: type_IV(*p)),
)


def test_type_validation():
    with pytest.raises(ValueError):
        AlbertType("V", e=1)
    with pytest.raises(ValueError):
        type_I(0)
    with pytest.raises(ValueError):
        type_IV(1, 0)


def test_type_labels_round_trip():
    for t in (type_I(3), type_II(1), type_III(2), type_IV(2, 2)):
        assert parse_albert_type(str(t)) == t
    with pytest.raises(ValueError):
        parse_albert_type("IV(2)")
    with pytest.raises(ValueError):
        parse_albert_type("I(1,2)")
    with pytest.raises(ValueError):
        parse_albert_type("nonsense")


def test_context_validation():
    with pytest.raises(ValueError):
        CharContext(mode="weird")
    with pytest.raises(ValueError):
        CharContext(p=4)
    with pytest.raises(ValueError):
        CharContext(mode="zero", p=5)
    assert CharContext(p=7).positive


def test_restrictions_examples():
    assert restrictions_ok(type_IV(2, 2), 3, CHAR_P) is False
    assert restrictions_ok(type_I(1), 5, CHAR_P) is True
    assert restrictions_ok(type_I(1), 5, CHAR_ZERO) is True
    assert restrictions_ok(type_III(1), 1, CHAR_P) is True
    assert restrictions_ok(type_III(1), 1, CHAR_ZERO) is False
    assert restrictions_ok(type_II(1), 2, CHAR_P) is True
    assert restrictions_ok(type_II(1), 3, CHAR_P) is False


def test_admissible_types_frozen_lists():
    assert [str(t) for t in admissible_types(3, CHAR_P, 9)] == [
        "I(1)", "I(3)", "III(1)", "III(3)", "IV(1,1)", "IV(3,1)", "IV(1,3)",
    ]
    assert [str(t) for t in admissible_types(1, CHAR_P, 3)] == ["I(1)", "III(1)", "IV(1,1)"]
    # recomputed with the rule checker: III(1) passes in characteristic zero
    # for even dimensions, so it belongs in this list
    assert [str(t) for t in admissible_types(2, CHAR_ZERO, 4)] == [
        "I(1)", "I(2)", "II(1)", "III(1)", "IV(1,1)", "IV(2,1)",
    ]


@given(st.integers(1, 12), st.integers(1, 30))
def test_admissible_types_sorted_and_unique(n, cap):
    types = admissible_types(n, CHAR_P, cap)
    assert len(types) == len(set(types))
    assert types == sorted(types, key=lambda t: t.sort_key)
    assert all(t.base_rho <= cap and restrictions_ok(t, n, CHAR_P) for t in types)


@given(
    st.integers(1, 40),
    st.one_of(st.integers(1, 3200), st.none()),
    st.sampled_from([CHAR_P, CHAR_ZERO]),
)
def test_admissible_types_match_oracle(n, cap, ctx):
    if cap is None:
        cap = 2 * n * n - n
    assert admissible_types(n, ctx, cap) == brute_force_admissible_types(n, ctx, cap)


@given(st.integers(1, 12), st.integers(1, 40))
def test_char_zero_admissibility_implies_char_p(n, cap):
    zero = set(admissible_types(n, CHAR_ZERO, cap))
    pos = set(admissible_types(n, CHAR_P, cap))
    assert zero <= pos
    # kinds I and II have identical rules in both characteristics
    for kind in ("I", "II"):
        assert {t for t in zero if t.kind == kind} == {t for t in pos if t.kind == kind}


def test_rho_power_examples():
    assert rho_power(type_III(1), 6) == 66
    assert rho_power(type_I(1), 1) == 1
    assert rho_power(type_IV(1, 1), 4) == 16
    assert rho_power(type_II(2), 2) == 20


def test_base_picard_numbers():
    for e in range(1, 11):
        assert type_I(e).base_rho == e
        assert type_II(e).base_rho == 3 * e
        assert type_III(e).base_rho == e
    for e0 in range(1, 11):
        for d in range(1, 11):
            assert type_IV(e0, d).base_rho == e0 * d * d


@settings(max_examples=200)
@given(any_type, st.integers(1, 49))
def test_rho_power_strictly_increasing(t, k):
    assert rho_power(t, k) < rho_power(t, k + 1)


def test_endo_dim_examples():
    assert endo_dim(type_III(1), 1) == 4
    assert endo_dim(type_IV(1, 1), 1) == 2
    assert endo_dim(type_I(1), 3) == 9
    assert endo_dim(type_II(2), 1) == 8


@given(any_type, st.integers(1, 20))
def test_endo_dim_scales_with_square_of_power(t, k):
    assert endo_dim(t, k) == k * k * endo_dim(t, 1)
