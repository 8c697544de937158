import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_min_genus, brute_force_nonadditivity, four_square_all
from picard_ranges.albert import CHAR_P, CHAR_ZERO
from picard_ranges.asymptotics import (
    PreconditionError,
    check_distribution,
    check_ss_correspondence,
    completeness_bound,
    completeness_witness,
    conjecture_check,
    conjecture_rhs,
    density,
    density_table,
    four_square,
    large_threshold,
    min_genus,
    moduli_dims,
    nonadditivity_counterexamples,
)
from picard_ranges.ranges import (
    _core,
    attainable,
    max_picard,
    membership,
    paper_catalog,
    ss_rho,
    translated_range,
)


@pytest.mark.parametrize("question", [
    lambda: nonadditivity_counterexamples(12, CHAR_P),
    lambda: density_table(12, CHAR_P),
    lambda: translated_range(12, 3, CHAR_P),
    lambda: check_distribution(12, 2, CHAR_P),
], ids=["nonadditivity", "density_table", "translated_range", "distribution"])
def test_a_question_about_dimension_g_builds_only_the_core_of_g(question):
    # every dimension n <= g is read off the one core of g
    _core.cache_clear()
    question()
    assert _core.cache_info().misses == 1


def test_four_square_examples():
    assert four_square(0) == (0, 0, 0, 0)
    assert four_square(7) == (2, 1, 1, 1)
    assert four_square(4) == (2, 0, 0, 0)
    assert four_square(1) == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        four_square(-1)


@given(st.integers(0, 500))
def test_four_square_is_greedy_representation(m):
    quad = four_square(m)
    reps = four_square_all(m)
    assert quad in reps
    assert quad == max(reps)  # maximal leading square, then the next, ...


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 12))
def test_four_square_sums_and_sortedness(m):
    a, b, c, d = four_square(m)
    assert a * a + b * b + c * c + d * d == m
    assert a >= b >= c >= d >= 0


def test_completeness_bound_values():
    assert completeness_bound(20) == 5
    assert completeness_bound(19) == 2
    assert completeness_bound(100) == 7152
    # the derivation is vacuous before g = 17
    assert all(completeness_bound(g) == 0 for g in range(1, 19))
    for g in range(1, 60):
        assert completeness_bound(g) <= max_picard(g)


def test_completeness_witness_examples():
    w = completeness_witness(20, 6)
    assert str(w) == "ss^3 * cm^2 * ord"
    assert w.rho() == 20 and w.dim() == 6
    assert str(completeness_witness(1, 1)) == "ord"
    w = completeness_witness(50, 8)
    assert w.rho() == 50 and w.dim() == 8


def test_completeness_witness_errors():
    with pytest.raises(PreconditionError):
        completeness_witness(0, 3)
    with pytest.raises(PreconditionError):
        completeness_witness(max_picard(3) + 1, 3)
    with pytest.raises(PreconditionError, match="inequality"):
        completeness_witness(45, 5)


def test_completeness_witness_takes_the_largest_supersingular_power():
    # The defining loop: the largest s with 2s^2 - s <= n - 1.
    s, first = 0, {}
    for n in range(1, 10**5 + 1):
        while ss_rho(s + 1) <= n - 1:
            s += 1
        assert (1 + isqrt(8 * (n - 1) + 1)) // 4 == s, n
        first.setdefault(s, n)
    # The witness's own choice at both ends of every run of equal s; s grows
    # with n, so these pin it for every n <= 10^5.
    ends = (set(first.values()) | {n - 1 for n in first.values()}) - {0}
    for n in sorted(ends):
        w = completeness_witness(n, 300)
        index = sum(b.power for b in w.blocks if b.is_supersingular)
        assert ss_rho(index) <= n - 1 < ss_rho(index + 1), n


@settings(max_examples=120, deadline=None)
@given(st.integers(5, 60).flatmap(
    lambda g: st.tuples(st.just(g), st.integers(1, max(1, completeness_bound(g))))))
def test_completeness_witness_below_bound_always_fits(args):
    g, n = args
    w = completeness_witness(n, g)
    assert w.rho() == n and w.dim() == g


def test_density_values():
    assert density(2, CHAR_P).delta == Fraction(5, 6)
    assert density(3, CHAR_P).delta == Fraction(9, 15)
    assert density(4, CHAR_P).delta == Fraction(12, 28)
    table = density_table(6, CHAR_P)
    assert [d.g for d in table] == [1, 2, 3, 4, 5, 6]
    assert all(0 < d.delta <= 1 for d in table)


def test_density_eventually_nondecreasing():
    table = density_table(25, CHAR_P)
    deltas = [d.delta for d in table]
    # monotone from dimension 12 on this range; the deficit bound 9/sqrt(g)
    # comes from the constructive count (about 16g*sqrt(g+1) values of the
    # ceiling 2g^2-g are not covered by witnesses)
    assert all(a <= b for a, b in zip(deltas[11:], deltas[12:]))
    for d in table[3:]:
        assert (1 - d.delta) ** 2 * d.g <= 81


def test_large_threshold_values():
    assert large_threshold(30) == 8
    assert large_threshold(5) == 1
    assert large_threshold(11) == 3  # the first bound is attained exactly here
    with pytest.raises(ValueError):
        large_threshold(4)


def test_large_threshold_monotone():
    values = [large_threshold(g) for g in range(5, 201)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_min_genus_values():
    assert min_genus(1) == 5
    assert min_genus(2) == 7
    assert min_genus(3) == 10
    values = [min_genus(ell) for ell in range(1, 8)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        min_genus(0)


def test_min_genus_matches_search():
    # a g admissible for ell is admissible for ell - 1, so the search for
    # ell may start at the answer for ell - 1; the first 60 also search from 2
    start = 2
    for ell in range(1, 301):
        expected = brute_force_min_genus(ell, start)
        assert min_genus(ell) == expected
        if ell <= 60:
            assert brute_force_min_genus(ell) == expected
        start = expected


def test_min_genus_for_large_ell_at_once():
    start = time.perf_counter()
    assert min_genus(3400) == 10201
    assert time.perf_counter() - start < 1.0


def test_check_distribution_passes():
    rep = check_distribution(12, 2, CHAR_P)
    assert rep.ok
    assert rep.interval == (2 * 100 - 10 + 1, 2 * 144 - 12)
    rep = check_distribution(5, 1, CHAR_P)
    assert rep.ok
    assert rep.expected == (29, 45)
    with pytest.raises(PreconditionError):
        check_distribution(6, 2, CHAR_P)


def test_check_distribution_passes_up_to_the_dimension_limit():
    for ell in range(1, 5):
        for g in range(min_genus(ell), 101):
            assert check_distribution(g, ell, CHAR_P).ok, (g, ell)


def test_distribution_checks_reject_ell_at_least_g_at_once():
    for check in (check_distribution, check_ss_correspondence):
        for g, ell in ((5, 5), (50, 100_000), (1, 1)):
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match="ell \\+ 1"):
                check(g, ell, CHAR_P)
            assert time.perf_counter() - start < 1.0


def test_distribution_blocks_disjoint_from_maximum():
    for g in range(5, 13):
        bottom = ss_rho(g - 1) + 1
        assert bottom < max_picard(g)
        rep = check_distribution(g, 1, CHAR_P)
        assert rep.ok


def test_check_ss_correspondence_passes():
    rep = check_ss_correspondence(12, 2, CHAR_P)
    assert rep.ok
    for g in (12,):
        rep = check_ss_correspondence(g, 1, CHAR_P)
        assert rep.ok


def test_ss_correspondence_maximum_is_isolated():
    # the top value 2g^2-g never lies in a translated block
    for g in range(7, 13):
        for n in (1, 2):
            offset = ss_rho(g - n)
            star = attainable(n, paper_catalog(n, CHAR_P), CHAR_P, allow_ss=False).value_set()
            assert max_picard(g) not in {offset + x for x in star}


def test_conjecture_examples():
    assert conjecture_rhs(2, CHAR_P) == {1, 2, 3, 4, 6}
    for g in range(2, 7):
        rep = conjecture_check(g, CHAR_P)
        assert rep.ok, (g, rep)


def test_conjecture_holds_up_to_the_dimension_limit():
    for g in range(5, 101):
        assert conjecture_check(g, CHAR_P).ok, g


def test_nonadditivity_examples():
    assert nonadditivity_counterexamples(4, CHAR_P) == [(2, 6, 2, 6)]
    assert (2, 6, 3, 15) in nonadditivity_counterexamples(5, CHAR_P)
    assert (2, 6, 4, 28) in nonadditivity_counterexamples(6, CHAR_P)
    lower4 = attainable(4, paper_catalog(4, CHAR_P), CHAR_P).value_set()
    assert 12 not in lower4


def test_nonadditivity_sums_really_missing():
    for g in range(2, 8):
        whole = attainable(g, paper_catalog(g, CHAR_P), CHAR_P).value_set()
        for a, ra, b, rb in nonadditivity_counterexamples(g, CHAR_P):
            assert a + b == g
            assert ra + rb not in whole
            assert ra in attainable(a, paper_catalog(a, CHAR_P), CHAR_P).value_set()
            assert rb in attainable(b, paper_catalog(b, CHAR_P), CHAR_P).value_set()


@pytest.mark.parametrize("ctx", [CHAR_P, CHAR_ZERO], ids=["p", "0"])
def test_nonadditivity_matches_pair_loop(ctx):
    values = {n: attainable(n, paper_catalog(n, ctx), ctx).value_set() for n in range(1, 21)}
    for g in range(2, 21):
        assert nonadditivity_counterexamples(g, ctx) == brute_force_nonadditivity(g, values)


def test_moduli_dims():
    dims = moduli_dims(4, f=2)
    assert dims.dim_moduli == 10
    assert dims.dim_supersingular_locus == 4
    assert dims.dim_p_rank_locus == 8
    assert moduli_dims(10, r=2).dim_large_picard_locus == 16 + 3
    assert moduli_dims(3).dim_p_rank_locus is None
    with pytest.raises(ValueError):
        moduli_dims(4, f=5)
    with pytest.raises(ValueError):
        moduli_dims(4, r=-1)


def test_witnessed_values_are_certified():
    g = 12
    for n in range(1, completeness_bound(g) + 1):
        w = completeness_witness(n, g)
        assert membership(n, g, CHAR_P).status == "certified"
        assert w.rho() == n
