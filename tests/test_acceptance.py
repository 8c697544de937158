"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import random
import time
from contextlib import contextmanager

from oracles import brute_force_max_by_length, brute_force_star, brute_force_values
from picard_ranges._grammar import parse
from picard_ranges._views import parity_filter, structure_witnesses, upper_catalog
from picard_ranges.albert import CHAR_P, type_I, type_II, type_III, type_IV
from picard_ranges.asymptotics import check_distribution, check_ss_correspondence, density, density_table
from picard_ranges.cli import MAX_DIM, run
from picard_ranges.decomp import Block, Decomposition, max_picard, normalize, ss_rho
from picard_ranges.formulas import completeness_bound, completeness_witness, four_square, min_genus
from picard_ranges.ranges import (
    _core,
    attainable,
    gaps,
    length_max_closed_form,
    max_by_length,
    membership,
    paper_catalog,
)
from picard_ranges.verify import verify


@contextmanager
def criterion(num: int, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {num}: over budget ({elapsed:.1f}s >= {limit_seconds}s)"
    print(f"criterion {num}: PASS ({elapsed:.2f}s)")


def _cli(argv):
    out = io.StringIO()
    code = run(argv, out, out)
    return code, out.getvalue()


def test_criterion_1_table_reproduction():
    with criterion(1, 1.0):
        expected = {
            2: "1 2 3 4 6",
            3: "1 2 3 4 5 6 7 9 15",
            4: "1 2 3 4 5 6 7 8 9 10 16 28",
        }
        for g, want in expected.items():
            code, out = _cli(["range", str(g), "--mode", "paper"])
            assert code == 0 and out.strip() == want, (g, out)


def test_criterion_2_star_split_reproduction():
    with criterion(2, 1.0):
        code, out = _cli(["range", "2", "--star"])
        assert code == 0 and out.strip() == "1 2 3 4"
        code, out = _cli(["range", "3", "--star"])
        assert code == 0 and out.strip() == "1 2 3 4 5 6 9"


def test_criterion_3_discrepancy_reporting():
    with criterion(3, 10.0):
        report = verify()
        dims = {f.label: f.dimension for f in report.fixtures}
        assert {"R_4", "R_5", "R_6"} <= set(dims)
        for diff in report.diffs:
            assert diff.witness is not None, diff
            w = parse(diff.witness)
            assert w.rho() == diff.rho, diff
            assert w.dim() == dims[diff.label], diff
        allowlisted = {
            ("R_5", "value", 13),
            ("R_4", "star", 8),
            ("R_5", "star", 12),
            ("R_5", "star", 17),
            ("R_6", "star", 22),
            ("R_6", "star", 26),
        }
        reported = {(d.label, d.kind, d.rho) for d in report.diffs if d.documented}
        assert allowlisted <= reported
        code, out = _cli(["verify"])
        assert code == 4 and "VERIFY:" in out


def test_criterion_4_closed_form_agreement():
    with criterion(4, 30.0):
        for g in range(1, 9):
            cat = upper_catalog(g, CHAR_P)
            for r in range(1, g + 1):
                res = max_by_length(r, g, CHAR_P)
                oracle = brute_force_max_by_length(r, g, cat, CHAR_P)
                assert res.enumerated == oracle == res.closed_form, (r, g)
        for g in range(1, 31):
            chain = [length_max_closed_form(r, g) for r in range(g, 0, -1)]
            assert chain[0] == g and chain[-1] == max_picard(g)
            assert all(a < b for a, b in zip(chain, chain[1:]))


def test_criterion_4_closed_form_up_to_the_dimension_limit():
    longest = _core(MAX_DIM, upper_catalog(MAX_DIM, CHAR_P), CHAR_P).longest
    for g in range(1, MAX_DIM + 1):
        assert longest[g][1:] == [length_max_closed_form(r, g) for r in range(1, g + 1)], g


def test_criterion_5_gap_theorems():
    with criterion(5, 60.0):
        for g in range(5, 13):
            values = attainable(g, upper_catalog(g, CHAR_P), CHAR_P).value_set()
            lo1, hi1 = ss_rho(g - 1) + 1, max_picard(g)
            assert not {v for v in values if lo1 < v < hi1}, g
            if g >= 7:
                lo2, hi2 = ss_rho(g - 2) + 4, ss_rho(g - 1) + 1
                assert not {v for v in values if lo2 < v < hi2}, g
            gap_list = gaps(g, CHAR_P)
            assert (lo1 + 1, hi1 - 1) in gap_list, g


def test_criterion_5_gap_theorems_up_to_the_dimension_limit():
    core = _core(MAX_DIM, upper_catalog(MAX_DIM, CHAR_P), CHAR_P)

    def between(lo, hi):  # the bits of lo < v < hi
        return ((1 << hi) - 1) & (-2 << lo)

    for g in range(5, MAX_DIM + 1):
        values = core.values(g)
        assert not values & between(ss_rho(g - 1) + 1, max_picard(g)), g
        if g >= 7:
            assert not values & between(ss_rho(g - 2) + 4, ss_rho(g - 1) + 1), g


def test_criterion_6_structure_theorems():
    with criterion(6, 10.0):
        second = ss_rho(7) + 1
        third = ss_rho(6) + 4
        assert {str(w) for w in structure_witnesses(8, second, CHAR_P)} == {
            "ss^7 * ord", "ss^7 * cm",
        }
        assert {str(w) for w in structure_witnesses(8, third, CHAR_P)} == {"ss^6 * cm^2"}


def test_criterion_7_asymptotic_completeness_desk_scale():
    with criterion(7, 60.0):
        g = 20
        bound = completeness_bound(g)
        assert bound == 5
        for n in range(1, bound + 1):
            w = completeness_witness(n, g)
            assert w.rho() == n and w.dim() == g
            assert membership(n, g, CHAR_P).status == "certified"
        table = density_table(25, CHAR_P)
        assert len(table) == 25
        assert (density(2, CHAR_P).count, density(2, CHAR_P).bound) == (5, 6)
        assert (density(3, CHAR_P).count, density(3, CHAR_P).bound) == (9, 15)
        assert (density(4, CHAR_P).count, density(4, CHAR_P).bound) == (12, 28)


def test_criterion_7_completeness_below_the_bound_up_to_the_dimension_limit():
    core = _core(MAX_DIM, paper_catalog(MAX_DIM, CHAR_P), CHAR_P)
    for g in range(1, MAX_DIM + 1):
        below = (2 << completeness_bound(g)) - 2  # 1..completeness_bound(g)
        assert core.values(g) & below == below, g


def test_criterion_8_distribution_and_correspondence():
    with criterion(8, 60.0):
        assert check_distribution(12, 2, CHAR_P).ok
        assert check_ss_correspondence(12, 2, CHAR_P).ok
        assert min_genus(1) == 5
        assert min_genus(2) == 7


def test_criterion_9_oracle_equivalence():
    with criterion(9, 60.0):
        for g in range(1, 9):
            for cat in (paper_catalog(g, CHAR_P), upper_catalog(g, CHAR_P)):
                dp = attainable(g, cat, CHAR_P)
                assert dp.value_set() == brute_force_values(g, cat, CHAR_P), (g, cat.mode)
                assert dp.star_set() == brute_force_star(g, cat, CHAR_P), (g, cat.mode)


def test_criterion_10_property_suites():
    with criterion(10, 60.0):
        for m in range(1_000_001):
            a, b, c, d = four_square(m)
            if a * a + b * b + c * c + d * d != m or not a >= b >= c >= d >= 0:
                raise AssertionError(m)

        rng = random.Random(20260808)
        types = [type_I(1), type_I(2), type_II(1), type_III(1), type_III(2),
                 type_IV(1, 1), type_IV(2, 1), type_IV(1, 2)]
        for _ in range(1000):
            blocks = [
                Block(rng.randint(1, 4), rng.choice(types), rng.randint(1, 4))
                for _ in range(rng.randint(1, 6))
            ]
            d = Decomposition.from_blocks(blocks)
            assert parse(str(d)) == d
            once = normalize(blocks)
            assert normalize(once) == once
            assert sum(b.block_dim for b in once) == sum(b.block_dim for b in blocks)

        for g in range(1, 9):
            result = attainable(g, upper_catalog(g, CHAR_P), CHAR_P)
            values = result.value_set()
            assert all(1 <= v <= max_picard(g) for v in values)
            assert max(values) == max_picard(g)
            if g >= 2:
                tops = structure_witnesses(g, max_picard(g), CHAR_P, mode="upper")
                assert [str(w) for w in tops] == [f"ss^{g}"]

        assert parity_filter(attainable(2, paper_catalog(2, CHAR_P), CHAR_P)) == [2, 4, 6]
        assert parity_filter(attainable(3, paper_catalog(3, CHAR_P), CHAR_P)) == [1, 3, 5, 7, 9, 15]
        for g in range(2, 9):
            assert max_picard(g) in parity_filter(attainable(g, paper_catalog(g, CHAR_P), CHAR_P))

        assert parse("ss").tate_obstruction() is False
        assert parse("[I(1); dim=3]").tate_obstruction() is True
        assert parse("cm^2").tate_obstruction() is False
