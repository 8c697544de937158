"""Asymptotic structure of the attainable sets: densities, distribution
and supersingularity-index correspondence checks, recursive-structure
conjecture checking and non-additivity counterexamples, all read off the
enumeration core.

The closed formulas (the completeness witness and its bound, the
large-value threshold, ``min_genus`` and the moduli dimensions) live in
:mod:`picard_ranges.formulas`, which loads no catalog and no core; they are
re-exported here under their old names.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, NamedTuple

from .albert import CHAR_P, CharContext
from .formulas import (  # noqa: F401  (re-exported)
    ModuliDims,
    PreconditionError,
    completeness_bound,
    completeness_witness,
    four_square,
    large_threshold,
    max_picard,
    min_genus,
    moduli_dims,
    ss_rho,
)
from .ranges import _core, _members, paper_catalog, translated_range, upper_catalog

if TYPE_CHECKING:
    from fractions import Fraction


class DensityRecord(NamedTuple):
    g: int
    count: int
    bound: int

    @property
    def delta(self) -> Fraction:
        from fractions import Fraction  # loaded on first use: it pulls in decimal

        return Fraction(self.count, self.bound)


def density(g: int, ctx: CharContext = CHAR_P) -> DensityRecord:
    """Share of [1, 2g^2-g] covered by the certified attainable set."""
    count = _core(g, paper_catalog(g, ctx), ctx).values.bit_count()
    return DensityRecord(g, count, max_picard(g))


def density_table(g_max: int, ctx: CharContext = CHAR_P) -> list[DensityRecord]:
    """The density of every dimension 1..g_max, read off the core of g_max."""
    if g_max < 1:
        raise ValueError("g_max must be positive")
    core = _core(g_max, paper_catalog(g_max, ctx), ctx)
    return [DensityRecord(g, reduce(or_, core.by_index_at(g).values()).bit_count(), max_picard(g))
            for g in range(1, g_max + 1)]


def _require_min_genus(g: int, ell: int) -> None:
    if g < ell + 1:
        raise PreconditionError(f"need g >= ell + 1 = {ell + 1}")
    if g < min_genus(ell):
        raise PreconditionError(f"need g >= min_genus({ell}) = {min_genus(ell)}")


class DistributionReport(NamedTuple):
    g: int
    ell: int
    interval: tuple[int, int]
    expected: tuple[int, ...]
    actual: tuple[int, ...]
    overlaps: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.expected == self.actual and not self.overlaps


def check_distribution(g: int, ell: int, ctx: CharContext = CHAR_P) -> DistributionReport:
    """Verify that the certified values in [2(g-ell)^2-(g-ell)+1, 2g^2-g]
    are exactly the disjoint union of the translated star blocks for
    n = ell..1 together with the maximum."""
    _require_min_genus(g, ell)
    parts = [translated_range(g, n, ctx) for n in range(1, ell + 1)] + [{max_picard(g)}]
    expected, overlaps = set(), set()
    for part in parts:
        overlaps |= expected & part
        expected |= part
    lo = ss_rho(g - ell) + 1
    actual = [v for v in _members(_core(g, paper_catalog(g, ctx), ctx).values) if v >= lo]
    return DistributionReport(
        g, ell, (lo, max_picard(g)),
        tuple(sorted(expected)), tuple(actual), tuple(sorted(overlaps)),
    )


class CorrespondenceReport(NamedTuple):
    g: int
    ell: int
    wrong_index: tuple[tuple[int, int, int], ...]  # (rho, n, offending s)
    outside_block: tuple[tuple[int, int], ...]     # (rho, n) with s = g-n only

    @property
    def ok(self) -> bool:
        return not self.wrong_index and not self.outside_block


def check_ss_correspondence(g: int, ell: int, ctx: CharContext = CHAR_P) -> CorrespondenceReport:
    """Check, over every restriction-passing decomposition of dimension g,
    that a value lies in the n-th translated block iff its supersingularity
    index is g - n, for each n <= ell."""
    _require_min_genus(g, ell)
    core = _core(g, upper_catalog(g, ctx), ctx)
    wrong = []
    outside = []
    for n in range(1, ell + 1):
        block = core.star[n] << ss_rho(g - n)
        for s, values in core.by_index_at(g).items():
            if s == g - n:
                outside.extend((v, n) for v in _members(values & ~block))
            else:
                wrong.extend((v, n, s) for v in _members(block & values))
    return CorrespondenceReport(g, ell, tuple(wrong), tuple(outside))


def conjecture_rhs(g: int, ctx: CharContext = CHAR_P) -> set[int]:
    """Right-hand side of the recursive description of the attainable set:
    values of powers of simple factors, sums of two star values, and a
    supersingular contribution plus a star value.

    Simple-factor values are read off the certified catalog; the conjecture
    itself quantifies over all simple varieties, whose existence is open in
    general.
    """
    if g < 1:
        raise ValueError("g must be positive")
    core = _core(g, paper_catalog(g, ctx), ctx)
    out = {block.rho for _, blocks in core.entries for block in blocks if block.block_dim == g}
    star = core.star
    sums = 0
    for n in range(1, g):
        for x in _members(star[n]):
            sums |= star[g - n] << x
        sums |= star[g - n] << ss_rho(n)
    return out | set(_members(sums))


class ConjectureReport(NamedTuple):
    g: int
    rhs_only: tuple[int, ...]
    lower_only: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.rhs_only and not self.lower_only


def conjecture_check(g: int, ctx: CharContext = CHAR_P) -> ConjectureReport:
    """Compare the conjectured right-hand side with the enumerated set; a
    difference is a finding to report, not an error."""
    if g < 2:
        raise ValueError("the recursive description needs g >= 2")
    rhs = conjecture_rhs(g, ctx)
    lower = set(_members(_core(g, paper_catalog(g, ctx), ctx).values))
    return ConjectureReport(g, tuple(sorted(rhs - lower)), tuple(sorted(lower - rhs)))


def nonadditivity_counterexamples(g: int, ctx: CharContext = CHAR_P) -> list[tuple[int, int, int, int]]:
    """All splittings a + b = g with certified values ra, rb whose sum is
    not certified in dimension g; each witnesses failure of additivity of
    the attainable sets."""
    if g < 2:
        raise ValueError("g must be at least 2")
    core = _core(g, paper_catalog(g, ctx), ctx)
    values = {n: reduce(or_, core.by_index_at(n).values()) for n in range(1, g)}
    absent = ~core.values  # the values missing in dimension g
    out = []
    for a in range(1, g // 2 + 1):
        b = g - a
        for ra in _members(values[a]):
            # the rb in dimension b for which ra + rb is missing in dimension g
            missing = values[b] & (absent >> ra)
            if a == b:
                missing &= -1 << ra  # each unordered pair once: rb >= ra
            if missing:  # most are empty; skip the scan of their bits
                out.extend((a, ra, b, rb) for rb in _members(missing))
    return out

