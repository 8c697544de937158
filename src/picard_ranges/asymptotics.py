"""Asymptotic structure of the attainable sets: densities, distribution
and supersingularity-index correspondence checks, recursive-structure
conjecture checking and non-additivity counterexamples, all read off the
enumeration core.  The closed formulas live in :mod:`picard_ranges.formulas`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .albert import CHAR_P, CharContext
from .formulas import PreconditionError, max_picard, min_genus, ss_rho
from .ranges import _core, _members

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
    count = _core(g, "paper", ctx).values(g).bit_count()
    return DensityRecord(g, count, max_picard(g))


def density_table(g_max: int, ctx: CharContext = CHAR_P) -> list[DensityRecord]:
    """The density of every dimension 1..g_max, read off the core of g_max."""
    if g_max < 1:
        raise ValueError("g_max must be positive")
    core = _core(g_max, "paper", ctx)
    return [DensityRecord(g, core.values(g).bit_count(), max_picard(g))
            for g in range(1, g_max + 1)]


def _require_min_genus(g: int, ell: int, ctx: CharContext) -> None:
    # The translated blocks are the star sets shifted by the value of a
    # supersingular power ss^(g - n); characteristic 0 has no supersingular
    # entry, so there is no block to check.
    if not ctx.positive:
        raise PreconditionError("the translated blocks need characteristic p: "
                                "characteristic 0 has no supersingular factor")
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
    n = ell..1 together with the maximum; characteristic p only.  The n-th
    block is the set of values with supersingularity index g - n."""
    _require_min_genus(g, ell, ctx)
    core = _core(g, "paper", ctx)
    expected = overlaps = 0
    for part in [core.index_class(g, g - n) for n in range(1, ell + 1)] + [1 << max_picard(g)]:
        overlaps |= expected & part
        expected |= part
    lo = ss_rho(g - ell) + 1
    return DistributionReport(g, ell, (lo, max_picard(g)), tuple(_members(expected)),
                              tuple(_members(core.values(g) & (-1 << lo))), tuple(_members(overlaps)))


class CorrespondenceReport(NamedTuple):
    g: int
    ell: int
    wrong_index: tuple[tuple[int, int, int], ...]  # (rho, n, offending s)
    outside_block: tuple[tuple[int, int], ...]     # (rho, n) with s = g-n only: empty

    @property
    def ok(self) -> bool:
        return not self.wrong_index and not self.outside_block


def check_ss_correspondence(g: int, ell: int, ctx: CharContext = CHAR_P) -> CorrespondenceReport:
    """Check, over every restriction-passing decomposition of dimension g,
    that a value lies in the n-th translated block iff its supersingularity
    index is g - n, for each n <= ell; characteristic p only.

    The n-th block is the set of values of supersingularity index g - n, so
    a value of that index lies in it by construction and ``outside_block``
    is always empty; it is kept for a block defined otherwise, such as the
    certified one."""
    _require_min_genus(g, ell, ctx)
    core = _core(g, "upper", ctx)
    classes = [core.index_class(g, s) for s in range(g + 1)]
    wrong = []
    for n in range(1, ell + 1):
        block = classes[g - n]
        for s, values in enumerate(classes):
            if s != g - n:
                wrong.extend((v, n, s) for v in _members(block & values))
    return CorrespondenceReport(g, ell, tuple(wrong), ())


def conjecture_rhs(g: int, ctx: CharContext = CHAR_P) -> set[int]:
    """Right-hand side of the recursive description of the attainable set:
    values of powers of simple factors, sums of two star values, and a
    supersingular contribution plus a star value.

    Simple-factor values are read off the certified catalog; the conjecture
    itself quantifies over all simple varieties, whose existence is open in
    general.  Star pairs of dimensions n, g - n are summed once, n <= g // 2.
    """
    return set(_members(_rhs_bits(g, ctx)))


def _rhs_bits(g: int, ctx: CharContext) -> int:
    core = _core(g, "paper", ctx)
    star = core.star
    bits = sum({1 << rho for *_, rho in core.blocks_of_dim(g)})
    for n in range(1, g):
        bits |= core.index_class(g, n)  # ss^n times a star value; none in characteristic 0
        for x in _members(star[n]) if 2 * n <= g else ():
            bits |= star[g - n] << x
    return bits


class ConjectureReport(NamedTuple):
    g: int
    rhs_only: tuple[int, ...]
    lower_only: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.rhs_only and not self.lower_only


def conjecture_check(g: int, ctx: CharContext = CHAR_P) -> ConjectureReport:
    """Compare the conjectured right-hand side with the enumerated set, as
    bitsets; a difference is a finding to report, not an error."""
    if g < 2:
        raise ValueError("the recursive description needs g >= 2")
    rhs, lower = _rhs_bits(g, ctx), _core(g, "paper", ctx).values(g)
    return ConjectureReport(g, tuple(_members(rhs & ~lower)), tuple(_members(lower & ~rhs)))


def nonadditivity_counterexamples(g: int, ctx: CharContext = CHAR_P) -> list[tuple[int, int, int, int]]:
    """All splittings a + b = g with certified values ra, rb whose sum is
    not certified in dimension g; each witnesses failure of additivity of
    the attainable sets."""
    if g < 2:
        raise ValueError("g must be at least 2")
    core = _core(g, "paper", ctx)
    values = {n: core.values(n) for n in range(1, g)}
    absent = ~core.values(g)  # the values missing in dimension g
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

