"""Asymptotic structure of the attainable sets: constructive witnesses for
almost every value, densities, large-value thresholds, distribution and
supersingularity-index correspondence checks, recursive-structure
conjecture checking, non-additivity counterexamples, and the printed
moduli-dimension formulas.

All square-root comparisons are done by integer squaring; no floating
point enters any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .albert import CHAR_P, CharContext
from .decomp import Block, Decomposition, supersingular_block, ORDINARY_TYPE, CM_TYPE
from .ranges import (
    _core,
    _members,
    max_picard,
    paper_catalog,
    ss_rho,
    upper_catalog,
)


class PreconditionError(ValueError):
    """A stated precondition fails; the message names the failed condition."""


def _three_square_ok(n: int) -> bool:
    # n is a sum of three squares unless it has the form 4^k (8j + 7)
    while n % 4 == 0 and n:
        n //= 4
    return n % 8 != 7


def four_square(m: int) -> tuple[int, int, int, int]:
    """A representation m = a^2 + b^2 + c^2 + d^2 with a >= b >= c >= d >= 0.

    Among all descending representations the greedy one is returned: a is
    maximal, then b, then c.  Concentrating mass in the leading square keeps
    the sum a + b + c + d small, which the witness construction relies on.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    isq = isqrt
    for a in range(isq(m), -1, -1):
        r1 = m - a * a
        if not _three_square_ok(r1):
            continue
        b0 = isq(r1)
        if b0 > a:
            b0 = a
        for b in range(b0, -1, -1):
            r2 = r1 - b * b
            c0 = isq(r2)
            if c0 > b:
                c0 = b
            for c in range(c0, -1, -1):
                r3 = r2 - c * c
                d = isq(r3)
                if d <= c and d * d == r3:
                    return (a, b, c, d)
    raise AssertionError("unreachable: every non-negative integer is a sum of four squares")


def completeness_bound(g: int) -> int:
    """Largest n with n < 2g^2 - 16g*sqrt(g+1) + 32(g+1), exactly.

    Below this bound the witness construction is guaranteed to fit in
    dimension g.  The derivation squares g - 4*sqrt(g+1), so it carries
    information only once that quantity is positive (g >= 17); for smaller
    g no n is guaranteed and the bound is 0.  Integer square roots only.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if g * g <= 16 * (g + 1):
        return 0
    b = 2 * g * g + 32 * (g + 1)
    s = 256 * g * g * (g + 1)
    return max(0, min(max_picard(g), b - isqrt(s) - 1))


def completeness_witness(n: int, g: int) -> Decomposition:
    """A dimension-g decomposition with Picard number exactly n.

    Take the largest s with 2s^2 - s <= n - 1, write the remainder
    n - 1 - (2s^2 - s) as a sum of four squares realized by powers of
    pairwise non-isogenous CM elliptic curves, and absorb the leftover
    dimension into one simple factor of Picard number one, which
    contributes the final +1.  The construction covers every
    n <= :func:`completeness_bound`; outside that range it is attempted
    anyway and fails only when the parts do not fit in dimension g.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if not 1 <= n <= max_picard(g):
        raise PreconditionError(f"need 1 <= n <= 2g^2 - g = {max_picard(g)}, got n={n}")
    s = (1 + isqrt(8 * (n - 1) + 1)) // 4
    while ss_rho(s + 1) <= n - 1:
        s += 1
    while s > 0 and ss_rho(s) > n - 1:
        s -= 1
    squares = four_square(n - 1 - ss_rho(s))
    used = s + sum(squares)
    if used > g - 1:
        raise PreconditionError(
            f"construction needs dimension {used + 1} > g = {g}; the sufficient "
            f"inequality n < 2g^2 - 16g*sqrt(g+1) + 32(g+1) fails for n={n}, g={g}"
        )
    blocks = []
    if s:
        blocks.append(supersingular_block(s))
    blocks.extend(Block(1, CM_TYPE, q) for q in squares if q)
    blocks.append(Block(g - used, ORDINARY_TYPE, 1))
    witness = Decomposition.from_blocks(blocks)
    assert witness.rho() == n and witness.dim() == g
    return witness


@dataclass(frozen=True)
class DensityRecord:
    g: int
    count: int
    bound: int

    @property
    def delta(self) -> Fraction:
        return Fraction(self.count, self.bound)


def density(g: int, ctx: CharContext = CHAR_P) -> DensityRecord:
    """Share of [1, 2g^2-g] covered by the certified attainable set."""
    count = _core(g, paper_catalog(g, ctx), ctx).values.bit_count()
    return DensityRecord(g, count, max_picard(g))


def density_table(g_max: int, ctx: CharContext = CHAR_P) -> list[DensityRecord]:
    if g_max < 1:
        raise ValueError("g_max must be positive")
    return [density(g, ctx) for g in range(1, g_max + 1)]


def large_threshold(g: int) -> int:
    """Largest n for which values in the n-th translated block count as
    large: n <= min{(4g-1-sqrt(8g^2-7))/4, -3+sqrt(4g+6)}, decided with
    exact integer arithmetic."""
    if g < 5:
        raise ValueError("large-value threshold needs g >= 5")

    def ok(n: int) -> bool:
        t = 4 * g - 1 - 4 * n
        if t < 0 or t * t < 8 * g * g - 7:
            return False
        return (n + 3) * (n + 3) <= 4 * g + 6

    n = 0
    while ok(n + 1):
        n += 1
    return n


def min_genus(ell: int) -> int:
    """Least dimension from which the top of the attainable set splits into
    the translated blocks n = ell, ..., 1 followed by the isolated maximum.

    Three conditions are required for every n <= ell.  The translated
    blocks must be separated: any decomposition with n + 2 or more factors
    stays below the n-th block, ss_rho(g-n-1) + n + 1 <= ss_rho(g-n), which
    is g > (5n+3)/4.  No supersingularity-free value (at most g^2) may intrude:
    for n = 1 it stays below the block, g^2 < ss_rho(g-1) + 1, which is
    (g-1)(g-4) > 0, so g >= 5; for n >= 2 it stays at most at its top,
    g^2 <= ss_rho(g-n) + n^2, which is (g-n)(g-3n-1) >= 0, so g >= 3n+1.
    The largest of these bounds gives max(5, 3*ell + 1), the thresholds
    5 (ell = 1) and 7 (ell = 2) of the two-gap theorem.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    return max(5, 3 * ell + 1)


def _require_min_genus(g: int, ell: int) -> None:
    if g < ell + 1:
        raise PreconditionError(f"need g >= ell + 1 = {ell + 1}")
    if g < min_genus(ell):
        raise PreconditionError(f"need g >= min_genus({ell}) = {min_genus(ell)}")


@dataclass(frozen=True)
class DistributionReport:
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
    core = _core(g, paper_catalog(g, ctx), ctx)
    parts = [core.star[n] << ss_rho(g - n) for n in range(1, ell + 1)] + [1 << max_picard(g)]
    expected = overlaps = 0
    for part in parts:
        overlaps |= expected & part
        expected |= part
    lo = ss_rho(g - ell) + 1
    actual = [v for v in _members(core.values) if v >= lo]
    return DistributionReport(
        g, ell, (lo, max_picard(g)),
        tuple(_members(expected)), tuple(actual), tuple(_members(overlaps)),
    )


@dataclass(frozen=True)
class CorrespondenceReport:
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
        for s, values in sorted(core.by_index.items()):
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
    out = {block.rho for block, _ in core.blocks if block.block_dim == g}
    star = core.star
    sums = 0
    for n in range(1, g):
        for x in _members(star[n]):
            sums |= star[g - n] << x
        sums |= star[g - n] << ss_rho(n)
    return out | set(_members(sums))


@dataclass(frozen=True)
class ConjectureReport:
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
    values = {n: _core(n, paper_catalog(n, ctx), ctx).values for n in range(1, g + 1)}
    out = []
    for a in range(1, g // 2 + 1):
        b = g - a
        for ra in _members(values[a]):
            # the rb in dimension b for which ra + rb is missing in dimension g
            missing = values[b] & ~(values[g] >> ra)
            if a == b:
                missing &= -1 << ra  # each unordered pair once: rb >= ra
            out.extend((a, ra, b, rb) for rb in _members(missing))
    return out


@dataclass(frozen=True)
class ModuliDims:
    g: int
    dim_moduli: int
    dim_supersingular_locus: int
    dim_p_rank_locus: int | None = None
    dim_large_picard_locus: int | None = None


def moduli_dims(g: int, f: int | None = None, r: int | None = None) -> ModuliDims:
    """Printed dimension formulas for the moduli of principally polarized
    abelian varieties: the full space has dimension g(g+1)/2, the
    supersingular locus floor(g^2/4), the p-rank-<=-f stratum
    g(g+1)/2 - g + f, and the locus of classes containing a supersingular
    subvariety of codimension r has dimension floor((g-r)^2/4) + r(r+1)/2.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if f is not None and not 0 <= f <= g:
        raise ValueError("need 0 <= f <= g")
    if r is not None and not 0 <= r <= g:
        raise ValueError("need 0 <= r <= g")
    return ModuliDims(
        g,
        g * (g + 1) // 2,
        g * g // 4,
        None if f is None else g * (g + 1) // 2 - g + f,
        None if r is None else (g - r) * (g - r) // 4 + r * (r + 1) // 2,
    )
