"""Closed formulas that need no enumeration: the ceiling 2g^2 - g, the value
of ss^s, the constructive completeness witness with its bound, the
large-value threshold, the least dimension of the distribution checks, and
the printed moduli-dimension formulas.

This module imports neither the catalog nor the enumeration core, so a
question answered by a formula loads neither.  The ceiling and the value of
ss^s are defined in :mod:`picard_ranges.decomp`, which every start loads,
and re-exported here, so the enumeration core does not load this module.
All square-root comparisons are done by integer squaring; no floating
point enters any decision.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .decomp import (  # noqa: F401  (max_picard and ss_rho are re-exported)
    CM_TYPE,
    ORDINARY_TYPE,
    Block,
    Decomposition,
    max_picard,
    ss_rho,
    supersingular_block,
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
    # 2s^2 - s <= n - 1 iff 4s <= 1 + sqrt(8n - 7), and floor((1 + y)/4) = floor((1 + floor y)/4)
    s = (1 + isqrt(8 * (n - 1) + 1)) // 4
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
    """The least dimension that the distribution and correspondence checks
    of ell require: a precondition they enforce, not a dimension from which
    they pass.

    It is the largest of three bounds, each for every n <= ell.  Values of
    n + 2 or more factors stay below the n-th translated block,
    ss_rho(g-n-1) + n + 1 <= ss_rho(g-n), which is g > (5n+3)/4.  A
    supersingularity-free value (at most g^2) stays below the block for
    n = 1, g^2 < ss_rho(g-1) + 1, which is (g-1)(g-4) > 0, so g >= 5, and
    at most at its top for n >= 2, g^2 <= ss_rho(g-n) + n^2, which is
    (g-n)(g-3n-1) >= 0, so g >= 3n+1.  That gives max(5, 3*ell + 1), the
    thresholds 5 (ell = 1) and 7 (ell = 2) of the two-gap theorem.

    These bounds do not separate the blocks: the two-factor
    ss^(g-n-1) * cm^(n+1) reaches (n+1)^2 above ss_rho(g-n-1), and g^2 may
    lie in block n.  So the checks can fail from here: at (7, 2), 49 has
    index 0 and index 5 (``distribution 7 2`` prints the correspondence
    FAIL), and ``distribution 20 6`` fails both checks.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    return max(5, 3 * ell + 1)


class ModuliDims(NamedTuple):
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
