"""Attainable Picard-number sets over a catalog, from one enumeration core.

The Picard number of a product of pairwise non-isogenous blocks is the sum
of the block values, so the values attainable in dimension g form an
attainable-sum set over the blocks a catalog offers.  The blocks of an entry
with unboundedly many isogeny classes may repeat; a single-class entry gives
at most one block, and so does the supersingular entry (ss^s, value 2s^2 - s).

Every question goes to one private core per (g, catalog, ctx); a
conditional catalog entry counts only where the context's split policy
rules it in.  Its value fold, :func:`_fold`, is the only code that turns
catalog blocks into reachability: one Python-int bitset per dimension,
with a snapshot after each block dimension.  A value with supersingularity
index s is a star value of dimension g - s shifted by the value of ss^s, so
the attainable set is the union of those shifts.  Witnesses come from one
depth-first search, pruned by the snapshots and by one supersingular table
built on the first search.  It has two stop rules: the walk lists every
decomposition of one value; the sweep drops each value of a bitset at its
first decomposition, so that :func:`attainable` finds every witness in one
pass.  The witness of a value is its decomposition with the smallest
formatted string.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Generator, Iterator

from .albert import CHAR_P, CharContext
from .catalog import Catalog, blocks_for_dim, builtin
from .decomp import SUPERSINGULAR_TYPE, Decomposition

STATUS_CERTIFIED = "certified"
STATUS_UPPER_ONLY = "upper-only"
STATUS_REFUTED = "refuted"
STATUS_UNDETERMINED = "undetermined"

_SS_ENTRY = (1, SUPERSINGULAR_TYPE)  # catalog key of the supersingular entry


def max_picard(g: int) -> int:
    """The second Betti number 2g^2 - g, the absolute ceiling for rho."""
    return 2 * g * g - g


def ss_rho(s: int) -> int:
    """Picard number of the s-th power of the supersingular elliptic curve."""
    return 2 * s * s - s if s else 0


@dataclass(frozen=True)
class RangeValue:
    rho: int
    status: str
    star: bool
    witness: Decomposition | None


@dataclass(frozen=True)
class RangeResult:
    g: int
    ctx: CharContext
    mode: str
    values: tuple[RangeValue, ...]

    def value_set(self) -> set[int]:
        return {v.rho for v in self.values}

    def star_set(self) -> set[int]:
        return {v.rho for v in self.values if v.star}

    def witness_for(self, rho: int) -> Decomposition | None:
        i = bisect_left(self.values, rho, key=lambda v: v.rho)  # values ascend
        if i < len(self.values) and self.values[i].rho == rho:
            return self.values[i].witness
        return None


def _members(bits: int) -> list[int]:
    """The positions of the set bits of a non-negative int, ascending, read
    from one scan of its binary text."""
    return [i for i, digit in enumerate(bin(bits)[:1:-1]) if digit == "1"]


def _fold(g: int, groups: dict) -> Iterator[tuple[int, ...]]:
    """Fold block groups into one bitset per dimension 0..g.

    ``groups[m]`` lists the groups folded at block dimension m as pairs
    ``(blocks, unbounded)``, each block a ``(block_dim, shift)`` pair.  Bit
    b of ``table[d]`` is set when blocks of total dimension d have shifts
    summing to b.  The blocks of an unbounded group repeat freely; a
    bounded group is folded from one snapshot, so at most one of its blocks
    is used.  Yields the table before the first and after every block
    dimension m = 1..g.
    """
    table = [1] + [0] * g
    yield tuple(table)
    for m in range(1, g + 1):
        for blocks, unbounded in groups.get(m, ()):
            base = table if unbounded else table[:]
            for dim, shift in blocks:
                for d in range(dim, g + 1):
                    table[d] |= base[d - dim] << shift
        yield tuple(table)


class _Core:
    """Reachability and witnesses for one (g, catalog, ctx).

    ``snapshots[m][d]`` is the value bitset of supersingular-free assemblies
    of dimension d folded up to block dimension m; a single-class entry is
    folded at its smallest block dimension, so a snapshot may also hold its
    larger powers.  A suffix of a canonical decomposition whose blocks have
    dimension at most m therefore always lies in ``snapshots[min(m, d)][d]``;
    a cell with m > d equals the one with m = d.  ``star[d]`` (the last
    snapshot) is exact for every d <= g.  ``by_index[s]``, the values with
    supersingularity index s, is ``star[g - s]`` shifted by the value of
    ss^s, and ``values`` is their union.

    One depth-first search has two stop rules: ``walk`` lists every
    decomposition of one value (for :func:`structure_witnesses`); ``sweep``
    drops each value of a bitset at its first decomposition, the one the
    walk gives first (for :func:`attainable`).  It prunes with ``below_ss``,
    which allows one more block ss^s only for s < m: ss^m sorts ahead of the
    other blocks of dimension m, so after one of those only a smaller ss^s
    can follow.  ``below_ss`` and the candidate index ``_fitting`` are built
    on the first search, so value queries never build them.
    """

    def __init__(self, g: int, catalog: Catalog, ctx: CharContext):
        self.g = g
        # every (block, unbounded) of dimension at most g the catalog offers
        self.blocks = [(block, count == "unbounded")
                       for m in range(1, g + 1)
                       for block, count in blocks_for_dim(catalog, m, ctx)]
        self.has_ss = ctx.positive and any(b.is_supersingular for b, _ in self.blocks)
        self.snapshots = list(_fold(g, self._groups(lambda b: b.rho)))
        self.star = self.snapshots[-1]
        self.by_index = {s: self.star[g - s] << ss_rho(s) for s in range(g + 1 if self.has_ss else 1)}
        self.values = reduce(or_, self.by_index.values())

    def _groups(self, shift) -> dict:
        """Fold groups of the non-supersingular blocks: per block dimension
        one unbounded group of distinct (block_dim, shift) pairs, and per
        single-class entry one bounded group at its smallest block dimension."""
        unbounded: dict = {}
        single: dict = {}
        for block, free in self.blocks:
            if block.is_supersingular:
                continue
            pair = (block.block_dim, shift(block))
            if free:
                unbounded.setdefault(block.block_dim, set()).add(pair)
            else:
                single.setdefault((block.simple_dim, block.albert), []).append(pair)
        groups = {m: [(sorted(pairs), True)] for m, pairs in unbounded.items()}
        for (n, _), pairs in single.items():
            groups.setdefault(n, []).append((pairs, False))
        return groups

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        """Per dimension d, bit rho*(g+1) + c set when a supersingular-free
        assembly of dimension d has value rho and exactly c blocks."""
        stride = self.g + 1
        for table in _fold(self.g, self._groups(lambda b: b.rho * stride + 1)):
            pass
        return table

    @cached_property
    def _count_mask(self) -> int:
        """The bits 0, stride, 2*stride, ... across the widest row of
        ``lengths`` (a geometric series), one big-int division per core."""
        stride = self.g + 1
        n = max(row.bit_length() for row in self.lengths) // stride + 1
        return ((1 << (stride * n)) - 1) // ((1 << stride) - 1)

    def max_with_count(self, d: int, c: int) -> int | None:
        """Largest supersingular-free value of dimension d with c blocks."""
        hits = self.lengths[d] >> c & self._count_mask
        return (hits.bit_length() - 1) // (self.g + 1) if hits else None

    @cached_property
    def below_ss(self) -> list[list[int]]:
        """``below_ss[m][d]``: ``snapshots[m][d]`` with one more block ss^s,
        s < m, allowed.  A cell with m > d + 1 is a reference to the cell
        with m = d + 1, which allows every s <= d.  Building it is O(g^3)
        big-int shifts."""
        g, snap = self.g, self.snapshots
        if not self.has_ss:
            return snap
        table = [[0] * (g + 1) for _ in range(g + 1)]
        for d in range(g + 1):
            for m in range(min(d + 1, g) + 1):
                bits = 0
                for s in range(m):
                    bits |= snap[min(m, d - s)][d - s] << ss_rho(s)
                table[m][d] = bits
            for m in range(d + 2, g + 1):
                table[m][d] = table[d + 1][d]
        return table

    @cached_property
    def _fitting(self) -> list[list[tuple]]:
        """``_fitting[m]``: the blocks the search may take that have
        dimension at most m, in text order, as (rank in canonical order,
        block, dim, rho, entry); ``entry`` names the catalog entry of a
        single-class block, used at most once, and is None otherwise.
        Canonical order puts larger blocks first, so after a block of
        dimension k only blocks of dimension at most k can follow."""
        searched = sorted(((b, free) for b, free in self.blocks if self.has_ss or not b.is_supersingular),
                          key=lambda pair: pair[0].sort_key)
        candidates = sorted(
            ((rank, b, b.block_dim, b.rho, None if free else (b.simple_dim, b.albert))
             for rank, (b, free) in enumerate(searched)),
            key=lambda c: str(c[1]))
        return [[c for c in candidates if c[2] <= m] for m in range(self.g + 1)]

    def sweep(self, bits: int, allow_ss: bool = True) -> dict[int, Decomposition]:
        """For every value v in the bitset, ``next(walk(v, allow_ss))``,
        found for all of them in one depth-first pass; values without a
        decomposition are left out."""
        used = frozenset() if allow_ss else frozenset([_SS_ENTRY])
        return dict(self._search(self.g, bits, 0, self.g, used, [], 0, True))

    def walk(self, rho: int, allow_ss: bool = True) -> Iterator[Decomposition]:
        """Every decomposition of dimension g with Picard number rho, in
        increasing order of the formatted string; none, at once, for rho
        outside [0, 2g^2 - g]."""
        if not 0 <= rho <= max_picard(self.g):
            return iter(())
        used = frozenset() if allow_ss else frozenset([_SS_ENTRY])
        return (dec for _, dec in self._search(self.g, 1 << rho, 0, self.g, used, [], 0, False))

    def _search(self, d: int, bits: int, rank: int, top: int, used: frozenset,
                acc: list, base: int, first: bool) -> Generator[tuple[int, Decomposition], None, int]:
        # Blocks are taken in canonical (sort_key) order and tried in order
        # of their text, so the decompositions of a value come out in string
        # order: " * " sorts below every character that can extend a block.
        # Yields (value, decomposition) per completion of a value of ``bits``
        # and returns the completed values, both relative to ``base``.  With
        # ``first`` a value leaves ``bits`` at its first completion.
        done = 0
        for c_rank, block, dim, rho, entry in self._fitting[min(d, top)]:
            if c_rank < rank or entry in used:
                continue
            d2 = d - dim
            used2 = used if entry is None else used | {entry}
            table = self.snapshots if _SS_ENTRY in used2 else self.below_ss
            hits = bits & (table[dim][d2] << rho)
            if not hits:
                continue
            acc.append(block)
            if d2 == 0:  # hits is the single value rho
                yield base + rho, Decomposition(tuple(acc))
            else:
                hits = (yield from self._search(d2, hits >> rho, c_rank, dim, used2,
                                                acc, base + rho, first)) << rho
            acc.pop()
            done |= hits
            if first:
                bits ^= hits
                if not bits:
                    break
        return done


@lru_cache(maxsize=32)
def _core(g: int, catalog: Catalog, ctx: CharContext) -> _Core:
    """The enumeration core; the cores of the 32 most recent keys are cached."""
    return _Core(g, catalog, ctx)


@lru_cache(maxsize=128)
def attainable(
    g: int,
    catalog: Catalog,
    ctx: CharContext = CHAR_P,
    allow_ss: bool = True,
) -> RangeResult:
    """Exact attainable set of Picard numbers in dimension g over a catalog,
    each value with its witness.

    With ``allow_ss=False`` only supersingularity-free decompositions are
    considered (the star set).  The 128 most recent results are cached.
    """
    if g < 1:
        raise ValueError("g must be positive")
    core = _core(g, catalog, ctx)
    star = core.star[g]
    status = STATUS_UPPER_ONLY if catalog.mode == "upper" else STATUS_CERTIFIED
    bits = core.values if allow_ss else star
    witnesses = core.sweep(bits, allow_ss)
    values = tuple(
        RangeValue(rho, status, bool(star >> rho & 1), witnesses[rho]) for rho in _members(bits)
    )
    return RangeResult(g, ctx, catalog.mode, values)


def attainable_by_ss_index(
    g: int,
    catalog: Catalog,
    ctx: CharContext = CHAR_P,
) -> dict[int, frozenset]:
    """Map each supersingularity index s to the values attainable with
    exactly that index."""
    if g < 1:
        raise ValueError("g must be positive")
    by_index = _core(g, catalog, ctx).by_index
    return {s: frozenset(_members(bits)) for s, bits in by_index.items()}


def paper_catalog(g: int, ctx: CharContext = CHAR_P) -> Catalog:
    return builtin("paper", g, ctx)


def upper_catalog(g: int, ctx: CharContext = CHAR_P) -> Catalog:
    return builtin("upper", g, ctx)


@dataclass(frozen=True)
class Membership:
    rho: int
    g: int
    status: str
    witness: Decomposition | None


def membership(rho: int, g: int, ctx: CharContext = CHAR_P) -> Membership:
    """Certified (with witness), refuted, or undetermined status of one value.

    The status reads one bit of the certified (paper-catalog) core and, if
    that is clear, one bit of the restriction-only (upper-catalog) core.
    Only a certified value has a witness, taken from :func:`attainable`.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if not 1 <= rho <= max_picard(g):
        raise ValueError(f"rho must lie in [1, {max_picard(g)}] for g={g}")
    lower = paper_catalog(g, ctx)
    if _core(g, lower, ctx).values >> rho & 1:
        return Membership(rho, g, STATUS_CERTIFIED, attainable(g, lower, ctx).witness_for(rho))
    upper = _core(g, upper_catalog(g, ctx), ctx).values
    return Membership(rho, g, STATUS_UNDETERMINED if upper >> rho & 1 else STATUS_REFUTED, None)


def length_max_closed_form(r: int, g: int) -> int:
    """Closed form for the largest Picard number among dimension-g classes
    with exactly r isogeny factors: [2(g-r+1)^2 - (g-r+1)] + (r-1)."""
    m = g - r + 1
    return (2 * m * m - m) + (r - 1)


@dataclass(frozen=True)
class LengthMax:
    r: int
    g: int
    enumerated: int
    closed_form: int

    @property
    def matches(self) -> bool:
        return self.enumerated == self.closed_form


def max_by_length(r: int, g: int, ctx: CharContext = CHAR_P) -> LengthMax:
    """Largest Picard number over restriction-only decompositions of
    dimension g with exactly r factors, next to the closed form."""
    if g < 1:
        raise ValueError("g must be positive")
    if not 1 <= r <= g:
        raise ValueError("length r must satisfy 1 <= r <= g")
    core = _core(g, upper_catalog(g, ctx), ctx)
    best = None
    for s in core.by_index:
        rest = core.max_with_count(g - s, r - (1 if s else 0))
        if rest is not None and (best is None or ss_rho(s) + rest > best):
            best = ss_rho(s) + rest
    if best is None:
        raise ValueError(f"no decomposition of dimension {g} with {r} factors exists")
    return LengthMax(r, g, best, length_max_closed_form(r, g))


def gaps(g: int, ctx: CharContext = CHAR_P) -> list[tuple[int, int]]:
    """Maximal intervals in [1, 2g^2-g] missed even by the restriction-only
    enumeration; values there are refuted."""
    if g < 1:
        raise ValueError("g must be positive")
    present = _core(g, upper_catalog(g, ctx), ctx).values
    out: list[tuple[int, int]] = []
    for v in _members(~present & ((2 << max_picard(g)) - 2)):  # missing in [1, 2g^2-g]
        if out and out[-1][1] == v - 1:
            out[-1] = (out[-1][0], v)
        else:
            out.append((v, v))
    return out


def structure_witnesses(
    g: int,
    rho: int,
    ctx: CharContext = CHAR_P,
    mode: str = "paper",
) -> list[Decomposition]:
    """Every certified-catalog decomposition of dimension g with the given
    Picard number, in increasing order of the formatted string.

    The certified catalog is used so that the answer reflects constructions
    known to exist; switch ``mode`` to ``"upper"`` for the restriction-only
    universe.
    """
    if g < 1:
        raise ValueError("g must be positive")
    return list(_core(g, builtin(mode, g, ctx), ctx).walk(rho))


def translated_range(g: int, n: int, ctx: CharContext = CHAR_P) -> set[int]:
    """The certified star set of dimension n shifted by 2(g-n)^2 - (g-n):
    values of products of a dimension-n supersingularity-free part with a
    power of the supersingular elliptic curve filling the remaining g - n."""
    if not 1 <= n <= g:
        raise ValueError("need 1 <= n <= g")
    star = _core(n, paper_catalog(n, ctx), ctx).star[n]
    return set(_members(star << ss_rho(g - n)))


def parity_filter(result: RangeResult) -> list[int]:
    """Values sharing the parity of the second Betti number 2g^2 - g; over
    finite fields the Picard number must have this parity."""
    b2 = max_picard(result.g)
    return [v.rho for v in result.values if (v.rho - b2) % 2 == 0]
