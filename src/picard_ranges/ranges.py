"""Attainable Picard-number sets over a catalog, from one enumeration core.

The Picard number of a product of pairwise non-isogenous blocks is the sum
of the block values, so the values attainable in dimension g form an
attainable-sum set over the blocks a catalog offers.  The blocks of an entry
with unboundedly many isogeny classes may repeat; a single-class entry gives
at most one block, and so does the supersingular entry (ss^s, value 2s^2 - s).

Every question goes to one private core per (g, catalog, ctx); a
conditional catalog entry counts only where the context's split policy
rules it in.  Its value fold, :func:`_fold`, is the only code that turns
catalog entries into reachability: one Python-int bitset per dimension,
with a snapshot after each block dimension.  A value with supersingularity
index s is a star value of dimension g - s shifted by the value of ss^s, so
the attainable set is the union of those shifts.  Witnesses come from one
depth-first search, pruned by the snapshots and by one supersingular table
whose cells are filled on first read.  It has two stop rules: the walk
lists every decomposition of one value; the sweep drops each value of a
bitset at its first decomposition, so that one pass finds every witness of
a result.  :func:`attainable` answers from the value bitsets alone; its
witnesses are found on the first read of the result's ``values``.  The
witness of a value is its decomposition with the smallest formatted string.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Generator, Iterator, NamedTuple

from .albert import CHAR_P, CharContext
from .catalog import Catalog, _shared_block, builtin, entry_available
from .decomp import Decomposition, max_picard, ss_rho

STATUS_CERTIFIED = "certified"
STATUS_UPPER_ONLY = "upper-only"
STATUS_REFUTED = "refuted"
STATUS_UNDETERMINED = "undetermined"

_SS_BIT = 1  # the supersingular entry's bit in a search's ``used`` mask


class RangeValue(NamedTuple):
    rho: int
    status: str
    star: bool
    witness: Decomposition | None


class RangeResult:
    """The attainable set of dimension g over one catalog, as one call of
    :func:`attainable` found it.

    ``value_set`` and ``star_set`` read the value bitset and the star bitset
    (``star[g]``, a subset of the values).  ``values``, each value with its
    status, star flag and witness, is swept on its first read and kept; it
    fetches the core through :func:`_core`, so that an unread result holds
    no core and a core evicted meanwhile is rebuilt with the same answer.
    """

    __slots__ = ("g", "ctx", "mode", "_catalog", "_allow_ss", "_bits", "_star", "_values")

    def __init__(self, g: int, ctx: CharContext, catalog: Catalog, allow_ss: bool, bits: int, star: int):
        self.g, self.ctx, self.mode = g, ctx, catalog.mode
        self._catalog, self._allow_ss = catalog, allow_ss
        self._bits, self._star = bits, star
        self._values = None

    @property
    def values(self) -> tuple[RangeValue, ...]:
        values = self._values
        if values is None:
            bits, star = self._bits, self._star
            witnesses = _core(self.g, self._catalog, self.ctx).sweep(bits, self._allow_ss)
            status = STATUS_UPPER_ONLY if self.mode == "upper" else STATUS_CERTIFIED
            values = self._values = tuple(
                RangeValue(rho, status, bool(star >> rho & 1), witnesses[rho]) for rho in _members(bits)
            )
        return values

    def value_set(self) -> set[int]:
        return set(_members(self._bits))

    def star_set(self) -> set[int]:
        return set(_members(self._star))

    def witness_for(self, rho: int) -> Decomposition | None:
        values = self._values
        if values is None:  # not read yet: the property sweeps
            values = self.values
        i = bisect_left(values, rho, key=lambda v: v.rho)  # values ascend
        if i < len(values) and values[i].rho == rho:
            return values[i].witness
        return None


def _members(bits: int) -> list[int]:
    """The positions of the set bits of a non-negative int, ascending, read
    from one scan of its binary text above the lowest set bit."""
    low = max((bits & -bits).bit_length() - 1, 0)
    return [i for i, digit in enumerate(bin(bits >> low)[:1:-1], low) if digit == "1"]


def _fold(g: int, entries: list) -> Iterator[tuple[int, ...]]:
    """Fold the rows of an entry table, ss left out, into one bitset per
    dimension 0..g: bit b of ``table[d]`` is set when blocks of total
    dimension d have values summing to b.  The distinct values of the
    unbounded entries' blocks of dimension m repeat freely and are folded
    at m; a single-class entry's blocks are folded from one snapshot at its
    smallest block dimension, so at most one of them is used.  Yields the
    table before the first and after every block dimension."""
    free = [set() for _ in range(g + 1)]
    single = [[] for _ in range(g + 1)]
    for bit, blocks in entries:
        if not bit:
            for block in blocks:
                free[block.block_dim].add(block.rho)
        elif bit != _SS_BIT:
            single[blocks[0].block_dim].append([(b.block_dim, b.rho) for b in blocks])
    table = [1] + [0] * g
    yield tuple(table)
    for m in range(1, g + 1):
        for s in free[m]:
            for d in range(m, g + 1):
                table[d] |= table[d - m] << s
        for pairs in single[m]:
            base = table[:]
            for dim, s in pairs:
                for d in range(dim, g + 1):
                    table[d] |= base[d - dim] << s
        yield tuple(table)


class _Core:
    """Reachability and witnesses for one (g, catalog, ctx).

    The entry table ``entries`` is the core's one view of the catalog: a
    row ``(bit, blocks)`` per entry A of dimension n <= g that counts under
    ctx, with the shared blocks A^k, k = 1..g // n, and the entry's bit in
    the search's ``used`` mask (``_SS_BIT`` for the supersingular entry, a
    distinct higher power of two for each other single-class entry, 0 for
    an unbounded one).

    ``snapshots[m][d]`` is the value bitset of supersingular-free assemblies
    of dimension d folded up to block dimension m; a single-class entry is
    folded at its smallest block dimension, so a snapshot may also hold its
    larger powers.  A suffix of a canonical decomposition whose blocks have
    dimension at most m therefore always lies in ``snapshots[min(m, d)][d]``;
    a cell with m > d equals the one with m = d.  ``star[d]`` (the last
    snapshot) is exact for every d <= g, so the core answers for every
    dimension n <= g: ``by_index_at(n)[s]``, the values of dimension n with
    supersingularity index s, is ``star[n - s]`` shifted by the value of
    ss^s; ``values`` is their union at g, and ``longest`` their maxima by length.

    One depth-first search has two stop rules: ``walk`` lists every
    decomposition of one value (for :func:`structure_witnesses`); ``sweep``
    drops each value of a bitset at its first decomposition, the one the
    walk gives first (for :attr:`RangeResult.values`).  It prunes with
    ``below_ss``, which allows one more block ss^s only for s < m: ss^m
    sorts ahead of the other blocks of dimension m, so after one of those
    only a smaller ss^s can follow.  ``below_ss``, with empty cells, and the candidate index
    ``_fitting`` are allocated on the first search, so value queries never
    build them; the search fills a ``below_ss`` cell the first time it
    reads it.  The search keeps the single-class entries it has used as
    the int ``used`` of their bits: an entry is free when its bit is
    clear, and ss^s is still allowed when ``_SS_BIT`` is clear.
    """

    def __init__(self, g: int, catalog: Catalog, ctx: CharContext):
        self.g = g
        self.entries = []
        for i, entry in enumerate(catalog.entries, 1):
            n, ss = entry.simple_dim, entry.is_supersingular
            if n > g or not entry_available(entry, ctx, False) or ss and not ctx.positive:
                continue
            bit = 0 if entry.class_count == "unbounded" else _SS_BIT if ss else 1 << i
            self.entries.append((bit, tuple(_shared_block(n, entry.albert, k) for k in range(1, g // n + 1))))
        self.has_ss = any(bit == _SS_BIT for bit, _ in self.entries)
        self.snapshots = list(_fold(g, self.entries))
        self.star = self.snapshots[-1]
        self.values = reduce(or_, self.by_index_at(g).values())

    def by_index_at(self, n: int) -> dict[int, int]:
        """The values of dimension n <= g by supersingularity index s: the
        star values of dimension n - s shifted by the value of ss^s."""
        return {s: self.star[n - s] << ss_rho(s) for s in range(n + 1 if self.has_ss else 1)}

    @cached_property
    def longest(self) -> list[list[int]]:
        """``longest[d][c]``, c <= d <= g: the largest value of dimension d with
        exactly c blocks, ss included, or -1.  A max-plus knapsack in place: a
        pass of ascending d adds each block dimension's largest unbounded block,
        which may repeat; a pass of descending d per single-class entry reads
        only cells it has not raised, so it adds at most one of its blocks."""
        g = self.g
        table = [[0]] + [[-1] * (d + 1) for d in range(1, g + 1)]
        top = [0] * (g + 1)  # per block dimension, the largest unbounded block value
        for bit, blocks in self.entries:
            if not bit:
                dim = n = blocks[0].simple_dim  # the row holds A^k at dimension k * n
                for b in blocks:
                    if b.rho > top[dim]:
                        top[dim] = b.rho
                    dim += n
        passes = [(range(1, g + 1), [(dim, rho) for dim, rho in enumerate(top) if rho])]
        passes += [(range(g, 0, -1), [(b.block_dim, b.rho) for b in blocks])
                   for bit, blocks in self.entries if bit]
        for ds, pairs in passes:
            for d in ds:
                row = table[d]
                for dim, rho in pairs:
                    if dim > d:
                        break  # pairs ascend in dim
                    for c, v in enumerate(table[d - dim], 1):
                        if v >= 0:
                            v += rho
                            if v > row[c]:
                                row[c] = v
        return table

    @cached_property
    def below_ss(self) -> list[list[int | None]]:
        """``below_ss[m][d]``: ``snapshots[m][d]`` with one more block ss^s,
        s < m, allowed, or ``None`` until :meth:`_below` fills it on its
        first read.  The searches read a small part of the (g + 1)^2 cells,
        each costing up to g big-int shifts.  Without a supersingular entry
        it is ``snapshots`` itself, which has no empty cell."""
        if not self.has_ss:
            return self.snapshots
        return [[None] * (self.g + 1) for _ in range(self.g + 1)]

    def _below(self, m: int, d: int) -> int:
        """The cell ``below_ss[m][d]``, filled from its definition if empty.
        A cell with m > d + 1 gets the value of the cell with m = d + 1,
        which allows every s <= d."""
        table = self.below_ss
        bits = table[m][d]
        if bits is None:
            top = min(m, d + 1)
            bits = table[top][d]
            if bits is None:
                snap = self.snapshots
                bits = 0
                for s in range(top):
                    bits |= snap[min(top, d - s)][d - s] << ss_rho(s)
                table[top][d] = bits
            table[m][d] = bits
        return bits

    @cached_property
    def _fitting(self) -> list[list[tuple]]:
        """``_fitting[m]``: the blocks the search may take that have
        dimension at most m, in text order, as (rank in canonical order,
        block, dim, rho, entry), ``entry`` the bit of the block's row in the
        entry table.  Canonical order puts larger blocks first, so after a
        block of dimension k only blocks of dimension at most k can follow."""
        searched = sorted(((b, bit) for bit, blocks in self.entries for b in blocks),
                          key=lambda pair: pair[0].sort_key)
        candidates = sorted(((rank, b, b.block_dim, b.rho, bit) for rank, (b, bit) in enumerate(searched)),
                            key=lambda c: str(c[1]))
        return [[c for c in candidates if c[2] <= m] for m in range(self.g + 1)]

    def sweep(self, bits: int, allow_ss: bool = True) -> dict[int, Decomposition]:
        """For every value v in the bitset, ``next(walk(v, allow_ss))``,
        found for all of them in one depth-first pass; values without a
        decomposition are left out."""
        used = 0 if allow_ss else _SS_BIT
        return dict(self._search(self.g, bits, 0, self.g, used, [], 0, True))

    def walk(self, rho: int, allow_ss: bool = True) -> Iterator[Decomposition]:
        """Every decomposition of dimension g with Picard number rho, in
        increasing order of the formatted string; none, at once, for rho
        outside [0, 2g^2 - g]."""
        if not 0 <= rho <= max_picard(self.g):
            return iter(())
        used = 0 if allow_ss else _SS_BIT
        return (dec for _, dec in self._search(self.g, 1 << rho, 0, self.g, used, [], 0, False))

    def _search(self, d: int, bits: int, rank: int, top: int, used: int,
                acc: list, base: int, first: bool) -> Generator[tuple[int, Decomposition], None, int]:
        # Blocks are taken in canonical (sort_key) order and tried in order
        # of their text, so the decompositions of a value come out in string
        # order: " * " sorts below every character that can extend a block.
        # Yields (value, decomposition) per completion of a value of ``bits``
        # and returns the completed values, both relative to ``base``.  With
        # ``first`` a value leaves ``bits`` at its first completion.  ``used``
        # holds the entry bits of the single-class blocks in ``acc``.
        done = 0
        # A block allows ss^s after it unless ss is used, by ``acc`` or by it;
        # a ``below_ss`` cell is filled on its first read.
        snapshots = self.snapshots
        below = None if used & _SS_BIT else self.below_ss
        for c_rank, block, dim, rho, entry in self._fitting[min(d, top)]:
            if c_rank < rank or entry & used:
                continue
            d2 = d - dim
            if below is None or entry == _SS_BIT:
                cell = snapshots[dim][d2]
            else:
                cell = below[dim][d2]
                if cell is None:
                    cell = self._below(dim, d2)
            hits = bits & (cell << rho)
            if not hits:
                continue
            used2 = used | entry
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
    each value with its witness, which is found on the first read of the
    result's ``values`` (or ``witness_for``).

    With ``allow_ss=False`` only supersingularity-free decompositions are
    considered (the star set).  The 128 most recent results are cached.
    """
    if g < 1:
        raise ValueError("g must be positive")
    core = _core(g, catalog, ctx)
    star = core.star[g]
    return RangeResult(g, ctx, catalog, allow_ss, core.values if allow_ss else star, star)


def attainable_by_ss_index(
    g: int,
    catalog: Catalog,
    ctx: CharContext = CHAR_P,
) -> dict[int, frozenset]:
    """Map each supersingularity index s to the values attainable with
    exactly that index."""
    if g < 1:
        raise ValueError("g must be positive")
    return {s: frozenset(_members(bits)) for s, bits in _core(g, catalog, ctx).by_index_at(g).items()}


def paper_catalog(g: int, ctx: CharContext = CHAR_P) -> Catalog:
    return builtin("paper", g, ctx)


def upper_catalog(g: int, ctx: CharContext = CHAR_P) -> Catalog:
    return builtin("upper", g, ctx)


class Membership(NamedTuple):
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


class LengthMax(NamedTuple):
    r: int
    g: int
    enumerated: int
    closed_form: int

    @property
    def matches(self) -> bool:
        return self.enumerated == self.closed_form


def max_by_length(r: int, g: int, ctx: CharContext = CHAR_P) -> LengthMax:
    """Largest Picard number over restriction-only decompositions of
    dimension g with exactly r factors (``longest[g][r]``), next to the closed form."""
    if g < 1:
        raise ValueError("g must be positive")
    if not 1 <= r <= g:
        raise ValueError("length r must satisfy 1 <= r <= g")
    best = _core(g, upper_catalog(g, ctx), ctx).longest[g][r]
    if best < 0:
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

    The list has no bound on its length or on the time it takes: at g = 30
    in the paper catalog, rho = 30 alone has 290,781 decompositions.
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
    star = _core(g, paper_catalog(g, ctx), ctx).star[n]
    return set(_members(star << ss_rho(g - n)))


def parity_filter(result: RangeResult) -> list[int]:
    """Values sharing the parity of the second Betti number 2g^2 - g; over
    finite fields the Picard number must have this parity."""
    b2 = max_picard(result.g)
    return [rho for rho in sorted(result.value_set()) if (rho - b2) % 2 == 0]
