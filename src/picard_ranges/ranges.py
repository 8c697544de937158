"""Attainable Picard-number sets over a catalog, from one enumeration core.

The Picard number of a product of pairwise non-isogenous blocks is the sum
of the block values, so the values attainable in dimension g form an
attainable-sum set over the blocks a catalog offers.  The blocks of an entry
with unboundedly many isogeny classes may repeat; a single-class entry gives
at most one block, and so does the supersingular entry (ss^s, value 2s^2 - s).

Every question goes to one private core per catalog family and ctx, grown
in place to the largest dimension asked (:func:`_core`); a conditional
entry counts only where the context's split policy rules it in.  Its value
fold keeps one Python-int bitset per dimension and block dimension; a value
with supersingularity index s is a star value of dimension g - s shifted by
the value of ss^s.  Witnesses come from one depth-first search: the walk
lists every decomposition of one value, the sweep finds the first of every
value of a bitset in one pass.  :func:`attainable` answers from the bitsets
alone and finds its witnesses on the first read of the result's ``values``.
The witness of a value is its decomposition with the smallest formatted string.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache, reduce
from itertools import compress, count
from operator import or_
from typing import Generator, Iterator, NamedTuple

from .albert import CHAR_P, CharContext
from .catalog import Catalog, builtin, entry_available, family, in_family
from .decomp import Block, Decomposition, max_picard, ss_rho

STATUS_CERTIFIED = "certified"
STATUS_UPPER_ONLY = "upper-only"
STATUS_REFUTED = "refuted"
STATUS_UNDETERMINED = "undetermined"

_SS_BIT = 1  # the supersingular entry's bit in a search's ``used`` mask
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary text to the 0/1 bytes of _members


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
    status, star flag and witness, is swept at g on its first read and kept;
    it fetches the core through :func:`_core`, so that an unread result holds
    no core, and a family core grown or evicted meanwhile gives the same answer.
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
            bits, star = self._bits, set(_members(self._star))
            witnesses = _core(self.g, self._catalog, self.ctx).sweep(self.g, bits, self._allow_ss)
            status = STATUS_UPPER_ONLY if self.mode == "upper" else STATUS_CERTIFIED
            values = self._values = tuple(
                RangeValue(rho, status, rho in star, witnesses[rho]) for rho in _members(bits)
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
    """The positions of the set bits of a non-negative int, ascending: its
    binary text above the lowest set bit, as 0/1 bytes, selects them in C."""
    low = max((bits & -bits).bit_length() - 1, 0)
    return list(compress(count(low), bin(bits >> low)[:1:-1].encode().translate(_DIGITS)))


class _Core:
    """Reachability and witnesses for one catalog family under one ctx.

    A family is a built-in mode, whose entries come from
    :func:`~picard_ranges.catalog.family`, or one custom catalog.
    :meth:`grow` extends every table to a larger g by appending: a cell,
    once set, never changes, and the first build is growth from 0.  So the
    core answers for every dimension n <= g, and every reader takes n.

    ``entries`` has a row ``(bit, blocks)`` per entry A of dimension n <= g
    that counts under ctx: its blocks A^k, k = 1..g // n, and the
    entry's bit in the search's ``used`` mask (``_SS_BIT`` for ss, a distinct
    higher power of two for each other single-class entry, 0 if unbounded).

    ``snapshots[m][d]`` holds the values of supersingular-free assemblies of
    dimension d from blocks of dimension at most m, a single-class entry
    folded (at most one of its blocks) at its smallest block dimension.  A
    suffix of a canonical decomposition with blocks of dimension at most m
    lies in ``snapshots[min(m, d)][d]``.  Per m, one stage folds the
    unbounded blocks and one each single-class entry, as rows over d that
    growth extends column by column.  ``star[d]`` is ``snapshots[d][d]``;
    ``by_index_at(n)[s]``, the values with supersingularity index s, is
    ``star[n - s]`` shifted by the value of ss^s; ``values(n)`` is their
    union and ``longest`` their maxima by length (dropped on growth).

    One depth-first search lists every decomposition of a value (``walk``)
    or the first of each value of a bitset (``sweep``).  It prunes with
    ``below_ss``, which allows one more ss^s only for s < m, as ss^m sorts
    ahead of the other blocks of dimension m.  ``below_ss``, with empty
    cells filled on first read, and the candidate index ``_fitting`` are
    allocated on the first search, so value queries never build them.
    ``used`` holds the bits of the single-class entries taken so far.
    """

    def __init__(self, source: Catalog | str, ctx: CharContext):
        self.source, self.ctx, self.g, self.has_ss = source, ctx, 0, False
        self.entries, self._stages, self.snapshots, self.star, self._values = [], [], [[1]], [1], [1]

    def grow(self, g: int) -> None:
        """Extend every table to dimension g, if g is larger than the core's."""
        g0, ctx = self.g, self.ctx
        if g <= g0:
            return
        self.g = g
        for _, blocks in self.entries:  # the new powers of the entries already in
            n, albert = blocks[0].simple_dim, blocks[0].albert
            blocks += [Block(n, albert, k) for k in range(len(blocks) + 1, g // n + 1)]
        if isinstance(self.source, str):
            entries, ends = family(self.source, g, ctx)
            new = enumerate(entries[ends[g0]:ends[g]], ends[g0] + 1)
        else:
            new = ((i, e) for i, e in enumerate(self.source.entries, 1) if g0 < e.simple_dim <= g)
        singles = []
        for i, entry in new:
            n, ss = entry.simple_dim, entry.is_supersingular
            if not entry_available(entry, ctx, False) or ss and not ctx.positive:
                continue
            bit = 0 if entry.class_count == "unbounded" else _SS_BIT if ss else 1 << i
            self.entries.append((bit, [Block(n, entry.albert, k) for k in range(1, g // n + 1)]))
            self.has_ss |= ss
            if bit > _SS_BIT:
                singles.append(self.entries[-1][1])
        stages, snapshots = self._stages, self.snapshots  # a stage: (m, unbounded values, blocks, row)
        for m, pairs in enumerate(self._blocks_from(g0 + 1), g0 + 1):
            stages.append((m, {b.rho for bit, b in pairs if not bit}, (), []))
            stages += [(m, None, blocks, []) for blocks in singles if blocks[0].simple_dim == m]
        prev = snapshots[0]
        prev += [0] * (g - g0)
        for m, free, blocks, row in stages:
            lo = len(row)
            row += prev[lo:]
            for b in blocks:  # at most one block of a single-class entry
                dim, s = b.block_dim, b.rho
                for d in range(max(dim, lo), g + 1):
                    row[d] |= prev[d - dim] << s
            for s in free or ():  # the unbounded blocks of dimension m repeat freely
                for d in range(max(m, lo), g + 1):
                    row[d] |= row[d - m] << s
            snapshots[m:m + 1] = [row]  # m's last stage is its snapshot
            prev = row
        self.star += [snapshots[d][d] for d in range(g0 + 1, g + 1)]
        self._values += [None] * (g - g0)
        tables = vars(self)
        tables.pop("longest", None)
        if "_fitting" in tables:
            self._grow_fitting(self._fitting)
        if "below_ss" in tables and self.has_ss:
            for row in self.below_ss:
                row += [None] * (g - g0)
            self.below_ss += [[None] * (g + 1) for _ in range(g - g0)]

    def _blocks_from(self, lo: int) -> list[list[tuple[int, Block]]]:
        """Per dimension d = lo..g, the pairs (entry bit, block) of the
        blocks of dimension d."""
        out = [[] for _ in range(lo, self.g + 1)]
        for bit, blocks in self.entries:
            n = blocks[0].simple_dim
            for k in range((lo + n - 1) // n, len(blocks) + 1):
                out[k * n - lo].append((bit, blocks[k - 1]))
        return out

    def by_index_at(self, n: int) -> dict[int, int]:
        """The values of dimension n <= g by supersingularity index s: the
        star values of dimension n - s shifted by the value of ss^s."""
        return {s: self.star[n - s] << ss_rho(s) for s in range(n + 1 if self.has_ss else 1)}

    def values(self, n: int) -> int:
        """The value bitset of dimension n <= g, the union of
        ``by_index_at(n)``, computed on first read and kept."""
        bits = self._values[n]
        if bits is None:
            bits = self._values[n] = reduce(or_, self.by_index_at(n).values())
        return bits

    @cached_property
    def longest(self) -> list[list[int]]:
        """``longest[d][c]``, c <= d <= g: the largest value of dimension d with
        exactly c blocks, ss included, or -1.  A max-plus knapsack in place: a
        pass of ascending d adds each block dimension's largest unbounded block,
        which may repeat; a pass of descending d per single-class entry reads
        only cells it has not raised, so it adds at most one of its blocks."""
        g = self.g
        table = [[0]] + [[-1] * (d + 1) for d in range(1, g + 1)]
        top = [max(free, default=0) for _, free, _, _ in self._stages if free is not None]  # per m = 1..g
        passes = [(range(1, g + 1), [(dim, rho) for dim, rho in enumerate(top, 1) if rho])]
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
        s < m, allowed, or ``None`` until :meth:`_below` fills it on its first
        read (a search reads few of the cells, each up to g big-int shifts).
        Without a supersingular entry it is ``snapshots`` itself."""
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
                bits = table[top][d] = reduce(
                    or_, (snap[min(top, d - s)][d - s] << ss_rho(s) for s in range(top)), 0)
            table[m][d] = bits
        return bits

    @cached_property
    def _fitting(self) -> list[list[tuple]]:
        """``_fitting[m]``: the blocks of dimension at most m, in text order,
        as (text, rank, block, dim, rho, entry), ``entry`` the bit of the
        block's row.  Ranks follow canonical order, which puts larger blocks
        first, so after a block of dimension k only blocks of dimension at
        most k can follow; those of dimension m rank from -len(_fitting[m])
        up, so no rank depends on g.  List m merges list m - 1 with them."""
        return self._grow_fitting([[]])

    def _grow_fitting(self, fitting: list[list[tuple]]) -> list[list[tuple]]:
        lo = len(fitting)
        for m, pairs in enumerate(self._blocks_from(lo), lo):
            pairs.sort(key=lambda pair: pair[1].sort_key)
            low = -len(fitting[-1]) - len(pairs)
            fitting.append(sorted(fitting[-1] + [(str(b), low + rank, b, m, b.rho, bit)
                                                 for rank, (bit, b) in enumerate(pairs)]))
        return fitting

    def sweep(self, g: int, bits: int, allow_ss: bool = True) -> dict[int, Decomposition]:
        """For every value v in the bitset, ``next(walk(g, v, allow_ss))``,
        stored by one depth-first pass; values without one are left out."""
        out = {}
        next(self._search(g, bits, -len(self._fitting[g]), g, 0 if allow_ss else _SS_BIT, [], 0, out), None)
        return out

    def walk(self, g: int, rho: int, allow_ss: bool = True) -> Iterator[Decomposition]:
        """Every decomposition of dimension g <= the core's with Picard
        number rho, lazily, in increasing order of the formatted string;
        none, at once, for rho outside [0, 2g^2 - g]."""
        if not 0 <= rho <= max_picard(g):
            return iter(())
        return self._search(g, 1 << rho, -len(self._fitting[g]), g, 0 if allow_ss else _SS_BIT, [], 0, None)

    def _search(self, d: int, bits: int, rank: int, top: int, used: int,
                acc: list, base: int, out: dict | None) -> Generator[Decomposition, None, int]:
        # Blocks are taken in canonical (sort_key) order and tried in order
        # of their text, so the decompositions of a value come out in string
        # order: " * " sorts below every character that can extend a block.
        # With ``out`` None it yields every completion of a value of ``bits``
        # and returns 0; with a dict it yields nothing, stores each value's
        # first completion at ``out[base + value]`` and returns the values it
        # completed, relative to base.  ss^s may follow unless ss is used.
        todo = bits
        snapshots = self.snapshots
        below = None if used & _SS_BIT else self.below_ss
        for _, c_rank, block, dim, rho, entry in self._fitting[d if d < top else top]:
            if c_rank < rank or entry & used:
                continue
            d2 = d - dim
            if below is None or entry == _SS_BIT:
                cell = snapshots[dim][d2]
            else:
                cell = below[dim][d2]
                if cell is None:
                    cell = self._below(dim, d2)
            hits = todo & (cell << rho)
            if not hits:
                continue
            acc.append(block)
            if d2:
                hits = (yield from self._search(d2, hits >> rho, c_rank, dim, used | entry,
                                                acc, base + rho, out)) << rho
            elif out is None:  # d2 == 0: hits is the single value rho
                yield Decomposition(tuple(acc))
                hits = 0
            else:
                out[base + rho] = Decomposition(tuple(acc))
            acc.pop()
            if hits:
                todo ^= hits
                if not todo:
                    break
        return bits ^ todo


@lru_cache(maxsize=32)
def _core(g: int, catalog: Catalog, ctx: CharContext) -> _Core:
    """The core of the catalog's family under ctx (its built-in mode when
    :func:`~picard_ranges.catalog.in_family` holds, else the catalog itself),
    grown to g at least; the cores of the 32 most recent keys are cached."""
    core = _family_core(catalog.mode if in_family(catalog, g, ctx) else catalog, ctx)
    core.grow(g)
    return core


_family_core = lru_cache(maxsize=16)(_Core)  # the 16 most recent families' cores


@lru_cache(maxsize=128)
def attainable(g: int, catalog: Catalog, ctx: CharContext = CHAR_P, allow_ss: bool = True) -> RangeResult:
    """Exact attainable set of Picard numbers in dimension g over a catalog,
    each value with its witness, which is found on the first read of the
    result's ``values`` (or ``witness_for``).  With ``allow_ss=False`` only
    supersingularity-free decompositions are considered (the star set).
    The 128 most recent results are cached."""
    if g < 1:
        raise ValueError("g must be positive")
    core = _core(g, catalog, ctx)
    star = core.star[g]
    return RangeResult(g, ctx, catalog, allow_ss, core.values(g) if allow_ss else star, star)


def attainable_by_ss_index(g: int, catalog: Catalog, ctx: CharContext = CHAR_P) -> dict[int, frozenset]:
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
    Only a certified value has a witness, taken from :func:`attainable`."""
    if g < 1:
        raise ValueError("g must be positive")
    if not 1 <= rho <= max_picard(g):
        raise ValueError(f"rho must lie in [1, {max_picard(g)}] for g={g}")
    lower = builtin("paper", g, ctx)
    if _core(g, lower, ctx).values(g) >> rho & 1:
        return Membership(rho, g, STATUS_CERTIFIED, attainable(g, lower, ctx).witness_for(rho))
    upper = _core(g, builtin("upper", g, ctx), ctx).values(g)
    return Membership(rho, g, STATUS_UNDETERMINED if upper >> rho & 1 else STATUS_REFUTED, None)


def length_max_closed_form(r: int, g: int) -> int:
    """Closed form for the largest Picard number among dimension-g classes
    with exactly r isogeny factors: [2(g-r+1)^2 - (g-r+1)] + (r-1)."""
    return ss_rho(g - r + 1) + (r - 1)


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
    missing = ~_core(g, upper_catalog(g, ctx), ctx).values(g) & ((2 << max_picard(g)) - 2)  # in [1, 2g^2-g]
    starts, ends = missing & ~(missing << 1), missing & ~(missing >> 1)  # a run's first and last value
    return list(zip(_members(starts), _members(ends)))


def structure_witnesses(g: int, rho: int, ctx: CharContext = CHAR_P,
                        mode: str = "paper") -> list[Decomposition]:
    """Every certified-catalog decomposition of dimension g with the given
    Picard number, in increasing order of the formatted string.  The
    certified catalog is used so that the answer reflects constructions
    known to exist; switch ``mode`` to ``"upper"`` for the restriction-only
    universe.  The list has no bound on its length or on the time it takes:
    at g = 30 in the paper catalog, rho = 30 alone has 290,781 decompositions.
    """
    if g < 1:
        raise ValueError("g must be positive")
    return list(_core(g, builtin(mode, g, ctx), ctx).walk(g, rho))


def translated_range(g: int, n: int, ctx: CharContext = CHAR_P) -> set[int]:
    """The certified values of dimension g with supersingularity index g - n:
    the star set of dimension n shifted by the value 2(g-n)^2 - (g-n) of
    ss^(g-n).  Empty for n < g in characteristic 0, which has no ss."""
    if not 1 <= n <= g:
        raise ValueError("need 1 <= n <= g")
    return set(_members(_core(g, paper_catalog(g, ctx), ctx).by_index_at(g).get(g - n, 0)))


def parity_filter(result: RangeResult) -> list[int]:
    """Values sharing the parity of the second Betti number 2g^2 - g; over
    finite fields the Picard number must have this parity."""
    b2 = max_picard(result.g)
    return [rho for rho in sorted(result.value_set()) if (rho - b2) % 2 == 0]
