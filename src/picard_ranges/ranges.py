"""Attainable Picard-number sets over a catalog, from one enumeration core.

The Picard number of a product of pairwise non-isogenous blocks is the sum
of the block values, so the values attainable in dimension g form an
attainable-sum set over the blocks a catalog offers.  The blocks of an entry
with unboundedly many isogeny classes may repeat; a single-class entry gives
at most one block, and so does the supersingular entry (ss^s, value 2s^2 - s).

Every question goes to one private core per catalog family and ctx, grown
in place to the largest dimension asked (:func:`_core`, asked by mode for a
built-in family); a conditional entry counts only where the context's split
policy rules it in.  Its entry rows hold values, and its value fold one
Python-int bitset per dimension and block dimension; a value with
supersingularity index s is a star value of dimension g - s shifted by the
value of ss^s.  Witnesses come from two depth-first searches, one per stop
rule, over one candidate index, which makes the only blocks a core has, and
one pruning: the walk lists every decomposition of one value; the sweep
gives the first of every value of a dimension, ss^s followed by the first
star decomposition of dimension g - s, which the core searches once per
(dimension, star value), checks once with the constructor's linear
normal-form check and keeps, as it keeps each sweep; the sweep joins ss^s
to a kept tail in O(1).  :func:`attainable` answers from the bitsets; its
result reads a kept sweep.  The core grows by one rule: growth extends its
entry rows and its fold, and every table derived from them catches up to
the core's dimension when it is read.
The witness of a value is its first decomposition in canonical order, that is
by the sort keys of its blocks from the left, the order in which it stores them.
That order puts ss^s first, larger s first, so a witness has the largest
supersingularity index of its value.

The readers that no command runs, :func:`upper_catalog`,
:func:`structure_witnesses`, :func:`translated_range` and
:func:`parity_filter`, live in :mod:`picard_ranges._views`; this module
reads each from there on its first access.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress, count, repeat
from operator import or_
from typing import Iterator, NamedTuple
from weakref import WeakValueDictionary

from .albert import CHAR_P, AlbertType, CharContext, rho_power
from .catalog import Catalog, builtin, entry_available, family, in_family
from .decomp import Block, Decomposition, check_normalized, max_picard, ss_rho, supersingular_block

STATUS_CERTIFIED = "certified"
STATUS_UPPER_ONLY = "upper-only"
STATUS_REFUTED = "refuted"
STATUS_UNDETERMINED = "undetermined"

_SS_BIT = 1  # the supersingular entry's row bit, below every other single-class entry's
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary text to the 0/1 bytes of _members
_CORES: WeakValueDictionary = WeakValueDictionary()  # (family, ctx): its live core, see _core


class RangeValue(NamedTuple):
    rho: int
    status: str
    star: bool
    witness: Decomposition


class RangeResult:
    """The attainable set of dimension g over one catalog, as one call of
    :func:`attainable` found it.

    ``value_set`` and ``star_set`` read the value bitset and its subset, the
    star bitset ``star[g]``.  ``values`` and ``witness_for`` read the core's
    kept sweep, fetching the core through :func:`_core`, so that a result
    holds no core and no witness and a core grown or evicted meanwhile
    changes no answer; ``values`` is built anew on each read.
    """

    __slots__ = ("g", "ctx", "mode", "_catalog", "_allow_ss", "_bits", "_star")

    def __init__(self, g: int, ctx: CharContext, catalog: Catalog, allow_ss: bool, bits: int, star: int):
        self.g, self.ctx, self.mode = g, ctx, catalog.mode
        self._catalog, self._allow_ss = catalog, allow_ss
        self._bits, self._star = bits, star

    @property
    def values(self) -> tuple[RangeValue, ...]:
        # The records are built in C: RangeValue validates nothing, so
        # tuple.__new__ makes the same instances as its constructor.
        witnesses = _core(self.g, self._catalog, self.ctx).witnesses(self.g, self._allow_ss)
        members, star = _members(self._bits), set(_members(self._star))
        status = STATUS_UPPER_ONLY if self.mode == "upper" else STATUS_CERTIFIED
        fields = zip(members, repeat(status), map(star.__contains__, members), map(witnesses.get, members))
        return tuple(map(tuple.__new__, repeat(RangeValue), fields))

    def value_set(self) -> set[int]:
        return set(_members(self._bits))

    def star_set(self) -> set[int]:
        return set(_members(self._star))

    def witness_for(self, rho: int) -> Decomposition | None:
        return _core(self.g, self._catalog, self.ctx).witnesses(self.g, self._allow_ss).get(rho)


def _members(bits: int) -> list[int]:
    """The positions of the set bits of a non-negative int, ascending: its
    binary text above the lowest set bit, as 0/1 bytes, selects them in C."""
    low = max((bits & -bits).bit_length() - 1, 0)
    return list(compress(count(low), bin(bits >> low)[:1:-1].encode().translate(_DIGITS)))


class _Core:
    """Reachability and witnesses for one catalog family under one ctx.

    A family is a built-in mode, whose entries come from
    :func:`~picard_ranges.catalog.family`, or one custom catalog.  One rule
    grows it: :meth:`grow` extends the entry rows and the fold to a larger g,
    and every table derived from them catches up to g when it is read.  Every
    table, the candidate index too, only appends: a cell, once set, never
    changes, and the first build is growth from 0.  So the core answers for
    every dimension n <= g, and every reader takes n.
    Growing from g0 to g does the work of the dimensions g0 + 1..g alone, so
    a scan over g = 1..G costs little more than one build at G.

    ``_by_dim[n]`` has a row ``(bit, n, albert, rhos)`` per entry A of
    simple dimension n <= g that counts under ctx: its type, the values
    ``rhos`` of A^k, k = 1..g // n, and its bit (``_SS_BIT`` for ss, a
    distinct higher power of two for each other single-class entry, the bit
    of the search's ``used`` mask, 0 if unbounded); ``has_ss`` says whether
    ss counts.  :meth:`blocks_of_dim` lists the values of dimension d.  No
    value query makes a :class:`~picard_ranges.decomp.Block`: :meth:`_index`
    makes one per (row, power), the ss row's into ``_ss``, the rest into its order.

    ``snapshots[m][d]`` holds the values of supersingular-free assemblies of
    dimension d from blocks of dimension at most m, a single-class entry
    folded (at most one of its blocks) at its smallest block dimension.  A
    suffix of a canonical decomposition with blocks of dimension at most m
    lies in ``snapshots[min(m, d)][d]``.  Per m, one stage folds the
    unbounded blocks and one each single-class entry, as rows over d that
    growth extends column by column.  ``star[d]`` is ``snapshots[d][d]``;
    ``index_class(n, s)``, the values with supersingularity index s, is
    ``star[n - s]`` shifted by the value of ss^s, the one reader of a class;
    ``values(n)``, kept by n, is their union and ``longest`` their maxima by
    length.

    Two depth-first searches, one per stop rule, share the candidate index
    of :meth:`_index` and the pruning by ``snapshots``; ``used`` holds the
    bits of the single-class entries taken so far.  ``walk`` lists every
    decomposition of one value, a generator over that value; its root takes
    ss^s, s = g..1, then no ss, and searches the rest among the other
    blocks.  ``sweep`` reads the values of g itself and joins ss^s to the
    kept tail of each star value of dimension g - s, which :meth:`_search`,
    a recursion over a bitset of star values, finds.  Per dimension d >= 1,
    ``_tails[d]`` maps each star value searched so far to the blocks of its
    first star decomposition, a plain tuple that passed
    :func:`~picard_ranges.decomp.check_normalized` once, when the search
    kept it, and ``_searched[d]`` is the bitset of those values.  The sweep
    builds each witness with ``Decomposition._joined``, which checks the
    join of ss^s (or nothing) and a kept tail in O(1); ss^g alone, which
    has no tail, goes through the constructor.  A tail depends only on the
    candidates and snapshots of dimensions <= d, so it stays valid at every
    later g, and so does each sweep's dict, which ``_swept`` keeps by
    (g, allow_ss) for :meth:`witnesses`.  Value queries read no search table.
    """

    def __init__(self, source: Catalog | str, ctx: CharContext):
        self.source, self.ctx, self.g, self.has_ss, self._ss = source, ctx, 0, False, []
        self._by_dim, self._stages, self.snapshots, self.star = [[]], [], [[1]], [1]
        self._values, self._longest = {}, [[[0]]]  # _longest: per pass of the max-plus knapsack, its rows
        self._fitting, self._tails, self._searched, self._swept = ([], [0]), {}, {}, {}

    def grow(self, g: int) -> None:
        """Extend the entry rows and the fold to dimension g, if g is larger
        than the core's; every other table catches up when it is read.  Only
        the rows of an n with g // n > g0 // n gain powers, and every fold
        stage gains the new columns."""
        g0, ctx = self.g, self.ctx
        if g <= g0:
            return
        self.g = g
        by_dim = self._by_dim
        for n in range(1, g0 + 1):  # the new powers of the entries already in
            for _, _, albert, rhos in by_dim[n] if g // n > g0 // n else ():
                rhos += [rho_power(albert, k) for k in range(g0 // n + 1, g // n + 1)]
        by_dim += [[] for _ in range(g - g0)]
        if isinstance(self.source, str):
            entries, ends = family(self.source, g, ctx)
            new = enumerate(entries[ends[g0]:ends[g]], ends[g0] + 1)
        else:
            new = ((i, e) for i, e in enumerate(self.source.entries, 1) if g0 < e.simple_dim <= g)
        singles = []
        for i, entry in new:
            n, albert, ss = entry.simple_dim, entry.albert, entry.is_supersingular
            if not entry_available(entry, ctx, False) or ss and not ctx.positive:
                continue
            bit = 0 if entry.class_count == "unbounded" else _SS_BIT if ss else 1 << i
            by_dim[n].append((bit, n, albert, [rho_power(albert, k) for k in range(1, g // n + 1)]))
            self.has_ss |= ss
            if bit and not ss:
                singles.append(by_dim[n][-1])
        stages, snapshots = self._stages, self.snapshots  # a stage: (m, unbounded values, rhos, row)
        for m in range(g0 + 1, g + 1):  # m's unbounded values
            free = {rho for bit, _, _, rho in self.blocks_of_dim(m) if not bit}
            stages.append((m, free, (), []))
            stages += [(m, None, rhos, []) for _, n, _, rhos in singles if n == m]
            snapshots.append(stages[-1][3])  # m's last stage is its snapshot
        prev = snapshots[0]
        prev += [0] * (g - g0)
        for m, free, rhos, row in stages:
            lo = len(row)
            row += prev[lo:]
            for k, s in enumerate(rhos, 1):  # at most one power of a single-class entry
                dim = m * k
                for d in range(max(dim, lo), g + 1):
                    row[d] |= prev[d - dim] << s
            if free:  # the unbounded blocks of dimension m repeat freely
                for d in range(max(m, lo), g + 1):
                    bits, below = row[d], row[d - m]
                    for s in free:
                        bits |= below << s
                    row[d] = bits
            prev = row
        self.star += [snapshots[d][d] for d in range(g0 + 1, g + 1)]
        if len(self._fitting[1]) > 1:
            # The one exception to catching up on read: once a search has
            # built the candidate index, it grows here.  Left to the next
            # read, its growth moves into the first render_witnesses
            # operation after each growth in the scan_paper benchmark, whose
            # query_tail_ms then read 0.221 -> 0.236 ms (+7%, higher in 10 of
            # 10 alternating pairs of 30 s runs, 2 vCPUs, CPython 3.11.7).
            self._index()

    def blocks_of_dim(self, d: int) -> list[tuple[int, int, AlbertType, int]]:
        """The blocks of dimension d <= g as (bit, simple dimension, type,
        value) of their rows: power d // n of each row of each n dividing d,
        by n, then in catalog order."""
        by_dim = self._by_dim
        return [(bit, n, albert, rhos[k]) for n in range(1, d + 1) if not d % n
                for k in (d // n - 1,) for bit, _, albert, rhos in by_dim[n]]

    def index_class(self, n: int, s: int) -> int:
        """The values of dimension n <= g with supersingularity index s <= n:
        the star values of dimension n - s shifted by the value of ss^s, none
        for s > 0 without a supersingular entry."""
        return self.star[n - s] << ss_rho(s) if self.has_ss or not s else 0

    def values(self, n: int) -> int:
        """The value bitset of dimension n <= g, the union of every
        ``index_class(n, s)``, computed on first read and kept."""
        bits = self._values.get(n)
        if bits is None:
            bits = self._values[n] = reduce(or_, (self.index_class(n, s) for s in range(n + 1)))
        return bits

    @property
    def longest(self) -> list[list[int]]:
        """``longest[d][c]``, c <= d <= g: the largest value of dimension d with
        exactly c blocks, ss included, or -1.  A max-plus knapsack, a table of
        rows per pass that a read fills up to g: the unbounded pass adds each
        dimension's largest unbounded block to its own lower rows, so it may
        repeat; each single-class entry's pass adds one of its blocks to the last."""
        g, tables, prev = self.g, self._longest, None
        if len(tables[-1]) > g:
            return tables[-1]
        top = [max(free, default=0) for _, free, _, _ in self._stages if free is not None]  # per m = 1..g
        passes = [[(dim, rho) for dim, rho in enumerate(top, 1) if rho]]
        passes += [[(n * k, rho) for k, rho in enumerate(rhos, 1)]
                   for rows in self._by_dim for bit, n, _, rhos in rows if bit]
        for i, pairs in enumerate(passes):
            if i == len(tables):  # a new pass: no block fits below its entry's simple dimension
                tables.append(prev[:pairs[0][0]])
            rows = tables[i]
            below = rows if prev is None else prev
            for d in range(len(rows), g + 1):
                row = [-1] * (d + 1) if prev is None else prev[d][:]
                for dim, rho in pairs:
                    if dim > d:
                        break  # pairs ascend in dim
                    for c, v in enumerate(below[d - dim], 1):
                        if v >= 0 and v + rho > row[c]:
                            row[c] = v + rho
                rows.append(row)
            prev = rows
        return prev

    def _index(self) -> tuple[list[tuple], list[int]]:
        """The candidate index ``_fitting``, ``(order, ends)``, first
        extended from its own dimension to g: every block but ss^s as (block,
        dim, rho, entry, stop), smallest block first, that is in reverse
        canonical order, ``entry`` the bit of its row, ``stop`` one past its
        own position; ``ends[d]`` is the number of such blocks of dimension
        at most d, which begin the order.  New dimensions' blocks go at the
        end, as larger blocks sort first, so the index only appends."""
        order, ends = fitting = self._fitting
        if len(ends) > self.g:
            return fitting
        if self.has_ss:  # and ``_ss``, the ss^s that the searches take at their root
            self._ss += [supersingular_block(s) for s in range(len(self._ss) + 1, self.g + 1)]
        new = []
        for d in range(len(ends), self.g + 1):
            new += [(Block(n, albert, d // n), d, rho, bit)
                    for bit, n, albert, rho in self.blocks_of_dim(d) if bit != _SS_BIT]
            ends.append(len(order) + len(new))
        new.sort(key=lambda c: c[0].sort_key, reverse=True)
        order += [(*c, stop) for stop, c in enumerate(new, len(order) + 1)]
        return fitting

    def witnesses(self, g: int, allow_ss: bool) -> dict[int, Decomposition]:
        """:meth:`sweep` of dimension g <= the core's, run on the first read and kept."""
        if (g, allow_ss) not in self._swept:
            self._swept[g, allow_ss] = self.sweep(g, allow_ss)
        return self._swept[g, allow_ss]

    def sweep(self, g: int, allow_ss: bool) -> dict[int, Decomposition]:
        """For every value v of dimension g, ``values(g)`` with ss or
        ``star[g]`` without, ``next(walk(g, v, allow_ss))``.  Each index s,
        largest first, takes the values no larger s took: ss^s followed by
        the kept tail of the star value of dimension g - s, searched and
        checked once per core and joined in O(1)."""
        ends, star = self._index()[1], self.star
        tails, searched, join = self._tails, self._searched, Decomposition._joined
        ss = self._ss if allow_ss else ()
        bits, out = self.values(g) if allow_ss else star[g], {}
        for s in range(g if ss else 0, -1, -1):
            base, d = ss_rho(s), g - s
            need = (bits & star[d] << base) >> base
            if not need:
                continue
            if d:
                done = searched.get(d, 0)
                todo = need & ~done
                if todo:
                    searched[d] = done | self._search(d, todo, ends[d], 0, [], 0, tails.setdefault(d, {}))
                tail, head = tails[d], (ss[s - 1],) if s else ()
                for v in _members(need):  # with s = 0, the witness holds the kept tuple itself
                    out[base + v] = join(head, tail[v])
            else:  # ss^g alone, which has no tail
                out[base] = Decomposition((ss[s - 1],))
            bits ^= need << base
            if not bits:
                break
        return out

    def _search(self, d: int, bits: int, lo: int, used: int, acc: list, base: int, out: dict) -> int:
        # The sweep's search.  Candidates: the blocks of dimension at most d
        # before stop lo, from the block taken last (repeated if unbounded)
        # on in canonical order, so a value's first completion is its first star
        # decomposition in canonical order; the search stores its blocks at
        # out[base + value] and returns the values of bits it completed.
        # No ss follows, so ``snapshots`` bounds every suffix.
        todo = bits
        snapshots = self.snapshots
        order, ends = self._fitting
        for block, dim, rho, entry, stop in reversed(order[:lo if lo < ends[d] else ends[d]]):
            if entry & used:
                continue
            d2 = d - dim
            hits = todo & (snapshots[dim][d2] << rho)
            if not hits:
                continue
            acc.append(block)
            if d2:
                hits = self._search(d2, hits >> rho, stop, used | entry, acc, base + rho, out) << rho
            else:  # hits is the single value rho
                tail = tuple(acc)
                check_normalized(tail)  # once per kept tail; the sweep joins ss^s to it in O(1)
                out[base + rho] = tail
            acc.pop()
            if hits:
                todo ^= hits
                if not todo:
                    break
        return bits ^ todo

    def walk(self, g: int, rho: int, allow_ss: bool = True) -> Iterator[Decomposition]:
        """Every decomposition of dimension g <= the core's with Picard
        number rho, lazily, in canonical order; none, with no search, for
        rho outside [0, 2g^2 - g].  The root takes ss^s for s = g..1, then
        none; below it, the sweep's candidates and pruning, over one value."""
        if not 0 <= rho <= max_picard(g):
            return
        order, ends = self._index()
        snapshots, ss = self.snapshots, self._ss if allow_ss else ()

        def rest(d, v, lo, used, acc):  # the star decompositions of v in dimension d, after acc
            for block, dim, r, entry, stop in reversed(order[:lo if lo < ends[d] else ends[d]]):
                if entry & used or r > v or not snapshots[dim][d - dim] >> (v - r) & 1:
                    continue
                acc.append(block)
                if d > dim:
                    yield from rest(d - dim, v - r, stop, used | entry, acc)
                else:
                    yield Decomposition(tuple(acc))
                acc.pop()

        for s in range(g if ss else 0, -1, -1):
            d, v = g - s, rho - ss_rho(s)
            if v < 0 or not self.star[d] >> v & 1:
                continue
            head = [ss[s - 1]] if s else []
            if d:
                yield from rest(d, v, ends[d], 0, head)
            else:  # ss^g alone: rho is 2g^2 - g
                yield Decomposition(tuple(head))


@lru_cache(maxsize=16)
def _core(g: int, source: Catalog | str, ctx: CharContext) -> _Core:
    """The core under ctx, grown to g at least, of a built-in mode's family,
    or of a catalog's: its mode's if :func:`~picard_ranges.catalog.in_family`
    holds, else its own.  The 16 most recent keys are cached, so at most 16
    cores: a miss builds one only if ``_CORES`` holds no live core of the family.
    It refuses g < 1 first, for every reader that checks no argument itself."""
    if g < 1:
        raise ValueError("g must be positive")
    if isinstance(source, Catalog) and in_family(source, g, ctx):
        source = source.mode
    core = _CORES.get((source, ctx))
    if core is None:
        core = _CORES[source, ctx] = _Core(source, ctx)
    core.grow(g)
    return core


def attainable(g: int, catalog: Catalog, ctx: CharContext = CHAR_P, allow_ss: bool = True) -> RangeResult:
    """Exact attainable set of Picard numbers in dimension g over a catalog,
    each value with its witness, which the core sweeps on the first read of
    ``values`` or ``witness_for`` and keeps.  With ``allow_ss=False`` only
    supersingularity-free decompositions are considered (the star set).
    Nothing is cached here: a result is read off the cached core."""
    core = _core(g, catalog, ctx)
    star = core.star[g]
    return RangeResult(g, ctx, catalog, allow_ss, core.values(g) if allow_ss else star, star)


def paper_catalog(g: int, ctx: CharContext = CHAR_P) -> Catalog:
    return builtin("paper", g, ctx)


class Membership(NamedTuple):
    rho: int
    g: int
    status: str
    witness: Decomposition | None


def membership(rho: int, g: int, ctx: CharContext = CHAR_P) -> Membership:
    """Certified (with witness), refuted, or undetermined status of one value.
    The status reads one bit of the certified (paper-catalog) core and, if
    that is clear, one bit of the restriction-only (upper-catalog) core.
    Only a certified value has a witness, read off the certified core's sweep."""
    if g < 1:
        raise ValueError("g must be positive")
    if not 1 <= rho <= max_picard(g):
        raise ValueError(f"rho must lie in [1, {max_picard(g)}] for g={g}")
    core = _core(g, "paper", ctx)
    if core.values(g) >> rho & 1:
        return Membership(rho, g, STATUS_CERTIFIED, core.witnesses(g, True)[rho])
    upper = _core(g, "upper", ctx).values(g)
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
    best = _core(g, "upper", ctx).longest[g][r]  # r - 1 ord and [I(1); dim=g-r+1] give every r
    return LengthMax(r, g, best, length_max_closed_form(r, g))


def gaps(g: int, ctx: CharContext = CHAR_P) -> list[tuple[int, int]]:
    """Maximal intervals in [1, 2g^2-g] missed even by the restriction-only
    enumeration; values there are refuted."""
    missing = ~_core(g, "upper", ctx).values(g) & ((2 << max_picard(g)) - 2)  # in [1, 2g^2-g]
    starts, ends = missing & ~(missing << 1), missing & ~(missing >> 1)  # a run's first and last value
    return list(zip(_members(starts), _members(ends)))


def __getattr__(name: str):
    # the readers that no command runs live in _views, compiled on their first access
    if name in ("upper_catalog", "structure_witnesses", "translated_range", "parity_filter"):
        from . import _views
        return getattr(_views, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
