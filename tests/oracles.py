"""Independent reference implementations used to cross-check the fast paths.

Everything here deliberately avoids the dynamic-programming machinery in
the package: attainable sets are found by plain recursive enumeration of
block multisets, and maxima by scanning those multisets.
"""

from picard_ranges.albert import restrictions_ok, type_I, type_II, type_III, type_IV
from picard_ranges.catalog import CatalogEntry, blocks_for_dim
from picard_ranges.decomp import SUPERSINGULAR_TYPE, Decomposition


def brute_force_admissible_types(n, ctx, rho_cap):
    """Every type passing the restrictions for dimension n with base Picard
    number at most rho_cap, by a loop over every parameter up to the cap."""
    out = []
    for e in range(1, rho_cap + 1):
        for t in (type_I(e), type_III(e)):
            if t.base_rho <= rho_cap and restrictions_ok(t, n, ctx):
                out.append(t)
        t = type_II(e)
        if t.base_rho <= rho_cap and restrictions_ok(t, n, ctx):
            out.append(t)
    d = 1
    while d * d <= rho_cap:
        for e0 in range(1, rho_cap // (d * d) + 1):
            t = type_IV(e0, d)
            if restrictions_ok(t, n, ctx):
                out.append(t)
        d += 1
    return sorted(set(out), key=lambda t: t.sort_key)


def brute_force_builtin_entries(mode, g_max, ctx):
    """The entries of a built-in catalog, with the upper catalog's types
    taken from brute_force_admissible_types."""
    entries = []
    if mode == "upper":
        cap = 2 * g_max * g_max - g_max
        for n in range(1, g_max + 1):
            for t in brute_force_admissible_types(n, ctx, cap):
                count = "one" if (n == 1 and t == SUPERSINGULAR_TYPE) else "unbounded"
                entries.append(CatalogEntry(n, t, count))
    else:
        candidates = [CatalogEntry(1, SUPERSINGULAR_TYPE, "one")]
        candidates.append(CatalogEntry(1, type_IV(1, 1)))
        for n in range(1, g_max + 1):
            candidates.append(CatalogEntry(n, type_I(1)))
        for n in range(2, g_max + 1):
            candidates.append(CatalogEntry(n, type_IV(1, n), "unbounded", "p_split"))
        for entry in candidates:
            if not restrictions_ok(entry.albert, entry.simple_dim, ctx):
                continue
            if mode == "conservative" and entry.condition != "always":
                continue
            entries.append(entry)
    return tuple(sorted(entries, key=lambda e: e.sort_key))


def _items(g, catalog, ctx, include_uncertain):
    """(dim, value, entry_key, unbounded, is_ss) for every usable block."""
    items = []
    for m in range(1, g + 1):
        for block, count in blocks_for_dim(catalog, m, ctx, include_uncertain):
            items.append((
                block.block_dim,
                block.rho,
                (block.simple_dim, block.albert),
                count == "unbounded",
                block.is_supersingular,
            ))
    items.sort(key=lambda it: (it[0], it[1], str(it[2])))
    return items


def brute_force_values(g, catalog, ctx, allow_ss=True, include_uncertain=None):
    """All Picard numbers of dimension-g block multisets, by recursion."""
    if include_uncertain is None:
        include_uncertain = catalog.mode == "upper"
    items = [
        it for it in _items(g, catalog, ctx, include_uncertain)
        if allow_ss or not it[4]
    ]
    if not ctx.positive:
        items = [it for it in items if not it[4]]
    found = set()

    def rec(i, dim_left, acc, used_once):
        if dim_left == 0:
            found.add(acc)
            return
        if i == len(items):
            return
        rec(i + 1, dim_left, acc, used_once)
        dim, value, key, unbounded, _ = items[i]
        if dim <= dim_left and (unbounded or key not in used_once):
            rec(
                i if unbounded else i + 1,
                dim_left - dim,
                acc + value,
                used_once if unbounded else used_once | {key},
            )

    rec(0, g, 0, frozenset())
    found.discard(0)
    return found


def brute_force_decompositions(g, catalog, ctx, allow_ss=True):
    """Every decomposition of dimension g over the catalog, sorted by its
    formatted string, by recursion over block multisets."""
    include_uncertain = catalog.mode == "upper"
    blocks = [
        (block, count == "unbounded")
        for m in range(1, g + 1)
        for block, count in blocks_for_dim(catalog, m, ctx, include_uncertain)
        if not block.is_supersingular or (allow_ss and ctx.positive)
    ]
    found = []

    def rec(i, dim_left, acc, used_once):
        if dim_left == 0:
            found.append(Decomposition.from_blocks(acc))
            return
        if i == len(blocks):
            return
        rec(i + 1, dim_left, acc, used_once)
        block, unbounded = blocks[i]
        key = (block.simple_dim, block.albert)
        if block.block_dim <= dim_left and (unbounded or key not in used_once):
            rec(
                i if unbounded else i + 1,
                dim_left - block.block_dim,
                acc + [block],
                used_once if unbounded else used_once | {key},
            )

    rec(0, g, [], frozenset())
    return sorted(found, key=str)


def brute_force_star(g, catalog, ctx, include_uncertain=None):
    return brute_force_values(g, catalog, ctx, allow_ss=False,
                              include_uncertain=include_uncertain)


def brute_force_max_by_length(r, g, catalog, ctx):
    """Largest value over multisets of exactly r blocks and dimension g.

    It keeps every entry that the context does not rule out, ``unknown``
    conditions included, where the core keeps only the entries that
    count (``entry_available(..., False)``).  This oracle judges
    :func:`max_by_length`, a question about the restriction-only universe,
    in which a decomposition counts unless the restrictions forbid it, and
    an uncertain entry is not forbidden.  It is only called on the
    built-in ``upper`` catalog, whose entries are all ``always``, so there
    the two readings agree; on a catalog with uncertain entries they
    differ, and ``test_longest_matches_oracle_on_custom_catalogs`` judges
    the core by the decompositions instead.
    """
    items = _items(g, catalog, ctx, include_uncertain=True)
    best = [None]

    def rec(i, dim_left, blocks_left, acc, used_once):
        if dim_left == 0:
            if blocks_left == 0 and (best[0] is None or acc > best[0]):
                best[0] = acc
            return
        if i == len(items) or blocks_left == 0:
            return
        rec(i + 1, dim_left, blocks_left, acc, used_once)
        dim, value, key, unbounded, _ = items[i]
        if dim <= dim_left and (unbounded or key not in used_once):
            rec(
                i if unbounded else i + 1,
                dim_left - dim,
                blocks_left - 1,
                acc + value,
                used_once if unbounded else used_once | {key},
            )

    rec(0, g, r, 0, frozenset())
    return best[0]


def four_square_all(m):
    """Every descending four-square representation of m (for small m)."""
    out = []
    for a in range(int(m ** 0.5) + 1, -1, -1):
        if a * a > m:
            continue
        for b in range(a, -1, -1):
            if a * a + b * b > m:
                continue
            for c in range(b, -1, -1):
                rest = m - a * a - b * b - c * c
                if rest < 0:
                    continue
                for d in range(c, -1, -1):
                    if d * d == rest:
                        out.append((a, b, c, d))
    return out


def brute_force_min_genus(ell, start=2):
    """Least g >= start passing the conditions of min_genus, by searching
    g = start, start + 1, ..."""
    def ss_rho(s):
        return 2 * s * s - s

    def ok(g):
        for n in range(1, ell + 1):
            if g - n - 1 < 0:
                return False
            bottom = ss_rho(g - n) + 1
            if ss_rho(g - n - 1) + (n + 1) >= bottom:
                return False
            if n == 1:
                if g * g >= bottom:
                    return False
            elif g * g > ss_rho(g - n) + n * n:
                return False
        return True

    g = start
    while not ok(g):
        g += 1
    return g


def brute_force_nonadditivity(g, values):
    """Every (a, ra, b, rb) with a + b = g, a <= b, ra in values[a] and rb in
    values[b] (rb >= ra when a == b) whose sum is missing from values[g],
    by a loop over every pair; values maps each dimension to a set."""
    out = []
    for a in range(1, g // 2 + 1):
        b = g - a
        for ra in sorted(values[a]):
            for rb in sorted(values[b]):
                if a == b and rb < ra:
                    continue
                if ra + rb not in values[g]:
                    out.append((a, ra, b, rb))
    return sorted(out)
