"""The public readers of catalogs and ranges that no command runs:
:func:`blocks_for_dim`, the per-dimension view of a catalog that the
oracles, the tests and the benchmark read, and :func:`upper_catalog`,
:func:`structure_witnesses`, :func:`translated_range` and
:func:`parity_filter`.

No start of the command line compiles this module.  The package names
each of these five from here; ``catalog.blocks_for_dim`` and
``ranges.structure_witnesses`` still reach two of them, because the
benchmark reads them there.
"""

from __future__ import annotations

from .albert import CHAR_P, CharContext
from .catalog import Catalog, builtin, entry_available
from .decomp import Block, Decomposition, max_picard
from .ranges import RangeResult, _core, _members


def blocks_for_dim(catalog: Catalog, m: int, ctx: CharContext = CHAR_P,
                   include_uncertain: bool = False) -> list[tuple[Block, str]]:
    """All block templates of total dimension m buildable from the catalog:
    per entry of simple dimension n, the power k with n*k = m.  Conditional
    entries are filtered through the context's split policy; with
    ``include_uncertain`` they are kept whenever not ruled out.  This is the
    per-dimension view that the oracles, the tests and the benchmark read;
    the enumeration core builds its blocks per entry."""
    if m < 1:
        raise ValueError("dimension must be positive")
    return [(Block(entry.simple_dim, entry.albert, m // entry.simple_dim), entry.class_count)
            for entry in catalog.entries
            if not m % entry.simple_dim and entry_available(entry, ctx, include_uncertain)]


def upper_catalog(g: int, ctx: CharContext = CHAR_P) -> Catalog:
    return builtin("upper", g, ctx)


def structure_witnesses(g: int, rho: int, ctx: CharContext = CHAR_P,
                        mode: str = "paper") -> list[Decomposition]:
    """Every certified-catalog decomposition of dimension g with the given
    Picard number, in canonical order, the witness first.  The
    certified catalog is used so that the answer reflects constructions
    known to exist; switch ``mode`` to ``"upper"`` for the restriction-only
    universe.  The list has no bound on its length or on the time it takes:
    at g = 30 in the paper catalog, rho = 30 alone has 290,781 decompositions.
    """
    if g < 1:
        raise ValueError("g must be positive")
    return list(_core(g, builtin(mode, g, ctx), ctx).walk(g, rho))  # builtin refuses a bad mode


def translated_range(g: int, n: int, ctx: CharContext = CHAR_P) -> set[int]:
    """The certified values of dimension g with supersingularity index g - n:
    the star set of dimension n shifted by the value 2(g-n)^2 - (g-n) of
    ss^(g-n).  Empty for n < g in characteristic 0, which has no ss."""
    if not 1 <= n <= g:
        raise ValueError("need 1 <= n <= g")
    return set(_members(_core(g, "paper", ctx).index_class(g, g - n)))


def parity_filter(result: RangeResult) -> list[int]:
    """Values sharing the parity of the second Betti number 2g^2 - g; over
    finite fields, and so over F̄_p, where every abelian variety is defined
    over one, the Picard number must have this parity."""
    b2 = max_picard(result.g)
    return [rho for rho in sorted(result.value_set()) if (rho - b2) % 2 == 0]
