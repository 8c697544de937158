"""Existence catalogs: which simple isogeny factors may be used.

Attainability of a Picard number depends on which simple abelian varieties
actually exist, and much of that existence theory is open.  A
:class:`Catalog` makes the assumption explicit.  Two built-in modes:

* ``upper`` -- every type passing the divisibility restrictions, each in
  unboundedly many isogeny classes.  Absence from this enumeration refutes
  a value outright.
* ``paper`` -- only constructions with unconditional backing: simple
  varieties of Picard number one in every dimension, ordinary and CM
  elliptic curves (unboundedly many classes of each), the supersingular
  elliptic curve (a single class), plus dimension-n CM factors of type
  IV(1, n) that exist exactly when p splits in the relevant algebra
  (recorded as a condition, not assumed; under the default split policy
  ``unknown`` none counts, so ``paper`` is then unconditional).

User-supplied catalogs are JSON arrays of entries.  Their reader
``load``, with ``from_obj`` and the check behind :meth:`Catalog.validate`,
is defined in :mod:`picard_ranges._catalog_file`, which only
``range --catalog`` compiles.  The per-dimension view ``blocks_for_dim``,
which no command runs, is defined in :mod:`picard_ranges._views`;
``catalog.blocks_for_dim`` still reaches it from here, because the
benchmark's tracer and reference builder read it there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .albert import (
    AlbertType,
    CharContext,
    CHAR_P,
    _Validated,
    admissible_types,
    restrictions_ok,
    type_I,
    type_IV,
)
from .decomp import SUPERSINGULAR_TYPE, _Frozen

CLASS_COUNTS = ("one", "unbounded")
CONDITIONS = ("always", "p_split", "unknown")
BUILTIN_MODES = ("upper", "paper")


class _EntryFields(NamedTuple):
    simple_dim: int
    albert: AlbertType
    class_count: str = "unbounded"
    condition: str = "always"


class CatalogEntry(_Validated, _EntryFields):
    """A simple factor assumed to exist: dimension, type, how many isogeny
    classes (``one`` or ``unbounded``) and under which condition.  An
    immutable tuple of the four fields; every construction, ``_replace``
    included, is validated."""

    __slots__ = ()

    def __new__(cls, simple_dim: int, albert: AlbertType, class_count: str = "unbounded",
                condition: str = "always"):
        if simple_dim < 1:
            raise ValueError("simple_dim must be positive")
        if class_count not in CLASS_COUNTS:
            raise ValueError(f"bad class_count {class_count!r}")
        if condition not in CONDITIONS:
            raise ValueError(f"bad condition {condition!r}")
        entry = tuple.__new__(cls, (simple_dim, albert, class_count, condition))
        if entry.is_supersingular and class_count != "one":
            raise ValueError("the supersingular entry has a single isogeny class")
        return entry

    @property
    def is_supersingular(self) -> bool:
        return self.simple_dim == 1 and self.albert == SUPERSINGULAR_TYPE

    @property
    def sort_key(self) -> tuple:
        return (self.simple_dim, self.albert.sort_key)


class Catalog(_Frozen):
    """An immutable tuple of entries.  Equality is by value; the hash is
    computed once, because catalogs key the caches of the enumeration."""

    __slots__ = ("entries", "mode", "_hash")
    _fields = ("entries", "mode")

    def __init__(self, entries: tuple[CatalogEntry, ...], mode: str = "custom"):
        keys = [(entry.simple_dim, entry.albert) for entry in entries]
        if len(set(keys)) < len(keys):
            dim, albert = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise ValueError(f"duplicate entry (dim={dim}, {albert})")
        setattr_ = object.__setattr__  # the instance is frozen
        setattr_(self, "entries", entries)
        setattr_(self, "mode", mode)
        # Not pickled: ``__reduce__`` rebuilds the catalog from its fields,
        # because string hashes, and so this one, differ between processes.
        setattr_(self, "_hash", hash((entries, mode)))

    def __hash__(self):
        return self._hash

    def validate(self, ctx: CharContext) -> None:
        """Refuse an entry that breaks the divisibility restrictions under ctx."""
        from ._catalog_file import validate
        validate(self, ctx)


def entry_available(entry: CatalogEntry, ctx: CharContext, include_uncertain: bool) -> bool:
    if entry.condition == "p_split" and ctx.p_split_policy != "unknown":
        return ctx.p_split_policy == "split"
    return entry.condition == "always" or include_uncertain


def builtin(mode: str, g_max: int, ctx: CharContext = CHAR_P) -> Catalog:
    """Construct one of the built-in catalogs for dimensions up to g_max: the
    entries of dimension at most g_max of the mode's :func:`family` under ctx.
    Entries failing the divisibility restrictions under ``ctx`` are dropped,
    so in characteristic zero no catalog contains the supersingular entry.
    The 64 most recent results are cached; a cached catalog is shared by
    every caller, which is safe because a catalog is immutable."""
    # One cache key per catalog, however the arguments were passed.
    return _builtin(mode, g_max, ctx)


@lru_cache(maxsize=64)
def _builtin(mode: str, g_max: int, ctx: CharContext) -> Catalog:
    if mode not in BUILTIN_MODES:
        raise ValueError(f"unknown catalog mode {mode!r}")
    if g_max < 1:
        raise ValueError("g_max must be positive")
    entries, ends = family(mode, g_max, ctx)
    return Catalog(tuple(entries[:ends[g_max]]), mode)


_FAMILIES: dict = {}


def family(mode: str, g: int, ctx: CharContext) -> tuple[list[CatalogEntry], list[int]]:
    """The entries of the built-in catalogs of the mode in ctx's characteristic
    (not its split policy) as one list, grown on demand to dimension g at least,
    in catalog order and with one entry at least per dimension (type I(1)), and
    ``ends``, so that those of dimension at most n are ``entries[:ends[n]]``."""
    entries, ends = _FAMILIES.setdefault((mode, ctx.positive), ([], [0]))
    for n in range(len(ends), g + 1):
        if mode == "upper":  # the admissible types pass the restrictions, in catalog order
            new = [CatalogEntry(n, t, "one" if n == 1 and t == SUPERSINGULAR_TYPE else "unbounded")
                   for t in admissible_types(n, ctx)]
        else:  # IV(1, 1) is the CM elliptic curve; IV(1, n), n > 1, needs p to split
            split = "p_split" if n > 1 else "always"
            new = [CatalogEntry(n, type_I(1)), CatalogEntry(n, type_IV(1, n), "unbounded", split)]
            new += [CatalogEntry(1, SUPERSINGULAR_TYPE, "one")] if n == 1 else []
            new = sorted((e for e in new if restrictions_ok(e.albert, n, ctx)), key=lambda e: e.sort_key)
        entries += new
        ends.append(len(entries))
    return entries, ends


def in_family(catalog: Catalog, g: int, ctx: CharContext) -> bool:
    """Whether the catalog's entries are those of dimension at most g' of its
    built-in mode's family under ctx, for some g' >= g."""
    n = len(catalog.entries)
    top = catalog.entries[-1].simple_dim if n else 0  # n entries of a family reach dimension n at most
    if catalog.mode not in BUILTIN_MODES or not g <= top <= n:
        return False
    found, ends = family(catalog.mode, top, ctx)
    return n == ends[top] and catalog.entries == tuple(found[:n])


def __getattr__(name: str):
    # read here by benchmarks/tracer.py (install) and benchmarks/make_reference.py
    if name == "blocks_for_dim":
        from ._views import blocks_for_dim
        return blocks_for_dim
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
