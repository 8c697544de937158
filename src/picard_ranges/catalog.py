"""Existence catalogs: which simple isogeny factors may be used.

Attainability of a Picard number depends on which simple abelian varieties
actually exist, and much of that existence theory is open.  A
:class:`Catalog` makes the assumption explicit.  Three built-in modes:

* ``upper`` -- every type passing the divisibility restrictions, each in
  unboundedly many isogeny classes.  Absence from this enumeration refutes
  a value outright.
* ``paper`` -- only constructions with unconditional backing: simple
  varieties of Picard number one in every dimension, ordinary and CM
  elliptic curves (unboundedly many classes of each), the supersingular
  elliptic curve (a single class), plus dimension-n CM factors of type
  IV(1, n) that exist exactly when p splits in the relevant algebra
  (recorded as a condition, not assumed).
* ``conservative`` -- ``paper`` minus every conditional entry.

User-supplied catalogs are JSON arrays of entries, see :func:`load`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .albert import (
    AlbertType,
    CharContext,
    CHAR_P,
    admissible_types,
    parse_albert_type,
    restrictions_ok,
    type_I,
    type_IV,
)
from .decomp import SUPERSINGULAR_TYPE, Block

CLASS_COUNTS = ("one", "unbounded")
CONDITIONS = ("always", "p_split", "unknown")
BUILTIN_MODES = ("upper", "paper", "conservative")


@dataclass(frozen=True)
class CatalogEntry:
    """A simple factor assumed to exist: dimension, type, how many isogeny
    classes (``one`` or ``unbounded``) and under which condition."""

    simple_dim: int
    albert: AlbertType
    class_count: str = "unbounded"
    condition: str = "always"

    def __post_init__(self):
        if self.simple_dim < 1:
            raise ValueError("simple_dim must be positive")
        if self.class_count not in CLASS_COUNTS:
            raise ValueError(f"bad class_count {self.class_count!r}")
        if self.condition not in CONDITIONS:
            raise ValueError(f"bad condition {self.condition!r}")
        if self.is_supersingular and self.class_count != "one":
            raise ValueError("the supersingular entry has a single isogeny class")

    @property
    def is_supersingular(self) -> bool:
        return self.simple_dim == 1 and self.albert == SUPERSINGULAR_TYPE

    @property
    def sort_key(self) -> tuple:
        return (self.simple_dim, self.albert.sort_key)


@dataclass(frozen=True)
class Catalog:
    """An immutable tuple of entries.  Equality is by value; the hash is
    computed once, because catalogs key the caches of the enumeration."""

    entries: tuple[CatalogEntry, ...]
    mode: str = "custom"

    def __post_init__(self):
        seen = set()
        for entry in self.entries:
            key = (entry.simple_dim, entry.albert)
            if key in seen:
                raise ValueError(f"duplicate entry (dim={entry.simple_dim}, {entry.albert})")
            seen.add(key)
        object.__setattr__(self, "_hash", hash((self.entries, self.mode)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild on unpickling: string hashes, and so the stored hash,
        # differ between processes.
        return (Catalog, (self.entries, self.mode))

    def validate(self, ctx: CharContext) -> None:
        for entry in self.entries:
            if not restrictions_ok(entry.albert, entry.simple_dim, ctx):
                raise ValueError(
                    f"entry (dim={entry.simple_dim}, {entry.albert}) violates the "
                    f"divisibility restrictions in characteristic "
                    f"{'p' if ctx.positive else '0'}"
                )

    def has_supersingular(self) -> bool:
        return any(e.is_supersingular for e in self.entries)

    def entry_keys(self) -> set:
        return {(e.simple_dim, e.albert) for e in self.entries}


def entry_available(entry: CatalogEntry, ctx: CharContext, include_uncertain: bool) -> bool:
    if entry.condition == "always":
        return True
    if entry.condition == "p_split":
        if ctx.p_split_policy == "split":
            return True
        if ctx.p_split_policy == "nonsplit":
            return False
        return include_uncertain
    return include_uncertain  # condition == "unknown"


def builtin(mode: str, g_max: int, ctx: CharContext = CHAR_P) -> Catalog:
    """Construct one of the built-in catalogs for dimensions up to g_max.

    Entries failing the divisibility restrictions under ``ctx`` are dropped,
    so in characteristic zero no catalog contains the supersingular entry.
    The 64 most recent results are cached; a cached catalog is shared by
    every caller, which is safe because a catalog is immutable.
    """
    # One cache key per catalog, however the arguments were passed.
    return _builtin(mode, g_max, ctx)


@lru_cache(maxsize=64)
def _builtin(mode: str, g_max: int, ctx: CharContext) -> Catalog:
    if mode not in BUILTIN_MODES:
        raise ValueError(f"unknown catalog mode {mode!r}")
    if g_max < 1:
        raise ValueError("g_max must be positive")
    entries = []
    if mode == "upper":
        for n in range(1, g_max + 1):
            for t in admissible_types(n, ctx):
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
    return Catalog(tuple(sorted(entries, key=lambda e: e.sort_key)), mode)


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a float, bool or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value


def load(path: str, ctx: CharContext = CHAR_P) -> Catalog:
    """Load a catalog from a JSON file and validate every entry.

    Format: a JSON array of objects with keys ``dim`` (an integer), ``type``
    (e.g. ``"IV(2,1)"``), ``classes`` (``"one"``/``"unbounded"``) and
    optional ``condition`` (``"always"``/``"p_split"``/``"unknown"``).
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return from_obj(raw, ctx)


def from_obj(raw, ctx: CharContext = CHAR_P) -> Catalog:
    if not isinstance(raw, list):
        raise ValueError("catalog file must contain a JSON array")
    entries = []
    for i, item in enumerate(raw):
        try:
            entry = CatalogEntry(
                json_int(item["dim"], "dim"),
                parse_albert_type(item["type"]),
                item.get("classes", "unbounded"),
                item.get("condition", "always"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad catalog entry #{i}: {exc}") from exc
        entries.append(entry)
    cat = Catalog(tuple(sorted(entries, key=lambda e: e.sort_key)))
    cat.validate(ctx)
    return cat


def blocks_for_dim(
    catalog: Catalog,
    m: int,
    ctx: CharContext = CHAR_P,
    include_uncertain: bool = False,
) -> list[tuple[Block, str]]:
    """All block templates of total dimension m buildable from the catalog.

    For an entry of simple dimension n this yields one template per power
    k with n*k = m.  Conditional entries are filtered through the context's
    split policy; with ``include_uncertain`` they are kept whenever not
    ruled out.  The enumeration leaves it False, which costs the ``upper``
    catalog nothing: it has no conditional entry.
    """
    if m < 1:
        raise ValueError("dimension must be positive")
    out = []
    for entry in catalog.entries:
        if m % entry.simple_dim:
            continue
        if not entry_available(entry, ctx, include_uncertain):
            continue
        out.append((Block(entry.simple_dim, entry.albert, m // entry.simple_dim), entry.class_count))
    return out
