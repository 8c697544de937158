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

User-supplied catalogs are JSON arrays of entries, see :func:`load`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .albert import (
    AlbertType,
    CharContext,
    CHAR_P,
    ParseError,
    TOO_MANY_DIGITS,
    _Validated,
    admissible_types,
    parse_albert_type,
    restrictions_ok,
    type_I,
    type_IV,
)
from .decomp import SUPERSINGULAR_TYPE, Block, _Frozen

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
        for entry in self.entries:
            if not restrictions_ok(entry.albert, entry.simple_dim, ctx):
                raise ValueError(
                    f"entry (dim={entry.simple_dim}, {entry.albert}) violates the "
                    f"divisibility restrictions in characteristic "
                    f"{'p' if ctx.positive else '0'}"
                )


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
    return from_obj(_load_json(path), ctx)


def _load_json(path: str):
    """The JSON value in the file at ``path``.  A file that is not UTF-8 is a
    JSONDecodeError placed at its first bad byte; too deep a nesting and an
    integer above the interpreter's digit limit, a ParseError with no place."""
    import json  # imported on use, so that a start that reads no JSON file loads none

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except UnicodeDecodeError as exc:  # read() decodes the whole file at once: exc.object is its bytes
            text = exc.object[:exc.start].decode("utf-8")
            bad = f"not UTF-8 at byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
            raise json.JSONDecodeError(bad, text, len(text)) from None
        except RecursionError:  # the decoder recurses once per nesting level
            raise ParseError("arrays or objects nested too deeply") from None
        except ValueError:  # int() past its digit limit
            raise ParseError(TOO_MANY_DIGITS) from None


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
