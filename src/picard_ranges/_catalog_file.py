"""The JSON catalog reader behind ``--catalog``: :func:`load` reads a file,
:func:`from_obj` its decoded value, and :func:`validate` checks every entry
against the divisibility restrictions.

Only ``range --catalog`` compiles this module; the package names
:func:`load` from here.
"""

from __future__ import annotations

from .albert import CHAR_P, CharContext, restrictions_ok
from .catalog import Catalog, CatalogEntry
from ._grammar import parse_albert_type
from ._jsonfile import json_int, load_json


def load(path: str, ctx: CharContext = CHAR_P) -> Catalog:
    """Load a catalog from a JSON file and validate every entry.

    Format: a JSON array of objects with keys ``dim`` (an integer), ``type``
    (e.g. ``"IV(2,1)"``), ``classes`` (``"one"``/``"unbounded"``) and
    optional ``condition`` (``"always"``/``"p_split"``/``"unknown"``).
    """
    return from_obj(load_json(path), ctx)


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
    validate(cat, ctx)
    return cat


def validate(catalog: Catalog, ctx: CharContext) -> None:
    for entry in catalog.entries:
        if not restrictions_ok(entry.albert, entry.simple_dim, ctx):
            raise ValueError(
                f"entry (dim={entry.simple_dim}, {entry.albert}) violates the "
                f"divisibility restrictions in characteristic "
                f"{'p' if ctx.positive else '0'}"
            )
