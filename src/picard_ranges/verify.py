"""Comparison of computed attainable sets against published reference tables.

The shipped fixtures record the tables as printed, including entries the
mechanical enumeration disagrees with.  The comparison never adopts either
side silently: every difference is reported with a witness decomposition
whose Picard number and dimension are re-verified independently, and the
allowlist marks which differences are already documented.

The tables are read, and every fixture checked, before the enumeration is
compiled: this module imports only ``albert`` and the JSON file reader at
the top, and :func:`verify_fixture` imports the enumeration core and the
decomposition grammar on its call, so a malformed fixtures file fails
without compiling ``ranges``, ``catalog`` or ``decomp``.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .albert import CHAR_P, CharContext, _Validated
from ._jsonfile import json_int, load_json

DEFAULT_FIXTURES = "reference_tables.json"
DEFAULT_ALLOWLIST = "errata_allowlist.json"


class _FixtureFields(NamedTuple):
    label: str
    dimension: int
    values: tuple[int, ...]
    star: tuple[int, ...]


class Fixture(_Validated, _FixtureFields):
    """One published table: its label, dimension, values and star values.
    An immutable tuple of the four fields; every construction, ``_replace``
    included, is validated."""

    __slots__ = ()

    def __new__(cls, label: str, dimension: int, values: tuple[int, ...], star: tuple[int, ...]):
        if dimension < 1:
            raise ValueError(f"fixture {label}: dimension must be positive")
        if list(values) != sorted(set(values)):
            raise ValueError(f"fixture {label}: values must be sorted and unique")
        if not set(star) <= set(values):
            raise ValueError(f"fixture {label}: star set must be a subset of values")
        return tuple.__new__(cls, (label, dimension, values, star))


class Diff(NamedTuple):
    label: str
    kind: str        # "value" | "star"
    rho: int
    direction: str   # "computed-only" | "published-only" | "computed-star" | "published-star"
    witness: str | None
    witness_ok: bool
    documented: bool


class FixtureReport(NamedTuple):
    label: str
    dimension: int
    values_match: bool
    star_match: bool
    diffs: tuple[Diff, ...]


class VerifyReport(NamedTuple):
    fixtures: tuple[FixtureReport, ...]

    @property
    def diffs(self) -> tuple[Diff, ...]:
        return tuple(d for f in self.fixtures for d in f.diffs)

    @property
    def ok(self) -> bool:
        return not self.diffs


def _packaged(name: str) -> str:
    """The path of the packaged data file ``name``."""
    return os.path.join(os.path.dirname(__file__), "data", name)


def _json_ints(item: dict, key: str) -> tuple[int, ...]:
    if not isinstance(item[key], list):
        raise TypeError(f"{key} must be an array, not {item[key]!r}")
    return tuple(json_int(v, f"{key} item") for v in item[key])


def load_fixtures(path: str | None = None) -> list[Fixture]:
    """Load and validate the published tables (the packaged ones by default).

    Format: a JSON object whose ``fixtures`` list holds objects with keys
    ``label`` (a string), ``dimension`` (an integer), ``values`` and
    ``star`` (arrays of integers); other keys, such as ``source``, are
    ignored.
    """
    raw = load_json(_packaged(DEFAULT_FIXTURES) if path is None else path)
    if not isinstance(raw, dict) or not isinstance(raw.get("fixtures"), list):
        raise ValueError("fixtures file must contain a JSON object with a 'fixtures' list")
    out = []
    for i, item in enumerate(raw["fixtures"]):
        try:
            if not isinstance(item["label"], str):
                raise TypeError(f"label must be a string, not {item['label']!r}")
            out.append(Fixture(item["label"], json_int(item["dimension"], "dimension"),
                               _json_ints(item, "values"), _json_ints(item, "star")))
        except (KeyError, TypeError, ValueError) as exc:
            why = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"bad fixture entry #{i}: {why}") from exc
    return out


def load_allowlist() -> set[tuple[str, str, int]]:
    """The packaged (label, kind, rho) triples of the documented differences."""
    raw = load_json(_packaged(DEFAULT_ALLOWLIST))
    return {(d["label"], d["kind"], int(d["rho"])) for d in raw["documented"]}


def verify_fixture(fx: Fixture, ctx: CharContext, allowlist: set) -> FixtureReport:
    from ._grammar import parse
    from .ranges import attainable, paper_catalog

    g = fx.dimension
    cat = paper_catalog(g, ctx)
    computed = attainable(g, cat, ctx)
    computed_star = attainable(g, cat, ctx, allow_ss=False)
    values = computed.value_set()
    star = computed.star_set()
    published = set(fx.values)
    published_star = set(fx.star)
    diffs = []

    def add(kind, rho, direction, witness):
        text = str(witness) if witness is not None else None
        # the witness text is parsed back and its value and dimension re-checked
        checked = text is not None and (d := parse(text)).rho() == rho and d.dim() == g
        diffs.append(Diff(fx.label, kind, rho, direction, text, checked,
                          (fx.label, kind, rho) in allowlist))

    for rho in sorted(values - published):
        add("value", rho, "computed-only", computed.witness_for(rho))
    for rho in sorted(published - values):
        add("value", rho, "published-only", None)
    for rho in sorted(values & published):
        if rho in star and rho not in published_star:
            add("star", rho, "computed-star", computed_star.witness_for(rho))
        elif rho not in star and rho in published_star:
            add("star", rho, "published-star", computed.witness_for(rho))
    return FixtureReport(
        fx.label, g,
        not any(d.kind == "value" for d in diffs),
        not any(d.kind == "star" for d in diffs),
        tuple(diffs),
    )


def verify(fixtures_path: str | None = None, ctx: CharContext = CHAR_P) -> VerifyReport:
    """Compare the tables in ``fixtures_path`` (the packaged ones by default)
    with the enumeration under ctx.  Both packaged files are read by path,
    beside this module, through the JSON reader that ``--catalog`` uses."""
    allowlist = load_allowlist()
    return VerifyReport(tuple(verify_fixture(fx, ctx, allowlist) for fx in load_fixtures(fixtures_path)))
