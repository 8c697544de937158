"""The two text grammars: decomposition text and Albert type labels.

Decompositions have a textual grammar::

    decomp  := block (" * " block)*
    block   := "ss" ["^" INT] | alias ["^" INT]
             | "[" type "; dim=" INT "]" ["^" INT]
    alias   := "ord" | "cm"
    type    := "I(" INT ")" | "II(" INT ")" | "III(" INT ")"
             | "IV(" INT "," INT ")"

``ord`` abbreviates a dimension-1 factor of type I(1) (an elliptic curve
with no extra endomorphisms), ``cm`` a dimension-1 factor of type IV(1,1)
(an elliptic curve with complex multiplication), ``ss`` the supersingular
block.  An omitted ``^k`` means k = 1; whitespace around ``*`` is optional.
A ``type`` alone is an Albert type label, which a JSON catalog entry also
holds.

Only a start that reads text loads this module: ``rho``, ``verify``, which
re-parses the witnesses it reports, and ``range --catalog``.  The package
names :func:`parse` and :func:`parse_albert_type` from here.  Only
``decomp.parse`` still reaches :func:`parse` from another module, because
the benchmark reads it there.
"""

from __future__ import annotations

import re

from .albert import TOO_MANY_DIGITS, AlbertType, ParseError, type_IV
from .decomp import _ALIAS_TYPES, Block, Decomposition

_TYPE_RE = re.compile(r"(IV|III|II|I)\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)$")


def parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past int()'s digit limit: the callers' patterns admit digits alone
        raise ParseError(TOO_MANY_DIGITS) from None


def parse_albert_type(text: str) -> AlbertType:
    """Parse a type label such as ``"I(1)"`` or ``"IV(2,2)"``: malformed syntax, an over-long
    integer too, is a :class:`ParseError`, a breach of the type's invariants a ``ValueError``."""
    m = _TYPE_RE.match(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise ParseError(f"malformed Albert type {text!r}")
    kind, a, b = m.group(1), parse_int(m.group(2)), m.group(3)
    if kind == "IV":
        if b is None:
            raise ParseError("type IV needs two parameters")
        return type_IV(a, parse_int(b))
    if b is not None:
        raise ParseError(f"type {kind} takes one parameter")
    return AlbertType(kind, e=a)


_WS = re.compile(r"\s*")
_SEP = re.compile(r"\s*\*\s*")
_BLOCK = re.compile(
    rf"(?:(?P<alias>{'|'.join(_ALIAS_TYPES)})"
    r"|\[(?P<type>[^;\]]*);\s*dim\s*=\s*(?P<dim>\d+)\s*\])"
    r"(?:\^(?P<power>\d+))?"
)


def parse(text: str) -> Decomposition:
    """Parse decomposition text into normalized form.

    Raises :class:`ParseError` on malformed syntax, an over-long integer too,
    and plain ``ValueError`` when a bracketed block violates its invariants.
    """
    pos = _WS.match(text).end()
    if pos == len(text):
        raise ParseError("empty decomposition", pos)
    blocks = []
    while True:
        m = _BLOCK.match(text, pos)
        if m is None:
            raise ParseError("expected a block", pos)
        try:  # a block's syntax errors, placed at the block
            power = parse_int(m.group("power")) if m.group("power") else 1
            if power < 1:
                raise ParseError("power must be >= 1")
            if m.group("alias"):
                blocks.append(Block(1, _ALIAS_TYPES[m.group("alias")], power))
            else:
                t = parse_albert_type(m.group("type"))
                blocks.append(Block(parse_int(m.group("dim")), t, power))
        except ParseError as exc:
            raise ParseError(exc.args[0], pos) from None
        pos = m.end()
        if _WS.match(text, pos).end() == len(text):
            break
        m = _SEP.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError("expected ' * ' between blocks", pos)
        pos = m.end()
    return Decomposition.from_blocks(blocks)
