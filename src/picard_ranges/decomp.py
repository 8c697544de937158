"""Formal isogeny decompositions and their numerical invariants.

An isogeny class of an abelian variety over an algebraically closed field
is modelled as a product of powers of pairwise non-isogenous simple
factors.  Each factor is a :class:`Block` (simple dimension, Albert type,
power); all supersingular elliptic factors collapse into a single
distinguished block because supersingular elliptic curves form one isogeny
class.  Everything here is formal arithmetic: no existence checks are made
(those live in :mod:`picard_ranges.catalog`).

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

The two closed forms every enumeration needs, the ceiling 2g^2 - g
(:func:`max_picard`) and the value of ss^s (:func:`ss_rho`), are defined
here; :mod:`picard_ranges.formulas` re-exports them.
"""

from __future__ import annotations

import re
from typing import Iterable

from .albert import (
    AlbertType,
    endo_dim as _type_endo_dim,
    rho_power,
    type_I,
    type_III,
    type_IV,
)

SUPERSINGULAR_TYPE = type_III(1)
ORDINARY_TYPE = type_I(1)
CM_TYPE = type_IV(1, 1)


class ParseError(ValueError):
    """Malformed decomposition text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Frozen:
    """Base of the immutable slotted value classes.

    Equality, hash, ``repr`` and pickling read the fields named in
    ``_fields`` alone, as a tuple in that order; ``__reduce__`` rebuilds an
    instance from them through its validating ``__init__``.  Assignment and
    deletion are refused: ``__init__`` fills the slots through
    ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Block(_Frozen):
    """A factor A^k of an isogeny decomposition.

    ``simple_dim`` is the dimension of the simple variety A, ``albert`` its
    endomorphism type and ``power`` the exponent k.  A dimension-1 factor
    of type III(1) is the supersingular elliptic curve; such blocks are the
    only supersingular ones.

    ``is_supersingular`` and ``rho`` are derived from the three fields at
    construction, ``sort_key`` and the text on first use (a value query
    never reads them); all four are then kept in slots.  Equality, hash,
    pickling and copying read the three fields alone.
    """

    __slots__ = ("simple_dim", "albert", "power", "is_supersingular", "rho", "sort_key", "_text")
    _fields = ("simple_dim", "albert", "power")

    def __init__(self, simple_dim: int, albert: AlbertType, power: int):
        if simple_dim < 1:
            raise ValueError("simple_dim must be positive")
        if power < 1:
            raise ValueError("power must be positive")
        setattr_ = object.__setattr__  # the instance is frozen
        setattr_(self, "simple_dim", simple_dim)
        setattr_(self, "albert", albert)
        setattr_(self, "power", power)
        setattr_(self, "is_supersingular", simple_dim == 1 and albert == SUPERSINGULAR_TYPE)
        setattr_(self, "rho", rho_power(albert, power))

    def __getattr__(self, name):
        # Reached only when normal lookup fails: fills the empty slots
        # ``sort_key`` and ``_text``, which later reads find directly.
        if name not in ("sort_key", "_text"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n, albert, k = self.simple_dim, self.albert, self.power
        if self.is_supersingular:
            head = "ss"
        elif n == 1 and albert == ORDINARY_TYPE:
            head = "ord"
        elif n == 1 and albert == CM_TYPE:
            head = "cm"
        else:
            head = f"[{albert}; dim={n}]"
        setattr_ = object.__setattr__
        # Largest factors first, the supersingular block ahead of equal-size
        # ones; the remaining components only pin a deterministic order.
        # The key determines the three fields, so equal keys mean equal blocks.
        setattr_(self, "sort_key", (-n * k, 0 if self.is_supersingular else 1, albert.sort_key, n, k))
        setattr_(self, "_text", head if k == 1 else f"{head}^{k}")
        return object.__getattribute__(self, name)

    @property
    def block_dim(self) -> int:
        return self.simple_dim * self.power

    def __str__(self):
        return self._text


def max_picard(g: int) -> int:
    """The second Betti number 2g^2 - g, the absolute ceiling for rho."""
    return 2 * g * g - g


def ss_rho(s: int) -> int:
    """Picard number of the s-th power of the supersingular elliptic curve."""
    return 2 * s * s - s if s else 0


def supersingular_block(power: int) -> Block:
    return Block(1, SUPERSINGULAR_TYPE, power)


def normalize(blocks: Iterable[Block]) -> tuple[Block, ...]:
    """Merge all supersingular blocks into one and sort canonically.

    Powers of supersingular blocks add because all supersingular abelian
    varieties of a fixed dimension are isogenous; other blocks are kept as
    distinct isogeny classes even when their data coincide.  Idempotent.
    """
    ss_power = 0
    rest = []
    for b in blocks:
        if b.is_supersingular:
            ss_power += b.power
        else:
            rest.append(b)
    if ss_power:
        rest.append(supersingular_block(ss_power))
    return tuple(sorted(rest, key=lambda b: b.sort_key))


class Decomposition(_Frozen):
    """A normalized product of pairwise non-isogenous blocks.

    Every construction is validated: ``blocks`` must be a non-empty tuple
    of blocks whose ``sort_key`` values never decrease, with at most one
    supersingular block, which is what :func:`normalize` returns.  The
    check is one loop over the blocks; :meth:`from_blocks` and
    :func:`parse` normalize arbitrary input first.
    """

    __slots__ = ("blocks",)
    _fields = ("blocks",)

    def __init__(self, blocks: tuple[Block, ...]):
        # Linear equivalent of ``blocks == normalize(blocks)`` for at most
        # one supersingular block: a stable sort leaves a tuple unchanged
        # exactly when its keys never decrease, and a key fixes its block.
        # One loop reads each block once; the three rules are reported in
        # this order: empty, a second ss, then a non-tuple or a falling key.
        if not blocks:
            raise ValueError("a decomposition needs at least one block")
        ss = 0
        ordered = True
        prev = ()  # below every key
        for b in blocks:
            ss += b.is_supersingular
            key = b.sort_key
            if key < prev:
                ordered = False
            prev = key
        if ss > 1:
            raise ValueError("at most one supersingular block is allowed")
        if not ordered or not isinstance(blocks, tuple):
            raise ValueError("blocks are not in normalized form")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Block]) -> "Decomposition":
        return cls(normalize(blocks))

    def rho(self) -> int:
        """Picard number: the sum of the per-block closed forms."""
        return sum(b.rho for b in self.blocks)

    def dim(self) -> int:
        return sum(b.block_dim for b in self.blocks)

    def length(self) -> int:
        """Number of distinct isogeny factors."""
        return len(self.blocks)

    def ss_index(self) -> int:
        """Dimension of the largest supersingular abelian subvariety."""
        for b in self.blocks:
            if b.is_supersingular:
                return b.power
        return 0

    def p_rank_interval(self) -> tuple[int, int]:
        """Componentwise-summed interval of p-ranks compatible with the class.

        Per block: the supersingular block has p-rank 0; a non-supersingular
        elliptic factor contributes exactly 1 per copy; a simple surface
        factor contributes 1 or 2 per copy (p-rank 0 would force it to be
        supersingular, impossible in dimension <= 2); from dimension 3 on,
        every value from 0 to the full dimension can occur.
        """
        lo = hi = 0
        for b in self.blocks:
            if b.is_supersingular:
                continue
            if b.simple_dim == 1:
                lo += b.power
                hi += b.power
            elif b.simple_dim == 2:
                lo += b.power
                hi += 2 * b.power
            else:
                hi += b.block_dim
        return lo, hi

    def slope_half_multiplicity(self) -> int:
        """Newton-polygon slope-1/2 segments forced by the supersingular part.

        Each supersingular elliptic factor contributes a two-dimensional
        slope-1/2 piece of the first crystalline cohomology; the other
        factors are not inspected.
        """
        return 2 * self.ss_index()

    def endo_dim(self) -> int:
        """Rational dimension of the endomorphism algebra (Hom between
        distinct blocks vanishes, so it is the sum over blocks)."""
        return sum(_type_endo_dim(b.albert, b.power) for b in self.blocks)

    def tate_obstruction(self) -> bool:
        """True when dim End ⊗ Q < 2g, violating the Tate bound for abelian
        varieties over finite fields.

        This obstructs only the chosen representative of the isogeny class:
        some other member of the class could still be definable over a
        finite field.
        """
        return self.endo_dim() < 2 * self.dim()

    def __str__(self):
        return " * ".join([b._text for b in self.blocks])


_WS = re.compile(r"\s*")
_SEP = re.compile(r"\s*\*\s*")
_BLOCK = re.compile(
    r"(?:(?P<alias>ss|ord|cm)"
    r"|\[\s*(?P<kind>IV|III|II|I)\(\s*(?P<a>\d+)\s*(?:,\s*(?P<b>\d+)\s*)?\)\s*;"
    r"\s*dim\s*=\s*(?P<dim>\d+)\s*\])"
    r"(?:\^(?P<power>\d+))?"
)

_ALIAS_TYPES = {
    "ss": SUPERSINGULAR_TYPE,
    "ord": ORDINARY_TYPE,
    "cm": CM_TYPE,
}


def parse(text: str) -> Decomposition:
    """Parse decomposition text into normalized form.

    Raises :class:`ParseError` on malformed syntax and plain ``ValueError``
    when a bracketed block violates the type or block invariants.
    """
    pos = _WS.match(text).end()
    if pos == len(text):
        raise ParseError("empty decomposition", pos)
    blocks = []
    while True:
        m = _BLOCK.match(text, pos)
        if m is None:
            raise ParseError("expected a block", pos)
        power = int(m.group("power")) if m.group("power") else 1
        if power < 1:
            raise ParseError("power must be >= 1", pos)
        if m.group("alias"):
            blocks.append(Block(1, _ALIAS_TYPES[m.group("alias")], power))
        else:
            kind, a, b = m.group("kind"), int(m.group("a")), m.group("b")
            if kind == "IV":
                if b is None:
                    raise ParseError("type IV needs two parameters", pos)
                t = type_IV(a, int(b))
            else:
                if b is not None:
                    raise ParseError(f"type {kind} takes one parameter", pos)
                t = AlbertType(kind, e=a)
            blocks.append(Block(int(m.group("dim")), t, power))
        pos = m.end()
        if pos == len(text) or text[pos:].isspace():
            break
        m = _SEP.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError("expected ' * ' between blocks", pos)
        pos = m.end()
    return Decomposition.from_blocks(blocks)
