"""Albert classification of endomorphism algebras of simple abelian varieties.

A simple abelian variety over an algebraically closed field has an
endomorphism algebra D = End(A) ⊗ Q falling into one of four types:

* ``I(e)``   -- a totally real field of degree e over Q,
* ``II(e)``  -- a totally indefinite quaternion algebra over such a field,
* ``III(e)`` -- a totally definite quaternion algebra over such a field,
* ``IV(e0, d)`` -- a division algebra of index d over a CM field whose
  maximal totally real subfield has degree e0.

This module records the numerical shadow of that classification: which
types are admissible for a simple variety of a given dimension (the
divisibility restrictions differ between characteristic zero and
characteristic p > 0), the Picard number of a k-th power of a simple
variety of each type, and the rational dimension of the endomorphism
algebra of such a power.

The type-label reader ``parse_albert_type`` is defined in
:mod:`picard_ranges._grammar`, which only a start that reads text compiles.
Its error, :class:`ParseError`, is defined here, so the command line finds
it whichever reader raised it.
"""

from __future__ import annotations

from typing import NamedTuple

KINDS = ("I", "II", "III", "IV")

_KIND_RANK = {k: i for i, k in enumerate(KINDS)}


class _Validated:
    """First base of the validated ``NamedTuple`` classes: ``_make``, and so
    ``_replace``, which calls it, goes through the validating ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _AlbertFields(NamedTuple):
    kind: str
    e: int = 1
    e0: int = 1
    d: int = 1


class AlbertType(_Validated, _AlbertFields):
    """One of the four endomorphism-algebra types with its integer parameters.

    Kinds I--III carry the totally real degree ``e``; kind IV carries the
    pair ``(e0, d)``.  The unused parameters are pinned to 1 so instances
    compare and hash predictably.  An immutable tuple of the four fields;
    every construction, ``_replace`` included, is validated.
    """

    __slots__ = ()

    def __new__(cls, kind: str, e: int = 1, e0: int = 1, d: int = 1):
        if kind not in KINDS:
            raise ValueError(f"unknown Albert kind {kind!r}")
        if kind == "IV":
            if e0 < 1 or d < 1:
                raise ValueError("type IV needs e0 >= 1 and d >= 1")
            e = 1
        else:
            if e < 1:
                raise ValueError(f"type {kind} needs e >= 1")
            e0 = d = 1
        return tuple.__new__(cls, (kind, e, e0, d))

    @property
    def params(self) -> tuple:
        return (self.e0, self.d) if self.kind == "IV" else (self.e,)

    @property
    def base_rho(self) -> int:
        """Picard number of a simple variety of this type (power k = 1)."""
        return rho_power(self, 1)

    @property
    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], rho_power(self, 1)) + self.params

    def __str__(self):
        kind, e, e0, d = self
        return f"IV({e0},{d})" if kind == "IV" else f"{kind}({e})"


def type_I(e: int) -> AlbertType:
    return AlbertType("I", e=e)


def type_II(e: int) -> AlbertType:
    return AlbertType("II", e=e)


def type_III(e: int) -> AlbertType:
    return AlbertType("III", e=e)


def type_IV(e0: int, d: int) -> AlbertType:
    return AlbertType("IV", e0=e0, d=d)


class ParseError(ValueError):
    """Malformed text; carries the offending position, if one is given."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


TOO_MANY_DIGITS = "an integer has more digits than int() accepts"


class _CharFields(NamedTuple):
    mode: str = "positive"
    p_split_policy: str = "unknown"


class CharContext(_Validated, _CharFields):
    """Characteristic of the (algebraically closed) base field.

    ``mode`` is ``"positive"`` or ``"zero"``.  The actual prime p is never
    needed by the arithmetic here, only the split/non-split behaviour of p
    in a degree-2g CM algebra, recorded as ``p_split_policy``.  There is no
    p in characteristic zero, so there the policy must stay ``"unknown"``.
    An immutable tuple of the two fields, validated like ``AlbertType``.
    """

    __slots__ = ()

    def __new__(cls, mode: str = "positive", p_split_policy: str = "unknown"):
        if mode not in ("positive", "zero"):
            raise ValueError(f"mode must be 'positive' or 'zero', got {mode!r}")
        if p_split_policy not in ("split", "nonsplit", "unknown"):
            raise ValueError(f"bad p_split_policy {p_split_policy!r}")
        if mode == "zero" and p_split_policy != "unknown":
            raise ValueError("a p_split_policy makes no sense in characteristic zero")
        return tuple.__new__(cls, (mode, p_split_policy))

    @property
    def positive(self) -> bool:
        return self.mode == "positive"


CHAR_P = CharContext()
CHAR_ZERO = CharContext(mode="zero")


def restrictions_ok(t: AlbertType, n: int, ctx: CharContext = CHAR_P) -> bool:
    """Divisibility restriction on the dimension n of a simple variety.

    In characteristic p > 0: e | n (I), 2e | n (II), e | n (III),
    e0*d | n (IV).  In characteristic zero the kinds III and IV are
    stricter: 2e | n and e0*d^2 | n.  The characteristic-zero list follows
    the classical necessary conditions for complex abelian varieties; it is
    provided for comparison runs only.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if t.kind == "I":
        return n % t.e == 0
    if t.kind == "II":
        return n % (2 * t.e) == 0
    if t.kind == "III":
        div = t.e if ctx.positive else 2 * t.e
        return n % div == 0
    div = t.e0 * t.d if ctx.positive else t.e0 * t.d * t.d
    return n % div == 0


def admissible_types(n: int, ctx: CharContext = CHAR_P) -> list[AlbertType]:
    """All types passing the restrictions for dimension n, canonically
    sorted and duplicate-free.

    Every restriction makes each parameter (``e``, ``e0`` and ``d``) a
    divisor of n, so the enumeration runs over the divisors of n.  Every
    type it returns has base Picard number at most n^2: e <= n for I and
    III, 3e <= 3n/2 for II (n is even) and e0*d^2 <= n*d for IV.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    candidates = [f(e) for e in divisors for f in (type_I, type_II, type_III)]
    candidates += [type_IV(e0, d) for e0 in divisors for d in divisors]
    out = [t for t in candidates if restrictions_ok(t, n, ctx)]
    return sorted(out, key=lambda t: t.sort_key)


def rho_power(t: AlbertType, k: int) -> int:
    """Picard number of A^k for A simple with endomorphism algebra of type t.

    The values are e*k(k+1)/2, e*k(2k+1), e*k(2k-1) and e0*d^2*k^2 for the
    four types; each is strictly increasing in k.
    """
    if k < 1:
        raise ValueError("power must be positive")
    if t.kind == "I":
        return t.e * k * (k + 1) // 2
    if t.kind == "II":
        return t.e * k * (2 * k + 1)
    if t.kind == "III":
        return t.e * k * (2 * k - 1)
    return t.e0 * t.d * t.d * k * k


def endo_dim(t: AlbertType, k: int) -> int:
    """Rational dimension of End(A^k) ⊗ Q, a k x k matrix algebra over D."""
    if k < 1:
        raise ValueError("power must be positive")
    if t.kind == "I":
        return k * k * t.e
    if t.kind in ("II", "III"):
        return k * k * t.e * 4
    return k * k * 2 * t.e0 * t.d * t.d
