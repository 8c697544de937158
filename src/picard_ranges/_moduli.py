"""The printed moduli-dimension formulas; the package names both from here.
This module imports no other module of the package, so the ``moduli``
command compiles neither ``formulas`` nor ``decomp``."""

from __future__ import annotations

from typing import NamedTuple


class ModuliDims(NamedTuple):
    g: int
    dim_moduli: int
    dim_supersingular_locus: int
    dim_p_rank_locus: int | None = None
    dim_large_picard_locus: int | None = None


def moduli_dims(g: int, f: int | None = None, r: int | None = None) -> ModuliDims:
    """Printed dimension formulas for the moduli of principally polarized
    abelian varieties: the full space has dimension g(g+1)/2, the
    supersingular locus floor(g^2/4), the p-rank-<=-f stratum
    g(g+1)/2 - g + f, and the locus of classes containing a supersingular
    subvariety of codimension r has dimension floor((g-r)^2/4) + r(r+1)/2.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if f is not None and not 0 <= f <= g:
        raise ValueError("need 0 <= f <= g")
    if r is not None and not 0 <= r <= g:
        raise ValueError("need 0 <= r <= g")
    return ModuliDims(
        g,
        g * (g + 1) // 2,
        g * g // 4,
        None if f is None else g * (g + 1) // 2 - g + f,
        None if r is None else (g - r) * (g - r) // 4 + r * (r + 1) // 2,
    )
