"""Exact arithmetic of attainable Picard numbers of abelian varieties.

The package models isogeny classes of abelian varieties over algebraically
closed fields (characteristic p > 0 by default, characteristic zero for
comparison) through the Albert classification of endomorphism algebras,
enumerates the sets of attainable Picard numbers per dimension by dynamic
programming over explicit existence catalogs, and checks the published
tables, gap and structure statements, asymptotic witnesses, and related
formulas against the enumeration.

Importing the package loads none of its submodules.  A public name is
looked up in its submodule on each access (PEP 562), so the first access
imports that submodule and only the modules it needs.
"""

import sys
from importlib import import_module as _import_module
from types import ModuleType

_EXPORTS = {
    "albert": (
        "CHAR_P", "CHAR_ZERO", "AlbertType", "CharContext", "admissible_types", "endo_dim",
        "parse_albert_type", "restrictions_ok", "rho_power",
        "type_I", "type_II", "type_III", "type_IV",
    ),
    "asymptotics": (
        "CorrespondenceReport", "DensityRecord", "DistributionReport", "ConjectureReport",
        "check_distribution", "check_ss_correspondence", "conjecture_check", "conjecture_rhs",
        "density", "density_table", "nonadditivity_counterexamples",
    ),
    "catalog": ("Catalog", "CatalogEntry", "blocks_for_dim", "builtin", "load"),
    "decomp": (
        "Block", "CM_TYPE", "Decomposition", "ORDINARY_TYPE", "ParseError",
        "SUPERSINGULAR_TYPE", "normalize", "parse", "supersingular_block",
    ),
    "formulas": (
        "ModuliDims", "PreconditionError", "completeness_bound", "completeness_witness",
        "four_square", "large_threshold", "max_picard", "min_genus", "moduli_dims", "ss_rho",
    ),
    "ranges": (
        "LengthMax", "Membership", "RangeResult", "RangeValue", "attainable", "gaps",
        "length_max_closed_form", "max_by_length", "membership", "paper_catalog",
        "parity_filter", "structure_witnesses", "translated_range", "upper_catalog",
    ),
    "verify": ("VerifyReport", "verify"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached in globals(): a name rebound in its submodule stays visible here.
    if name in _MODULE_OF:
        return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """Keeps a public name that is also a submodule's name (``verify``)
    bound to the function: importing the submodule would otherwise rebind
    the package attribute to the module."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
