"""Exact arithmetic of attainable Picard numbers of abelian varieties.

The package models isogeny classes of abelian varieties over algebraically
closed fields (characteristic p > 0 by default, characteristic zero for
comparison) through the Albert classification of endomorphism algebras,
enumerates the sets of attainable Picard numbers per dimension by dynamic
programming over explicit existence catalogs, and checks the published
tables, gap and structure statements, asymptotic witnesses, and related
formulas against the enumeration.
"""

from .albert import (
    CHAR_P,
    CHAR_ZERO,
    AlbertType,
    CharContext,
    admissible_types,
    endo_dim,
    parse_albert_type,
    restrictions_ok,
    rho_power,
    type_I,
    type_II,
    type_III,
    type_IV,
)
from .asymptotics import (
    CorrespondenceReport,
    DensityRecord,
    DistributionReport,
    ConjectureReport,
    ModuliDims,
    PreconditionError,
    check_distribution,
    check_ss_correspondence,
    completeness_bound,
    completeness_witness,
    conjecture_check,
    conjecture_rhs,
    density,
    density_table,
    four_square,
    large_threshold,
    min_genus,
    moduli_dims,
    nonadditivity_counterexamples,
)
from .catalog import Catalog, CatalogEntry, blocks_for_dim, builtin, load
from .decomp import (
    Block,
    CM_TYPE,
    Decomposition,
    ORDINARY_TYPE,
    ParseError,
    SUPERSINGULAR_TYPE,
    normalize,
    parse,
    supersingular_block,
)
from .ranges import (
    LengthMax,
    Membership,
    RangeResult,
    RangeValue,
    attainable,
    attainable_by_ss_index,
    gaps,
    length_max_closed_form,
    max_by_length,
    max_picard,
    membership,
    paper_catalog,
    parity_filter,
    ss_rho,
    structure_witnesses,
    translated_range,
    upper_catalog,
)
from .verify import VerifyReport, verify

__version__ = "0.1.0"
