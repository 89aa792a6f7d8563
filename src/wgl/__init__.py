"""Exact computations in finite W-algebras of gl_N.

Everything is exact: half-integers are stored as doubled integers, scalars
are Python ints/Fractions, and series are truncated Laurent series with an
explicit floor below which nothing is claimed.
"""

from .pyramid import Box, Partition, ScalarMatrix, shift_matrix
from .uea import Algebra, UEAElement
from .quotient import MElement, reduce_mod_I, w_commutator, w_product
from .series import SeriesElem, SeriesMatrix, quasideterminant
from .walgebra import (
    LOperator,
    WGenerators,
    build_L,
    build_shifted_matrix,
    capelli_suite,
    conjecture_check,
    family_generators,
    main_lemma_check,
    premet_check,
    relation_table_check,
    rho_det_identities,
    w_membership_check,
    yangian_check_L,
)

__all__ = [
    "Algebra",
    "Box",
    "LOperator",
    "MElement",
    "Partition",
    "ScalarMatrix",
    "SeriesElem",
    "SeriesMatrix",
    "UEAElement",
    "WGenerators",
    "build_L",
    "build_shifted_matrix",
    "capelli_suite",
    "conjecture_check",
    "family_generators",
    "main_lemma_check",
    "premet_check",
    "quasideterminant",
    "reduce_mod_I",
    "relation_table_check",
    "rho_det_identities",
    "shift_matrix",
    "w_commutator",
    "w_membership_check",
    "w_product",
    "yangian_check_L",
]
