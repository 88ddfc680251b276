"""Exact noncommutative linear algebra built on quasideterminants,
with a seeded randomized identity-verification harness."""

from .rings import (
    DomainError,
    QRat,
    QRationalFunctions,
    Rationals,
    SampleProfile,
    ScalarRing,
    SquareMatrices,
    TruncatedSeriesRing,
)
from .matrix import MatrixRing, NcMatrix
from .formula import (
    RatFormula,
    evaluate,
    formula_height,
    free_vars,
    parse,
    qdet_formula,
)
from .qdet import qdet, qdet_expansion, matrix_inverse, hadamard_inverse
from .harness import IdentityVerdict, RunConfig, equivalent, run_suite

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "IdentityVerdict",
    "MatrixRing",
    "NcMatrix",
    "QRat",
    "QRationalFunctions",
    "RatFormula",
    "Rationals",
    "RunConfig",
    "SampleProfile",
    "ScalarRing",
    "SquareMatrices",
    "TruncatedSeriesRing",
    "equivalent",
    "evaluate",
    "formula_height",
    "free_vars",
    "hadamard_inverse",
    "matrix_inverse",
    "parse",
    "qdet",
    "qdet_expansion",
    "qdet_formula",
    "run_suite",
]
