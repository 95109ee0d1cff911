"""Exact implicitization of surfaces parametrized over P1 x P1 by equal
bidegree polynomials, through the linear syzygies of the parametrization
transferred to the Segre coordinate ring.

The package exports the library API of the README, the types it returns, and
the exceptions the CLI maps to exit codes; everything else stays in its
module."""

from ._expr import ParseError
from .biparam import InputError, Parametrization, lift_mixed, parse_parametrization
from .fields import PrimeField
from .matrixrep import (
    InterpolationError,
    RankDeficientError,
    RepMatrix,
    implicit_by_interpolation,
    membership,
    minors_gcd,
    representation_matrix,
    verify_substitution,
)
from .tpoly import ExactDivisionError, TPoly
from .zcomplex import SegreIdeal, StrandError, StrandReport, choose_nu

__all__ = [
    "ExactDivisionError",
    "InputError",
    "InterpolationError",
    "Parametrization",
    "ParseError",
    "PrimeField",
    "RankDeficientError",
    "RepMatrix",
    "SegreIdeal",
    "StrandError",
    "StrandReport",
    "TPoly",
    "choose_nu",
    "implicit_by_interpolation",
    "lift_mixed",
    "membership",
    "minors_gcd",
    "parse_parametrization",
    "representation_matrix",
    "verify_substitution",
]
