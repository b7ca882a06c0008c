"""Exact F_p computer algebra for permanental ideals and Frobenius-power criteria."""

__version__ = "0.1.0"

from .fppoly import (
    GRLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    StructureError,
    VariableSpace,
    exact_divide,
    leading_term,
    parse_poly,
    render_poly,
    substitute,
    truncate,
    truncated_mul,
    truncated_pow,
)
from .frobcheck import (
    colon_membership,
    fedder_ci_check,
    fedder_coefficient_fullsupport,
    fiber_count_3x4,
    glassbrenner_witness_check,
)
from .linmember import member_bounded, members_bounded
from .shapes import (
    IdealPresentation,
    MatrixShape,
    SymbolicMatrix,
    build_matrix,
    hankel_specialization,
    parse_shape,
    permanent,
    permanental_generators,
)
from .witnesses import (
    LemmaReport,
    MinimalPrime,
    minimal_primes_generic,
    minimal_primes_symmetric,
    witness_generic,
    witness_symmetric,
)
