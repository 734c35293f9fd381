"""Exact invariants of numerical semigroups and the identities relating them.

The library computes gap sets, Hilbert numerators, alternating syzygy power
sums, and the universal symmetric polynomials that tie them together, all in
exact rational arithmetic, and verifies the connecting identities as literal
equalities.
"""

from .exact import IntPolynomial, NonExactDivision
from .hilbert import (
    HilbertData,
    alternating_syzygy_sums,
    hilbert_numerator,
    k_denominator,
    product_polynomial,
)
from .semigroup import (
    AperyRegionWitnessFailed,
    AperyTooLarge,
    BoundExceeded,
    EmptyGenerators,
    GapData,
    GcdNotOne,
    NonIntegerGenerator,
    NonPositiveGenerator,
    SemigroupSpec,
    apery_set,
    compute_gaps,
    gap_power_sums,
    make_semigroup,
)
from .universal import (
    OrderTooLarge,
    SigmaPolynomial,
    SymbolicOrderTooLarge,
    ZeroVariable,
    bernoulli,
    t_symbolic,
    t_values,
    zigzag,
)
from .verify import (
    CheckRecord,
    DigitLimitExceeded,
    Invariants,
    TooManyGenerators,
    VerificationReport,
    invariants,
    random_semigroup,
    verify_companions,
    verify_fel_main,
    verify_low_order,
    verify_m2_closed_form,
    verify_semigroup,
    verify_series_lemmas,
    verify_thm_kp,
)

__version__ = "0.1.0"

__all__ = [
    "AperyRegionWitnessFailed",
    "AperyTooLarge",
    "BoundExceeded",
    "CheckRecord",
    "DigitLimitExceeded",
    "EmptyGenerators",
    "GapData",
    "GcdNotOne",
    "HilbertData",
    "IntPolynomial",
    "Invariants",
    "NonExactDivision",
    "NonIntegerGenerator",
    "NonPositiveGenerator",
    "OrderTooLarge",
    "SemigroupSpec",
    "SigmaPolynomial",
    "SymbolicOrderTooLarge",
    "TooManyGenerators",
    "VerificationReport",
    "ZeroVariable",
    "alternating_syzygy_sums",
    "apery_set",
    "bernoulli",
    "compute_gaps",
    "gap_power_sums",
    "hilbert_numerator",
    "invariants",
    "k_denominator",
    "make_semigroup",
    "product_polynomial",
    "random_semigroup",
    "t_symbolic",
    "t_values",
    "verify_companions",
    "verify_fel_main",
    "verify_low_order",
    "verify_m2_closed_form",
    "verify_semigroup",
    "verify_series_lemmas",
    "verify_thm_kp",
    "zigzag",
]
