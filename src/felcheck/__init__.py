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
    k_invariant,
    k_values,
    product_polynomial,
)
from .semigroup import (
    AperyTooLarge,
    BoundExceeded,
    EmptyGenerators,
    GapData,
    GcdNotOne,
    GeneratorStats,
    NonIntegerGenerator,
    NonPositiveGenerator,
    SemigroupSpec,
    apery_set,
    compute_gaps,
    gap_power_sums,
    generator_stats,
    make_semigroup,
)
from .universal import (
    SigmaPolynomial,
    SymbolicOrderTooLarge,
    ZeroVariable,
    bernoulli,
    lambda_table,
    t_symbolic,
    t_values,
    zigzag,
)
from .verify import (
    CheckRecord,
    DigitLimitExceeded,
    Invariants,
    OrderTooLarge,
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
    "AperyTooLarge",
    "BoundExceeded",
    "CheckRecord",
    "DigitLimitExceeded",
    "EmptyGenerators",
    "GapData",
    "GcdNotOne",
    "GeneratorStats",
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
    "VerificationReport",
    "ZeroVariable",
    "alternating_syzygy_sums",
    "apery_set",
    "bernoulli",
    "compute_gaps",
    "gap_power_sums",
    "generator_stats",
    "hilbert_numerator",
    "invariants",
    "k_denominator",
    "k_invariant",
    "k_values",
    "lambda_table",
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
