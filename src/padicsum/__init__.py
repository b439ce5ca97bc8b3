"""Exact p-adic invariant summation of factorial series.

Constructs the polynomial families A_k(n; x), U_k(x), V_k(x), verifies the
finite factorial-series identity bit-exactly over the rationals, certifies
p-adic convergence of the infinite series, and covers the Bernoulli /
Volkenborn and left-factorial (Kurepa) side results.
"""

from .padic import (
    PadicExpansion,
    Prime,
    ValExponent,
    digit_sum,
    factorial_norm_exponent,
    in_convergence_domain,
    is_prime,
    legendre_valuation,
    padic_distance_exponent,
    padic_expand,
    vp,
)
from .poly import BivarPoly, Poly, binomial, int_poly, n_poly, render_poly
from .recurrences import (
    SummationTriple,
    TripleFamily,
    build_triple,
    compute_A_family,
    compute_U,
    compute_U_by_recurrence,
    compute_V,
    compute_V_by_recurrence,
    family_residual,
    shared_family,
)
from .summation import (
    IdentityCheck,
    SeriesSpec,
    SumCertificate,
    build_P_Q,
    certificate_from_check,
    identity_checks,
    invariant_sum,
    partial_sum_Sk,
    truncated_combo_sum,
    truncated_padic_sum,
    verify_identity,
)
from .bernoulli import (
    BernoulliTable,
    bernoulli_identity_partial,
    bernoulli_numbers,
    bernoulli_series_certificate,
    volkenborn_level,
    volkenborn_poly,
)
from .sequences import (
    KurepaReport,
    bell_numbers,
    kurepa_digit,
    kurepa_digit_scan,
    kurepa_gcd_scan,
    left_factorial,
    paper_sequences,
)

__all__ = [
    "PadicExpansion",
    "Prime",
    "ValExponent",
    "digit_sum",
    "factorial_norm_exponent",
    "in_convergence_domain",
    "is_prime",
    "legendre_valuation",
    "padic_distance_exponent",
    "padic_expand",
    "vp",
    "BivarPoly",
    "Poly",
    "binomial",
    "int_poly",
    "n_poly",
    "render_poly",
    "SummationTriple",
    "TripleFamily",
    "build_triple",
    "compute_A_family",
    "compute_U",
    "compute_U_by_recurrence",
    "compute_V",
    "compute_V_by_recurrence",
    "family_residual",
    "shared_family",
    "IdentityCheck",
    "SeriesSpec",
    "SumCertificate",
    "build_P_Q",
    "certificate_from_check",
    "identity_checks",
    "invariant_sum",
    "partial_sum_Sk",
    "truncated_combo_sum",
    "truncated_padic_sum",
    "verify_identity",
    "BernoulliTable",
    "bernoulli_identity_partial",
    "bernoulli_numbers",
    "bernoulli_series_certificate",
    "volkenborn_level",
    "volkenborn_poly",
    "KurepaReport",
    "bell_numbers",
    "kurepa_digit",
    "kurepa_digit_scan",
    "kurepa_gcd_scan",
    "left_factorial",
    "paper_sequences",
]

__version__ = "0.1.0"
