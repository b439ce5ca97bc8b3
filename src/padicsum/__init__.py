"""Exact p-adic invariant summation of factorial series.

Constructs the polynomial families A_k(n; x), U_k(x), V_k(x), verifies the
finite factorial-series identity bit-exactly over the rationals, certifies
p-adic convergence of the infinite series, and covers the Bernoulli /
Volkenborn and left-factorial (Kurepa) side results.
"""

from .padic import (
    PadicExpansion,
    Prime,
    factorial_norm_exponent,
    in_convergence_domain,
    is_prime,
    padic_expand,
    vp,
)
from .poly import BivarPoly, horner, render_poly
from .recurrences import (
    SummationTriple,
    TripleFamily,
    build_triple,
    compute_A_family,
    family_residual,
    telescope,
)
from .summation import (
    IdentityCheck,
    SumCertificate,
    certificate_from_check,
    factorial_series,
    identity_checks,
    invariant_sum,
    partial_sum_Sk,
    truncated_combo_sum,
    truncated_padic_sum,
    verify_identity,
)
from .bernoulli import (
    bernoulli_identity_partial,
    bernoulli_numbers,
    bernoulli_series_certificate,
    volkenborn_level,
    volkenborn_poly,
)
from .sequences import (
    KurepaReport,
    kurepa_digit,
    kurepa_digit_scan,
    kurepa_gcd_scan,
    paper_sequences,
)

__all__ = [
    "PadicExpansion",
    "Prime",
    "factorial_norm_exponent",
    "in_convergence_domain",
    "is_prime",
    "padic_expand",
    "vp",
    "BivarPoly",
    "horner",
    "render_poly",
    "SummationTriple",
    "TripleFamily",
    "build_triple",
    "compute_A_family",
    "family_residual",
    "telescope",
    "IdentityCheck",
    "SumCertificate",
    "certificate_from_check",
    "factorial_series",
    "identity_checks",
    "invariant_sum",
    "partial_sum_Sk",
    "truncated_combo_sum",
    "truncated_padic_sum",
    "verify_identity",
    "bernoulli_identity_partial",
    "bernoulli_numbers",
    "bernoulli_series_certificate",
    "volkenborn_level",
    "volkenborn_poly",
    "KurepaReport",
    "kurepa_digit",
    "kurepa_digit_scan",
    "kurepa_gcd_scan",
    "paper_sequences",
]

__version__ = "0.1.0"
