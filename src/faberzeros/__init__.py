"""Faber polynomials of level-one modular forms.

Exact q-series arithmetic over rationals, Faber polynomial extraction,
zeros of the truncated exponential, j-inversion into the fundamental
domain, and verification reports for the large-weight asymptotics.
Everything is a pure function over immutable values, so all of it is
safe to evaluate in parallel.
"""

from .errors import DomainError, NumericalError
from .faber import (
    FaberPoly,
    closed_form_check,
    closed_form_poly,
    faber_polynomial,
    j_power_table,
    principal_part,
    renormalized_coeffs,
)
from .halfplane import (
    HalfPlanePoint,
    JEvaluation,
    ZeroReport,
    ZeroReportRow,
    evaluate_j,
    in_fundamental_domain,
    invert_j,
    predicted_zero,
    reduce_to_fundamental_domain,
    zero_report,
)
from .modforms import (
    ModularFormSpec,
    WeightDecomposition,
    custom_form_spec,
    decompose_weight,
    miller_basis_series,
    miller_form_spec,
)
from .qseries import (
    TruncatedSeries,
    delta_series,
    eisenstein_series,
    eta_unit,
    euler_phi,
    gamma_k,
    j_series,
    sigma,
)
from .roots import (
    ComplexPoly,
    Pairing,
    RootSet,
    find_roots,
    match_roots,
    ostrowski_bound,
    scaled_faber_roots,
    truncated_exp_inverse_zeros,
    truncated_exp_poly,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexPoly",
    "DomainError",
    "FaberPoly",
    "HalfPlanePoint",
    "JEvaluation",
    "ModularFormSpec",
    "NumericalError",
    "Pairing",
    "RootSet",
    "TruncatedSeries",
    "WeightDecomposition",
    "ZeroReport",
    "ZeroReportRow",
    "closed_form_check",
    "closed_form_poly",
    "custom_form_spec",
    "decompose_weight",
    "delta_series",
    "eisenstein_series",
    "eta_unit",
    "euler_phi",
    "evaluate_j",
    "faber_polynomial",
    "find_roots",
    "gamma_k",
    "in_fundamental_domain",
    "invert_j",
    "j_power_table",
    "j_series",
    "match_roots",
    "miller_basis_series",
    "miller_form_spec",
    "ostrowski_bound",
    "predicted_zero",
    "principal_part",
    "reduce_to_fundamental_domain",
    "renormalized_coeffs",
    "scaled_faber_roots",
    "sigma",
    "truncated_exp_inverse_zeros",
    "truncated_exp_poly",
    "zero_report",
    "__version__",
]
