"""charsum: Dirichlet character sums evaluated through Fourier coefficient series.

The library evaluates sum_{k=1}^{q-1} chi(k) f*(k/q) for primitive Dirichlet
characters chi mod q both directly and via the equivalent single-parity
coefficient series with prefactor 2 tau(chi) (even chi, cosine coefficients)
or -2i tau(chi) (odd chi, sine coefficients), and verifies four classical
closed-form identities across all primitive characters of small moduli.
"""

from .analytic import (
    LValue,
    cosine_integral,
    l_one,
    partial_sum_bound,
    si_complement,
    sine_integral,
)
from .characters import (
    CharacterGroup,
    DirichletCharacter,
    Parity,
    build_character_group,
    fundamental_discriminants,
    is_fundamental_discriminant,
    kronecker_symbol,
    real_primitive_character,
)
from .fourier import (
    SeriesEvaluation,
    TheoremCheck,
    direct_sum,
    fourier_coefficient,
    theorem_series,
    verify_theorem,
)
from .functions import FunctionSpec, VariationClass, builtin_function, fstar
from .gauss_sums import (
    GaussSumValue,
    gauss_sum,
    quadratic_tau_residual,
    separability_residual,
    tau,
)
from .identities import (
    IdentityCheck,
    check_exp_identity,
    check_log_identity,
    check_partial_sum_identity,
    check_square_identity,
    run_identity,
)
from .quadrature import QuadratureError
from .reporting import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "CharacterGroup",
    "DirichletCharacter",
    "FunctionSpec",
    "GaussSumValue",
    "IdentityCheck",
    "LValue",
    "Parity",
    "QuadratureError",
    "SeriesEvaluation",
    "TheoremCheck",
    "VariationClass",
    "VerificationReport",
    "build_character_group",
    "builtin_function",
    "check_exp_identity",
    "check_log_identity",
    "check_partial_sum_identity",
    "check_square_identity",
    "cosine_integral",
    "direct_sum",
    "fourier_coefficient",
    "fstar",
    "fundamental_discriminants",
    "gauss_sum",
    "is_fundamental_discriminant",
    "kronecker_symbol",
    "l_one",
    "partial_sum_bound",
    "quadratic_tau_residual",
    "real_primitive_character",
    "run_identity",
    "separability_residual",
    "si_complement",
    "sine_integral",
    "tau",
    "theorem_series",
    "verify_theorem",
]
