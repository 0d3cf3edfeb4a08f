"""Exact-arithmetic certificates of Hasse principle violations for
one-parameter families of degree-4 del Pezzo surfaces and hyperelliptic
curves over Q."""

from .arith import (
    Place,
    count_points_hyperelliptic,
    find_smooth_fp_point,
    hensel_nth_root,
    hensel_sqrt,
    hilbert_symbol,
    is_local_square,
    is_prime,
    legendre,
    padic_val,
    sqrt_mod,
)
from .brauer import (
    InvariantCertificate,
    ObstructionCertificate,
    certify_invariant,
    evaluate_invariant_at_point,
    obstruction_certificate,
    sample_invariant,
)
from .family import (
    DP4Surface,
    FamilyCoeffs,
    HyperellipticCurve,
    Theta,
    admissible_model,
    build_curve,
    build_surface,
    check_nonvanishing,
    check_smooth_curve,
    check_smooth_surface,
    fiber_coeffs,
    integral_model,
    j_invariant,
)
from .local import (
    CriticalSet,
    LocalCertificate,
    certify_all_local,
    certify_local_curve,
    critical_places,
)
from .params import (
    ParamSet,
    SieveExhausted,
    omega0_for_genus,
    sieve_params,
    verify_conditions,
)
from .search import curve_point_search, surface_point_search

__version__ = "0.1.0"
