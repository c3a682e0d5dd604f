"""symrank: exact verification that the derivative of the symmetrization map
at any square matrix has rank equal to the degree of its minimal polynomial.

The symmetrization map sends a matrix to the coefficients of its
characteristic polynomial.  This package assembles the map's derivative
exactly over Gaussian rationals, computes its rank fraction-free, and
cross-checks the result three independent ways: finite differences, an
annihilating null-space certificate, and an echelon tangent certificate.
"""

from .canonical import (
    EigenvalueBlocks,
    FrobeniusSpec,
    JordanSpec,
    build_frobenius,
    build_jordan,
    jordan_to_frobenius,
    min_poly_degree,
    min_poly_krylov,
    random_similarity,
)
from .cli import (
    SweepConfig,
    SweepReport,
    enumerate_jordan_specs,
    main,
    run_sweep,
)
from .jacobian import (
    JacobianMatrix,
    TheoremReport,
    directional_derivative,
    jacobian_exact,
    jacobian_fd,
    numeric_rank_profile,
    rank_exact,
    verify_theorem,
)
from .matpoly import (
    MatrixPolynomial,
    Polynomial,
    SquareMatrix,
    char_poly,
    dot,
    monomial_vector,
    spectral_radius_bound,
    sym_poly_eval,
    symmetrize,
)
from .proofs import (
    ConvergenceReport,
    NullspaceCertificate,
    TangentCertificate,
    VandermondeComparison,
    VanishingReport,
    confluent_vandermonde_det,
    divided_difference,
    genocchi_hermite_check,
    linear_curve,
    nullspace_basis,
    order_of_vanishing,
    tangent_construction,
    tangent_ok,
    verify_annihilation,
)
from .scalars import (
    EXACT,
    FLOAT,
    GaussianRational,
    NumericFailure,
    gq,
    normalize_rational,
    parse_rational,
    render_rational,
)

__version__ = "0.1.0"
