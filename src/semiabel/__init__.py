"""Numerics for semi-abelian extensions of elliptic curves.

Period lattices, Weierstrass sigma/zeta/wp through reduced theta series,
periods from curve invariants and elliptic logarithms, extensions of a
curve by the multiplicative group (Serre's factor-system function, the
semi-abelian exponential/logarithm, third-kind periods), the analytic
Weil pairing, a heuristic integer-relation engine, and a classifier for
the dimension invariants of 1-motives with their conjectural
transcendence-degree lower bounds.
"""

__version__ = "1.0.0"

from .classifier import (
    ClassificationReport,
    OneMotiveElliptic,
    classify_table_row,
    conjecture_bounds,
    detect_cm,
    dim_B_elliptic,
    dim_Z1,
    is_deficient,
    is_torsion,
    motivic_galois_dims,
)
from .elliptic import (
    CurveInvariants,
    QuasiPeriods,
    eisenstein_invariants,
    eta_linear,
    quasi_periods,
    rotate_real_frame,
    sigma_automorphy_factor,
    sigma_w,
    theta_automorphy_factor,
    theta_normalization,
    theta_normalized,
    weierstrass,
    wp,
    wp_prime,
    zeta_w,
)
from .errors import (
    BeyondWorkingPrecision,
    ConflictingCurveSpec,
    ConvergenceFailure,
    DegenerateLattice,
    FiberZero,
    InconsistentOverride,
    InternalInconsistency,
    NotALatticePoint,
    NotApplicable,
    NotOnCurve,
    NotTorsion,
    PoleAtLatticePoint,
    SchemaError,
    SemiabelError,
    SingularCurve,
    TooManyValues,
)
from .lattice import (
    Lattice,
    dual_lattice,
    dual_to_primal,
    duality_product,
    is_lattice_point,
    lattice_coords,
    make_lattice,
    real_coordinates,
    reduce_centered,
    reduce_to_fundamental,
)
from .pairing import (
    UnitCircleValue,
    f_tilde,
    hodge_weil,
    poincare_automorphy,
    poincare_automorphy_a0,
    ratio_f_tilde,
    torsion_weil_pairing,
    weil_pairing,
)
from .periods import (
    BranchedValue,
    EllipticPoint,
    GeneralizedAbelianLog,
    check_on_curve,
    elliptic_log,
    generalized_elliptic_log,
    periods_from_invariants,
)
from .relations import RelationCertificate, detect_integer_relation
from .semiabelian import (
    ExtensionParam,
    SemiAbelianPoint,
    exp_G,
    generalized_log_G,
    kernel_generators,
    log_G,
    period_matrix_A,
    period_matrix_G,
    period_matrix_M,
    quasi_quasi_periods,
    serre_fq,
)
