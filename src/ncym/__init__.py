"""Yang-Mills calculus on noncommutative tori and finite matrix spectral triples."""

__version__ = "0.1.0"

from .errors import (
    AlreadyEven,
    ComputeError,
    ConfigInvalid,
    DomainError,
    IndexOutOfRange,
    InvalidConnection,
    InvalidTriple,
    MissingGrading,
    NcymError,
    NonFiniteValue,
    ShapeMismatch,
    ThetaMismatch,
    ZeroMu,
)
from .torus import (
    CANONICAL_EPS,
    ThetaMatrix,
    TorusElement,
    adjoint,
    derivation,
    mul,
    product_theta,
    tensor_embed,
    trace,
)
from .yangmills import (
    AdditivityReport,
    Connection,
    Perturbation,
    Projection,
    SplittingReport,
    TorusMatrix,
    additivity_report,
    check_compatibility,
    critical_splitting_check,
    curvature,
    dixmier_torus_constant,
    gamma_constants,
    gradient_norm,
    grassmannian_connection,
    is_critical,
    minimize,
    product_connection,
    random_connection,
    subadditivity_check,
    ym_gradient,
    ym_value,
)
from .finite import (
    FiniteTriple,
    FormReport,
    MatrixCase,
    OperatorSubspace,
    ProductReport,
    classify_matrix_case,
    double_odd,
    form_report,
    junk_space,
    matrix_case_triple,
    omega1_space,
    pi_omega2_space,
    product_check,
    product_triple,
    trivial_triple,
    unitary_equivalence_defect,
)

__all__ = [name for name in dir() if not name.startswith("_")]
