"""Degree bounds and exact membership experiments for Frobenius powers of
homogeneous ideals in standard-graded rings of characteristic p."""

from .bounds import (
    KoszulInvariants,
    chardin_constant,
    compute_nu,
    inclusion_threshold,
    koszul_invariants,
    nu_strongly_semistable,
    parameter_bound,
    regularity_bound_constants,
    smith_bound,
)
from .engine import (
    ContainmentRow,
    FrobeniusClosureReport,
    IdealSpec,
    MatrixTooLarge,
    MembershipCertificate,
    MembershipEngine,
    NotFoundWithinCap,
    TightClosureReport,
    containment_table,
    frobenius_closure_test,
    tight_closure_witness_test,
)
from .groebner import (
    DegreeCapExceeded,
    GroebnerBasis,
    buchberger,
    normal_form,
    standard_monomials,
)
from .polynomials import (
    ParseError,
    PolyError,
    Polynomial,
    poly_format,
    poly_parse,
)
from .rings import AssumptionMissing, RingPresentation

__version__ = "0.1.0"
