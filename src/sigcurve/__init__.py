"""Exact differential signatures of plane algebraic curves.

Computes restricted differential invariants, signature polynomials,
signature-curve degrees via intersection-multiplicity sums, symmetry-group
cardinalities and group-equivalence verdicts for the special Euclidean,
special affine, affine and projective groups, entirely in rational
arithmetic (floats only in the sampling/validation paths).
"""

from .degree import (
    DegreeReport,
    MultiplicityReport,
    base_locus_on_curve,
    generic_degree,
    mult_min,
    mult_min_canonical,
    mult_sum_line,
    predict_degree,
    series_valuations,
)
from .equivalence import EquivalenceVerdict, SymmetryResult, equivalent, symmetry_order
from .errors import (
    ExceptionalCurveError,
    InvalidCurveError,
    ParseError,
    PoleError,
    RingMismatchError,
    ShearRequiredError,
    SigcurveError,
    TruncationError,
)
from .fermat import (
    fermat_curve,
    fermat_signature,
    fermat_signature_a2,
    fermat_signature_pgl3,
    fermat_symmetry_order,
)
from .jets import (
    ClassifyingPair,
    CurveInput,
    GroupId,
    HomogeneousTriple,
    JetRestriction,
    ThetaRestriction,
    apply_group_element,
    classifying_pair,
    exceptional_check,
    implicit_jet,
    invariants_at_point,
    projective_extension,
    theta,
)
from .parser import parse, serialize
from .poly import RatFunc, SparsePoly, gcd, resultant, square_free_part
from .signature import (
    FiberTable,
    PointSignature,
    SignatureCertificate,
    SignaturePolynomial,
    certify_signature,
    is_constant_signature,
    signature_polynomial,
    signature_samples,
)

__version__ = "0.1.0"
