"""Frenet frames of space curves and their lifts to the tangent space.

The package computes the Frenet apparatus (frame, curvature, torsion) of
parametric curves in R^3 from truncated-Taylor jets, lifts functions, vector
fields and curves to the 6-dimensional tangent space through the vertical,
complete and horizontal lift operators, and measures how well the frame
derivative identities survive each lift.  Every computed quantity has an
independent cross-check: finite differences against jets, a generalized
Gram-Schmidt frame against the direct apparatus, closed-form helix values
against both.
"""

from .expr import (
    CurveSpec,
    FieldSpec,
    FormatError,
    ParseError,
    UnknownFunction,
    UnknownVariable,
    eval_float,
    eval_jet,
    parse_curve_file,
    parse_expr,
    parse_field_file,
    pretty_print,
    scalar_field,
    vector_field,
)
from .frenet import (
    DegenerateCurvature,
    DomainIntervalError,
    FrenetData,
    GeneralizedFrame,
    ToleranceConfig,
    ZeroSpeed,
    curve_point_jets,
    frenet_apparatus,
    generalized_frenet,
)
from .jets import (
    DimensionMismatch,
    DivisionByZeroJet,
    DomainError,
    Jet,
    OrderExceeded,
    RankDeficient,
    ZeroNorm,
    fd_oracle,
)
from .lifts import (
    Connection,
    LiftKind,
    LiftedField,
    LiftedFieldValue,
    TangentPoint,
    apply_field,
    lift_field,
    lift_function,
    parallel_transport,
    parse_connection_file,
    prop21_check,
)
from .lifted_frenet import (
    LiftReport,
    LiftedApparatus,
    LiftedCurve,
)

__version__ = "0.1.0"
