"""hydroham: a numerical verification workbench for first-order Hamiltonian
operators of hydrodynamic type.

The package decides, by seeded randomized identity testing, whether local
operators g^{ij}(u) D_x + b^{ij}_k(u) u^k_x and their nonlocal extensions by
signed affinor tails are Hamiltonian, whether operator pairs form compatible
pencils, and how hydrodynamic systems transform under reciprocal changes of
the independent variables.  A drift-flux model ships as executable presets.
"""

from .errors import (
    ConstraintViolation,
    DegenerateMetricError,
    EvalDomainError,
    HostileDomainError,
    NonConservedCurrentError,
    ParseError,
    VanishingDenominatorError,
    WorkbenchError,
)
from .exprs import (
    Expr,
    eval_jet,
    eval_scalar,
    fields_equal_numeric,
    variables,
)
from .geometry import (
    AffinorField,
    ConnectionField,
    MetricField,
    christoffel_from_b,
    covariant_derivative_affinor,
    invert_metric,
    levi_civita,
    riemann_curvature,
)
from .jets import Jet
from .operators import (
    LocalOperator,
    NonlocalOperator,
    check_ferapontov,
    check_local_hamiltonian,
    check_pencil_compatibility,
    check_skew_adjoint,
    hamiltonian_flow,
)
from .parsing import parse_expr
from .reports import CheckReport, ConditionResult
from .sampling import SamplePlan, default_plan
from .systems import (
    ConservedCurrent,
    HydroSystem,
    PointChangeMap,
    check_change_of_variables,
    check_conserved_current,
    reciprocal_transform_system,
)

__version__ = "0.1.0"

__all__ = [
    "AffinorField",
    "CheckReport",
    "ConditionResult",
    "ConnectionField",
    "ConservedCurrent",
    "ConstraintViolation",
    "DegenerateMetricError",
    "EvalDomainError",
    "Expr",
    "HostileDomainError",
    "HydroSystem",
    "Jet",
    "LocalOperator",
    "MetricField",
    "NonConservedCurrentError",
    "NonlocalOperator",
    "ParseError",
    "PointChangeMap",
    "SamplePlan",
    "VanishingDenominatorError",
    "WorkbenchError",
    "check_change_of_variables",
    "check_conserved_current",
    "check_ferapontov",
    "check_local_hamiltonian",
    "check_pencil_compatibility",
    "check_skew_adjoint",
    "christoffel_from_b",
    "covariant_derivative_affinor",
    "default_plan",
    "eval_jet",
    "eval_scalar",
    "fields_equal_numeric",
    "hamiltonian_flow",
    "invert_metric",
    "levi_civita",
    "parse_expr",
    "reciprocal_transform_system",
    "riemann_curvature",
    "variables",
]
