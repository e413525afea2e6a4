"""Simulation and analysis toolkit for planar Filippov systems."""

from .errors import (
    ConfigurationError,
    EvaluationError,
    ExpressionError,
    FilippovError,
    IntegrationError,
    NonIsolatedTangencyError,
    OutsideDomainError,
    UndefinedSlidingError,
)
from .expr import (
    Expression,
    PlanarField,
    ScalarField,
    differentiate,
    evaluate,
    parse_expression,
    serialize,
)
from .integrate import (
    BranchChoice,
    BranchPolicy,
    IntegratorOptions,
    Orbit,
    OrbitSegment,
    enumerate_branches,
    integrate_filippov,
    integrate_regular,
    integrate_sliding,
)
from .sigma import (
    Classification,
    PointClass,
    SigmaDecomposition,
    TangencyPoint,
    classify_point,
    sigma_decomposition,
    sliding_vector_field,
)
from .system import Domain, FilippovSystem, OnSigma, RegionSpec, SwitchingCurve

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
