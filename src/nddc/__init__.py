"""Simulation lab for linear consensus dynamics with delay and anticipation."""

from .core import (
    Classification,
    ConstantDatum,
    DerivativeMode,
    LinearDatum,
    ModelKind,
    NonFiniteStateError,
    OpinionState,
    SampledDatum,
    SimConfig,
    Trajectory,
    WeightMatrix,
    diameter,
    mean,
)
from .integrator import Mesh, classify_lanes, refine_oracle, run, run_lanes
from .weights import (
    WeightSpec,
    gamma,
    make_random_row_stochastic,
    make_random_symmetric_bistochastic,
    make_uniform,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ConstantDatum",
    "DerivativeMode",
    "LinearDatum",
    "Mesh",
    "ModelKind",
    "NonFiniteStateError",
    "OpinionState",
    "SampledDatum",
    "SimConfig",
    "Trajectory",
    "WeightMatrix",
    "WeightSpec",
    "classify_lanes",
    "diameter",
    "gamma",
    "make_random_row_stochastic",
    "make_random_symmetric_bistochastic",
    "make_uniform",
    "mean",
    "refine_oracle",
    "run",
    "run_lanes",
    "validate",
    "__version__",
]
