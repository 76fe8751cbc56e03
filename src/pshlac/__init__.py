"""Rolling look-ahead commitment study kit for pumped-storage hydro.

Subpackage map:

  core        shared data model, validation, file formats
  milp        named sparse model container and its HiGHS adapter
  psh_model   storage mode logic, dispatch boxes, reservoir dynamics
  forecast    price model, error quantiles, correlated scenario sampling
  lac_models  window model builders for the five operating variants
  rolling     fix-and-slide day simulation and decision ledgers
  accounting  settlement, realized prices, study tables
  synth       seeded synthetic study world
  cli         command line front end
"""

from .core import (
    MarketDay,
    PowerSystem,
    PriceScenarioSet,
    PshMode,
    PshUnit,
    Reservoir,
    ThermalUnit,
    TimeGrid,
    validate_system,
)
from .forecast import ForecastConfig, ForecastPipeline, generate_scenarios
from .lac_models import (
    DaReference,
    LacInstance,
    ModelConfig,
    Variant,
    build_variant,
)
from .milp import MilpModel, MilpSolution, SolveOptions, solve
from .rolling import RunControl, SimulationLedger, run_day
from .accounting import evaluate_day

__version__ = "0.1.0"

__all__ = [
    "DaReference",
    "ForecastConfig",
    "ForecastPipeline",
    "LacInstance",
    "MarketDay",
    "MilpModel",
    "MilpSolution",
    "ModelConfig",
    "PowerSystem",
    "PriceScenarioSet",
    "PshMode",
    "PshUnit",
    "Reservoir",
    "RunControl",
    "SimulationLedger",
    "SolveOptions",
    "ThermalUnit",
    "TimeGrid",
    "Variant",
    "build_variant",
    "evaluate_day",
    "generate_scenarios",
    "run_day",
    "solve",
    "validate_system",
    "__version__",
]
