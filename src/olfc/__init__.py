"""Distributed optimal load-frequency control: simulator, controller and oracle."""

from .analysis import check_theorem1
from .errors import InfeasibleProblemError, NumericalError, OlfcError, ValidationError
from .network import load_network
from .oracle import solve_olc
from .simulator import ClosedLoop, load_scenario, run, settle

__version__ = "0.1.0"

__all__ = [
    "ClosedLoop",
    "InfeasibleProblemError",
    "NumericalError",
    "OlfcError",
    "ValidationError",
    "check_theorem1",
    "load_network",
    "load_scenario",
    "run",
    "settle",
    "solve_olc",
]
