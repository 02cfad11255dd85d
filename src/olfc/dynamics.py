"""Physical network dynamics: swing equations with algebraic load buses.

The plant is a linearized DAE. Edge angle differences integrate the frequency
differences across each line; generator frequencies follow the swing
equation; load-bus frequencies are pinned by an algebraic balance that is
solved explicitly each evaluation (index-1 reduction, valid since every
damping coefficient is positive). States are edge differences theta_e rather
than nodal angles, which sidesteps the reference-angle gauge entirely.

Sign conventions: with C the oriented incidence matrix (+1 at a line's
from-bus), the net line power leaving bus j is (C B theta_e)_j, so the bus
power balance reads p_m - p_l - D*omega - C B theta_e.

Every function takes the per-bus injections p_m and controllable loads p_l
as two arrays: load_bus_frequencies(model, state, p_m, p_l), and likewise
assemble_frequencies, plant_rhs and balance_residual. The balance is written
once, in `_imbalance`; a load bus's frequency is its value at omega = 0
over D_j, its unique root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import NetworkModel


@dataclass
class PlantState:
    """Edge angle differences (rad) and generator frequency deviations (rad/s)."""

    theta_e: np.ndarray
    omega_g: np.ndarray

    def __post_init__(self) -> None:
        self.theta_e = np.asarray(self.theta_e, dtype=float)
        self.omega_g = np.asarray(self.omega_g, dtype=float)

    def validate(self, model: NetworkModel) -> None:
        if self.theta_e.shape != (model.m,):
            raise ValidationError(f"theta_e must have length {model.m}, got {self.theta_e.shape}")
        if self.omega_g.shape != (model.generator_index.size,):
            raise ValidationError(f"omega_g must have length {model.generator_index.size}, got {self.omega_g.shape}")
        if not (np.all(np.isfinite(self.theta_e)) and np.all(np.isfinite(self.omega_g))):
            raise ValidationError("plant state must be finite")

    @classmethod
    def zero(cls, model: NetworkModel) -> "PlantState":
        return cls(np.zeros(model.m), np.zeros(model.generator_index.size))


def _imbalance(model: NetworkModel, theta_e: np.ndarray, p_m: np.ndarray, p_l: np.ndarray, omega: np.ndarray | float) -> np.ndarray:
    """Bus power balance p_m - p_l - D*omega - C B theta_e, per bus; p_m and p_l are anything np.asarray takes."""
    p_m = np.asarray(p_m, dtype=float)
    p_l = np.asarray(p_l, dtype=float)
    return p_m - p_l - model.damping * omega - model.incidence @ (model.susceptances * theta_e)


def load_bus_frequencies(model: NetworkModel, state: PlantState, p_m: np.ndarray, p_l: np.ndarray) -> np.ndarray:
    """Solve the load-bus algebraic balance for omega on load buses.

    Returns omega_j = (p_m_j - p_l_j - (C B theta_e)_j) / D_j over load buses,
    the unique root of the balance residual: the balance at omega = 0, over D.
    """
    idx = model.load_index
    return _imbalance(model, state.theta_e, p_m, p_l, 0.0)[idx] / model.damping[idx]


def assemble_frequencies(model: NetworkModel, state: PlantState, p_m: np.ndarray, p_l: np.ndarray) -> np.ndarray:
    """Full per-bus frequency vector: generator states plus algebraic load buses."""
    omega = np.empty(model.n)
    omega[model.generator_index] = state.omega_g
    if model.load_index.size:
        omega[model.load_index] = load_bus_frequencies(model, state, p_m, p_l)
    return omega


def plant_rhs(
    model: NetworkModel, state: PlantState, p_m: np.ndarray, p_l: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives of the plant under injections p_m and loads p_l, plus the full frequency vector.

    Returns (dtheta_e, domega_g, omega) where dtheta_e = C^T omega and
    domega_g applies the swing equation at generator buses. omega is an
    auxiliary output: the controller and the logger both consume it.
    """
    omega = assemble_frequencies(model, state, p_m, p_l)
    imbalance = _imbalance(model, state.theta_e, p_m, p_l, omega)
    domega_g = imbalance[model.generator_index] / model.inertia_generators
    dtheta_e = model.incidence.T @ omega
    return dtheta_e, domega_g, omega


def balance_residual(model: NetworkModel, state: PlantState, p_m: np.ndarray, p_l: np.ndarray) -> np.ndarray:
    """Load-bus residual of the algebraic balance under p_m and p_l; zero at a consistent state."""
    omega = assemble_frequencies(model, state, p_m, p_l)
    return _imbalance(model, state.theta_e, p_m, p_l, omega)[model.load_index]
