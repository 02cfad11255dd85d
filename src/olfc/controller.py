"""Distributed load-frequency controller: integrators, filters, projected outputs.

Per bus the controller carries a pre-projection load command d_j, a balance
multiplier mu_j and a virtual phase angle phi_j; per line it carries two
filter states varphi+- whose nonnegative projections eta+- enforce the
angle-difference limits. Outputs are the projected load command
p_l = P_box(d), the multipliers eta+- = max(varphi+-, 0) and the local
imbalance z = p_l - p_m + C B C^T phi.

With C oriented +1 at each line's from-bus, the per-bus update of the
virtual angle expands in matrix form to

    phi' = -C B C^T (mu + z) + C (eta- - eta+)

and the filters integrate  varphi+' = -varphi+ + eta+ + C^T phi - theta_max,
varphi-' = -varphi- + eta- + theta_min - C^T phi.  These signs make the
virtual-angle equation the exact saddle dynamics of the steady-state
allocation problem: at rest, C B C^T mu + C(eta+ - eta-) = 0 is the
stationarity condition with eta+ the multiplier of C^T phi <= theta_max.

The mismatch p_l - p_m inside z can instead be reconstructed from
measurements (frequencies, their derivatives, line flows); on this linear
model the reconstruction is an algebraic identity, and both sources must
produce identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs as _costs
from .costs import select_subgradient
from .errors import ValidationError
from .network import NetworkModel

MISMATCH_SOURCES = ("model", "estimate")


@dataclass
class ControllerState:
    """Controller memory: per-bus d, mu, phi and per-line filter states."""

    d: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    varphi_plus: np.ndarray
    varphi_minus: np.ndarray

    def __post_init__(self) -> None:
        for name in ("d", "mu", "phi", "varphi_plus", "varphi_minus"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    def validate(self, model: NetworkModel) -> None:
        for name, size in (("d", model.n), ("mu", model.n), ("phi", model.n), ("varphi_plus", model.m), ("varphi_minus", model.m)):
            vec = getattr(self, name)
            if vec.shape != (size,):
                raise ValidationError(f"controller state {name} must have length {size}, got {vec.shape}")
            if not np.all(np.isfinite(vec)):
                raise ValidationError(f"controller state {name} must be finite")

    def pack(self) -> np.ndarray:
        return np.concatenate([self.d, self.mu, self.phi, self.varphi_plus, self.varphi_minus])


@dataclass
class ControllerOutputs:
    """Projected outputs and the local imbalance signal."""

    p_l: np.ndarray
    eta_plus: np.ndarray
    eta_minus: np.ndarray
    z: np.ndarray


def outputs(model: NetworkModel, cstate: ControllerState, p_m: np.ndarray, mismatch: np.ndarray | None = None) -> ControllerOutputs:
    """Projected outputs of the controller state.

    mismatch overrides the literal p_l - p_m inside z with a measured
    estimate; both agree identically on the linear plant.
    """
    p_l = _costs.project_box(cstate.d, model.load_box)
    eta_plus = _costs.project_nonneg(cstate.varphi_plus)
    eta_minus = _costs.project_nonneg(cstate.varphi_minus)
    laplacian_phi = model.laplacian @ cstate.phi
    if mismatch is None:
        mismatch = p_l - np.asarray(p_m, dtype=float)
    z = mismatch + laplacian_phi
    return ControllerOutputs(p_l=p_l, eta_plus=eta_plus, eta_minus=eta_minus, z=z)


def subgradient_selection(model: NetworkModel, p_l: np.ndarray, rule: str = "minnorm") -> np.ndarray:
    """Per-bus subgradient g_j in the Clarke interval at p_l_j."""
    return np.array([select_subgradient(cost.clarke(x), rule) for cost, x in zip(model.costs, p_l)])


def controller_rhs(
    model: NetworkModel,
    cstate: ControllerState,
    out: ControllerOutputs,
    omega: np.ndarray,
    g_sel: np.ndarray,
    epsilon: float = 1.0,
) -> ControllerState:
    """Time derivative of the controller state (returned as a ControllerState).

    epsilon is a global time-scale on all controller integrators; unit gains
    otherwise.
    """
    if omega.shape != (model.n,) or g_sel.shape != (model.n,):
        raise ValidationError("controller_rhs needs full per-bus omega and subgradient selections")
    C = model.incidence
    flows_of = model.laplacian  # C B C^T
    dd = -cstate.d + out.p_l + omega - g_sel - out.z - cstate.mu
    dphi = -flows_of @ (cstate.mu + out.z) + C @ (out.eta_minus - out.eta_plus)
    edge_phi = C.T @ cstate.phi
    dvp = -cstate.varphi_plus + out.eta_plus + edge_phi - model.angle_upper
    dvm = -cstate.varphi_minus + out.eta_minus + model.angle_lower - edge_phi
    return ControllerState(*(epsilon * v for v in (dd, out.z, dphi, dvp, dvm)))


def estimate_mismatch(
    model: NetworkModel,
    omega: np.ndarray,
    domega_g: np.ndarray,
    line_flows: np.ndarray,
) -> np.ndarray:
    """Measurement-based reconstruction of p_l - p_m per bus.

    Uses frequency, its derivative at generator buses, and the DC line flows
    B_ij theta_ij: the bus balance rearranged for the unmeasurable mismatch.
    On the linearized plant this is exact.
    """
    est = -model.damping * omega - model.incidence @ line_flows
    est[model.generator_index] -= model.inertia_generators * domega_g
    return est


def init_controller(model: NetworkModel) -> ControllerState:
    """All-zeros controller state."""
    n, m = model.n, model.m
    return ControllerState(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(m), np.zeros(m))
