"""Equilibrium checks: KKT residuals, the Lyapunov monitor, and closed-loop reports.

Everything here treats the controller and the oracle as black boxes: candidates
are judged only through the optimality system of the allocation problem (all
normal-cone memberships rewritten as projection fixed-point residuals, which
are directly computable) and through the energy function

    V = V1 + V2,
    V1 = 1/2 ( |p_l - p_l*|^2 + |mu - mu*|^2 + |phi - phi*|^2
               + |eta+ - eta+*|^2 + |eta- - eta-*|^2
               + (theta_e - theta_e*)^T B (theta_e - theta_e*)
               + omega_g^T M omega_g ),
    V2 = -(d - p_l)^T (p_l* - p_l)
         - (varphi+ - eta+)^T (eta+* - eta+)
         - (varphi- - eta-)^T (eta-* - eta-),

which is nonnegative (each V2 term is a product of two factors with equal
sign) and nonincreasing along exact closed-loop trajectories.

The controller conserves the mean of its virtual angle vector phi, so an
equilibrium supplied in a different gauge (for example the oracle's, pinned
at bus 0) would differ from the trajectory's limit by a constant vector.
`lyapunov` therefore aligns the gauge first: it shifts phi* by the mean of
(phi - phi*), the projection of the mismatch onto the conserved direction.
The shifted point is still an equilibrium, so the decrease property is
unaffected, and V can actually reach zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .controller import ControllerState
from .costs import PiecewiseCost, project_box
from .dynamics import PlantState, assemble_frequencies
from .errors import ValidationError
from .network import NetworkModel
from .oracle import OptimalSolution


@dataclass
class FullState:
    """Plant and controller state bundled for analysis entry points."""

    plant: PlantState
    ctrl: ControllerState


@dataclass
class KktReport:
    """Residuals of the optimality system, all reported as nonnegative numbers.

    `stationarity_load` uses the residual-minimizing selection from the
    Clarke interval at each bus, read off its cost (`PiecewiseCost.clarke`):
    with the interval [g_lo, g_hi] at p_j, the reachable projections
    P(p_j - g - mu_j) form the interval [P(p_j - mu_j - g_hi),
    P(p_j - mu_j - g_lo)] by monotonicity, so the residual is the distance
    from p_j to that interval. The multiplier identities carry no selection
    and are evaluated directly.
    """

    stationarity_load: float
    stationarity_plus: float
    stationarity_minus: float
    balance: float
    network: float
    comp_plus: float
    comp_minus: float
    box_violation: float
    line_violation: float
    eta_violation: float

    @property
    def max_residual(self) -> float:
        return max(getattr(self, f.name) for f in fields(self))

    def to_dict(self) -> dict:
        return {**asdict(self), "max_residual": self.max_residual}


def _excess(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest distance of an entry of x outside its interval [lo, hi]; 0 when x is empty."""
    return float(np.max(np.maximum.reduce([lo - x, x - hi, np.zeros(x.shape)]))) if x.size else 0.0


def candidate_from_state(model: NetworkModel, ctrl: ControllerState) -> OptimalSolution:
    """Read a primal-dual candidate off a (settled) controller state."""
    p_l = project_box(ctrl.d, model.load_box)
    costs = model.costs
    objective = float(sum(c.value(float(x)) for c, x in zip(costs, p_l)))
    return OptimalSolution(
        p_l_star=p_l,
        phi_star=ctrl.phi - ctrl.phi[0],
        mu_star=ctrl.mu.copy(),
        eta_plus_star=np.maximum(ctrl.varphi_plus, 0.0),
        eta_minus_star=np.maximum(ctrl.varphi_minus, 0.0),
        objective=objective,
    )


def kkt_residuals(model: NetworkModel, p_m: np.ndarray, candidate: OptimalSolution) -> KktReport:
    """Evaluate every optimality identity of the allocation problem as a residual."""
    p_m = np.asarray(p_m, dtype=float)
    p = np.asarray(candidate.p_l_star, dtype=float)
    mu = np.asarray(candidate.mu_star, dtype=float)
    phi = np.asarray(candidate.phi_star, dtype=float)
    ep = np.asarray(candidate.eta_plus_star, dtype=float)
    em = np.asarray(candidate.eta_minus_star, dtype=float)
    n, m = model.n, model.m
    if p.shape != (n,) or mu.shape != (n,) or phi.shape != (n,) or ep.shape != (m,) or em.shape != (m,):
        raise ValidationError("candidate dimensions do not match the network")

    box = model.load_box
    L = model.laplacian
    edge = model.incidence.T @ phi

    g_lo, g_hi = np.array([(iv.lo, iv.hi) for iv in map(PiecewiseCost.clarke, model.costs, p)]).T
    reach_lo = np.clip(p - mu - g_hi, box.lower, box.upper)
    reach_hi = np.clip(p - mu - g_lo, box.lower, box.upper)

    stat_plus = float(np.max(np.abs(ep - np.maximum(ep + edge - model.angle_upper, 0.0)), initial=0.0))
    stat_minus = float(np.max(np.abs(em - np.maximum(em + model.angle_lower - edge, 0.0)), initial=0.0))

    balance = float(np.max(np.abs(p - p_m + L @ phi)))
    network = float(np.max(np.abs(L @ mu + model.incidence @ (ep - em)), initial=0.0))

    comp_plus = float(np.max(np.abs(ep * (model.angle_upper - edge)), initial=0.0))
    comp_minus = float(np.max(np.abs(em * (edge - model.angle_lower)), initial=0.0))

    eta_violation = float(max(np.max(np.maximum(-ep, 0.0), initial=0.0), np.max(np.maximum(-em, 0.0), initial=0.0)))

    return KktReport(
        stationarity_load=_excess(p, reach_lo, reach_hi),
        stationarity_plus=stat_plus,
        stationarity_minus=stat_minus,
        balance=balance,
        network=network,
        comp_plus=comp_plus,
        comp_minus=comp_minus,
        box_violation=_excess(p, box.lower, box.upper),
        line_violation=_excess(edge, model.angle_lower, model.angle_upper),
        eta_violation=eta_violation,
    )


def _v_terms(model: NetworkModel, ctrl, theta_e, omega_g, star: FullState):
    """V over leading axes, anchored at `star`.

    `ctrl` has the controller signals d, mu, phi, varphi_plus, varphi_minus
    (a ControllerState, or a TrajectoryLog with one row per record); they,
    theta_e and omega_g are shaped (..., dim).
    """
    box = model.load_box
    d, mu, phi, vp, vm = ctrl.d, ctrl.mu, ctrl.phi, ctrl.varphi_plus, ctrl.varphi_minus
    p = np.clip(d, box.lower, box.upper)
    ep = np.maximum(vp, 0.0)
    em = np.maximum(vm, 0.0)
    star_p = project_box(star.ctrl.d, box)
    star_ep = np.maximum(star.ctrl.varphi_plus, 0.0)
    star_em = np.maximum(star.ctrl.varphi_minus, 0.0)
    dphi = phi - star.ctrl.phi
    dphi = dphi - dphi.mean(axis=-1, keepdims=True)  # gauge alignment
    b = model.susceptances
    mass = model.inertia_generators
    v1 = 0.5 * (
        np.sum((p - star_p) ** 2, axis=-1)
        + np.sum((mu - star.ctrl.mu) ** 2, axis=-1)
        + np.sum(dphi**2, axis=-1)
        + np.sum((ep - star_ep) ** 2, axis=-1)
        + np.sum((em - star_em) ** 2, axis=-1)
        + np.sum(b * (theta_e - star.plant.theta_e) ** 2, axis=-1)
        + np.sum(mass * omega_g**2, axis=-1)
    )
    v2 = (
        -np.sum((d - p) * (star_p - p), axis=-1)
        - np.sum((vp - ep) * (star_ep - ep), axis=-1)
        - np.sum((vm - em) * (star_em - em), axis=-1)
    )
    return v1 + v2


def lyapunov(model: NetworkModel, state: FullState, star: FullState) -> float:
    """Energy distance from `state` to the equilibrium `star` (V = V1 + V2)."""
    plant, ctrl = state.plant, state.ctrl
    ctrl.validate(model)
    plant.validate(model)
    return float(_v_terms(model, ctrl, plant.theta_e, plant.omega_g, star))


def lyapunov_series(model: NetworkModel, log, star: FullState) -> np.ndarray:
    """V(t_k) for every record of a TrajectoryLog (vectorized)."""
    return _v_terms(model, log, log.theta_e, log.omega[:, model.generator_index], star)


def equilibrium_from_state(
    model: NetworkModel, p_m: np.ndarray, plant: PlantState, ctrl: ControllerState
) -> tuple[FullState, KktReport]:
    """Polish a settled closed-loop state into an exact-form equilibrium.

    The projected outputs are read off the state; the internal variables are
    then rebuilt from the fixed-point identities they must satisfy at rest
    (d* = p* - g* - mu* with the clipped selection, varphi+* = eta+* +
    angle slack, and theta_e* = C^T phi*). The returned report measures how
    close the polished point is to true optimality.
    """
    candidate = candidate_from_state(model, ctrl)
    p, mu = candidate.p_l_star, candidate.mu_star
    ep, em = candidate.eta_plus_star, candidate.eta_minus_star
    phi = ctrl.phi.copy()
    g_lo, g_hi = np.array([(iv.lo, iv.hi) for iv in map(PiecewiseCost.clarke, model.costs, p)]).T
    g = np.clip(-mu, g_lo, g_hi)
    d_star = p - g - mu
    edge = model.incidence.T @ phi
    vp_star = ep + edge - model.angle_upper
    vm_star = em + model.angle_lower - edge
    star = FullState(
        plant=PlantState(theta_e=edge.copy(), omega_g=np.zeros(model.n_g)),
        ctrl=ControllerState(d=d_star, mu=mu, phi=phi, varphi_plus=vp_star, varphi_minus=vm_star),
    )
    report = kkt_residuals(model, p_m, candidate)
    return star, report


@dataclass
class Theorem1Report:
    """Structured pass/fail record for the closed-loop optimality claims."""

    omega_inf: float
    kkt: KktReport
    theta_phi_gap: float
    line_violation: float
    p_l_gap: float
    mu_spread: float
    tol: float
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "kkt": self.kkt.to_dict(), "passed": self.passed}


def check_theorem1(
    model: NetworkModel, settled: FullState, oracle: OptimalSolution, p_m: np.ndarray, tol: float = 1e-4
) -> Theorem1Report:
    """Check the four closed-loop optimality claims on a settled state under the injection p_m.

    (1) all bus frequencies vanish; (2) the settled state satisfies the
    optimality system; (3) the physical angle differences match the
    controller's virtual ones and respect the line limits; (4) the settled
    load vector equals the oracle optimum. p_m is the injection the loop
    settled under, never one rebuilt from the oracle's own optimum: the
    balance residual would then miss a wrong injection.
    """
    p_m = np.asarray(p_m, dtype=float)
    plant, ctrl = settled.plant, settled.ctrl
    candidate = candidate_from_state(model, ctrl)
    p_l = candidate.p_l_star
    omega_inf = float(np.max(np.abs(assemble_frequencies(model, plant, p_m, p_l))))
    kkt = kkt_residuals(model, p_m, candidate)

    edge_ctrl = model.incidence.T @ ctrl.phi
    theta_phi_gap = float(np.max(np.abs(plant.theta_e - edge_ctrl), initial=0.0))
    line_violation = _excess(plant.theta_e, model.angle_lower, model.angle_upper)
    p_l_gap = float(np.max(np.abs(p_l - oracle.p_l_star)))
    mu_spread = float(np.max(ctrl.mu) - np.min(ctrl.mu))

    checks = {
        "frequency_restored": omega_inf < tol,
        "kkt": kkt.max_residual < tol,
        "theta_matches_phi": theta_phi_gap < tol,
        "line_limits": line_violation < tol,
        "p_l_matches_oracle": p_l_gap < tol,
    }
    return Theorem1Report(
        omega_inf=omega_inf,
        kkt=kkt,
        theta_phi_gap=theta_phi_gap,
        line_violation=line_violation,
        p_l_gap=p_l_gap,
        mu_spread=mu_spread,
        tol=tol,
        checks=checks,
    )
