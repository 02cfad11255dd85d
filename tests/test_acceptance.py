"""Acceptance suite: one test per release criterion, each printing its margin.

Run with `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line per
criterion; the captured stdout of each test carries the measured numbers
behind the verdict.

Criteria, in test order:

 1. frequency restoration on the 3-bus and 9-bus step scenarios, settled
    |omega|_inf < 1e-4, and under 30 s of wall time each at dt = 1 ms
 2. settled dispatch matches the independent oracle in five regimes of the
    nonsmooth cost (interior of a smooth piece, exactly at the kink, strictly
    inside a Clarke interval, at a box bound, and at 68-bus scale on seven
    kinks with a binding tie-line): load gap < 1e-3, objective gap < 1e-5
 3. congested scenario: flow on the saturated line within 1e-3 of its limit,
    physical angle differences equal to the controller's virtual ones
    within 1e-4 on all lines
 4. price consensus: mu spread < 1e-4 in every uncongested scenario; the
    congested scenario splits prices across the boundary (spread > 10x tol)
 5. energy decay: along every logged trajectory (final constant-injection
    segment), V(t_{k+1}) - V(t_k) <= c * dt^2 per integration step with c
    documented per scenario below; V < 1e-6 at settle
 6. projection inequalities on 1e5 random inputs each (variational
    characterization and monotonicity, exact at machine precision), and
    Clarke intervals matching one-sided finite differences at 1e3 points
 7. oracle equals exhaustive lattice search on every network with n <= 3,
    within 1e-3 per coordinate
 8. criteria 1-4 hold identically under all four subgradient selection
    rules and both mismatch sources
 9. the 68-bus fixture passes criteria 1, 4, and 5 in under 10 minutes;
    quantities tied to nonlinear reference studies of similar systems are
    out of scope for this linearized synthetic fixture
10. the paper's own regime at 68-bus scale: with +0.2 of p_m at every bus
    and +1.5 at bus 20, seven buses rest on cost kinks, each price strictly
    inside its Clarke interval, and tie-line 19 binds
"""

import numpy as np
import pytest

from olfc.analysis import (
    FullState,
    check_theorem1,
    equilibrium_from_state,
    lyapunov,
    lyapunov_series,
)
from olfc.costs import project_box
from olfc.network import load_network
from olfc.oracle import lattice_search, solve_olc

from conftest import network_path
from test_costs import reference_cost

TOL = 1e-4
UNCONGESTED = ("two_bus_box", "three_bus_smooth", "three_bus_kink", "three_bus_interior_kink", "nine_bus_steps")
# The scenarios of criterion 2, one per regime of the nonsmooth cost.
REGIMES = {
    "three_bus_smooth": "interior of smooth piece",
    "three_bus_kink": "at the cost kink",
    "three_bus_interior_kink": "strictly inside a Clarke interval",
    "two_bus_box": "at the box bound",
    "sixty_eight_bus_kinks": "68-bus, kinks and a binding tie-line",
}
ALL_STEP = UNCONGESTED + ("three_bus_congested", "sixty_eight_bus_kinks")

# Per-scenario constant for the energy-decay bound dV <= c * dt^2 per step.
# Measured one-step increases are below 1e-11 everywhere (the discrete energy
# is in fact strictly decreasing); c = 1.0 keeps the documented bound far
# above anything observed while still catching a genuine regression.
LYAPUNOV_C = {
    "two_bus_box": 1.0,
    "three_bus_smooth": 1.0,
    "three_bus_kink": 1.0,
    "three_bus_interior_kink": 1.0,
    "three_bus_congested": 1.0,
    "nine_bus_steps": 1.0,
    "sixty_eight_bus_steps": 1.0,
    "sixty_eight_bus_kinks": 1.0,
}
# Criterion 10: the buses of sixty_eight_bus_kinks that rest on a cost kink, and its one binding line.
KINK_BUSES = [20, 28, 33, 35, 43, 53, 57]
BINDING_LINE = 19


def report_for(pl):
    return check_theorem1(
        pl.model, FullState(pl.settled.plant, pl.settled.ctrl), pl.oracle, tol=TOL, p_m=pl.p_m
    )


def settled_load(pl):
    return project_box(pl.settled.ctrl.d, pl.model.load_box)


def objective_of(pl, p_l):
    return float(sum(c.value(float(x)) for c, x in zip(pl.model.costs, p_l)))


# -- criterion helpers shared between the canonical runs and criterion 8 ------


def claim_frequency(pls):
    for name in ("three_bus_smooth", "three_bus_kink", "nine_bus_steps"):
        rep = report_for(pls[name])
        assert rep.omega_inf < TOL, f"{name}: |omega|_inf = {rep.omega_inf:.3e}"


def claim_optimal_dispatch(pls):
    for name in REGIMES:
        pl = pls[name]
        p_l = settled_load(pl)
        gap = float(np.max(np.abs(p_l - pl.oracle.p_l_star)))
        obj_gap = abs(objective_of(pl, p_l) - pl.oracle.objective)
        assert gap < 1e-3, f"{name}: load gap {gap:.3e}"
        assert obj_gap < 1e-5, f"{name}: objective gap {obj_gap:.3e}"


def claim_line_limit(pl):
    limit = pl.model.susceptances[0] * pl.model.angle_upper[0]
    flow = pl.model.susceptances[0] * pl.settled.plant.theta_e[0]
    rep = report_for(pl)
    assert abs(flow - limit) < 1e-3, f"saturated flow {flow:.6f} vs limit {limit:.6f}"
    assert rep.theta_phi_gap < TOL, f"theta/phi gap {rep.theta_phi_gap:.3e}"
    assert rep.line_violation < TOL, f"line violation {rep.line_violation:.3e}"


def claim_price_consensus(pls):
    for name in UNCONGESTED:
        rep = report_for(pls[name])
        assert rep.mu_spread < TOL, f"{name}: mu spread {rep.mu_spread:.3e}"
    rep = report_for(pls["three_bus_congested"])
    assert rep.mu_spread > 10 * TOL, f"congested mu spread {rep.mu_spread:.3e} did not split"


def lyapunov_audit(pl):
    """Return (worst step increase, per-record bound, V at settle, kkt residual)."""
    star, kkt = equilibrium_from_state(pl.model, pl.p_m, pl.settled.plant, pl.settled.ctrl)
    series = lyapunov_series(pl.model, pl.log, star)
    t_funnel = max(ev.time for ev in pl.scenario.events)
    seg = series[pl.log.times >= t_funnel - 1e-12]
    dt = pl.scenario.dt
    per_record = LYAPUNOV_C[pl.name] * dt * dt * pl.scenario.log_decimation
    worst = float(np.max(np.diff(seg)))
    v_settle = lyapunov(pl.model, FullState(pl.settled.plant, pl.settled.ctrl), star)
    return worst, per_record, v_settle, kkt.max_residual


# -- the criteria --------------------------------------------------------------


def test_01_frequency_restoration(pipeline):
    pls = {n: pipeline(n) for n in ("three_bus_smooth", "three_bus_kink", "nine_bus_steps")}
    claim_frequency(pls)
    for name, pl in pls.items():
        rep = report_for(pl)
        assert pl.scenario.dt == 1e-3
        assert pl.wall_seconds < 30.0, f"{name} took {pl.wall_seconds:.1f} s"
        print(f"[1] {name}: |omega|_inf = {rep.omega_inf:.2e} (tol 1e-4), "
              f"wall = {pl.wall_seconds:.1f} s (budget 30 s)")


def test_02_optimal_dispatch_in_every_regime(pipeline):
    pls = {n: pipeline(n) for n in REGIMES}
    claim_optimal_dispatch(pls)
    for name, pl in pls.items():
        p_l = settled_load(pl)
        gap = float(np.max(np.abs(p_l - pl.oracle.p_l_star)))
        obj_gap = abs(objective_of(pl, p_l) - pl.oracle.objective)
        print(f"[2] {name} ({REGIMES[name]}): load gap = {gap:.2e} (tol 1e-3), "
              f"objective gap = {obj_gap:.2e} (tol 1e-5)")


def test_03_line_limit_enforcement(pipeline):
    pl = pipeline("three_bus_congested")
    claim_line_limit(pl)
    limit = pl.model.susceptances[0] * pl.model.angle_upper[0]
    flow = pl.model.susceptances[0] * pl.settled.plant.theta_e[0]
    rep = report_for(pl)
    print(f"[3] three_bus_congested: flow = {flow:.6f} vs limit {limit:.6f} "
          f"(gap {abs(flow - limit):.2e}, tol 1e-3); theta/phi gap = {rep.theta_phi_gap:.2e} (tol 1e-4)")


def test_04_price_consensus(pipeline):
    pls = {n: pipeline(n) for n in ALL_STEP}
    claim_price_consensus(pls)
    for name in UNCONGESTED:
        print(f"[4] {name}: mu spread = {report_for(pls[name]).mu_spread:.2e} (tol 1e-4)")
    spread = report_for(pls["three_bus_congested"]).mu_spread
    print(f"[4] three_bus_congested: mu spread = {spread:.2e} (must exceed 1e-3)")


def test_05_energy_decay(pipeline):
    for name in ALL_STEP:
        pl = pipeline(name)
        worst, bound, v_settle, kkt = lyapunov_audit(pl)
        assert worst <= bound, f"{name}: dV = {worst:.3e} exceeds bound {bound:.3e}"
        assert v_settle < 1e-6, f"{name}: V at settle = {v_settle:.3e}"
        assert kkt < TOL
        print(f"[5] {name}: max dV per record = {worst:.2e} (bound {bound:.2e}, "
              f"c = {LYAPUNOV_C[name]}), V at settle = {v_settle:.2e} (tol 1e-6)")


def test_06_projection_and_subgradient_properties():
    rng = np.random.default_rng(2024)
    n_samples, dim = 100_000, 7
    lo = rng.uniform(-2.0, 0.0, dim)
    hi = lo + rng.uniform(0.5, 3.0, dim)

    def audit(project):
        x = rng.uniform(-6.0, 6.0, (n_samples, dim))
        y = project(rng.uniform(-6.0, 6.0, (n_samples, dim)))
        px = project(x)
        # variational characterization: the residual points away from the set
        vi = np.sum((x - px) * (y - px), axis=1)
        # monotonicity with the firm bound |P(x)-P(y)|^2 <= (P(x)-P(y))'(x-y)
        x2 = rng.uniform(-6.0, 6.0, (n_samples, dim))
        dp = px - project(x2)
        mono = np.sum(dp * ((x - x2) - dp), axis=1)
        return float(np.max(vi)), float(np.min(mono))

    vi_box, mono_box = audit(lambda v: np.clip(v, lo, hi))
    vi_pos, mono_pos = audit(lambda v: np.maximum(v, 0.0))
    assert vi_box <= 0.0 and vi_pos <= 0.0
    assert mono_box >= 0.0 and mono_pos >= 0.0
    print(f"[6] projection inequalities on {n_samples} samples (box and orthant): "
          f"worst VI margin = {max(vi_box, vi_pos):.1e} (<= 0), "
          f"worst monotonicity margin = {min(mono_box, mono_pos):.1e} (>= 0)")

    cost = reference_cost()
    xs = rng.uniform(-0.8, 0.8, 1000)
    # keep the finite-difference window on one side of each breakpoint
    xs = np.where(np.abs(np.abs(xs) - 0.2) < 1e-4, xs + 3e-4, xs)
    h = 1e-7
    worst_fd = 0.0
    for x in xs:
        x = float(x)
        iv = cost.clarke(x)
        right = (cost.value(x + h) - cost.value(x)) / h
        left = (cost.value(x) - cost.value(x - h)) / h
        worst_fd = max(worst_fd, abs(right - iv.hi), abs(left - iv.lo))
    assert worst_fd < 1e-6
    print(f"[6] Clarke interval vs one-sided differences at 1000 points: "
          f"worst error = {worst_fd:.1e} (tol 1e-6)")


def test_07_oracle_matches_lattice_search():
    cases = [
        ("two_bus", np.array([1.0, 0.0])),
        ("three_bus", np.array([0.3, 0.0, 0.0])),
        ("three_bus", np.array([0.6, 0.0, 0.0])),
        ("three_bus_congested", np.array([0.6, 0.0, 0.0])),
    ]
    for name, p_m in cases:
        model = load_network(network_path(name))
        sol = solve_olc(model, p_m, tol=1e-6)
        p_brute, val_brute = lattice_search(model, p_m)
        gap = float(np.max(np.abs(sol.p_l_star - p_brute)))
        assert gap < 1e-3, f"{name} {p_m}: coordinate gap {gap:.3e}"
        print(f"[7] {name}, total = {p_m.sum():g}: max coordinate gap = {gap:.2e} "
              f"(tol 1e-3), objectives {sol.objective:.6f} / {val_brute:.6f}")


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", ["minnorm", "left", "right", "midpoint"])
def test_08_selection_and_mismatch_robustness(pipeline, selection, mismatch):
    pls = {n: pipeline(n, selection=selection, mismatch=mismatch) for n in ALL_STEP}
    claim_frequency(pls)
    claim_optimal_dispatch(pls)
    claim_line_limit(pls["three_bus_congested"])
    claim_price_consensus(pls)
    worst_omega = max(report_for(pl).omega_inf for pl in pls.values())
    worst_gap = max(
        float(np.max(np.abs(settled_load(pl) - pl.oracle.p_l_star))) for pl in pls.values()
    )
    print(f"[8] selection={selection}, mismatch={mismatch}: all claims pass "
          f"(worst |omega|_inf = {worst_omega:.2e}, worst load gap = {worst_gap:.2e})")


def test_09_sixty_eight_bus_scale(pipeline):
    pl = pipeline("sixty_eight_bus_steps")
    assert pl.wall_seconds < 600.0, f"took {pl.wall_seconds:.0f} s"
    rep = report_for(pl)
    assert rep.omega_inf < TOL
    assert rep.mu_spread < TOL
    worst, bound, v_settle, kkt = lyapunov_audit(pl)
    assert worst <= bound
    assert v_settle < 1e-6
    assert kkt < TOL
    print(f"[9] sixty_eight_bus_steps: wall = {pl.wall_seconds:.0f} s (budget 600 s), "
          f"|omega|_inf = {rep.omega_inf:.2e}, mu spread = {rep.mu_spread:.2e}, "
          f"max dV per record = {worst:.2e} (bound {bound:.2e}), V at settle = {v_settle:.2e}")


def test_10_sixty_eight_bus_kinks_and_a_binding_tie_line(pipeline):
    pl = pipeline("sixty_eight_bus_kinks")
    model, ctrl, plant = pl.model, pl.settled.ctrl, pl.settled.plant
    rep = report_for(pl)
    assert rep.passed, rep.checks
    p_l = settled_load(pl)
    on_kink = [j for j, cost in enumerate(model.costs) if p_l[j] in cost.breakpoints]
    assert on_kink == KINK_BUSES
    # The price at a bus is -mu; at rest on a kink it is the bus's g_eq, strictly inside the Clarke interval.
    margins = []
    for j in KINK_BUSES:
        clarke = model.costs[j].clarke(p_l[j])
        assert clarke.lo < -ctrl.mu[j] < clarke.hi, (j, clarke, -ctrl.mu[j])
        margins.append(min(-ctrl.mu[j] - clarke.lo, clarke.hi + ctrl.mu[j]))
    # Line 19 sits on its lower angle limit, the oracle's multiplier there is positive, and no other line binds.
    at_limit = np.minimum(np.abs(plant.theta_e - model.angle_lower), np.abs(plant.theta_e - model.angle_upper)) < 1e-3
    assert np.flatnonzero(at_limit).tolist() == [BINDING_LINE]
    assert abs(plant.theta_e[BINDING_LINE] - model.angle_lower[BINDING_LINE]) < 1e-3
    assert pl.oracle.eta_minus_star[BINDING_LINE] > 0.0
    assert rep.mu_spread > 10 * TOL, f"mu spread {rep.mu_spread:.3e} did not split across the binding line"
    worst, bound, v_settle, kkt = lyapunov_audit(pl)
    assert worst <= bound
    assert v_settle < 1e-6
    assert kkt < TOL
    print(f"[10] sixty_eight_bus_kinks: buses {KINK_BUSES} on kinks, least Clarke margin = {min(margins):.2e}, "
          f"line {BINDING_LINE} at {plant.theta_e[BINDING_LINE]:.6f} (limit {model.angle_lower[BINDING_LINE]}), "
          f"mu spread = {rep.mu_spread:.2e}, max dV per record = {worst:.2e} (bound {bound:.2e})")
