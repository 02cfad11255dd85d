"""Optimality reports and the energy monitor."""

import dataclasses
import json

import numpy as np
import pytest

from olfc.analysis import (
    FullState,
    candidate_from_state,
    check_theorem1,
    equilibrium_from_state,
    kkt_residuals,
    lyapunov,
    lyapunov_series,
)
from olfc.controller import ControllerState, init_controller
from olfc.costs import CostBatch
from olfc.dynamics import PlantState
from olfc.errors import ValidationError
from olfc.network import load_network
from olfc.oracle import solve_olc
from olfc.simulator import Event, Scenario, run, settle

from conftest import network_path


@pytest.fixture(scope="module")
def model():
    return load_network(network_path("three_bus"))


@pytest.fixture(scope="module")
def smooth_solution(model):
    return solve_olc(model, p_m=np.array([0.3, 0.0, 0.0]), tol=1e-9)


@pytest.fixture(scope="module")
def settled(model):
    res = settle(model, np.array([0.3, 0.0, 0.0]), tol=1e-9, t_max=120.0)
    assert res.converged
    return res


def random_full_state(model, rng, scale=1.0):
    return FullState(
        plant=PlantState(
            theta_e=rng.uniform(-scale, scale, model.m),
            omega_g=rng.uniform(-scale, scale, model.n_g),
        ),
        ctrl=ControllerState(
            d=rng.uniform(-2 * scale, 2 * scale, model.n),
            mu=rng.uniform(-scale, scale, model.n),
            phi=rng.uniform(-scale, scale, model.n),
            varphi_plus=rng.uniform(-scale, scale, model.m),
            varphi_minus=rng.uniform(-scale, scale, model.m),
        ),
    )


# -- KKT residuals ------------------------------------------------------------


def test_kkt_zero_at_optimum(model, smooth_solution):
    rep = kkt_residuals(model, np.array([0.3, 0.0, 0.0]), smooth_solution)
    assert rep.max_residual < 1e-7
    assert json.dumps(rep.to_dict())  # serializable report


def test_kkt_balance_sees_exact_perturbation(model, smooth_solution):
    bumped = dataclasses.replace(smooth_solution)
    bumped.p_l_star = smooth_solution.p_l_star.copy()
    bumped.p_l_star[1] += 0.1
    rep = kkt_residuals(model, np.array([0.3, 0.0, 0.0]), bumped)
    assert rep.balance == pytest.approx(0.1, abs=1e-7)
    assert rep.box_violation == 0.0


def test_kkt_stationarity_sees_price_shift(model, smooth_solution):
    bumped = dataclasses.replace(smooth_solution)
    bumped.mu_star = smooth_solution.mu_star + 0.01
    rep = kkt_residuals(model, np.array([0.3, 0.0, 0.0]), bumped)
    assert rep.stationarity_load == pytest.approx(0.01, abs=1e-7)


def test_kkt_rejects_wrong_shapes(model, smooth_solution):
    bad = dataclasses.replace(smooth_solution)
    bad.mu_star = np.zeros(5)
    with pytest.raises(ValidationError):
        kkt_residuals(model, np.zeros(3), bad)


# -- energy function ----------------------------------------------------------


def test_lyapunov_zero_at_star_and_positive_elsewhere(model, settled):
    star, rep = equilibrium_from_state(model, np.array([0.3, 0.0, 0.0]), settled.plant, settled.ctrl)
    assert rep.max_residual < 1e-6
    assert lyapunov(model, star, star) == 0.0
    here = lyapunov(model, FullState(settled.plant, settled.ctrl), star)
    assert 0.0 <= here < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(50):
        state = random_full_state(model, rng)
        v = lyapunov(model, state, star)
        assert v >= 0.0
        assert np.isfinite(v)


def test_lyapunov_nonnegative_for_any_anchor(model):
    """V stays pointwise nonnegative even for a non-equilibrium anchor: every
    cross term pairs a projection residual with a factor of matching sign."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        state = random_full_state(model, rng)
        anchor = random_full_state(model, rng)
        anchor.plant.omega_g[:] = 0.0
        assert lyapunov(model, state, anchor) >= 0.0


def test_lyapunov_gauge_invariance(model, settled):
    star, _ = equilibrium_from_state(model, np.array([0.3, 0.0, 0.0]), settled.plant, settled.ctrl)
    rng = np.random.default_rng(13)
    state = random_full_state(model, rng)
    v0 = lyapunov(model, state, star)
    shifted = FullState(
        plant=state.plant,
        ctrl=ControllerState(
            d=state.ctrl.d,
            mu=state.ctrl.mu,
            phi=state.ctrl.phi + 17.3,
            varphi_plus=state.ctrl.varphi_plus,
            varphi_minus=state.ctrl.varphi_minus,
        ),
    )
    v1 = lyapunov(model, shifted, star)
    assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-12)


def test_lyapunov_series_matches_pointwise(model, settled):
    scn = Scenario(
        network_path=network_path("three_bus"),
        t_end=2.0,
        dt=1e-3,
        events=[Event(time=0.0, bus=0, delta_p_m=0.3)],
        log_decimation=100,
    )
    log = run(scn, model)
    star, _ = equilibrium_from_state(model, np.array([0.3, 0.0, 0.0]), settled.plant, settled.ctrl)
    series = lyapunov_series(model, log, star)
    gidx = model.generator_index
    for k in range(len(log.times)):
        state = FullState(
            plant=PlantState(theta_e=log.theta_e[k], omega_g=log.omega[k][gidx]),
            ctrl=ControllerState(
                d=log.d[k], mu=log.mu[k], phi=log.phi[k],
                varphi_plus=log.varphi_plus[k], varphi_minus=log.varphi_minus[k],
            ),
        )
        assert series[k] == pytest.approx(lyapunov(model, state, star), rel=1e-12, abs=1e-15)
    # transient decays toward the settled equilibrium
    assert series[0] > series[-1]
    assert np.all(np.diff(series) <= 1e-12)


# -- equilibrium polishing and reports ---------------------------------------


def test_equilibrium_from_state_is_fixed_point(model, settled):
    from olfc.controller import controller_rhs, outputs, subgradient_selection

    p_m = np.array([0.3, 0.0, 0.0])
    star, rep = equilibrium_from_state(model, p_m, settled.plant, settled.ctrl)
    assert rep.max_residual < 1e-6
    assert np.all(star.plant.omega_g == 0.0)
    out = outputs(model, star.ctrl, p_m)
    g = subgradient_selection(model, out.p_l, "minnorm")
    deriv = controller_rhs(model, star.ctrl, out, np.zeros(model.n), g)
    assert np.max(np.abs(deriv.pack())) < 1e-6


def test_candidate_from_state_projects(model):
    ctrl = init_controller(model)
    ctrl.d[:] = (5.0, -5.0, 0.1)
    ctrl.varphi_plus[:] = (-1.0, 2.0, 0.0)
    cand = candidate_from_state(model, ctrl)
    assert np.array_equal(cand.p_l_star, [1.0, -1.0, 0.1])
    assert np.array_equal(cand.eta_plus_star, [0.0, 2.0, 0.0])
    assert cand.phi_star[0] == 0.0



def test_check_theorem1_full_report(model, settled, smooth_solution):
    rep = check_theorem1(
        model,
        FullState(settled.plant, settled.ctrl),
        smooth_solution,
        tol=1e-4,
        p_m=np.array([0.3, 0.0, 0.0]),
    )
    assert rep.passed
    assert rep.omega_inf < 1e-6
    assert rep.p_l_gap < 1e-6
    assert rep.mu_spread < 1e-6
    assert set(rep.checks) == {
        "frequency_restored", "kkt", "theta_matches_phi", "line_limits", "p_l_matches_oracle",
    }
    assert json.dumps(rep.to_dict())


def test_check_theorem1_sees_a_wrong_injection(model, settled, smooth_solution):
    """p_m is the caller's, so the balance residual measures the settled loads against the injection they met."""
    state = FullState(settled.plant, settled.ctrl)
    with pytest.raises(TypeError):
        check_theorem1(model, state, smooth_solution)
    rep = check_theorem1(model, state, smooth_solution, np.array([0.35, 0.0, 0.0]))
    assert rep.kkt.balance == pytest.approx(0.05, abs=1e-6)
    assert not rep.checks["kkt"] and not rep.passed


def test_the_claim_check_builds_no_cost_batch(model, settled, smooth_solution, monkeypatch):
    """The claim check reads Clarke intervals off the costs: with the simulator's CostBatch unbuildable it still reports."""
    p_m = np.array([0.3, 0.0, 0.0])
    state = FullState(settled.plant, settled.ctrl)
    report = check_theorem1(model, state, smooth_solution, p_m).to_dict()
    star, kkt = equilibrium_from_state(model, p_m, settled.plant, settled.ctrl)

    def unbuildable(self, costs):
        raise AssertionError("the claim check built a CostBatch")

    monkeypatch.setattr(CostBatch, "__init__", unbuildable)
    assert check_theorem1(model, state, smooth_solution, p_m).to_dict() == report
    star_again, kkt_again = equilibrium_from_state(model, p_m, settled.plant, settled.ctrl)
    assert kkt_again == kkt
    assert np.array_equal(star_again.ctrl.pack(), star.ctrl.pack())
    assert np.array_equal(star_again.plant.theta_e, star.plant.theta_e)


def test_check_theorem1_fails_on_unsettled(model, smooth_solution):
    cold = FullState(PlantState.zero(model), init_controller(model))
    rep = check_theorem1(model, cold, smooth_solution, p_m=np.array([0.3, 0.0, 0.0]))
    assert not rep.passed


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", ["minnorm", "left", "right", "midpoint"])
def test_the_interior_kink_rest_passes_and_a_shifted_one_fails(pipeline, selection, mismatch):
    """three_bus_interior_kink rests with bus 0 on its kink at 0.2, its price strictly inside the Clarke interval [0.2, 0.4].

    That rest passes every check. Moved 2 tol off it, on the kink bus (either
    way) or on a bus with a smooth cost, the state must fail both `kkt` and
    `p_l_matches_oracle`: a state more than tol from the optimum is no rest.
    """
    pl = pipeline("three_bus_interior_kink", selection, mismatch)
    tol = 1e-4
    assert pl.settled.ctrl.d[0] == 0.2
    assert 0.2 < -pl.settled.ctrl.mu[0] < 0.4
    assert check_theorem1(pl.model, FullState(pl.settled.plant, pl.settled.ctrl), pl.oracle, pl.p_m, tol).passed
    for bus, shift in ((0, 2 * tol), (0, -2 * tol), (1, 2 * tol), (2, -2 * tol)):
        ctrl = dataclasses.replace(pl.settled.ctrl, d=pl.settled.ctrl.d.copy())
        ctrl.d[bus] += shift
        rep = check_theorem1(pl.model, FullState(pl.settled.plant, ctrl), pl.oracle, pl.p_m, tol)
        assert not rep.checks["kkt"] and not rep.checks["p_l_matches_oracle"], (bus, shift, rep.checks)
