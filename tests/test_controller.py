"""Controller layer: projected outputs, dynamics structure, equilibria."""

import numpy as np
import pytest

from olfc.controller import (
    ControllerOutputs,
    ControllerState,
    controller_rhs,
    estimate_mismatch,
    init_controller,
    outputs,
    subgradient_selection,
)
from olfc.dynamics import PlantState, plant_rhs
from olfc.errors import ValidationError
from olfc.network import load_network
from olfc.oracle import solve_olc

from conftest import network_path


@pytest.fixture(scope="module")
def model():
    return load_network(network_path("three_bus"))


@pytest.fixture(scope="module")
def congested():
    return load_network(network_path("three_bus_congested"))


def random_state(model, rng, scale=0.5):
    return ControllerState(
        d=rng.uniform(-scale, scale, model.n),
        mu=rng.uniform(-scale, scale, model.n),
        phi=rng.uniform(-scale, scale, model.n),
        varphi_plus=rng.uniform(-scale, scale, model.m),
        varphi_minus=rng.uniform(-scale, scale, model.m),
    )


def test_outputs_project_and_measure(model):
    rng = np.random.default_rng(0)
    st = random_state(model, rng, scale=2.0)
    p_m = rng.uniform(-0.5, 0.5, model.n)
    out = outputs(model, st, p_m)
    box = model.load_box
    assert np.all(out.p_l >= box.lower) and np.all(out.p_l <= box.upper)
    assert np.all(out.eta_plus >= 0) and np.all(out.eta_minus >= 0)
    assert np.allclose(out.eta_plus, np.maximum(st.varphi_plus, 0))
    expected_z = out.p_l - p_m + model.laplacian @ st.phi
    assert np.allclose(out.z, expected_z)


def test_outputs_accept_external_mismatch(model):
    rng = np.random.default_rng(1)
    st = random_state(model, rng)
    p_m = np.zeros(model.n)
    mis = rng.uniform(-1, 1, model.n)
    out = outputs(model, st, p_m, mismatch=mis)
    assert np.allclose(out.z, mis + model.laplacian @ st.phi)


def test_init_controller_is_zero(model):
    st = init_controller(model)
    assert np.allclose(st.pack(), 0)


def _rhs_frozen(model, st, z, omega, rule="minnorm"):
    """Controller derivative with the measured signals (z, omega) held fixed."""
    out_free = outputs(model, st, np.zeros(model.n))
    out = ControllerOutputs(p_l=out_free.p_l, eta_plus=out_free.eta_plus,
                            eta_minus=out_free.eta_minus, z=z)
    g = subgradient_selection(model, out.p_l, rule)
    return controller_rhs(model, st, out, omega, g).pack()


def test_information_structure_is_local(model):
    """Holding the measured bus signals fixed, the derivative of any bus/line
    variable depends only on quantities at that bus, its graph neighbors, or
    incident lines."""
    rng = np.random.default_rng(3)
    n, m = model.n, model.m
    # keep away from projection kinks so finite differences are clean
    st = ControllerState(
        d=np.array([0.05, -0.07, 0.11]),
        mu=np.array([0.02, -0.04, 0.06]),
        phi=np.array([0.1, -0.05, 0.03]),
        varphi_plus=np.array([0.3, 0.25, 0.28]),
        varphi_minus=np.array([0.31, 0.26, 0.29]),
    )
    z = rng.uniform(-0.1, 0.1, n)
    omega = rng.uniform(-0.1, 0.1, n)
    base = st.pack()
    f0 = _rhs_frozen(model, st, z, omega)
    eps = 1e-6
    jac = np.zeros((base.size, base.size))
    for k in range(base.size):
        pert = base.copy()
        pert[k] += eps
        perturbed = ControllerState(*np.split(pert, [n, 2 * n, 3 * n, 3 * n + m]))
        jac[:, k] = (_rhs_frozen(model, perturbed, z, omega) - f0) / eps

    adjacency = (model.laplacian != 0)
    C = model.incidence
    sl_d = slice(0, n)
    sl_mu = slice(n, 2 * n)
    sl_phi = slice(2 * n, 3 * n)
    sl_vp = slice(3 * n, 3 * n + m)
    sl_vm = slice(3 * n + m, 3 * n + 2 * m)

    # d and mu rows touch only their own bus
    for rows in (sl_d, sl_mu):
        block = jac[rows, :]
        for j in range(n):
            own = {j}
            for k in range(n):
                if k not in own:
                    assert abs(block[j, sl_d][k]) < 1e-9
                    assert abs(block[j, sl_mu][k]) < 1e-9
                    assert abs(block[j, sl_phi][k]) < 1e-9

    # phi rows: mu coupling limited to graph neighbors, line coupling to incident lines
    for j in range(n):
        for k in range(n):
            if not adjacency[j, k]:
                assert abs(jac[sl_phi, sl_mu][j, k]) < 1e-9
        for e in range(m):
            if C[j, e] == 0:
                assert abs(jac[sl_phi, sl_vp][j, e]) < 1e-9
                assert abs(jac[sl_phi, sl_vm][j, e]) < 1e-9

    # filter rows: depend on their own line plus the endpoints' phi
    for e in range(m):
        for j in range(n):
            if C[j, e] == 0:
                assert abs(jac[sl_vp, sl_phi][e, j]) < 1e-9
                assert abs(jac[sl_vm, sl_phi][e, j]) < 1e-9
        for e2 in range(m):
            if e2 != e:
                assert abs(jac[sl_vp, sl_vp][e, e2]) < 1e-9
                assert abs(jac[sl_vm, sl_vm][e, e2]) < 1e-9


def _equilibrium_from_oracle(model, sol):
    g_lo = np.empty(model.n)
    g_hi = np.empty(model.n)
    for j, c in enumerate(model.costs):
        iv = c.clarke(float(sol.p_l_star[j]))
        g_lo[j], g_hi[j] = iv.lo, iv.hi
    g = np.clip(-sol.mu_star, g_lo, g_hi)
    d = sol.p_l_star - g - sol.mu_star
    edge = model.incidence.T @ sol.phi_star
    st = ControllerState(
        d=d,
        mu=sol.mu_star.copy(),
        phi=sol.phi_star.copy(),
        varphi_plus=sol.eta_plus_star + edge - model.angle_upper,
        varphi_minus=sol.eta_minus_star + model.angle_lower - edge,
    )
    return st, g


@pytest.mark.parametrize("case", ["smooth", "box", "congested"])
def test_oracle_optimum_is_controller_fixed_point(model, congested, case):
    if case == "smooth":
        net, p_m = model, np.array([0.3, 0.0, 0.0])
    elif case == "box":
        net, p_m = load_network(network_path("two_bus")), np.array([1.0, 0.0])
    else:
        net, p_m = congested, np.array([0.6, 0.0, 0.0])
    sol = solve_olc(net, p_m, tol=1e-9)
    st, g = _equilibrium_from_oracle(net, sol)
    out = outputs(net, st, p_m)
    assert np.allclose(out.p_l, sol.p_l_star, atol=1e-7)
    assert np.allclose(out.eta_plus, sol.eta_plus_star, atol=1e-7)
    assert np.allclose(out.z, 0, atol=1e-6)
    deriv = controller_rhs(net, st, out, np.zeros(net.n), g)
    assert np.max(np.abs(deriv.pack())) < 1e-5

    # matching plant equilibrium: edge angles from phi, zero frequency
    plant = PlantState(theta_e=net.incidence.T @ st.phi, omega_g=np.zeros(net.n_g))
    dtheta, domega, omega = plant_rhs(net, plant, p_m, out.p_l)
    assert np.max(np.abs(omega)) < 1e-6
    assert np.max(np.abs(dtheta)) < 1e-6
    assert np.max(np.abs(domega)) < 1e-5


def test_estimate_mismatch_identity(model):
    """On any consistent plant state the measurement-based mismatch equals
    p_l - p_m exactly (algebraic identity, no approximation)."""
    rng = np.random.default_rng(4)
    for _ in range(25):
        theta_e = rng.uniform(-0.3, 0.3, model.m)
        omega_g = rng.uniform(-0.2, 0.2, model.n_g)
        p_m = rng.uniform(-0.5, 0.5, model.n)
        p_l = rng.uniform(-0.5, 0.5, model.n)
        plant = PlantState(theta_e=theta_e, omega_g=omega_g)
        _, domega_g, omega = plant_rhs(model, plant, p_m, p_l)
        flows = model.susceptances * theta_e
        est = estimate_mismatch(model, omega, domega_g, flows)
        assert np.allclose(est, p_l - p_m, atol=1e-12)


def test_selection_rules_accepted(model):
    p_l = np.array([0.2, 0.0, -0.2])
    for rule in ("minnorm", "left", "right", "midpoint"):
        g = subgradient_selection(model, p_l, rule)
        assert g.shape == (3,)
    with pytest.raises(ValidationError):
        subgradient_selection(model, p_l, "steepest")
