"""Plant model: swing dynamics on generators, algebraic balance on loads."""

import numpy as np
import pytest

from olfc.dynamics import PlantState, assemble_frequencies, balance_residual, load_bus_frequencies, plant_rhs
from olfc.errors import ValidationError
from olfc.network import load_network

from conftest import network_path


@pytest.fixture(scope="module")
def model():
    return load_network(network_path("three_bus"))


def test_zero_state_at_zero_injection_is_at_rest(model):
    state = PlantState.zero(model)
    p_m, p_l = np.zeros(3), np.zeros(3)
    dtheta, domega, omega = plant_rhs(model, state, p_m, p_l)
    assert np.allclose(dtheta, 0) and np.allclose(domega, 0) and np.allclose(omega, 0)
    assert np.allclose(balance_residual(model, state, p_m, p_l), 0)


def test_load_bus_frequency_solves_algebraic_balance(model):
    # load bus 2: D * omega = p_m - p_l - outgoing line power
    state = PlantState.zero(model)
    p_m, p_l = np.array([0.0, 0.0, 0.4]), np.zeros(3)
    omega_l = load_bus_frequencies(model, state, p_m, p_l)
    D2 = model.damping[2]
    assert omega_l.shape == (1,)
    assert omega_l[0] == pytest.approx(0.4 / D2)


def test_assemble_frequencies_places_buses(model):
    state = PlantState(theta_e=np.zeros(3), omega_g=np.array([0.3, -0.2]))
    p_m, p_l = np.zeros(3), np.zeros(3)
    omega = assemble_frequencies(model, state, p_m, p_l)
    assert omega[0] == pytest.approx(0.3)
    assert omega[1] == pytest.approx(-0.2)
    assert omega[2] == pytest.approx(0.0)


def test_generator_acceleration_uses_inertia(model):
    state = PlantState.zero(model)
    p_m, p_l = np.array([0.6, 0.0, 0.0]), np.zeros(3)
    _, domega, _ = plant_rhs(model, state, p_m, p_l)
    assert domega[0] == pytest.approx(0.6 / model.inertia_generators[0])
    assert domega[1] == pytest.approx(0.0)


def test_edge_angles_drive_line_power(model):
    # theta_e on edge (0,1) moves power from bus 0 to bus 1
    theta_e = np.array([0.1, 0.0, 0.0])
    state = PlantState(theta_e=theta_e, omega_g=np.zeros(2))
    p_m, p_l = np.zeros(3), np.zeros(3)
    _, domega, _ = plant_rhs(model, state, p_m, p_l)
    B0 = model.susceptances[0]
    assert domega[0] == pytest.approx(-B0 * 0.1 / model.inertia_generators[0])
    assert domega[1] == pytest.approx(+B0 * 0.1 / model.inertia_generators[1])


def test_edge_angle_rate_is_frequency_difference(model):
    state = PlantState(theta_e=np.zeros(3), omega_g=np.array([0.5, 0.1]))
    p_m, p_l = np.zeros(3), np.zeros(3)
    dtheta, _, omega = plant_rhs(model, state, p_m, p_l)
    C = model.incidence
    assert np.allclose(dtheta, C.T @ omega)


def test_state_validation(model):
    with pytest.raises(ValidationError):
        PlantState(theta_e=np.zeros(2), omega_g=np.zeros(2)).validate(model)
    with pytest.raises(ValidationError):
        PlantState(theta_e=np.zeros(3), omega_g=np.zeros(3)).validate(model)
    PlantState.zero(model).validate(model)
