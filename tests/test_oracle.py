"""Steady-state dispatch solver against hand-computed and brute-force answers."""

import dataclasses

import numpy as np
import pytest

from olfc.costs import PiecewiseCost
from olfc.errors import InfeasibleProblemError, NumericalError, ValidationError
from olfc.network import NetworkModel, load_network
from olfc.oracle import _assert_solution_invariants, check_feasibility, lattice_search, solve_olc

from conftest import network_path


@pytest.fixture(scope="module")
def two_bus():
    return load_network(network_path("two_bus"))


@pytest.fixture(scope="module")
def three_bus():
    return load_network(network_path("three_bus"))


@pytest.fixture(scope="module")
def congested():
    return load_network(network_path("three_bus_congested"))


def test_two_bus_box_active(two_bus):
    """Quadratic twins, one box capped at 0.3: split is (0.3, 0.7)."""
    sol = solve_olc(two_bus, p_m=np.array([1.0, 0.0]))
    assert np.allclose(sol.p_l_star, [0.3, 0.7], atol=1e-6)
    assert abs(sol.objective - 0.29) < 1e-6
    # free bus prices the marginal unit
    assert np.allclose(sol.mu_star, [-0.7, -0.7], atol=1e-5)


def test_three_bus_smooth_region(three_bus):
    """Small step keeps every bus inside the flat-curvature middle piece."""
    sol = solve_olc(three_bus, p_m=np.array([0.3, 0.0, 0.0]))
    assert np.allclose(sol.p_l_star, 0.1, atol=1e-6)
    assert abs(sol.objective - 0.015) < 1e-6
    assert np.allclose(sol.mu_star, -0.1, atol=1e-5)


def test_three_bus_kink_optimum(three_bus):
    """Step of 0.6 parks every bus exactly on the cost breakpoint."""
    sol = solve_olc(three_bus, p_m=np.array([0.6, 0.0, 0.0]))
    assert np.allclose(sol.p_l_star, 0.2, atol=1e-6)
    assert abs(sol.objective - 0.06) < 1e-6
    # price anywhere in the subdifferential ribbon, equal across buses
    assert np.ptp(sol.mu_star) < 1e-5
    assert -0.4 - 1e-6 <= sol.mu_star[0] <= -0.2 + 1e-6


def test_congested_line_splits_prices(congested):
    sol = solve_olc(congested, p_m=np.array([0.6, 0.0, 0.0]))
    assert np.allclose(sol.p_l_star, [0.35, 0.125, 0.125], atol=1e-6)
    assert abs(sol.objective - 0.118125) < 1e-6
    assert np.allclose(sol.mu_star, [-0.7, -0.125, -0.125], atol=1e-5)
    assert sol.eta_plus_star[0] > 0.5
    assert abs(sol.eta_plus_star[1]) < 1e-5
    # saturated line sits on its angle limit
    edge = congested.incidence.T @ sol.phi_star
    assert abs(edge[0] - 0.125) < 1e-6


def test_dual_certificate(three_bus, congested):
    for net, p_m in ((three_bus, np.array([0.3, 0.0, 0.0])), (congested, np.array([0.6, 0.0, 0.0]))):
        sol = solve_olc(net, p_m=p_m, tol=1e-8)
        # weak duality up to round-off in evaluating the two objectives
        assert sol.dual_objective <= sol.objective + 1e-9
        assert sol.objective - sol.dual_objective <= 2e-8


def test_balance_residual_tiny(three_bus):
    sol = solve_olc(three_bus, p_m=np.array([0.45, -0.1, 0.05]))
    assert abs(sol.balance_residual) < 1e-9
    assert abs(sol.p_l_star.sum() - 0.4) < 1e-9


def test_single_bus_degenerate():
    from olfc.network import parse_network

    spec = {
        "buses": [
            {"id": 0, "kind": "generator", "M": 0.2, "D": 1.0,
             "p_l_min": -5.0, "p_l_max": 5.0,
             "cost": [{"x_min": None, "x_max": None, "a": 0.5, "b": 0.0, "c": 0.0}]},
        ],
        "lines": [],
    }
    model = parse_network(spec)
    sol = solve_olc(model, p_m=np.array([1.0]))
    assert abs(sol.p_l_star[0] - 1.0) < 1e-8
    assert abs(sol.objective - 0.5) < 1e-8
    assert abs(sol.mu_star[0] + 1.0) < 1e-6


def test_symmetric_pair_splits_evenly(two_bus):
    # widen the binding box by overriding demand so neither bound is active
    sol = solve_olc(two_bus, p_m=np.array([0.2, 0.2]))
    assert np.allclose(sol.p_l_star, [0.2, 0.2], atol=1e-6)
    assert abs(sol.objective - 2 * 0.5 * 0.04) < 1e-8


def test_lattice_matches_solver(two_bus, three_bus, congested):
    cases = [
        (two_bus, np.array([1.0, 0.0])),
        (three_bus, np.array([0.3, 0.0, 0.0])),
        (three_bus, np.array([0.6, 0.0, 0.0])),
        (congested, np.array([0.6, 0.0, 0.0])),
    ]
    for net, p_m in cases:
        sol = solve_olc(net, p_m=p_m)
        p_brute, val_brute = lattice_search(net, p_m)
        assert np.max(np.abs(sol.p_l_star - p_brute)) < 1e-3
        assert sol.objective <= val_brute + 1e-9


def test_lattice_guards():
    net = load_network(network_path("nine_bus"))
    with pytest.raises(ValidationError):
        lattice_search(net, np.zeros(net.n))


def test_infeasible_total_raises(two_bus):
    # aggregate box is [-2.0, 1.3]; demand beyond it cannot balance
    with pytest.raises(InfeasibleProblemError):
        solve_olc(two_bus, p_m=np.array([3.0, 0.0]))
    with pytest.raises(InfeasibleProblemError):
        check_feasibility(two_bus, np.array([3.0, 0.0]))


def test_infeasible_line_limit_raises(congested):
    # aggregate demand fits the boxes, but bus 0 can import at most 0.25
    # across its single tight line, so local balance is impossible
    p_m = np.array([2.0, 0.0, 0.0])
    with pytest.raises(InfeasibleProblemError):
        solve_olc(congested, p_m=p_m)


@pytest.mark.parametrize(
    "p_m, tol, match",
    [
        ([float("nan"), 0.0, 0.0], 1e-6, "p_m must be finite"),
        ([float("inf"), 0.0, 0.0], 1e-6, "p_m must be finite"),
        ([0.3, 0.0, 0.0], float("nan"), "tol must be finite and positive"),
        ([0.3, 0.0, 0.0], -1.0, "tol must be finite and positive"),
    ],
)
def test_non_finite_input_is_rejected_before_solving(three_bus, p_m, tol, match):
    with pytest.raises(ValidationError, match=match):
        solve_olc(three_bus, np.array(p_m), tol=tol)


@pytest.mark.parametrize("name", ["p_l_star", "phi_star", "eta_plus_star", "balance_residual"])
def test_nan_solution_fails_the_invariants(three_bus, name):
    """A NaN anywhere the invariants look must fail them, not slip through a `>` comparison."""
    sol = solve_olc(three_bus, np.array([0.3, 0.0, 0.0]))
    value = getattr(sol, name)
    setattr(sol, name, np.full_like(value, np.nan) if isinstance(value, np.ndarray) else float("nan"))
    with pytest.raises(NumericalError):
        _assert_solution_invariants(three_bus, sol, 1e-6)


def test_custom_costs_override(three_bus):
    """The oracle reads each bus's cost off the network it is given."""
    costs = [
        PiecewiseCost.from_pieces(
            [{"x_min": None, "x_max": None, "a": a, "b": 0.0, "c": 0.0}]
        )
        for a in (0.5, 1.0, 1.0)
    ]
    buses = [dataclasses.replace(bus, cost=cost) for bus, cost in zip(three_bus.buses, costs)]
    sol = solve_olc(NetworkModel(buses, three_bus.lines), p_m=np.array([0.4, 0.0, 0.0]))
    # weights 1/a: bus 0 takes half, others a quarter each
    assert np.allclose(sol.p_l_star, [0.2, 0.1, 0.1], atol=1e-6)


def test_solution_is_kkt_point(three_bus):
    from olfc.analysis import kkt_residuals

    p_m = np.array([0.6, 0.0, 0.0])
    sol = solve_olc(three_bus, p_m=p_m, tol=1e-8)
    report = kkt_residuals(three_bus, p_m, sol)
    assert report.max_residual < 1e-6
