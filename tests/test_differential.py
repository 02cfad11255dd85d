"""Differential gate: the packed closed-loop operator against the readable equations.

Every trajectory is integrated by `ClosedLoop.rhs`, a fused affine operator
over the packed state. The specification it must reproduce is the readable
per-module code: `dynamics.plant_rhs`, `controller.outputs` (fed by
`controller.estimate_mismatch` on the measurement path),
`controller.subgradient_selection` and `controller.controller_rhs`. This test
evaluates both at the same states, on every bundled network and three
degenerate ones (no line, no generator, no load bus: zero-width blocks of the
layout), under every selection rule, both mismatch sources and a controller
time scale != 1.
States are pinned exactly on cost breakpoints, load-box bounds and the
zero boundary of the filter projections, where the projected and selected
signals switch.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfc.controller import ControllerState
from olfc.costs import SELECTION_RULES
from olfc.dynamics import PlantState
from olfc.simulator import ClosedLoop, ControllerConfig

from conftest import DEGENERATE_NETWORKS, NETWORKS, bundled_network, degenerate_network, on_kinks, readable_rhs

pytestmark = pytest.mark.hot

RTOL = 1e-12


@functools.cache
def _loop(name: str, config: ControllerConfig) -> ClosedLoop:
    return ClosedLoop(degenerate_network(name) if name in DEGENERATE_NETWORKS else bundled_network(name), config)


def _values(rng: np.random.Generator, share: float, points: list[list[float]]) -> np.ndarray:
    """Free floats, with about `share` of the components on a pinned point.

    points[i] lists the switching points of component i.
    """
    out = rng.uniform(-1.5, 1.5, len(points))
    for i, pts in enumerate(points):
        if rng.random() < share:
            out[i] = pts[rng.integers(len(pts))]
    return out


def assert_matches(loop: ClosedLoop, plant: PlantState, ctrl: ControllerState, p_m: np.ndarray) -> None:
    expected = readable_rhs(loop.model, plant, ctrl, p_m, loop.config)[0]
    packed = loop.rhs(loop.pack(plant, ctrl), p_m)
    scale = max(1.0, float(np.max(np.abs(expected))))
    err = float(np.max(np.abs(packed - expected)))
    assert err <= RTOL * scale, f"packed RHS deviates by {err:.3e} (scale {scale:.3e})"


@pytest.mark.parametrize("epsilon", [1.0, 2.5])
@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", NETWORKS + DEGENERATE_NETWORKS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 0.3, 1.0]))
def test_packed_rhs_matches_readable_equations(name, selection, mismatch, epsilon, seed, share):
    loop = _loop(name, ControllerConfig(selection=selection, mismatch=mismatch, epsilon=epsilon))
    model = loop.model
    n, m, g = model.n, model.m, model.n_g
    box = model.load_box
    rng = np.random.default_rng(seed)
    zero = [[0.0]] * n
    plant = PlantState(
        theta_e=_values(rng, share, [[0.0]] * m),
        omega_g=_values(rng, share, [[0.0]] * g),
    )
    ctrl = ControllerState(
        d=_values(rng, share, [[*cost.breakpoints, box.lower[j], box.upper[j]] for j, cost in enumerate(model.costs)]),
        mu=_values(rng, share, zero),
        phi=_values(rng, share, zero),
        varphi_plus=_values(rng, share, [[0.0, -0.0]] * m),
        varphi_minus=_values(rng, share, [[0.0, -0.0]] * m),
    )
    assert_matches(loop, plant, ctrl, _values(rng, share, zero))


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", NETWORKS + DEGENERATE_NETWORKS)
def test_packed_rhs_matches_on_every_switching_point(name, selection, mismatch):
    """Every bus at once on a cost kink (or a box bound), every filter at 0."""
    loop = _loop(name, ControllerConfig(selection=selection, mismatch=mismatch, epsilon=0.4))
    model = loop.model
    box = model.load_box
    rng = np.random.default_rng(5)
    d = np.empty(model.n)
    on_kink = 0
    for j, cost in enumerate(model.costs):
        inside = [x for x in cost.breakpoints if box.lower[j] <= x <= box.upper[j]]
        on_kink += bool(inside)
        d[j] = inside[0] if inside else (box.lower[j] if j % 2 else box.upper[j])
    plant = PlantState(theta_e=rng.uniform(-0.3, 0.3, model.m), omega_g=rng.uniform(-0.2, 0.2, model.n_g))
    ctrl = ControllerState(
        d=d,
        mu=rng.uniform(-0.5, 0.5, model.n),
        phi=rng.uniform(-0.5, 0.5, model.n),
        varphi_plus=np.zeros(model.m),
        varphi_minus=np.zeros(model.m),
    )
    if on_kink:
        assert np.count_nonzero(on_kinks(model.costs, np.clip(d, box.lower, box.upper))) == on_kink
    assert_matches(loop, plant, ctrl, rng.uniform(-0.5, 0.5, model.n))
