"""`ClosedLoop.rk4` against the textbook RK4 formula built from `rhs` calls.

`rk4` evaluates its stages in place in the operand buffer; this checks that
the result is the textbook y + (dt / 6) * (k1 + 2 * (k2 + k3) + k4) bit for
bit, that neither y nor a given k1 is written to, and that the result owns
its memory. The bundled scenarios never put a bus on a cost kink, so the
state with every bus on a kink is the only coverage of the kink branch of
`CostBatch.select` inside a step.
"""

import functools

import numpy as np
import pytest

from olfc.costs import SELECTION_RULES
from olfc.network import load_network
from olfc.simulator import ClosedLoop, ControllerConfig

from conftest import network_path

NETWORKS = ("two_bus", "three_bus", "three_bus_congested", "nine_bus", "sixty_eight_bus")
DT = 1e-3


@functools.cache
def _model(name: str):
    return load_network(network_path(name))


def textbook_rk4(loop: ClosedLoop, y: np.ndarray, p_m: np.ndarray, dt: float, aff: np.ndarray) -> np.ndarray:
    k1 = loop.rhs(y, p_m, aff)
    k2 = loop.rhs(y + (0.5 * dt) * k1, p_m, aff)
    k3 = loop.rhs(y + (0.5 * dt) * k2, p_m, aff)
    k4 = loop.rhs(y + dt * k3, p_m, aff)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def random_state(loop: ClosedLoop, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-0.5, 0.5, loop.dim)


def kink_state(loop: ClosedLoop, rng: np.random.Generator) -> np.ndarray:
    """Every bus on a cost kink inside its box (else on a box bound), every filter at 0."""
    model = loop.model
    box = model.load_box
    y = random_state(loop, rng)
    d = y[loop.sl_d]
    for j, cost in enumerate(model.costs):
        inside = [x for x in cost.breakpoints if box.lower[j] <= x <= box.upper[j]]
        d[j] = inside[0] if inside else (box.lower[j] if j % 2 else box.upper[j])
    y[loop.sl_vp] = 0.0
    y[loop.sl_vm] = 0.0
    return y


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("state", [random_state, kink_state])
@pytest.mark.parametrize("epsilon", [1.0, 2.5])
@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", NETWORKS)
def test_rk4_is_textbook_rk4_bit_for_bit(name, selection, mismatch, epsilon, state):
    loop = ClosedLoop(_model(name), ControllerConfig(selection=selection, mismatch=mismatch, epsilon=epsilon))
    rng = np.random.default_rng(11)
    y = state(loop, rng)
    p_m = rng.uniform(-0.5, 0.5, loop.n)
    aff = loop.feedthrough(p_m)
    expected = textbook_rk4(loop, y, p_m, DT, aff)

    y_before = y.copy()
    got = loop.rk4(y, p_m, DT, aff)
    assert same_bits(got, expected)
    assert same_bits(y, y_before)
    assert not np.shares_memory(got, loop._u)

    k1 = loop.rhs(y, p_m, aff)
    k1_before = k1.copy()
    again = loop.rk4(y, p_m, DT, aff, k1=k1)
    assert same_bits(again, expected)
    assert same_bits(k1, k1_before) and same_bits(y, y_before)
    assert not np.shares_memory(again, loop._u) and not np.shares_memory(again, got)


@pytest.mark.parametrize("name", NETWORKS)
def test_kink_state_puts_buses_on_kinks(name):
    """Every bus with a kink inside its box sits on it, so the kink branch of select runs."""
    loop = ClosedLoop(_model(name))
    box = loop.model.load_box
    with_kink = sum(
        any(box.lower[j] <= x <= box.upper[j] for x in cost.breakpoints) for j, cost in enumerate(loop.model.costs)
    )
    p_l = np.clip(kink_state(loop, np.random.default_rng(11))[loop.sl_d], box.lower, box.upper)
    lo, hi = loop.batch.bounds(p_l)
    assert np.count_nonzero(lo < hi) == with_kink
    assert with_kink > 0 or name == "two_bus"
