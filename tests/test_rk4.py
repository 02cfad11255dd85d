"""`ClosedLoop.rk4` against the textbook RK4 formula, stage by stage and over a run.

`rk4` evaluates its stages in place in the operand buffer; this checks that
the result is the textbook y + (dt / 6) * (k1 + 2 * (k2 + k3) + k4) of four
`rhs` calls bit for bit, that neither y nor a given k1 is written to, and
that the result owns its memory. The state with every bus on a kink covers
the kink branch of `CostBatch.select` inside a step.

The stages keep each bus's cost piece from the stage before (see
`tests/test_piece_cache.py`), so `rhs` itself is not the specification of a
whole run: the first 5 s of `three_bus_congested`, logged at every step,
must equal textbook RK4 over `conftest.reference_derivative`, which looks
every piece up. Bus 0 crosses its kink at 0.2 in that window, so stages
there change piece.
"""

import dataclasses
import functools

import numpy as np
import pytest

from olfc.costs import SELECTION_RULES
from olfc.simulator import ClosedLoop, ControllerConfig, load_scenario, run

from conftest import NETWORKS, bundled_network, reference_derivative, same_bits, scenario_path, textbook_rk4

DT = 1e-3


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


@pytest.mark.parametrize("state", [random_state, kink_state])
@pytest.mark.parametrize("epsilon", [1.0, 2.5])
@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", NETWORKS)
def test_rk4_is_textbook_rk4_bit_for_bit(name, selection, mismatch, epsilon, state):
    loop = ClosedLoop(bundled_network(name), ControllerConfig(selection=selection, mismatch=mismatch, epsilon=epsilon))
    rng = np.random.default_rng(11)
    y = state(loop, rng)
    p_m = rng.uniform(-0.5, 0.5, loop.n)
    aff = loop.feedthrough(p_m)
    expected = textbook_rk4(lambda x: loop.rhs(x, p_m, aff), y, DT)

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
    loop = ClosedLoop(bundled_network(name))
    box = loop.model.load_box
    with_kink = sum(
        any(box.lower[j] <= x <= box.upper[j] for x in cost.breakpoints) for j, cost in enumerate(loop.model.costs)
    )
    p_l = np.clip(kink_state(loop, np.random.default_rng(11))[loop.sl_d], box.lower, box.upper)
    lo, hi = loop.batch.bounds(p_l)
    assert np.count_nonzero(lo < hi) == with_kink
    assert with_kink > 0 or name == "two_bus"


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
def test_run_is_textbook_rk4_over_the_exact_selection(selection, mismatch):
    scenario = load_scenario(scenario_path("three_bus_congested"))
    config = dataclasses.replace(scenario.config, selection=selection, mismatch=mismatch)
    scenario = dataclasses.replace(scenario, t_end=5.0, log_decimation=1, config=config)
    model = scenario.load_model()
    log = run(scenario, model)

    spec = ClosedLoop(model, config)
    dt = scenario.dt
    y = scenario.start_state(model)
    p_m = np.zeros(model.n)
    for k in range(log.times.size):
        events = [ev for ev in scenario.events if round(ev.time / dt) == k]
        for ev in events:
            p_m[ev.bus] += ev.delta_p_m
        if k == 0 or events:
            aff = spec.feedthrough(p_m)
        assert same_bits(log.states[k], y), f"step {k}"
        y = textbook_rk4(functools.partial(reference_derivative, spec, aff=aff), y, dt)
    assert log.times.size == 5001
    p_l0 = log.p_l[:, 0]
    assert np.any(p_l0 < 0.2) and np.any(p_l0 > 0.2), "bus 0 never crosses its kink"
