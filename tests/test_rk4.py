"""`ClosedLoop.rk4` against the textbook RK4 formula, stage by stage and over a run.

`rk4` evaluates its stages in place in the operand buffer; this checks that
the result is the textbook y + (dt / 6) * (k1 + 2 * (k2 + k3) + k4) of four
`rhs` calls bit for bit, that neither y nor a given k1 is written to, and
that the result owns its memory. The state with every bus on a kink covers
the kink branch of `CostBatch.select` inside a step.

The stages keep each bus's cost piece from the stage before (see
`tests/test_piece_cache.py`), so `rhs` itself is not the specification of a
whole run: that is textbook RK4 over `conftest.reference_derivative`, which
looks every piece up (`conftest.textbook_run`). Where K is dense, `run` takes
most steps in affine chunks, so the first 5 s of `three_bus_congested`,
logged at every step, must agree with it to 1e-12 relative, through chunk
steps and plain steps both. Bus 0 crosses its kink at 0.2 in that window, so
stages there change piece. A 68-bus run (CSR K) with an event takes every
step with `rk4` and must equal textbook RK4 bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from scipy.sparse import issparse

from olfc.costs import SELECTION_RULES
from olfc.simulator import ClosedLoop, ControllerConfig, load_scenario, run

from conftest import NETWORKS, bundled_network, rows_within, same_bits, scenario_path, textbook_rk4, textbook_run

pytestmark = pytest.mark.hot

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
def test_run_is_textbook_rk4_over_the_exact_selection(chunks, selection, mismatch):
    scenario = load_scenario(scenario_path("three_bus_congested"))
    config = dataclasses.replace(scenario.config, selection=selection, mismatch=mismatch)
    scenario = dataclasses.replace(scenario, t_end=5.0, log_decimation=1, config=config)
    model = scenario.load_model()
    log = run(scenario, model)
    states, _, _ = textbook_run(scenario, model)
    assert log.times.size == 5001
    assert rows_within(log.states, states)
    chunk_steps = sum(c.taken for c in chunks)
    assert 0 < chunk_steps < 5000, f"{chunk_steps} of 5000 steps in chunks: the window must take both kinds"
    p_l0 = log.p_l[:, 0]
    assert np.any(p_l0 < 0.2) and np.any(p_l0 > 0.2), "bus 0 never crosses its kink"


def test_csr_run_is_textbook_rk4_bit_for_bit(chunks):
    """The 68-bus K is CSR: `run` takes every step with `rk4`, across an event, and logs textbook RK4 bits."""
    scenario = load_scenario(scenario_path("sixty_eight_bus_steps"))
    first, second = scenario.events[:2]
    scenario = dataclasses.replace(
        scenario, t_end=0.05, log_decimation=1, events=[first, dataclasses.replace(second, time=0.02)]
    )
    model = scenario.load_model()
    assert issparse(ClosedLoop(model, scenario.config).K)
    log = run(scenario, model)
    states, _, _ = textbook_run(scenario, model)
    assert log.times.size == 26
    assert same_bits(log.states, states)
    assert not chunks
