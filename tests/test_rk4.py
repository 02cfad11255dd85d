"""`ClosedLoop.rhs` and `ClosedLoop.rk4` against the exact selection and the textbook RK4 formula, and `run` against its loop.

`rhs` is K @ u + aff over the operand u built from the state with
`CostBatch.select` (`conftest.reference_derivative`), and `rk4` the textbook
y + (dt / 6) * (k1 + 2 * (k2 + k3) + k4) of four `rhs` calls. This checks
both bit for bit; that `rk4` keeps the textbook increment
(dt / 6) * (k1 + 2 * (k2 + k3) + k4) bit for bit as `increment` (`settle`'s
rest test reads it there), that y is not written to, and that the result
shares no memory with the increment. The state with every bus on a kink
covers the kink branch of `CostBatch.select` inside a step.

`rhs` and `rk4` are also checked over sequences of states that stay in a
cost piece, sit on kinks and box bounds, step to either side of a kink, and
change piece on every call: what a loop computed before must never show in
what it computes next.

The specification of a whole run is textbook RK4 over
`conftest.reference_derivative` (`conftest.textbook_run`) and, while a bus
slides on a cost kink, RK4 of Filippov's sliding field
(`conftest.reference_run`). Where K is dense, `run` takes most steps in
affine chunks, so the first 5 s of `three_bus_congested`, logged at every
step, must agree with that reference to 1e-12 relative, through chunk steps,
sliding chunk steps and plain steps. Bus 0 reaches its kink at 0.2 in that
window and slides on it, so stages there change piece. A 68-bus run (CSR K)
takes lane chunks on both sides of an event, and must agree with that
reference to 1e-12 relative too, also where its segments are too short to
repay P and each chunk is one lane.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest
from scipy.sparse import issparse

from olfc import simulator
from olfc.costs import SELECTION_RULES
from olfc.network import parse_network
from olfc.simulator import ClosedLoop, ControllerConfig, Event, load_scenario, run

from conftest import (
    NETWORKS,
    bundled_network,
    network_path,
    on_kinks,
    reference_derivative,
    reference_run,
    rows_within,
    same_bits,
    scenario_path,
    textbook_increment,
    textbook_rk4,
)

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


def kinks(loop: ClosedLoop) -> list[tuple[int, float]]:
    """(bus, breakpoint) for the first breakpoint inside each bus's load box."""
    box = loop.model.load_box
    found = []
    for j, cost in enumerate(loop.model.costs):
        inside = [x for x in cost.breakpoints if box.lower[j] <= x <= box.upper[j]]
        if inside:
            found.append((j, float(inside[0])))
    return found


def state_sequence(loop: ClosedLoop, rng: np.random.Generator) -> dict[str, list[np.ndarray]]:
    """Blocks of states, in the order a loop should see them."""
    box = loop.model.load_box
    pinned = [
        [x + s for x in (*cost.breakpoints, box.lower[j], box.upper[j]) for s in (0.0, -1e-12, 1e-12)]
        for j, cost in enumerate(loop.model.costs)
    ]

    def state(d: np.ndarray | None = None) -> np.ndarray:
        y = rng.uniform(-0.5, 0.5, loop.dim)
        # Filters on both sides of the zero bound and on it, as 0.0 and -0.0.
        for sl in (loop.sl_vp, loop.sl_vm):
            y[sl] = rng.choice([-0.1, -0.0, 0.0, 0.1], sl.stop - sl.start)
        if d is not None:
            y[loop.sl_d] = d
        return y

    def with_kinks(move) -> np.ndarray:
        y = state()
        for j, x in kinks(loop):
            y[loop.sl_d][j] = move(x)
        return y

    def below(x: float) -> float:
        return np.nextafter(x, -np.inf)

    def above(x: float) -> float:
        return np.nextafter(x, np.inf)

    def pin(share: float) -> np.ndarray:
        d = rng.uniform(-1.8, 1.8, loop.n)
        for j, pts in enumerate(pinned):
            if rng.random() < share:
                d[j] = pts[rng.integers(len(pts))]
        return state(d)

    start = state()
    return {
        "free": [state(rng.uniform(-1.8, 1.8, loop.n)) for _ in range(4)],
        # Small moves keep every bus in its piece.
        "stay": [start + rng.uniform(-1e-6, 1e-6, loop.dim) for _ in range(6)],
        "pinned": [pin(share) for share in (0.3, 0.6, 1.0, 1.0, 0.3, 1.0)],
        "on_kinks": [with_kinks(float), with_kinks(float)],
        # Every kinked bus on the float below, then above its kink: a new piece on every call.
        "sides": [with_kinks(move) for move in (below, above) * 3],
        # Far into the pieces on either side of each kink, alternating.
        "alternating": [with_kinks(lambda x, s=s: x + s) for s in (-0.3, 0.3) * 3],
    }


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", NETWORKS)
def test_rhs_matches_the_exact_selection_over_a_sequence(name, selection, mismatch):
    loop = ClosedLoop(bundled_network(name), ControllerConfig(selection=selection, mismatch=mismatch, epsilon=1.5))
    rng = np.random.default_rng(2024)
    p_m = rng.uniform(-0.5, 0.5, loop.n)
    aff = loop.feedthrough(p_m)
    for block, states in state_sequence(loop, rng).items():
        for i, y in enumerate(states):
            got = loop.rhs(y, p_m, aff)
            assert same_bits(got, reference_derivative(loop, y, aff)), (block, i)
            # Again at the same state, with the feedthrough made from p_m.
            assert same_bits(loop.rhs(y, p_m), got), (block, i)


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", NETWORKS)
def test_rk4_matches_textbook_rk4_over_the_exact_selection(name, selection, mismatch):
    """Steps from states on and beside kinks, whose stages cross them."""
    loop = ClosedLoop(bundled_network(name), ControllerConfig(selection=selection, mismatch=mismatch))
    rng = np.random.default_rng(7)
    p_m = rng.uniform(-0.5, 0.5, loop.n)
    aff = loop.feedthrough(p_m)
    for block, states in state_sequence(loop, rng).items():
        for i, y in enumerate(states):
            expected = textbook_rk4(functools.partial(reference_derivative, loop, aff=aff), y, 0.05)
            assert same_bits(loop.rk4(y, p_m, 0.05, aff), expected), (block, i)


@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", NETWORKS)
def test_a_warmed_loop_gives_the_bits_of_a_fresh_one(name, selection):
    config = ControllerConfig(selection=selection)
    warm = ClosedLoop(bundled_network(name), config)
    rng = np.random.default_rng(99)
    p_m = rng.uniform(-0.5, 0.5, warm.n)
    aff = warm.feedthrough(p_m)
    for states in state_sequence(warm, rng).values():
        for y in states:
            warm.rk4(y, p_m, DT, aff)
    for states in state_sequence(warm, np.random.default_rng(100)).values():
        for y in states:
            fresh = ClosedLoop(bundled_network(name), config)
            assert same_bits(warm.rhs(y, p_m, aff), fresh.rhs(y, p_m, aff))
            fresh = ClosedLoop(bundled_network(name), config)
            assert same_bits(warm.rk4(y, p_m, DT, aff), fresh.rk4(y, p_m, DT, aff))


def test_the_sequence_puts_buses_on_and_beside_kinks():
    """The blocks do what their names say on a network with kinks."""
    loop = ClosedLoop(bundled_network("three_bus"))
    box = loop.model.load_box
    blocks = state_sequence(loop, np.random.default_rng(1))
    p_l = {name: [np.clip(y[loop.sl_d], box.lower, box.upper) for y in ys] for name, ys in blocks.items()}
    assert all(np.all(np.abs(x) == 0.2) for x in p_l["on_kinks"])
    assert np.all(on_kinks(loop.model.costs, p_l["on_kinks"][0]))
    sides = np.array(p_l["sides"])
    assert np.all((np.abs(sides[0::2]) < 0.2) != (np.abs(sides[1::2]) < 0.2))
    assert np.all(sides != 0.2) and np.all(sides != -0.2)
    assert any(np.any(np.abs(x) == 1.0) for x in p_l["pinned"]), "no bus on a box bound"


def two_bus_loop(selection: str, **cost) -> ClosedLoop:
    """The two-bus network with `cost` fields set on both buses' one piece, and p_l_max 2."""
    data = json.loads(network_path("two_bus").read_text())
    for bus in data["buses"]:
        bus["cost"][0].update(cost)
        bus["p_l_max"] = 2.0
    return ClosedLoop(parse_network(data), ControllerConfig(selection=selection))


# Each case: cost fields, d, and whether `select` gives a negative result.
EDGE_CASES = {
    # The derivative is -0.0, which `minnorm` turns into +0.0.
    "negative_zero": ({"b": -0.0}, -0.0, lambda rule: rule != "minnorm"),
    # g = 1.2e308: `midpoint`'s 0.5 * (g + g) is inf, not g.
    "g_plus_g_overflows": ({"a": 4e307}, 1.5, lambda rule: False),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("case", EDGE_CASES)
def test_rhs_gives_select_bits_at_the_edges(case, selection):
    """After a call at another state, `rhs` is the reference derivative over `select`'s bits, sign and overflow included."""
    cost, d, negative = EDGE_CASES[case]
    loop = two_bus_loop(selection, **cost)
    p_m = np.zeros(loop.n)
    aff = loop.feedthrough(p_m)
    loop.rhs(np.full(loop.dim, 0.1), p_m, aff)
    y = np.zeros(loop.dim)
    y[loop.sl_d] = d
    got = loop.rhs(y, p_m, aff)
    g = loop.batch.select(y[loop.sl_d], selection)
    assert np.all(np.signbit(g)) == negative(selection)
    assert np.all(np.isinf(g)) == (case == "g_plus_g_overflows" and selection == "midpoint")
    assert same_bits(got, reference_derivative(loop, y, aff))


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
    increment = textbook_increment(lambda x: loop.rhs(x, p_m, aff), y, DT)

    y_before = y.copy()
    got = loop.rk4(y, p_m, DT, aff)
    assert same_bits(got, expected)
    assert same_bits(loop.increment, increment)
    assert same_bits(y, y_before)
    assert not np.shares_memory(got, loop.increment)


@pytest.mark.parametrize("name", NETWORKS)
def test_kink_state_puts_buses_on_kinks(name):
    """Every bus with a kink inside its box sits on it, so the kink branch of select runs."""
    loop = ClosedLoop(bundled_network(name))
    box = loop.model.load_box
    with_kink = sum(
        any(box.lower[j] <= x <= box.upper[j] for x in cost.breakpoints) for j, cost in enumerate(loop.model.costs)
    )
    p_l = np.clip(kink_state(loop, np.random.default_rng(11))[loop.sl_d], box.lower, box.upper)
    assert np.count_nonzero(on_kinks(loop.model.costs, p_l)) == with_kink
    assert with_kink > 0 or name == "two_bus"


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
def test_run_is_textbook_rk4_over_the_exact_selection(chunks, snaps, selection, mismatch):
    """Textbook RK4 over the exact selection off the kinks, and Filippov's sliding step while bus 0 slides on one."""
    scenario = load_scenario(scenario_path("three_bus_congested"))
    config = dataclasses.replace(scenario.config, selection=selection, mismatch=mismatch)
    scenario = dataclasses.replace(scenario, t_end=5.0, log_decimation=1, config=config)
    model = scenario.load_model()
    log = run(scenario, model)
    states, _, _ = reference_run(scenario, model, snaps)
    assert log.times.size == 5001
    assert rows_within(log.states, states)
    chunk_steps = sum(c.taken for c in chunks)
    assert 0 < chunk_steps < 5000, f"{chunk_steps} of 5000 steps in chunks: the window must take both kinds"
    p_l0 = log.p_l[:, 0]
    assert np.any(p_l0 < 0.2) and np.count_nonzero(p_l0 == 0.2) > 1000, "bus 0 never slides on its kink"


def test_csr_run_is_the_reference_loop(chunks, snaps):
    """The 68-bus K is CSR: `run` takes lane chunks before and after an event, within 1e-12 of the reference loop.

    Each event segment is 750 steps, enough for a lane maker to make its
    maps; the second segment's maker takes the first one's P.
    """
    scenario = load_scenario(scenario_path("sixty_eight_bus_steps"))
    first, second = scenario.events[:2]
    scenario = dataclasses.replace(
        scenario, t_end=3.0, log_decimation=1, events=[first, dataclasses.replace(second, time=1.5)]
    )
    model = scenario.load_model()
    assert issparse(ClosedLoop(model, scenario.config).K)
    log = run(scenario, model)
    states, _, _ = reference_run(scenario, model, snaps)
    assert log.times.size == 1501
    assert rows_within(log.states, states)
    before, after = [c for c in chunks if c.k < 750], [c for c in chunks if c.k >= 750]
    assert sum(c.taken for c in before) > 600 and sum(c.taken for c in after) > 600
    assert after[0].maps.P is before[-1].maps.P


def test_a_short_csr_run_steps_one_lane_chunks_without_p(chunks, snaps, monkeypatch):
    """0.5 s of sixty_eight_bus_steps with one event at 0.12 s: segments of 60 and 190 steps, too few to repay P.

    Each chunk is then one lane, which needs no P: none is built, no maker
    tiles its region bounds over the lanes, at most a few steps are plain,
    and every logged state is within 1e-12 relative of the reference loop.
    """
    built, plain = [], []
    power, rk4 = simulator._LaneSteps._power, ClosedLoop.rk4
    monkeypatch.setattr(simulator._LaneSteps, "_power", lambda self: built.append(self) or power(self))
    monkeypatch.setattr(ClosedLoop, "rk4", lambda self, *args: plain.append(1) or rk4(self, *args))
    scenario = load_scenario(scenario_path("sixty_eight_bus_steps"))
    scenario = dataclasses.replace(scenario, t_end=0.5, log_decimation=1, events=[Event(0.12, 20, 0.5)])
    model = scenario.load_model()
    log = run(scenario, model)
    assert not built and len(plain) <= 3
    assert chunks and all(c.maps.P is None for c in chunks)
    assert all(c.maps.lower.shape[1] == 1 and c.maps.upper.shape[1] == 1 for c in chunks)
    assert sum(c.taken for c in chunks) == 250 - len(plain)
    states, _, _ = reference_run(scenario, model, snaps)
    assert log.times.size == 251
    assert rows_within(log.states, states)


def test_a_lane_maker_builds_p_once_it_has_min_steps_left(chunks):
    """A lane maker made with fewer than `min_steps` steps left steps one lane; given `min_steps` or more, it builds P, once.

    The chunk's steps (`steps`, 512) from one state agree within 1e-12
    relative in one lane and in 32 lanes started from P.
    """
    scenario = load_scenario(scenario_path("sixty_eight_bus_steps"))
    scenario = dataclasses.replace(scenario, t_end=0.5, log_decimation=1, events=scenario.events[:1])
    run(scenario, scenario.load_model())
    first = chunks[0]
    maker = simulator._LaneSteps(first.maps.piece, scenario.dt)
    rows = np.empty((maker.steps + 1, first.y.size))
    one_lane = maker.states(first.y, simulator._LaneSteps.min_steps - 1, rows).copy()
    assert maker.P is None and len(one_lane) == maker.steps + 1
    lanes = maker.states(first.y, simulator._LaneSteps.min_steps, rows)
    P = maker.P
    assert P is not None and rows_within(lanes, one_lane)
    maker.states(first.y, simulator._LaneSteps.min_steps, rows)
    assert maker.P is P


def test_a_lane_chunk_of_512_steps_starts_its_lanes_with_31_products_with_p(chunks):
    """512 steps from one state in 32 lanes of 16 take 31 matrix-vector products with P = R^16, one per lane after the first.

    They agree within 1e-12 relative with the same 512 steps in one lane.
    """
    scenario = load_scenario(scenario_path("sixty_eight_bus_steps"))
    scenario = dataclasses.replace(scenario, t_end=0.5, log_decimation=1, events=scenario.events[:1])
    run(scenario, scenario.load_model())
    piece, y = chunks[0].maps.piece, chunks[0].y
    products = []

    class Spy(np.ndarray):
        def __matmul__(self, other):
            products.append(other.shape)
            return np.asarray(self) @ other

    def steps(maker, n=512):
        """The states of n steps from y, in as many chunks as the maker takes."""
        rows, out = np.empty((n + 1, y.size)), [y[np.newaxis]]
        while sum(len(b) for b in out) <= n:
            Y = maker.states(out[-1][-1].copy(), n + 1 - sum(len(b) for b in out), rows)
            assert len(Y) > 1, "a chunk took no step"
            out.append(Y[1:].copy())
        return np.vstack(out)

    one_lane = steps(simulator._LaneSteps(piece, scenario.dt))
    maker = simulator._LaneSteps(piece, scenario.dt)
    maker.P = maker._power().view(Spy)
    lanes = steps(maker)
    assert products == [(y.size,)] * 31
    assert lanes.shape == (513, y.size) and rows_within(lanes, one_lane)
