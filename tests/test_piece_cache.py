"""The cost piece that `ClosedLoop` keeps across stages, against the exact selection.

A stage reuses each bus's cost piece from the stage before while p_l stays
strictly inside the piece's bracket, and otherwise looks it up with
`CostBatch.select_piece`. The specification is the stage with no piece
kept (`conftest.reference_derivative`): the operand filled with
`CostBatch.select`, then K @ u + aff. `rhs` and `rk4` must match it bit for
bit over sequences of states that stay in a piece, sit on kinks and box
bounds, step to either side of a kink, and change piece on every call; and
what a loop computed before must never show in what it computes next.
"""

import functools
import json

import numpy as np
import pytest

from olfc.costs import SELECTION_RULES
from olfc.network import parse_network
from olfc.simulator import ClosedLoop, ControllerConfig

from conftest import NETWORKS, bundled_network, network_path, on_kinks, reference_derivative, same_bits, textbook_rk4

pytestmark = pytest.mark.hot

DT = 1e-3


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
        # Small moves keep every bus in its piece: the kept piece is used.
        "stay": [start + rng.uniform(-1e-6, 1e-6, loop.dim) for _ in range(6)],
        "pinned": [pin(share) for share in (0.3, 0.6, 1.0, 1.0, 0.3, 1.0)],
        "on_kinks": [with_kinks(float), with_kinks(float)],
        # Every kinked bus on the float below, then above its kink: a new piece on every call.
        "sides": [with_kinks(move) for move in (below, above) * 3],
        # Far into the pieces on either side of each kink, alternating.
        "alternating": [with_kinks(lambda x, s=s: x + s) for s in (-0.3, 0.3) * 3],
    }


def counting_lookups(loop: ClosedLoop) -> list[int]:
    """Counts the exact lookups `loop` makes from now on, in a one-element list."""
    calls = [0]
    exact = loop.batch.select_piece

    def select_piece(x, rule):
        calls[0] += 1
        return exact(x, rule)

    loop.batch.select_piece = select_piece
    return calls


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", NETWORKS)
def test_rhs_matches_the_exact_selection_over_a_sequence(name, selection, mismatch):
    loop = ClosedLoop(bundled_network(name), ControllerConfig(selection=selection, mismatch=mismatch, epsilon=1.5))
    rng = np.random.default_rng(2024)
    p_m = rng.uniform(-0.5, 0.5, loop.n)
    aff = loop.feedthrough(p_m)
    lookups = counting_lookups(loop)
    calls = 0
    for block, states in state_sequence(loop, rng).items():
        for i, y in enumerate(states):
            before = lookups[0]
            got = loop.rhs(y, p_m, aff)
            assert same_bits(got, reference_derivative(loop, y, aff)), (block, i)
            if block == "stay" and i > 0:
                assert lookups[0] == before, "a piece kept across a small move was looked up again"
            # On a kink every stage looks up; beside one, each state is across the kink from the one before.
            if kinks(loop) and (block == "on_kinks" or block == "sides" and i > 0):
                assert lookups[0] == before + 1, f"{block}[{i}]: a stage on or across a kink skipped the lookup"
            # Again at the same state, with the pieces this state left.
            assert same_bits(loop.rhs(y, p_m), got), (block, i)
            calls += 2
    assert 0 < lookups[0] < calls


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
def test_a_kept_piece_gives_select_bits_at_the_edges(case, selection):
    cost, d, negative = EDGE_CASES[case]
    loop = two_bus_loop(selection, **cost)
    p_m = np.zeros(loop.n)
    aff = loop.feedthrough(p_m)
    loop.rhs(np.full(loop.dim, 0.1), p_m, aff)
    y = np.zeros(loop.dim)
    y[loop.sl_d] = d
    lookups = counting_lookups(loop)
    got = loop.rhs(y, p_m, aff)
    assert lookups[0] == 0
    g = loop.batch.select(y[loop.sl_d], selection)
    assert np.all(np.signbit(g)) == negative(selection)
    assert np.all(np.isinf(g)) == (case == "g_plus_g_overflows" and selection == "midpoint")
    assert same_bits(loop._u[-loop.n :], g)
    assert same_bits(got, reference_derivative(loop, y, aff))
