"""The sliding piece: a bus that slides on a cost kink follows Filippov's solution in verified chunks.

Where a bus sits inside its box exactly on a kink kappa of its cost and the
equivalent control g_eq (the g that makes its d' vanish) lies strictly inside
its Clarke interval, `ClosedLoop.affine_piece` returns the sliding piece: d
held at kappa, g = g_eq. This pins it against the readable equations:

- on random states put on a kink, J y + c is the sliding field and J its
  Jacobian along the sliding set, and the region row is g_eq;
- a sliding segment of `three_bus_congested` (bus 0, from about 1.8 s to
  3.9 s) is textbook RK4 of the readable equations with d0 held at 0.2 and
  g0 = g_eq, from the same start, to 1e-12 relative;
- a state whose g_eq sits at an end of the interval has no piece, and its
  step is a plain `rk4` step that leaves the kink;
- `three_bus_congested` under five drawn event delays and magnitudes takes
  at most 150 plain steps of its 60 000 (the textbook loop chatters across
  the kink for about 2 700);
- on the 68-bus network (CSR K), the first 4 s of `sixty_eight_bus_kinks`,
  where seven buses come to slide in lane chunks, is RK4 of the sliding
  field (`conftest.reference_run`) to 1e-12 relative, with each sliding d
  held at its kink exactly.
"""

import dataclasses

import numpy as np
import pytest

from olfc import load_scenario, simulator
from olfc.costs import SELECTION_RULES
from olfc.simulator import ClosedLoop, ControllerConfig, Event, settle

from conftest import (
    DEGENERATE_NETWORKS,
    NETWORKS,
    bundled_network,
    degenerate_network,
    dense,
    readable_rhs,
    reference_run,
    rows_within,
    same_bits,
    scenario_path,
    textbook_stages,
)

pytestmark = pytest.mark.hot

def network(name: str):
    return bundled_network(name) if name in NETWORKS else degenerate_network(name)


# The dense networks with a cost kink inside some load box.
KINKED = [
    name
    for name in NETWORKS + DEGENERATE_NETWORKS
    if dense(network(name))
    and any(
        lo < x < hi for c, lo, hi in zip(network(name).costs, network(name).load_box.lower, network(name).load_box.upper)
        for x in c.breakpoints
    )
]


def sliding_state(loop, rng, j):
    """A random state with bus j on a kink inside its box, its mu set so that g_eq is the middle of its Clarke interval.

    The other loads lie inside their box off every kink, and every varphi+-
    is off 0.
    """
    model = loop.model
    box = model.load_box
    y = rng.uniform(-0.5, 0.5, loop.dim)
    d = y[loop.sl_d]
    d[:] = rng.uniform(box.lower, box.upper)
    kinks = [x for x in model.costs[j].breakpoints if box.lower[j] < x < box.upper[j]]
    d[j] = kinks[rng.integers(len(kinks))]
    varphi = y[loop.region_rows[model.n :]]
    varphi[:] = np.where(varphi < 0, varphi - 0.1, varphi + 0.1)
    clarke = model.costs[j].clarke(d[j])
    _, (g_eq,) = readable_rhs(model, *loop.unpack(y), np.zeros(model.n), loop.config, [j])
    # g_eq = omega - z - mu on the d row: mu enters it with coefficient -1.
    y[loop.sl_mu.start + j] += g_eq - 0.5 * (clarke.lo + clarke.hi)
    return y


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", KINKED)
def test_a_sliding_piece_is_the_sliding_field(name, selection, mismatch):
    """On a kink with g_eq inside: d held, J y + c the sliding field, J its Jacobian along the sliding set, the region row g_eq."""
    model = network(name)
    loop = ClosedLoop(model, ControllerConfig(selection=selection, mismatch=mismatch, epsilon=2.5))
    rng = np.random.default_rng(3)
    box = model.load_box
    buses = [j for j, c in enumerate(model.costs) if any(box.lower[j] < x < box.upper[j] for x in c.breakpoints)]
    p_m = np.zeros(model.n)
    aff = loop.feedthrough(p_m)
    for _ in range(10):
        j = buses[rng.integers(len(buses))]
        y = sliding_state(loop, rng, j)
        field, (g_eq,) = readable_rhs(model, *loop.unpack(y), p_m, loop.config, [j])
        piece = loop.affine_piece(y, aff)
        row = loop.sl_d.start + j
        assert list(piece.held) == [row] and same_bits(piece.at, y[[row]])
        assert np.max(np.abs(piece.J @ y + piece.c - field)) <= 1e-12
        assert not piece.J[row].any() and piece.c[row] == 0.0
        clarke = model.costs[j].clarke(y[row])
        assert (piece.lower[j], piece.upper[j]) == (clarke.lo, clarke.hi)
        assert abs((piece.W @ y + piece.w)[j] - g_eq) <= 1e-12
        delta = 1e-4 * rng.uniform(-1.0, 1.0, loop.dim)
        delta[row] = 0.0
        moved = readable_rhs(model, *loop.unpack(y + delta), p_m, loop.config, [j])[0]
        assert np.max(np.abs(moved - field - piece.J @ delta)) <= 1e-12


def sliding_segment(log, bus, kink, start_time):
    """The steps [first, stop) of the longest run of records from start_time on with d[bus] exactly on the kink."""
    on = np.r_[False, log.d[:, bus] == kink, False] & np.r_[False, log.times >= start_time, False]
    edges = np.flatnonzero(np.diff(on.astype(int)))
    first, stop = max(zip(edges[::2], edges[1::2]), key=lambda e: e[1] - e[0])
    return int(first), int(stop)


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
def test_a_sliding_segment_is_filippovs_solution(chunks, selection, mismatch):
    """three_bus_congested from 1 s to 3.9 s: bus 0 slides on its kink at 0.2 in chunks, as Filippov's solution does.

    The reference starts from the run's own state where the slide begins,
    just after the stepper moved d0 onto the kink, and is textbook RK4 of
    the readable equations with d0 held at 0.2 and g0 = g_eq. At each of its
    steps g_eq lies strictly inside bus 0's Clarke interval [0.2, 0.4], and
    no other bus sits on a kink. The slide ends when g_eq reaches an end
    of the interval: the record after it has left the kink.
    """
    scenario = load_scenario(scenario_path("three_bus_congested"))
    config = dataclasses.replace(scenario.config, selection=selection, mismatch=mismatch)
    scenario = dataclasses.replace(scenario, t_end=3.9, log_decimation=1, config=config)
    model = scenario.load_model()
    log = simulator.run(scenario, model)
    first, stop = sliding_segment(log, 0, 0.2, 1.0)
    assert (stop - first) * scenario.dt > 2.0, (first, stop)
    assert stop < len(log.times), "the slide must end inside the window"
    assert log.d[stop, 0] != 0.2
    loop = ClosedLoop(model, config)
    p_m, dt = log.p_m_final, scenario.dt
    clarke = model.costs[0].clarke(0.2)
    y, ref = log.states[first], [log.states[first]]
    for _ in range(first, stop - 1):
        g_eqs = []

        def field(x):
            dy, (g_eq,) = readable_rhs(model, *loop.unpack(x), p_m, config, [0])
            g_eqs.append(g_eq)
            return dy

        increment, _ = textbook_stages(field, y, dt)
        assert all(clarke.lo < g < clarke.hi for g in g_eqs), g_eqs
        y = y + increment
        ref.append(y)
    assert rows_within(log.states[first:stop], np.array(ref))
    others = log.d[first:stop, 1:]
    assert not np.any((others == 0.2) | (others == -0.2))
    slid = sum(c.taken for c in chunks if first <= c.k < stop)
    assert slid >= stop - first - 10, f"only {slid} of {stop - first} sliding steps were chunk steps"


@pytest.mark.parametrize("end", ["lower", "upper"])
def test_g_eq_at_an_interval_end_takes_a_plain_step(chunks, end):
    """On the kink with g_eq exactly at an end of the Clarke interval there is no piece; the step is `rk4`'s and leaves the kink.

    The state is three_bus_congested's at 3 s, where bus 0 slides, with mu0
    moved so that g_eq, as the piece's region row computes it, is the end.
    One float further inside, the sliding piece holds again.
    """
    scenario = load_scenario(scenario_path("three_bus_congested"))
    scenario = dataclasses.replace(scenario, t_end=3.0)
    model = scenario.load_model()
    log = simulator.run(scenario, model)
    chunks.clear()  # the run's own
    loop = ClosedLoop(model, scenario.config)
    p_m, dt = log.p_m_final, scenario.dt
    aff = loop.feedthrough(p_m)
    y = log.states[-1].copy()
    piece = loop.affine_piece(y, aff)
    assert list(piece.held) == [loop.sl_d.start] and piece.at[0] == 0.2
    bound = piece.lower[0] if end == "lower" else piece.upper[0]
    mu0 = loop.sl_mu.start

    def g_eq(x):
        return (piece.W @ x + piece.w)[0]

    def inside(x):
        return bool(g_eq(x) > bound) if end == "lower" else bool(g_eq(x) < bound)

    def step(x, direction):
        x = x.copy()
        x[mu0] = np.nextafter(x[mu0], direction)
        return x

    # mu0 enters g_eq with coefficient -1: out through the bound is up for the lower end, down for the upper.
    out = np.inf if end == "lower" else -np.inf
    y[mu0] += g_eq(y) - bound
    while inside(y):
        y = step(y, out)
    while not inside(step(y, -out)):
        y = step(y, -out)
    inner = step(y, -out)
    assert g_eq(y) == bound
    assert loop.affine_piece(y, aff) is None
    assert list(loop.affine_piece(inner, aff).held) == [loop.sl_d.start]

    plant, ctrl = loop.unpack(y)
    sr = settle(model, p_m, tol=1e-12, t_max=dt, plant=plant, ctrl=ctrl, config=scenario.config, dt=dt)
    assert sr.rk4_steps == 1 and not chunks
    stepped = loop.pack(sr.plant, sr.ctrl)
    assert same_bits(stepped, loop.rk4(y, p_m, dt, aff))
    assert stepped[loop.sl_d.start] != 0.2


def test_a_sliding_run_takes_few_plain_steps(monkeypatch):
    """three_bus_congested under five drawn disturbances takes at most 150 plain steps of its 60 000.

    Each draw delays the event by up to 0.25 s and scales it by 0.95 to
    1.05. The textbook loop chatters across bus 0's kink for 2 600 to 3 900
    of those steps; the stepper slides on it in chunks instead.
    """
    plain = []
    rk4 = ClosedLoop.rk4

    def counted(self, *args):
        plain.append(None)
        return rk4(self, *args)

    monkeypatch.setattr(ClosedLoop, "rk4", counted)
    base = load_scenario(scenario_path("three_bus_congested"))
    model = base.load_model()
    rng = np.random.default_rng(2020)
    counts = []
    for _ in range(5):
        [event] = base.events
        drawn = Event(time=rng.uniform(0.0, 0.25), bus=event.bus, delta_p_m=event.delta_p_m * rng.uniform(0.95, 1.05))
        plain.clear()
        simulator.run(dataclasses.replace(base, events=[drawn]), model)
        counts.append(len(plain))
    assert base.step_count() == 60_000
    assert max(counts) <= 150, counts


def test_sixty_eight_bus_lanes_slide_as_filippovs_solution(chunks, snaps):
    """The first 4 s of sixty_eight_bus_kinks: lane chunks slide on the kinks as Filippov's solution does.

    Seven buses reach their kinks between 0.6 s and 1.7 s, and each new set of
    sliding buses is a new J and so a new P. Every logged state must be
    within 1e-12 relative of `conftest.reference_run`, RK4 of the readable
    sliding field with the stepper's moves onto the kinks. Lane chunks take
    at least a lane maker's `min_steps` sliding steps, and hold the d row of
    each sliding bus at its kink exactly.
    """
    scenario = load_scenario(scenario_path("sixty_eight_bus_kinks"))
    scenario = dataclasses.replace(scenario, t_end=4.0, log_decimation=1)
    model = scenario.load_model()
    log = simulator.run(scenario, model)
    states, _, _ = reference_run(scenario, model, snaps)
    assert rows_within(log.states, states)
    sliding = [c for c in chunks if c.maps.piece.held.size]
    assert all(isinstance(c.maps, simulator._LaneSteps) for c in sliding)
    assert sum(c.taken for c in sliding) >= simulator._LaneSteps.min_steps
    d0 = ClosedLoop(model, scenario.config).sl_d.start
    for c in sliding:
        held, at = c.maps.piece.held, c.maps.piece.at
        assert all(kink in model.costs[row - d0].breakpoints for row, kink in zip(held, at))
        assert np.all(log.states[c.k : c.k + c.taken + 1, held] == at)
