"""`settle`'s affine path against the loop it specifies, and the affine piece it steps on.

`settle` takes most steps in chunks of the exact affine RK4 map of the piece
around the state (`ClosedLoop.affine_piece`), a sliding piece where a bus
slides on a cost kink: doubling chunks where `ClosedLoop.K` is dense, lane
chunks where it is CSR (the 68-bus network). The reference here is the
loop `settle` specifies, written out: at each step k, stop if the increment
of the step from y_k, over dt, is below tol or k is the last step, else take
that step. The step is textbook RK4, or Filippov's sliding step while a bus
slides on its kink for the whole step (`conftest.reference_stages`), and the
stepper's moves onto a kink are made in the reference's own state once each
is checked. The chunked result must stop at the same step, agree with it to
1e-12 relative, and report the residual at the state it returns to within
1e-6 relative of one reference step from there (it is read off the chunk's
increment map, not four right-hand sides). That rest is as tight as
max|f| < tol: max|f| there is below 1.01 tol, f the field the loop follows,
`rhs` off the kinks and the sliding field on one. A settle that rests in the
middle of a block of plain steps must stop there with the textbook residual,
bit for bit; one that rests inside a 68-bus lane chunk, at the textbook
loop's step. `check` on the 68-bus network builds the lane map P once: its
settle takes the run's. A
chunk must never take a step with a stage outside its piece, so start states
just short of a cost kink, a box bound and a varphi sign change are stepped
across each.

The piece itself is pinned apart from `settle`: J is the Jacobian of `rhs`
inside it, and its region is exactly the set of states that share it; on a
kink, where a sliding piece holds exactly when the equivalent control lies
strictly inside the Clarke interval.
"""

import collections
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from olfc import load_scenario, simulator
from olfc.cli import check_scenario, main
from olfc.costs import SELECTION_RULES
from olfc.errors import NumericalError
from olfc.simulator import ClosedLoop, ControllerConfig, settle

from conftest import (
    DEGENERATE_NETWORKS,
    DENSE_SCENARIOS,
    DIVERGING_DT,
    DIVERGING_P_M,
    NETWORKS,
    bundled_network,
    degenerate_network,
    dense,
    diverging_start,
    network_path,
    readable_rhs,
    reference_stages,
    region_kinds,
    same_bits,
    scenario_path,
    sliding_buses,
    snapped,
    textbook_increment,
)

pytestmark = pytest.mark.hot

MISMATCHES = ("model", "estimate")


def network(name: str):
    return bundled_network(name) if name in NETWORKS else degenerate_network(name)


DENSE_NETWORKS = [name for name in NETWORKS + DEGENERATE_NETWORKS if dense(network(name))]


def textbook_settle(loop, y, p_m, tol, t_max, dt, snaps=None):
    """(stop step, converged, state, residual) of the loop `settle` specifies, one step at a time.

    At each step k it makes the stepper's moves onto a kink there (`snaps`,
    checked by `conftest.snapped`), then stops if the step's increment over dt
    is below tol or k is the last step, else it takes the step. Without snaps
    every step is textbook RK4; with them (even none), the step is
    `conftest.reference_stages`.
    """
    aff = loop.feedthrough(p_m)

    def f(x):
        return loop.rhs(x, p_m, aff)

    n_steps = int(np.ceil(t_max / dt))
    recent = collections.deque([y[loop.sl_d]], maxlen=257)
    for k in range(n_steps + 1):
        if snaps and k in snaps:
            motion = np.max(np.abs(np.diff(np.array(recent), axis=0)), axis=0, initial=0.0)
            y = snapped(loop, y, snaps[k], motion, dt, aff)
            recent[-1] = y[loop.sl_d]
        increment = textbook_increment(f, y, dt) if snaps is None else reference_stages(loop, y, aff, dt, f)[0]
        residual = float(np.max(np.abs(increment))) / dt
        if not np.isfinite(residual):
            raise NumericalError(f"non-finite state while settling at t={k * dt:g}s")
        if residual < tol or k == n_steps:
            return k, residual < tol, y, residual
        y = y + increment
        recent.append(y[loop.sl_d])


def assert_close(y, ref):
    gap = float(np.max(np.abs(y - ref)))
    assert gap <= 1e-12 * float(np.max(np.abs(ref))), gap


@pytest.mark.parametrize("mismatch", MISMATCHES)
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", DENSE_SCENARIOS)
def test_chunked_settle_is_the_textbook_loop(pipeline, name, selection, mismatch):
    """`check`'s settle from the run's end: same stop step, states within 1e-12, the residual within 1e-6, no rk4 step.

    The reference is textbook RK4 off the sliding steps. The settles from
    these starts move no bus onto a kink: a bus that slides there already
    sits on it. The residual is checked against one reference step from the
    returned state: the worst gap here was 1.9e-8 relative (against the
    textbook loop's own residual, whose state differs by up to 1e-12, it was
    5.8e-6). The rest is as tight as the old test max|rhs| < tol, with the
    sliding field in place of rhs on the bus that rests on a kink: the worst
    max|f| / tol over these settles and both 68-bus ones was 1.00012.
    """
    pl = pipeline(name, selection, mismatch)
    model, config, dt, p_m = pl.model, pl.scenario.config, pl.scenario.dt, pl.p_m
    loop = ClosedLoop(model, config)
    start = loop.pack(pl.log.final_plant(model), pl.log.final_controller())
    k, converged, ref, _ = textbook_settle(loop, start, p_m, tol=1e-8, t_max=600.0, dt=dt, snaps={})
    sr = pl.settled
    y = loop.pack(sr.plant, sr.ctrl)
    assert (sr.t, sr.converged) == (k * dt, converged)
    assert_close(y, ref)
    increment, _, slid = reference_stages(loop, y, loop.feedthrough(p_m), dt)
    residual = float(np.max(np.abs(increment))) / dt
    assert abs(sr.residual - residual) <= 1e-6 * residual
    field, _ = readable_rhs(model, *loop.unpack(y), p_m, config, sliding_buses(loop, y) if slid else ())
    assert float(np.max(np.abs(field))) < 1.01e-8
    assert sr.rk4_steps == 0


def resting_tol(name: str, t0: float, rest: int):
    """The scenario's state at t0, and a tol at which the textbook loop from there rests at step `rest`.

    tol lies between the residual at `rest` and the least one before it.
    Returns the scenario, the loop, the start state, p_m, tol and the
    residual at `rest`.
    """
    scenario = load_scenario(scenario_path(name))
    scenario = dataclasses.replace(scenario, t_end=t0, events=[ev for ev in scenario.events if ev.time <= t0])
    model = scenario.load_model()
    log = simulator.run(scenario, model)
    loop = ClosedLoop(model, scenario.config)
    dt, p_m, start = scenario.dt, log.p_m_final, log.states[-1]
    aff, y, residuals = loop.feedthrough(p_m), start, []
    for _ in range(rest + 1):
        increment = textbook_increment(lambda x: loop.rhs(x, p_m, aff), y, dt)
        residuals.append(float(np.max(np.abs(increment))) / dt)
        y = y + increment
    least = min(residuals[:rest])
    assert residuals[rest] < least
    return scenario, loop, start, p_m, 0.5 * (residuals[rest] + least), residuals[rest]


@pytest.mark.parametrize("name, t0, rest", [("sixty_eight_bus_steps", 0.0, 100), ("three_bus_congested", 2.25, 5)])
def test_a_settle_rests_inside_a_block_of_plain_steps(chunks, monkeypatch, name, t0, rest):
    """A settle from the scenario's state at t0 that rests at step `rest`, in the middle of a block of plain steps.

    `affine_piece` is turned off after the scenario's run, so no chunk holds
    anywhere. The blocks are then the 1, 2, 4, ... plain steps of the
    backoff: step 5 is inside the block of steps 3 .. 7, and step 100 inside
    that of steps 63 .. 127. At 2.25 s of
    three_bus_congested bus 0 slides on its cost kink, and the textbook loop
    chatters there. The settle must stop at the textbook loop's step with the
    same residual and state, bit for bit, having taken every step with `rk4`.
    """
    scenario, loop, start, p_m, tol, residual = resting_tol(name, t0, rest)
    monkeypatch.setattr(ClosedLoop, "affine_piece", lambda self, y, aff: None)
    chunks.clear()  # the run's own

    dt = scenario.dt
    plant, ctrl = loop.unpack(start)
    sr = settle(loop.model, p_m, tol=tol, t_max=1.0, plant=plant, ctrl=ctrl, config=scenario.config, dt=dt)
    k, converged, ref, _ = textbook_settle(loop, start, p_m, tol=tol, t_max=1.0, dt=dt)
    assert (k, converged) == (rest, True)
    assert (sr.t, sr.converged, sr.residual) == (k * dt, True, residual)
    assert same_bits(loop.pack(sr.plant, sr.ctrl), ref)
    assert sr.rk4_steps == rest and not chunks


def test_a_sixty_eight_bus_settle_rests_inside_a_lane_chunk(chunks):
    """From 10 s of sixty_eight_bus_steps, past its last event, a settle that rests at step 100, inside its first lane chunk.

    The residual falls by about 2e-4 relative a step there, far above the
    chunk's rounding, so the settle must stop at the textbook loop's step,
    with the state within 1e-12 relative and the residual within 1e-6
    relative of the textbook loop's, and take no plain step.
    """
    rest = 100
    scenario, loop, start, p_m, tol, residual = resting_tol("sixty_eight_bus_steps", 10.0, rest)
    chunks.clear()  # the run's own

    dt = scenario.dt
    plant, ctrl = loop.unpack(start)
    sr = settle(loop.model, p_m, tol=tol, t_max=2.0, plant=plant, ctrl=ctrl, config=scenario.config, dt=dt)
    k, converged, ref, _ = textbook_settle(loop, start, p_m, tol=tol, t_max=2.0, dt=dt)
    assert (k, converged) == (rest, True)
    assert (sr.t, sr.converged) == (k * dt, True)
    assert_close(loop.pack(sr.plant, sr.ctrl), ref)
    assert abs(sr.residual - residual) <= 1e-6 * residual
    last = chunks[-1]
    assert isinstance(last.maps, simulator._LaneSteps) and last.k + last.taken == rest < last.k + last.n
    assert sr.rk4_steps == 0


def test_a_sixty_eight_bus_check_builds_p_once(chunks, monkeypatch):
    """`check` on sixty_eight_bus_steps builds P once: its settle starts on the run's last piece, so it takes that maker whole."""
    built = []
    power = simulator._LaneSteps._power

    def counted(self):
        built.append(self)
        return power(self)

    monkeypatch.setattr(simulator._LaneSteps, "_power", counted)
    scenario = load_scenario(scenario_path("sixty_eight_bus_steps"))
    res = check_scenario(scenario, scenario.load_model(), "sixty_eight_bus_steps", tol=1e-4, t_max=600.0)
    assert res.report.passed and len(built) == 1
    # The settle's first chunk is the first whose step is below the one before: the settle counts from 0 again.
    first = next(i for i in range(1, len(chunks)) if chunks[i].k < chunks[i - 1].k)
    assert chunks[first].maps is chunks[first - 1].maps and chunks[first].maps.P is built[0].P


def test_a_doubling_settle_makes_no_slice_past_its_first_resting_row(monkeypatch):
    """three_bus_smooth's run ends at rest, so its settle rests at its first row: its chunk checks 256 rows, not 2 048.

    The rest test follows the region test, slice by slice, so the chunk makes
    no block past its first 256-row slice. That slice's residuals are made as
    one, as in a whole chunk, so the settle's residual is bit for bit the
    first of a whole chunk's.
    """
    scenario = load_scenario(scenario_path("three_bus_smooth"))
    model = scenario.load_model()
    log = simulator.run(scenario, model)
    plant, ctrl = log.final_plant(model), log.final_controller()
    checked = []
    inside = simulator._AffineSteps._inside
    monkeypatch.setattr(simulator._AffineSteps, "_inside", lambda self, X: checked.append((self, len(X))) or inside(self, X))
    sr = settle(model, log.p_m_final, plant=plant, ctrl=ctrl, config=scenario.config, dt=scenario.dt)
    assert (sr.converged, sr.t, sr.rk4_steps) == (True, 0.0, 0)
    assert sum(rows for _, rows in checked) == simulator._CHUNK_STEPS
    maker = checked[0][0]
    y = ClosedLoop(model, scenario.config).pack(plant, ctrl)
    Y, residuals = maker.states(y, maker.steps, np.empty((maker.steps + 1, y.size)), tol=0.0)
    assert len(Y) == maker.steps + 1 and residuals[0] == sr.residual


@pytest.mark.parametrize(
    "name, kind",
    [("three_bus_kink", "piece"), ("two_bus_box", "box"), ("three_bus_congested", "varphi")],
)
def test_no_chunk_step_crosses_a_boundary(chunks, snaps, name, kind):
    """From 3 steps short of a run's first crossing, every stage of every chunk step stays inside its piece.

    On three_bus_kink that crossing is bus 0 reaching its kink, where it
    slides: the stages of a sliding chunk's steps are those of Filippov's
    sliding step (`conftest.reference_stages`).
    """
    scenario = load_scenario(scenario_path(name))
    scenario = dataclasses.replace(scenario, t_end=3.0, log_decimation=1)
    model = scenario.load_model()
    log = simulator.run(scenario, model)
    chunks.clear()  # the run's own
    snaps.clear()
    loop = ClosedLoop(model, scenario.config)
    # From the step after the last event on, where p_m is final and varphi+- is no longer 0.
    first = max(round(ev.time / scenario.dt) for ev in scenario.events) + 1
    kinds = region_kinds(model, loop, log.states[first:])[kind]
    crossing = first + int(np.flatnonzero(np.any(kinds[1:] != kinds[:-1], axis=1))[0])
    assert crossing - 3 >= first
    start = log.states[crossing - 3]
    dt, p_m, t_max = scenario.dt, log.p_m_final, 0.5

    plant, ctrl = loop.unpack(start)
    sr = settle(model, p_m, tol=1e-8, t_max=t_max, plant=plant, ctrl=ctrl, config=scenario.config, dt=dt)
    k, converged, ref, _ = textbook_settle(loop, start, p_m, tol=1e-8, t_max=t_max, dt=dt, snaps=dict(snaps))
    assert (sr.t, sr.converged) == (k * dt, converged)
    assert_close(loop.pack(sr.plant, sr.ctrl), ref)
    # The loop does not rest within t_max, so a chunk cut short was cut by its piece's boundary.
    assert not sr.converged
    assert any(0 < c.taken < c.n for c in chunks), "no chunk stopped at a boundary"

    aff = loop.feedthrough(p_m)
    for steps, y, _, _, taken in chunks:
        for _ in range(taken):
            increment, stages, _ = reference_stages(loop, y, aff, dt)
            for stage in stages:
                assert steps.holds(stage), "a chunk step has a stage outside its piece"
            y = y + increment


@pytest.mark.parametrize("name", DIVERGING_P_M)
def test_a_diverging_chunked_settle_names_the_model_time(chunks, name):
    """Past RK4's stability bound the state overflows at the textbook loop's time, after chunks.

    A block ends at the first state whose RK4 increment is not finite, and
    `settle` names that state's time.
    """
    model, p_m, plant, ctrl = diverging_start(name)
    loop = ClosedLoop(model)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"at t=\S+s") as exc:
            settle(model, p_m, tol=1e-12, t_max=200.0, plant=plant, ctrl=ctrl, dt=DIVERGING_DT)
        with pytest.raises(NumericalError) as ref:
            textbook_settle(loop, loop.pack(plant, ctrl), p_m, tol=1e-12, t_max=200.0, dt=DIVERGING_DT)
    assert sum(c.taken for c in chunks) > 0, "no chunk step was taken"
    assert str(exc.value) == str(ref.value)


@pytest.fixture
def diverging_settle(tmp_path):
    """The arguments of an `olfc settle` from rest at a step past RK4's stability bound."""
    model = bundled_network("three_bus")
    rest = settle(model, np.array([0.3, 0.0, 0.0]), tol=1e-10, t_max=300.0)
    np.savetxt(tmp_path / "plant.txt", np.concatenate([rest.plant.theta_e, rest.plant.omega_g]))
    np.savetxt(tmp_path / "ctrl.txt", rest.ctrl.pack())
    doc = {
        "network": str(network_path("three_bus")),
        "t_end": 0.0,
        "dt": 0.12,
        "events": [{"time": 0.0, "bus": 0, "delta_p_m": 0.3}],
        "init": {"plant": "plant.txt", "controller": "ctrl.txt"},
    }
    (tmp_path / "scn.json").write_text(json.dumps(doc))
    return ["settle", str(tmp_path / "scn.json"), "--tol", "1e-12", "--t-max", "200"]


def test_a_diverging_settle_exits_2(diverging_settle, capsys):
    """`olfc settle` past RK4's stability bound fails as numerical, naming the model time."""
    assert main(diverging_settle) == 2
    err = [json.loads(line) for line in capsys.readouterr().err.splitlines()][-1]
    assert err["error"] == "numerical"
    assert re.search(r"at t=\S+s", err["message"]), err["message"]


def test_a_diverging_settle_warns_nothing(diverging_settle, capsys):
    """The loop's own finiteness check reports the divergence: numpy's overflow warnings stay off stderr, one JSON object a line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(diverging_settle) == 2
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()] == ["numerical"]


def random_state(loop, rng):
    """A state whose loads spread over both box sides and the inside, and whose varphi+- take both signs."""
    y = rng.uniform(-0.5, 0.5, loop.dim)
    y[loop.sl_d] = rng.uniform(-1.5, 1.5, loop.n)
    y[loop.region_rows[loop.n :]] = rng.uniform(-0.3, 0.3, loop.region_rows.size - loop.n)
    return y


@pytest.mark.parametrize("mismatch", MISMATCHES)
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", NETWORKS + DEGENERATE_NETWORKS)
def test_affine_piece_is_the_jacobian(name, selection, mismatch):
    """Strictly inside one piece, rhs(y + delta) - rhs(y) = J delta and rhs(y) = J y + c, to rounding; K dense or CSR."""
    model = network(name)
    loop = ClosedLoop(model, ControllerConfig(selection=selection, mismatch=mismatch))
    rng = np.random.default_rng(5)
    p_m = rng.uniform(-0.5, 0.5, model.n)
    aff = loop.feedthrough(p_m)
    for _ in range(20):
        y = random_state(loop, rng)
        piece = loop.affine_piece(y, aff)
        assert piece is not None
        delta = rng.uniform(-1.0, 1.0, loop.dim)
        # The largest of 1e-3, 1e-4, ... that keeps y + delta inside the piece.
        scale = next(s for s in 10.0 ** -np.arange(3, 12) if np.all(
            (piece.lower < (y + s * delta)[loop.region_rows]) & ((y + s * delta)[loop.region_rows] < piece.upper)
        ))
        delta *= scale
        f = loop.rhs(y, p_m)
        assert np.max(np.abs(f - (piece.J @ y + piece.c))) <= 1e-12
        assert np.max(np.abs(loop.rhs(y + delta, p_m) - f - piece.J @ delta)) <= 1e-12


@pytest.mark.parametrize("name", DENSE_NETWORKS)
def test_affine_piece_region_is_the_whole_piece(name):
    """Along each region row: the same J and c anywhere inside the bounds, another piece past it, and on a finite bound None.

    A bound that is a cost kink of a bus inside its box is the exception: there
    the bus slides, and the piece holds its d at the kink, exactly when its
    equivalent control, from the readable equations, lies strictly inside
    the Clarke interval; its J y + c is then the sliding field.
    """
    model = network(name)
    loop = ClosedLoop(model)
    rng = np.random.default_rng(8)
    p_m = rng.uniform(-0.5, 0.5, model.n)
    aff = loop.feedthrough(p_m)
    box = model.load_box

    def moved(y, row, value):
        z = y.copy()
        z[row] = value
        return loop.affine_piece(z, aff)

    for _ in range(5):
        y = random_state(loop, rng)
        piece = loop.affine_piece(y, aff)
        for row, lo, hi in zip(loop.region_rows, piece.lower, piece.upper):
            for bound, far in ((lo, y[row] - 10.0), (hi, y[row] + 10.0)):
                inner = [far] if np.isinf(bound) else [0.5 * (y[row] + bound), bound - 1e-9 * (bound - y[row])]
                for value in inner:
                    same = moved(y, row, value)
                    assert np.array_equal(same.J, piece.J) and np.array_equal(same.c, piece.c), (row, value)
                if np.isfinite(bound):
                    on = moved(y, row, bound)
                    j = row - loop.sl_d.start
                    if 0 <= j < model.n and bound in model.costs[j].breakpoints and box.lower[j] < bound < box.upper[j]:
                        z = y.copy()
                        z[row] = bound
                        field, (g_eq,) = readable_rhs(model, *loop.unpack(z), p_m, loop.config, [j])
                        clarke = model.costs[j].clarke(bound)
                        if clarke.lo < g_eq < clarke.hi:
                            assert list(on.held) == [row] and list(on.at) == [bound], (row, bound)
                            assert np.max(np.abs(on.J @ z + on.c - field)) <= 1e-12
                        else:
                            assert on is None, (row, bound)
                    else:
                        assert on is None, (row, bound)
                    past = moved(y, row, bound + 1e-6 * (bound - y[row]))
                    assert past is None or not (np.array_equal(past.J, piece.J) and np.array_equal(past.c, piece.c))


@pytest.mark.parametrize("t_max, plain, chunked", [(0.02, 1, 9), (2.0, 1, 999)])
def test_sixty_eight_bus_settle_step_counts(chunks, t_max, plain, chunked):
    """From zero, a 68-bus settle takes lane chunks after its first step, however few steps are left.

    The zero state's varphi+- = 0 lies on a piece boundary, so the first step
    is plain. The other steps are then lane chunks: 999 of 1 000, in lanes
    started from P, and 9 of 10, in one lane, since 9 steps are too few to
    repay P.
    """
    model = bundled_network("sixty_eight_bus")
    p_m = np.zeros(model.n)
    p_m[20] = 0.5
    sr = settle(model, p_m, tol=1e-8, t_max=t_max, dt=2e-3)
    assert not sr.converged
    assert (sr.rk4_steps, sum(c.taken for c in chunks)) == (plain, chunked)
