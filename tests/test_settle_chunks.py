"""`settle`'s affine path against the textbook loop, and the affine piece it steps on.

Where `ClosedLoop.K` is dense, `settle` takes most steps in chunks of the
exact affine RK4 map of the piece around the state (`ClosedLoop.affine_piece`).
The reference here is the loop `settle` specifies, written out: at each step
k, stop if max|rhs(y_k)| < tol or k is the last step, else take one `rk4`
step. The chunked result must stop at the same step, agree with it to 1e-12
relative, and report max|rhs| at the state it returns. A settle that rests in
the middle of a block of plain steps, on the 68-bus CSR K or where a dense
K's chunks fail, must stop there, bit for bit. A chunk must never take
a step with a stage outside its piece, so start states just short of a cost
kink, a box bound and a varphi sign change are stepped across each.

The piece itself is pinned apart from `settle`: J is the Jacobian of `rhs`
inside it, and its region is exactly the set of states that share it.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from olfc import load_scenario, simulator
from olfc.cli import main
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
    same_bits,
    scenario_path,
)

pytestmark = pytest.mark.hot

MISMATCHES = ("model", "estimate")


def network(name: str):
    return bundled_network(name) if name in NETWORKS else degenerate_network(name)


DENSE_NETWORKS = [name for name in NETWORKS + DEGENERATE_NETWORKS if dense(network(name))]


def textbook_settle(loop, y, p_m, tol, t_max, dt):
    """(stop step, converged, state) of the loop `settle` specifies, one `rk4` step at a time."""
    aff = loop.feedthrough(p_m)
    n_steps = int(np.ceil(t_max / dt))
    for k in range(n_steps + 1):
        k1 = loop.rhs(y, p_m, aff)
        residual = float(np.max(np.abs(k1)))
        if not np.isfinite(residual):
            raise NumericalError(f"non-finite state while settling at t={k * dt:g}s")
        if residual < tol or k == n_steps:
            return k, residual < tol, y
        y = loop.rk4(y, p_m, dt, aff, k1=k1)


def assert_close(y, ref):
    gap = float(np.max(np.abs(y - ref)))
    assert gap <= 1e-12 * float(np.max(np.abs(ref))), gap


@pytest.mark.parametrize("mismatch", MISMATCHES)
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", DENSE_SCENARIOS)
def test_chunked_settle_is_the_textbook_loop(pipeline, name, selection, mismatch):
    """`check`'s settle from the run's end: same stop step, states within 1e-12, the exact residual, no rk4 step."""
    pl = pipeline(name, selection, mismatch)
    model, config, dt, p_m = pl.model, pl.scenario.config, pl.scenario.dt, pl.p_m
    loop = ClosedLoop(model, config)
    start = loop.pack(pl.log.final_plant(model), pl.log.final_controller())
    k, converged, ref = textbook_settle(loop, start, p_m, tol=1e-8, t_max=600.0, dt=dt)
    sr = pl.settled
    y = loop.pack(sr.plant, sr.ctrl)
    assert (sr.t, sr.converged) == (k * dt, converged)
    assert_close(y, ref)
    assert sr.residual == float(np.max(np.abs(ClosedLoop(model, config).rhs(y, p_m))))
    assert sr.rk4_steps == 0


@pytest.mark.parametrize("name, t0, rest", [("sixty_eight_bus_steps", 0.0, 100), ("three_bus_congested", 2.0, 5)])
def test_a_settle_rests_inside_a_block_of_plain_steps(chunks, name, t0, rest):
    """A settle from the scenario's state at t0 that rests at step `rest`, in the middle of a block of plain steps.

    The 68-bus K is CSR, so its blocks are 256 plain steps, and step 100 from
    the zero state is inside the first. At 2 s of three_bus_congested bus 0
    chatters on its cost kink, so no chunk takes a step and the blocks are the
    1, 2, 4, ... plain steps of the backoff; step 5 is inside the block of
    steps 4 .. 7. tol lies between the residual at `rest` and the least one
    before it, so the textbook loop rests there. The settle must stop at the
    same step with the same residual and state, bit for bit, having taken
    every step with `rk4`.
    """
    scenario = load_scenario(scenario_path(name))
    scenario = dataclasses.replace(scenario, t_end=t0, events=[ev for ev in scenario.events if ev.time <= t0])
    model = scenario.load_model()
    log = simulator.run(scenario, model)
    loop = ClosedLoop(model, scenario.config)
    dt, p_m, start = scenario.dt, log.p_m_final, log.states[-1]
    aff, y, residuals = loop.feedthrough(p_m), start, []
    for _ in range(rest + 1):
        k1 = loop.rhs(y, p_m, aff)
        residuals.append(float(np.max(np.abs(k1))))
        y = loop.rk4(y, p_m, dt, aff, k1=k1)
    least = min(residuals[:rest])
    assert residuals[rest] < least
    tol = 0.5 * (residuals[rest] + least)
    chunks.clear()  # the run's own

    plant, ctrl = loop.unpack(start)
    sr = settle(model, p_m, tol=tol, t_max=1.0, plant=plant, ctrl=ctrl, config=scenario.config, dt=dt)
    k, converged, ref = textbook_settle(loop, start, p_m, tol=tol, t_max=1.0, dt=dt)
    assert (k, converged) == (rest, True)
    assert (sr.t, sr.converged, sr.residual) == (k * dt, True, residuals[rest])
    assert same_bits(loop.pack(sr.plant, sr.ctrl), ref)
    assert sr.rk4_steps == rest and not chunks


def region_kinds(model, loop, Y):
    """Per state (row of Y): each bus's box side, each bus's cost piece, each varphi+- sign."""
    d = Y[:, loop.sl_d]
    box = model.load_box
    p_l = np.clip(d, box.lower, box.upper)
    pieces = np.stack([np.searchsorted(c.breakpoints, p_l[:, j]) for j, c in enumerate(model.costs)], axis=1)
    return {
        "box": np.sign(d - box.lower) + np.sign(d - box.upper),
        "piece": pieces,
        "varphi": np.sign(Y[:, loop.region_rows[model.n :]]),
    }


@pytest.mark.parametrize(
    "name, kind",
    [("three_bus_kink", "piece"), ("two_bus_box", "box"), ("three_bus_congested", "varphi")],
)
def test_no_chunk_step_crosses_a_boundary(chunks, name, kind):
    """From 3 steps short of a run's first crossing, every stage of every chunk step stays inside its piece."""
    scenario = load_scenario(scenario_path(name))
    scenario = dataclasses.replace(scenario, t_end=3.0, log_decimation=1)
    model = scenario.load_model()
    log = simulator.run(scenario, model)
    chunks.clear()  # the run's own
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
    k, converged, ref = textbook_settle(loop, start, p_m, tol=1e-8, t_max=t_max, dt=dt)
    assert (sr.t, sr.converged) == (k * dt, converged)
    assert_close(loop.pack(sr.plant, sr.ctrl), ref)
    # The loop does not rest within t_max, so a chunk cut short was cut by its piece's boundary.
    assert not sr.converged
    assert any(0 < c.taken < c.n for c in chunks), "no chunk stopped at a boundary"

    aff = loop.feedthrough(p_m)
    for steps, y, _, _, taken in chunks:
        for _ in range(taken):
            k1 = loop.rhs(y, p_m, aff)
            k2 = loop.rhs(y + (0.5 * dt) * k1, p_m, aff)
            k3 = loop.rhs(y + (0.5 * dt) * k2, p_m, aff)
            for stage in (y, y + (0.5 * dt) * k1, y + (0.5 * dt) * k2, y + dt * k3):
                assert steps.holds(stage), "a chunk step has a stage outside its piece"
            y = loop.rk4(y, p_m, dt, aff, k1=k1)


@pytest.mark.parametrize("name", DIVERGING_P_M)
def test_a_diverging_chunked_settle_names_the_model_time(chunks, name):
    """Past RK4's stability bound the state overflows at the textbook loop's time; on a dense K, after chunks.

    A block of plain steps ends at the first state that is not finite, so
    `settle`'s own rhs names it.
    """
    model, p_m, plant, ctrl = diverging_start(name)
    loop = ClosedLoop(model)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"at t=\S+s") as exc:
            settle(model, p_m, tol=1e-12, t_max=200.0, plant=plant, ctrl=ctrl, dt=DIVERGING_DT)
        with pytest.raises(NumericalError) as ref:
            textbook_settle(loop, loop.pack(plant, ctrl), p_m, tol=1e-12, t_max=200.0, dt=DIVERGING_DT)
    if dense(model):
        assert sum(c.taken for c in chunks) > 0, "no chunk step was taken"
    assert str(exc.value) == str(ref.value)


def test_a_diverging_settle_exits_2(tmp_path, capsys):
    """`olfc settle` from rest at a step past RK4's stability bound fails as numerical, naming the model time."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["settle", str(tmp_path / "scn.json"), "--tol", "1e-12", "--t-max", "200"]) == 2
    err = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")][-1]
    assert err["error"] == "numerical"
    assert re.search(r"at t=\S+s", err["message"]), err["message"]


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
    """Along each region row: the same J and c anywhere inside the bounds, None on a finite bound, another piece past it."""
    model = network(name)
    loop = ClosedLoop(model)
    rng = np.random.default_rng(8)
    aff = loop.feedthrough(rng.uniform(-0.5, 0.5, model.n))

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
                    assert moved(y, row, bound) is None, (row, bound)
                    past = moved(y, row, bound + 1e-6 * (bound - y[row]))
                    assert past is None or not (np.array_equal(past.J, piece.J) and np.array_equal(past.c, piece.c))


def test_sixty_eight_bus_settle_steps_one_at_a_time():
    """The 68-bus K is CSR under the size rule, so every settle step is a plain rk4 step."""
    model = bundled_network("sixty_eight_bus")
    p_m = np.zeros(model.n)
    p_m[20] = 0.5
    sr = settle(model, p_m, tol=1e-8, t_max=0.02, dt=2e-3)
    assert sr.rk4_steps == 10 and not sr.converged
