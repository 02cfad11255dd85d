"""Closed-loop integration: scenario parsing, determinism, logging, accuracy."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import issparse

from olfc.cli import check_scenario
from olfc.controller import init_controller
from olfc.costs import project_box, project_nonneg
from olfc.dynamics import PlantState, assemble_frequencies
from olfc.errors import NumericalError, ValidationError
from olfc.network import load_network, parse_network
from olfc.oracle import solve_olc
from olfc.simulator import (
    ClosedLoop,
    ControllerConfig,
    Event,
    Scenario,
    load_scenario,
    run,
    settle,
)

from conftest import (
    DEGENERATE_NETWORKS,
    degenerate_network,
    network_path,
    rows_within,
    same_bits,
    scenario_path,
    textbook_residual,
)


@pytest.fixture(scope="module")
def model():
    return load_network(network_path("three_bus"))


def make_scenario(**over):
    base = dict(network_path=network_path("three_bus"), t_end=1.0, dt=1e-3)
    base.update(over)
    return Scenario(**base)


# -- scenario parsing ---------------------------------------------------------


def write_scenario(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


GOOD_DOC = {
    "network": "net.json",
    "t_end": 2.0,
    "dt": 0.001,
    "events": [{"time": 0.5, "bus": 0, "delta_p_m": 0.3}],
    "controller": {"selection": "left", "mismatch": "estimate", "epsilon": 2.0},
    "log_decimation": 5,
}


def test_load_scenario_round_trip(tmp_path):
    src = network_path("three_bus").read_text()
    (tmp_path / "net.json").write_text(src)
    scn = load_scenario(write_scenario(tmp_path, GOOD_DOC))
    assert scn.t_end == 2.0
    assert scn.dt == 0.001
    assert scn.events == [Event(time=0.5, bus=0, delta_p_m=0.3)]
    assert scn.config.selection == "left"
    assert scn.config.mismatch == "estimate"
    assert scn.config.epsilon == 2.0
    assert scn.log_decimation == 5
    assert scn.load_model().n == 3


@pytest.mark.parametrize(
    "mutate, phrase",
    [
        (lambda d: d.pop("t_end"), "scenario: missing fields ['t_end']"),
        (lambda d: d.update(horizon=3), "scenario: unknown fields ['horizon']"),
        (lambda d: d.update(dt=-0.1), "dt must be positive"),
        (lambda d: d.update(log_decimation=0), "log_decimation"),
        (lambda d: d["events"].__setitem__(0, {"time": 0.5, "bus": 0}), "events[0]"),
        (lambda d: d["events"][0].update(time=99.0), "outside"),
        (lambda d: d["controller"].update(gain=2.0), "controller: unknown fields ['gain']"),
        (lambda d: d["controller"].update(selection="fastest"), "selection rule"),
        (lambda d: d["controller"].update(mismatch="psychic"), "mismatch source"),
        (lambda d: d["controller"].update(epsilon=0.0), "epsilon"),
        (lambda d: d.update(init={"warm": "x.txt"}), "init: unknown fields ['warm']"),
    ],
)
def test_load_scenario_rejects(tmp_path, mutate, phrase):
    """Every error names the file first, then the section and the field."""
    doc = json.loads(json.dumps(GOOD_DOC))
    mutate(doc)
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ValidationError, match=None) as err:
        load_scenario(path)
    assert str(err.value).startswith(f"{path}: ")
    assert phrase in str(err.value)


def test_load_scenario_bad_json_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    with pytest.raises(ValidationError) as err:
        load_scenario(p)
    assert "broken.json:1:" in str(err.value)


def test_run_rejects_unknown_event_bus(model):
    scn = make_scenario(events=[Event(time=0.0, bus=7, delta_p_m=0.1)])
    with pytest.raises(ValidationError, match="unknown bus"):
        run(scn)
    with pytest.raises(ValidationError, match="unknown bus"):
        run(scn, model)


def test_settle_rejects_a_negative_budget(model):
    with pytest.raises(ValidationError, match="t_max"):
        settle(model, np.zeros(model.n), t_max=-1.0)


def test_controller_config_validation():
    cfg = ControllerConfig(selection="mid", mismatch="estimate", epsilon=3.0)
    assert cfg.selection == "midpoint"
    with pytest.raises(ValidationError):
        ControllerConfig(selection="best")
    with pytest.raises(ValidationError):
        ControllerConfig(mismatch="oracle")
    with pytest.raises(ValidationError):
        ControllerConfig(epsilon=-1.0)


# -- integration behavior -----------------------------------------------------


def sixty_eight_bus_scenario(mismatch):
    return Scenario(
        network_path=network_path("sixty_eight_bus"),
        t_end=0.1,
        dt=2e-3,
        events=[Event(time=0.0, bus=20, delta_p_m=0.5), Event(time=0.04, bus=45, delta_p_m=0.6)],
        config=ControllerConfig(mismatch=mismatch, epsilon=4.0),
        log_decimation=5,
    )


def test_runs_are_bit_identical(model):
    """Dense operator (3-bus) and CSR operator (68-bus, 50 steps, both mismatch sources)."""
    big = load_network(network_path("sixty_eight_bus"))
    cases = [(make_scenario(t_end=0.5, events=[Event(time=0.1, bus=0, delta_p_m=0.3)]), model)]
    cases += [(sixty_eight_bus_scenario(mismatch), big) for mismatch in ("model", "estimate")]
    for scn, net in cases:
        a = run(scn, net)
        b = run(scn, net)
        for name in ("omega", "p_l", "mu", "theta_e", "flows", "cost"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_settle_is_bit_identical(model):
    big = load_network(network_path("sixty_eight_bus"))
    cases = [(model, np.array([0.3, 0.0, 0.0]), ControllerConfig(), 60.0)]
    p_m = np.zeros(big.n)
    p_m[20] = 0.5
    cases += [(big, p_m, ControllerConfig(mismatch=mismatch, epsilon=4.0), 0.1) for mismatch in ("model", "estimate")]
    for net, p_m, cfg, t_max in cases:
        a = settle(net, p_m, tol=1e-8, t_max=t_max, config=cfg, dt=2e-3)
        b = settle(net, p_m, tol=1e-8, t_max=t_max, config=cfg, dt=2e-3)
        assert (a.t, a.converged, a.residual) == (b.t, b.converged, b.residual)
        for x, y in ((a.plant, b.plant), (a.ctrl, b.ctrl)):
            for name, value in vars(x).items():
                assert np.array_equal(value, getattr(y, name)), name


@pytest.mark.hot
def test_operator_storage_follows_size(model):
    """Large operators are held as CSR, small ones as dense arrays."""
    small = ClosedLoop(model, ControllerConfig(mismatch="estimate"))
    big = ClosedLoop(load_network(network_path("sixty_eight_bus")), ControllerConfig(mismatch="estimate"))
    assert isinstance(small.K, np.ndarray)
    assert issparse(big.K)


@pytest.mark.hot
@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("name", ["two_bus", "three_bus", "three_bus_congested", "nine_bus"])
def test_a_dense_operator_is_stored_contiguously(name, mismatch):
    """Below the size rule K and Kpm are C-contiguous arrays of their own, not column views of one stack."""
    loop = ClosedLoop(load_network(network_path(name)), ControllerConfig(mismatch=mismatch))
    for A in (loop.K, loop.Kpm):
        assert isinstance(A, np.ndarray) and A.flags.c_contiguous and A.base is None


@pytest.mark.hot
@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("name", ["two_bus", "three_bus", "three_bus_congested", "nine_bus", "sixty_eight_bus"])
def test_epsilon_scales_the_rows_of_K_from_d_on(name, mismatch):
    """K at epsilon 4 is K at epsilon 1 with every row from d on scaled by 4, bit for bit."""
    net = load_network(network_path(name))
    one, four = (ClosedLoop(net, ControllerConfig(mismatch=mismatch, epsilon=eps)) for eps in (1.0, 4.0))
    dense = lambda A: A.toarray() if issparse(A) else A
    expected = dense(one.K).copy()
    expected[one.sl_d.start :] *= 4.0
    assert np.array_equal(dense(four.K), expected)
    if issparse(four.K):
        assert four.K.has_canonical_format and four.K.nnz == one.K.nnz


@pytest.mark.hot
@pytest.mark.parametrize("mismatch", ["model", "estimate"])
def test_sixty_eight_bus_build_never_holds_dense_K(mismatch):
    """K is assembled sparse: the build never allocates one dense S x U array."""
    net = load_network(network_path("sixty_eight_bus"))
    ClosedLoop(net, ControllerConfig(mismatch=mismatch))
    for eps in (1.0, 4.0):
        tracemalloc.start()
        try:
            loop = ClosedLoop(net, ControllerConfig(mismatch=mismatch, epsilon=eps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, cols = loop.K.shape
        assert peak < rows * cols * 8, f"build peaked at {peak} bytes"
        assert loop.K.has_canonical_format
        assert loop.K.nnz == np.count_nonzero(loop.K.toarray())


@pytest.mark.hot
@pytest.mark.parametrize("name", DEGENERATE_NETWORKS)
def test_degenerate_network_settles_at_the_optimum(name):
    """With a zero-width block in the layout (no line, no generator or no load bus), `check` passes."""
    scenario = Scenario(network_path=Path(name), t_end=1.0, dt=1e-3, events=[Event(0.0, 0, 0.45)])
    report = check_scenario(scenario, degenerate_network(name), name, tol=1e-4, t_max=200.0).report
    assert report.passed, report.checks


@pytest.mark.parametrize("name, t_end", [("three_bus", 0.1), ("nine_bus", 0.1), ("sixty_eight_bus", 0.05)])
@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("decimation", [1, 7])
def test_log_matches_readable_observation(name, t_end, mismatch, decimation):
    """Every record of a run equals the readable per-state observation of its state.

    Covers the dense 3- and 9-bus operators and the CSR 68-bus one. One
    event lands on step 14, a recorded step at either decimation, and one on
    step 10, between records at decimation 7.
    """
    net = load_network(network_path(name))
    dt = 1e-3
    events = [Event(time=14 * dt, bus=0, delta_p_m=0.3), Event(time=10 * dt, bus=int(net.load_index[-1]), delta_p_m=-0.2)]
    scn = Scenario(
        network_path=network_path(name), t_end=t_end, dt=dt, events=events,
        config=ControllerConfig(mismatch=mismatch), log_decimation=decimation,
    )
    log = run(scn, net)
    assert np.shares_memory(log.d, log.states) and np.shares_memory(log.theta_e, log.states)
    steps = np.rint(log.times / dt).astype(int)
    assert 14 in steps and (10 in steps) == (decimation == 1)
    for r, k in enumerate(steps):
        p_m = np.zeros(net.n)
        for ev in events:
            if round(ev.time / dt) <= k:
                p_m[ev.bus] += ev.delta_p_m
        plant = PlantState(theta_e=log.theta_e[r], omega_g=log.omega_g[r])
        p_l = project_box(log.d[r], net.load_box)
        assert np.array_equal(log.p_l[r], p_l)
        assert np.array_equal(log.eta_plus[r], project_nonneg(log.varphi_plus[r]))
        assert np.array_equal(log.eta_minus[r], project_nonneg(log.varphi_minus[r]))
        assert np.array_equal(log.flows[r], net.susceptances * log.theta_e[r])
        assert log.cost[r] == np.sum([cost.value(x) for cost, x in zip(net.costs, p_l)])
        omega = assemble_frequencies(net, plant, p_m, p_l)
        scale = max(1.0, float(np.max(np.abs(omega))))
        assert np.max(np.abs(log.omega[r] - omega)) <= 1e-12 * scale, f"record {r} (step {k})"
        assert np.array_equal(log.omega[r, net.generator_index], log.omega_g[r])
    final = log.final_plant(net)
    assert np.array_equal(final.omega_g, log.omega_g[-1]) and np.array_equal(final.theta_e, log.theta_e[-1])


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
def test_rhs_and_observe_return_independent_arrays(mismatch):
    """`rhs` and `observe` hand out new arrays: no later call changes what an earlier one returned."""
    net = load_network(network_path("nine_bus"))
    loop = ClosedLoop(net, ControllerConfig(mismatch=mismatch))
    rng = np.random.default_rng(11)
    y1, y2 = rng.uniform(-1.0, 1.0, (2, loop.dim))
    p_m = rng.uniform(-0.5, 0.5, net.n)
    k1 = loop.rhs(y1, p_m)
    k1_before = k1.copy()
    k2 = loop.rhs(y2, p_m)
    assert not np.shares_memory(k1, k2)
    assert np.array_equal(k1, k1_before)
    keys = ("omega", "p_l", "flows", "cost")
    obs = loop.observe(y1, p_m)
    assert set(obs) == set(keys)
    before = {key: np.copy(obs[key]) for key in keys}
    loop.rhs(y2, p_m)
    later = loop.observe(y2, p_m)
    for key in keys:
        assert np.array_equal(obs[key], before[key]), key
        assert not np.array_equal(later[key], before[key]), key


def test_zero_disturbance_observables_stay_zero(model):
    scn = make_scenario(t_end=2.0)
    log = run(scn, model)
    for name in ("omega", "p_l", "mu", "eta_plus", "eta_minus", "flows", "theta_e", "cost"):
        arr = getattr(log, name)
        assert np.all(arr == 0.0), f"{name} moved without a disturbance"
    # the filter states relax toward the (negated) angle limits; that
    # internal drift must not leak into any observable above
    assert np.all(log.varphi_plus[-1] < 0)
    assert np.allclose(log.varphi_plus[-1], -model.angle_upper, atol=0.1)


def test_event_snaps_to_step_grid(model):
    # 0.0507 with dt=0.01 lands on step 5, i.e. t=0.05
    scn = make_scenario(
        t_end=0.1, dt=0.01, events=[Event(time=0.0507, bus=2, delta_p_m=0.4)]
    )
    log = run(scn, model)
    k = np.searchsorted(log.times, 0.05)
    # bus 2 is a load bus: its frequency responds instantly to p_m
    assert np.all(log.omega[:k, 2] == 0.0)
    assert log.omega[k, 2] != 0.0


def test_step_matches_run(model, tmp_path, chunks):
    """The one step `run` takes against one RK4 step of the packed closed loop, from two starts.

    From the zero state (checked against an independently packed cold start),
    whose varphi+- = 0 lies on a piece boundary, it is a plain `rk4` step, bit
    for bit. From a warm start inside a piece (the state after 1 s under the
    same event) it is a chunk step, within 1e-12 relative.
    """
    event = Event(time=0.0, bus=0, delta_p_m=0.3)
    p_m = np.array([0.3, 0.0, 0.0])
    loop = ClosedLoop(model)
    aff = loop.feedthrough(p_m)

    log = run(make_scenario(t_end=0.01, dt=0.01, events=[event]), model)
    assert not chunks
    assert same_bits(log.states[0], loop.pack(PlantState.zero(model), init_controller(model)))
    assert same_bits(log.states[1], loop.rk4(log.states[0], p_m, 0.01, aff))

    warm = run(make_scenario(t_end=1.0, dt=0.01, events=[event]), model)
    plant = warm.final_plant(model)
    np.savetxt(tmp_path / "plant.txt", np.concatenate([plant.theta_e, plant.omega_g]))
    np.savetxt(tmp_path / "ctrl.txt", warm.final_controller().pack())
    chunks.clear()
    scn = make_scenario(
        t_end=0.01, dt=0.01, events=[event], init_plant=tmp_path / "plant.txt", init_controller=tmp_path / "ctrl.txt"
    )
    log = run(scn, model)
    assert same_bits(log.states[0], warm.states[-1])
    assert [c.taken for c in chunks] == [1]
    assert rows_within(log.states[1:], loop.rk4(log.states[0], p_m, 0.01, aff)[np.newaxis])


def test_integrator_order(model):
    """Fourth-order convergence on a kink-free stretch of trajectory."""
    finals = {}
    for dt in (0.02, 0.01, 0.00125):
        scn = make_scenario(
            t_end=0.2, dt=dt, log_decimation=10_000,
            events=[Event(time=0.0, bus=0, delta_p_m=0.3)],
        )
        log = run(scn, model)
        assert log.times[-1] == pytest.approx(0.2)
        finals[dt] = np.concatenate([log.theta_e[-1], log.omega[-1], log.mu[-1], log.d[-1]])
    ref = finals[0.00125]
    e_coarse = np.max(np.abs(finals[0.02] - ref))
    e_fine = np.max(np.abs(finals[0.01] - ref))
    order = np.log2(e_coarse / e_fine)
    assert order > 3.3, f"observed order {order:.2f}"


def test_decimation_keeps_endpoints(model):
    scn = make_scenario(t_end=0.05, dt=0.01, log_decimation=3)
    log = run(scn, model)
    # steps 0,3 recorded by stride; final step 5 always recorded
    assert log.times[0] == 0.0
    assert log.times[-1] == pytest.approx(0.05)
    assert len(log.times) == 3


def test_unstable_step_raises(model):
    # dt far beyond the RK4 stability bound for this graph; the growing mode
    # overflows to non-finite well inside the horizon
    scn = make_scenario(t_end=120.0, dt=0.5, events=[Event(time=0.0, bus=0, delta_p_m=0.3)])
    with pytest.raises(NumericalError):
        run(scn, model)
    with pytest.raises(NumericalError):
        settle(model, np.array([0.3, 0.0, 0.0]), dt=0.5, t_max=120.0)


def settled_state(model, res) -> np.ndarray:
    return ClosedLoop(model).pack(res.plant, res.ctrl)


@pytest.mark.parametrize("t_max", [600.0, 0.0])
def test_settle_converges_and_is_idempotent(model, t_max):
    """A settle from a rest stops at once, returning its start bit for bit; with t_max 0 its residual is the start's."""
    res = settle(model, np.zeros(3), tol=1e-7, t_max=60.0)
    assert res.converged
    # filter states have relaxed onto the angle limits
    assert np.allclose(res.ctrl.varphi_plus, -model.angle_upper, atol=1e-5)
    again = settle(model, np.zeros(3), tol=1e-7, t_max=t_max, plant=res.plant, ctrl=res.ctrl)
    assert again.converged
    assert again.t == 0.0
    assert same_bits(settled_state(model, again), settled_state(model, res))
    if t_max == 0.0:
        assert again.residual == textbook_residual(ClosedLoop(model), settled_state(model, res), np.zeros(3), 1e-3)
        assert again.converged == (again.residual < 1e-7)


@pytest.mark.parametrize("t_max", [0.05, 0.0])
def test_settle_timeout_reports_not_raises(model, t_max):
    """A timeout returns; its residual is the textbook increment over dt at the state it returns, the start at t_max 0."""
    p_m = np.array([0.3, 0.0, 0.0])
    res = settle(model, p_m, tol=1e-12, t_max=t_max)
    assert not res.converged
    assert res.residual > 1e-12
    assert res.residual == textbook_residual(ClosedLoop(model), settled_state(model, res), p_m, 1e-3)
    if t_max == 0.0:
        start = ClosedLoop(model).pack(PlantState.zero(model), init_controller(model))
        assert same_bits(settled_state(model, res), start)


def test_settle_rests_on_an_interior_kink():
    """The loop rests where bus 0 sits on its kink with the price strictly inside the Clarke interval.

    three_bus with buses 1 and 2 given the one-piece cost a = 1, under +0.5
    at bus 0: the optimum is p_l = (0.2, 0.15, 0.15), bus 0 on its kink at
    0.2 with the price 0.3 strictly inside its Clarke interval [0.2, 0.4]
    (mu* = -0.3). There the one-sided derivative of d0 never vanishes
    (max|rhs| stays near 0.1), but the RK4 stages straddle the kink and
    cancel, so the RK4 map is stationary: the loop is at rest in the
    Filippov sense, and `settle` must say so.
    """
    doc = json.loads(network_path("three_bus").read_text())
    for bus in doc["buses"][1:]:
        bus["cost"] = [{"x_min": None, "x_max": None, "a": 1.0, "b": 0.0, "c": 0.0}]
    model = parse_network(doc, "three_bus_interior_kink")
    p_m = np.array([0.5, 0.0, 0.0])
    res = settle(model, p_m, tol=1e-6, t_max=60.0, dt=2e-3)
    assert res.converged
    p_l = project_box(res.ctrl.d, model.load_box)
    optimum = solve_olc(model, p_m).p_l_star
    assert np.allclose(optimum, [0.2, 0.15, 0.15], atol=1e-6)
    assert np.max(np.abs(p_l - optimum)) < 1e-4
    # The rest the old test max|rhs| < tol could not see.
    assert np.max(np.abs(ClosedLoop(model).rhs(settled_state(model, res), p_m))) >= 0.09


def test_settle_insensitive_to_initial_state(model):
    """The closed loop reaches the same optimum from randomized starts."""
    from olfc.controller import ControllerState
    from olfc.costs import project_box
    from olfc.dynamics import PlantState

    p_m = np.array([0.3, 0.0, 0.0])
    rng = np.random.default_rng(21)
    for _ in range(2):
        nodal = rng.uniform(-0.3, 0.3, model.n)
        plant = PlantState(
            theta_e=model.incidence.T @ nodal,
            omega_g=rng.uniform(-0.5, 0.5, model.n_g),
        )
        ctrl = ControllerState(
            d=rng.uniform(-0.6, 0.6, model.n),
            mu=rng.uniform(-0.6, 0.6, model.n),
            phi=rng.uniform(-0.6, 0.6, model.n),
            varphi_plus=rng.uniform(-0.6, 0.6, model.m),
            varphi_minus=rng.uniform(-0.6, 0.6, model.m),
        )
        res = settle(model, p_m, tol=1e-8, t_max=300.0, plant=plant, ctrl=ctrl)
        assert res.converged
        assert np.allclose(project_box(res.ctrl.d, model.load_box), 0.1, atol=1e-6)
        assert np.allclose(res.ctrl.mu, -0.1, atol=1e-6)


def test_step_at_equilibrium_barely_moves(model):
    p_m = np.array([0.3, 0.0, 0.0])
    res = settle(model, p_m, tol=1e-10, t_max=300.0)
    assert res.converged
    loop = ClosedLoop(model, None)
    before = loop.pack(res.plant, res.ctrl)
    plant2, ctrl2 = loop.unpack(loop.rk4(before, p_m, 1e-3, loop.feedthrough(p_m)))
    after = loop.pack(plant2, ctrl2)
    assert np.max(np.abs(after - before)) < 1e-11


# -- warm starts and CSV ------------------------------------------------------


def test_warm_start_round_trip(tmp_path, model):
    n, m, g = model.n, model.m, model.n_g
    rng = np.random.default_rng(7)
    # theta_e = C^T (bus angles): a line-angle vector with no loop component.
    plant_vec = np.concatenate([model.incidence.T @ rng.uniform(-0.2, 0.2, n), rng.uniform(-0.2, 0.2, g)])
    ctrl_vec = rng.uniform(-0.2, 0.2, 3 * n + 2 * m)
    np.savetxt(tmp_path / "plant.txt", plant_vec)
    np.savetxt(tmp_path / "ctrl.txt", ctrl_vec)
    (tmp_path / "net.json").write_text(network_path("three_bus").read_text())
    doc = {
        "network": "net.json",
        "t_end": 0.0,
        "dt": 0.001,
        "init": {"plant": "plant.txt", "controller": "ctrl.txt"},
    }
    scn = load_scenario(write_scenario(tmp_path, doc))
    log = run(scn)
    assert np.allclose(log.theta_e[0], plant_vec[:m], atol=0, rtol=0)
    assert np.allclose(log.d[0], ctrl_vec[:n], atol=0, rtol=0)
    assert np.allclose(log.mu[0], ctrl_vec[n : 2 * n], atol=0, rtol=0)


def test_csv_schema_and_read_back(tmp_path, model):
    scn = make_scenario(t_end=0.1, dt=0.01, events=[Event(time=0.0, bus=0, delta_p_m=0.3)])
    log = run(scn, model)
    out = tmp_path / "traj.csv"
    log.to_csv(out)
    header = out.read_text().splitlines()[0].split(",")
    n, m = model.n, model.m
    expected = (
        ["t"]
        + [f"theta_e[{k}]" for k in range(m)]
        + [f"omega[{j}]" for j in range(n)]
        + [f"d[{j}]" for j in range(n)]
        + [f"mu[{j}]" for j in range(n)]
        + [f"phi[{j}]" for j in range(n)]
        + [f"varphi_plus[{k}]" for k in range(m)]
        + [f"varphi_minus[{k}]" for k in range(m)]
        + [f"p_l[{j}]" for j in range(n)]
        + [f"eta_plus[{k}]" for k in range(m)]
        + [f"eta_minus[{k}]" for k in range(m)]
        + [f"flow[{k}]" for k in range(m)]
        + ["cost"]
    )
    assert header == expected
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (len(log.times), len(expected))
    assert np.array_equal(data[:, 0], log.times)
    assert np.array_equal(data[:, 1 : 1 + m], log.theta_e)
    assert np.array_equal(data[:, -1], log.cost)


def test_final_state_accessors(model):
    scn = make_scenario(t_end=0.2, events=[Event(time=0.0, bus=0, delta_p_m=0.3)])
    log = run(scn, model)
    plant = log.final_plant(model)
    ctrl = log.final_controller()
    assert np.array_equal(plant.theta_e, log.theta_e[-1])
    assert np.array_equal(ctrl.phi, log.phi[-1])


def test_packaged_scenarios_parse():
    for name in (
        "two_bus_box",
        "three_bus_smooth",
        "three_bus_kink",
        "three_bus_interior_kink",
        "three_bus_congested",
        "nine_bus_steps",
        "zero_disturbance",
        "sixty_eight_bus_steps",
        "sixty_eight_bus_kinks",
    ):
        scn = load_scenario(scenario_path(name))
        model = scn.load_model()
        assert model.n >= 2
