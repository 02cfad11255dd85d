"""Shared fixtures: bundled and degenerate networks, the uncached closed-loop derivative, the readable equations, RK4 and the
Filippov sliding step, and a cache of checked pipelines."""

import copy
import dataclasses
import functools
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from olfc import load_scenario, simulator
from olfc.cli import ScenarioResult, check_scenario
from olfc.controller import controller_rhs, estimate_mismatch, outputs, subgradient_selection
from olfc.costs import PiecewiseCost, project_box
from olfc.dynamics import PlantState, plant_rhs
from olfc.errors import NumericalError
from olfc.network import load_network, parse_network
from olfc.simulator import ClosedLoop, settle

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "olfc" / "data"
SCENARIO_DIR = DATA_DIR / "scenarios"
NETWORKS = ("two_bus", "three_bus", "three_bus_congested", "nine_bus", "sixty_eight_bus")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "hot: the hot path's specifications and the operator build, which CI runs as a step of their own"
    )


@dataclasses.dataclass
class Pipeline(ScenarioResult):
    """A bundled scenario taken through `olfc check`'s pipeline, with its wall time."""

    name: str = ""
    wall_seconds: float = 0.0


def network_path(name: str) -> Path:
    return DATA_DIR / f"{name}.json"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.json"


@functools.cache
def bundled_network(name: str):
    return load_network(network_path(name))


def dense(model) -> bool:
    """Whether the closed loop of `model` holds K dense, under the size rule: then `run` and `settle` take chunks."""
    return isinstance(ClosedLoop(model).K, np.ndarray)


DENSE_SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.json") if dense(load_scenario(p).load_model()))


def _degenerate_doc(kinds: str, lines: list[tuple[int, int]]) -> dict:
    """Buses of the given kinds ('g'enerator or 'l'oad), each with a two-piece cost kinked at 0.1."""
    cost = [
        {"x_min": None, "x_max": 0.1, "a": 0.25, "b": 0.0, "c": 0.0},
        {"x_min": 0.1, "x_max": None, "a": 0.5, "b": 0.05, "c": -0.0075},
    ]
    buses = []
    for i, kind in enumerate(kinds):
        bus = {"id": i, "kind": "load", "D": 1.0 + 0.1 * i, "p_l_min": -1.0, "p_l_max": 1.0, "cost": cost}
        if kind == "g":
            bus.update(kind="generator", M=0.3)
        buses.append(bus)
    return {
        "buses": buses,
        "lines": [{"from": a, "to": b, "B": 1.5, "theta_min": -0.5, "theta_max": 0.5} for a, b in lines],
    }


# Networks whose packed layout has zero-width blocks: no line (m = 0), no
# generator (g = 0), no load bus.
DEGENERATE_NETWORKS = ("one_bus", "loads_only", "generators_only")
_DEGENERATE_DOCS = {
    "one_bus": _degenerate_doc("g", []),
    "loads_only": _degenerate_doc("lll", [(0, 1), (1, 2)]),
    "generators_only": _degenerate_doc("gg", [(0, 1)]),
}


@functools.cache
def degenerate_network(name: str):
    return parse_network(_DEGENERATE_DOCS[name], name)


# A step past RK4's stability bound on three_bus and sixty_eight_bus, and the disturbance (bus, p_m) each diverges under.
DIVERGING_DT = 0.12
DIVERGING_P_M = {"three_bus": (0, 0.3), "sixty_eight_bus": (20, 0.5)}


def diverging_start(name: str):
    """(model, p_m, plant, ctrl) from which RK4 at `DIVERGING_DT` diverges under p_m.

    The start is where a settle under p_m ends: at rest, or near it after the
    300 s the 68-bus network is given. So chunks run before the state grows:
    doubling chunks where K is dense, lane chunks on the 68-bus network. The
    settle runs once per network; each call hands out copies of p_m, plant
    and ctrl, so that no test sees what another wrote into them.
    """
    model, *start = _diverging_rest(name)
    return model, *copy.deepcopy(start)


@functools.cache
def _diverging_rest(name: str):
    model = bundled_network(name)
    bus, value = DIVERGING_P_M[name]
    p_m = np.zeros(model.n)
    p_m[bus] = value
    rest = settle(model, p_m, tol=1e-10, t_max=300.0)
    return model, p_m, rest.plant, rest.ctrl


def on_kinks(costs, x: np.ndarray) -> np.ndarray:
    """Whether each bus's cost has a kink at x: its Clarke interval there, read off the cost, has lo < hi."""
    return np.array([iv.lo < iv.hi for iv in map(PiecewiseCost.clarke, costs, x)])


def reference_derivative(loop, y: np.ndarray, aff: np.ndarray, zero_g=()) -> np.ndarray:
    """dy/dt of `loop` at y with no cost piece kept: the operand filled with `CostBatch.select`, then K @ u + aff.

    The buses in `zero_g` take g = 0 instead.
    """
    p_l = np.clip(y[loop.sl_d], loop.box_lower, loop.box_upper)
    g = loop.batch.select(p_l, loop.config.selection)
    g[list(zero_g)] = 0.0
    u = np.concatenate([y, p_l, np.maximum(y[loop.sl_vp], 0.0), np.maximum(y[loop.sl_vm], 0.0), g])
    return loop.K @ u + aff


def readable_rhs(model, plant: PlantState, ctrl, p_m, config, held=()) -> tuple[np.ndarray, np.ndarray]:
    """dy/dt from the readable module functions, in the packed layout, and the equivalent control of each held bus.

    A bus in `held` slides on its kink (Filippov's solution): its g is the
    equivalent control g_eq that makes its d' vanish, so its d' is 0, and
    g_eq is its d' / epsilon taken with g = 0.
    """
    held = list(held)
    p_l = project_box(ctrl.d, model.load_box)
    dtheta, domega_g, omega = plant_rhs(model, plant, p_m, p_l)
    mismatch = None
    if config.mismatch == "estimate":
        mismatch = estimate_mismatch(model, omega, domega_g, model.susceptances * plant.theta_e)
    out = outputs(model, ctrl, p_m, mismatch)
    g_sel = subgradient_selection(model, out.p_l, config.selection)
    g_sel[held] = 0.0
    dctrl = controller_rhs(model, ctrl, out, omega, g_sel, config.epsilon)
    g_eq = dctrl.d[held] / config.epsilon
    dctrl.d[held] = 0.0
    return np.concatenate([dtheta, domega_g, dctrl.pack()]), g_eq


def textbook_stages(f, y: np.ndarray, dt: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """The increment Phi_dt(y) - y of one RK4 step of dy/dt = f(y), written as the textbook formula, and its four stage states."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    stages = [y, y + (0.5 * dt) * k1, y + (0.5 * dt) * k2, y + dt * k3]
    return (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4), stages


def textbook_increment(f, y: np.ndarray, dt: float) -> np.ndarray:
    """The increment Phi_dt(y) - y of one RK4 step of dy/dt = f(y), written as the textbook formula."""
    return textbook_stages(f, y, dt)[0]


def region_kinds(model, loop, Y: np.ndarray) -> dict[str, np.ndarray]:
    """Per state (row of Y): each bus's box side, each bus's cost piece or breakpoint, each varphi+- sign.

    The open pieces of a cost are kinds 0, 2, 4, ... and its breakpoints
    between them 1, 3, ...
    """
    d = Y[:, loop.sl_d]
    box = model.load_box
    p_l = np.clip(d, box.lower, box.upper)
    pieces = np.stack(
        [np.searchsorted(c.breakpoints, p_l[:, j]) + np.searchsorted(c.breakpoints, p_l[:, j], "right") for j, c in enumerate(model.costs)],
        axis=1,
    )
    return {
        "box": np.sign(d - box.lower) + np.sign(d - box.upper),
        "piece": pieces,
        "varphi": np.sign(Y[:, loop.region_rows[model.n :]]),
    }


def sliding_buses(loop, y: np.ndarray) -> np.ndarray:
    """The buses inside their box whose d sits exactly on a cost kink: those that may slide there."""
    box, d = loop.model.load_box, y[loop.sl_d]
    on = [j for j, c in enumerate(loop.model.costs) if d[j] in c.breakpoints and box.lower[j] < d[j] < box.upper[j]]
    return np.array([j for j in on if on_kinks([loop.model.costs[j]], d[[j]])[0]], dtype=int)


def sliding_derivative(loop, x: np.ndarray, aff: np.ndarray, held) -> tuple[np.ndarray, np.ndarray]:
    """`readable_rhs` with its held buses, on the packed operator: with g = 0 a held bus's d' / epsilon is its g_eq, then its d' is 0."""
    dy = reference_derivative(loop, x, aff, held)
    rows = loop.sl_d.start + held
    g_eq = dy[rows] / loop.config.epsilon
    dy[rows] = 0.0
    return dy, g_eq


def filippov_stages(loop, y: np.ndarray, aff: np.ndarray, dt: float):
    """The RK4 step from y of Filippov's sliding field, or None where the buses on a kink do not slide for the whole step.

    The field is `sliding_derivative` with every bus of `sliding_buses`
    held: the packed operator, which `tests/test_differential.py` pins to the
    readable equations, and `tests/test_sliding.py` pins sliding chunks to
    `readable_rhs` itself. The step slides when at each of its four stages
    each held bus's g_eq lies strictly inside its Clarke interval, read off
    its cost, and every other bus, box side and varphi+- sign keeps its piece
    (`region_kinds`). Returns the increment and the stage states, as
    `textbook_stages`.
    """
    held = sliding_buses(loop, y)
    if not held.size:
        return None
    costs, d = loop.model.costs, y[loop.sl_d]
    lo, hi = np.array([(iv.lo, iv.hi) for iv in (costs[j].clarke(d[j]) for j in held)]).T
    g_eqs = []

    def f(x):
        dy, g_eq = sliding_derivative(loop, x, aff, held)
        g_eqs.append(g_eq)
        return dy

    increment, stages = textbook_stages(f, y, dt)
    g_eqs = np.array(g_eqs)
    if not np.all((lo < g_eqs) & (g_eqs < hi)):
        return None
    kinds = region_kinds(loop.model, loop, np.array(stages))
    if not all(np.all(v == v[0]) for v in kinds.values()):
        return None
    return increment, stages


def reference_stages(loop, y: np.ndarray, aff: np.ndarray, dt: float, f=None):
    """One step of the loop `run` and `settle` specify: the increment, the stage states and whether it slid.

    It is `filippov_stages` where the buses on a kink slide for the whole
    step, else the textbook RK4 step of f, by default `reference_derivative`
    (`rhs` gives the same bits, see `tests/test_rk4.py`).
    """
    slide = filippov_stages(loop, y, aff, dt)
    if slide is not None:
        return (*slide, True)
    if f is None:
        f = functools.partial(reference_derivative, loop, aff=aff)
    return (*textbook_stages(f, y, dt), False)


def snapped(loop, y: np.ndarray, moves: dict, motion: np.ndarray, dt: float, aff: np.ndarray) -> np.ndarray:
    """y with each bus of `moves` ({bus: kink}) moved onto its kink, once each move is checked.

    A move must go onto a breakpoint of the bus's cost strictly inside its
    box, and no farther than one step's reach: dt |d'| at y, or `motion`,
    the largest motion of that d in one of the last 256 steps.
    """
    z = y.copy()
    rate = reference_derivative(loop, y, aff)[loop.sl_d]
    box = loop.model.load_box
    for j, kink in moves.items():
        assert kink in loop.model.costs[j].breakpoints and box.lower[j] < kink < box.upper[j], (j, kink)
        reach = max(dt * abs(rate[j]), motion[j])
        assert abs(kink - y[loop.sl_d][j]) <= reach * (1.0 + 1e-9), (j, kink, y[loop.sl_d][j], reach)
        z[loop.sl_d.start + j] = kink
    return z


def textbook_rk4(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of dy/dt = f(y), written as the textbook formula."""
    return y + textbook_increment(f, y, dt)


def textbook_residual(loop, y: np.ndarray, p_m: np.ndarray, dt: float) -> float:
    """The rest residual max|Phi_dt(y) - y| / dt of one textbook RK4 step of `loop.rhs` from y."""
    aff = loop.feedthrough(p_m)
    return float(np.max(np.abs(textbook_increment(lambda x: loop.rhs(x, p_m, aff), y, dt)))) / dt


def textbook_run(scenario, model) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """Textbook RK4 over `reference_derivative`, one step at a time, through a scenario.

    Returns the state at every step (one row each), and p_m on each event
    segment with the step it starts at. A state that is not finite at a
    logged step raises `NumericalError` with `run`'s message.
    """
    return _stepped_run(scenario, model, None)


def reference_run(scenario, model, snaps: dict) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """The loop `run` specifies, one `reference_stages` step at a time, with the stepper's moves onto a kink.

    `snaps` maps a step to the moves the stepper made there (the `snaps`
    fixture); each is checked by `snapped` and made in this loop's own state.
    Off the sliding steps this is `textbook_run`. Returns what it returns.
    """
    return _stepped_run(scenario, model, snaps)


def _stepped_run(scenario, model, snaps: dict | None):
    loop = ClosedLoop(model, scenario.config)
    dt, dec, n_steps = scenario.dt, scenario.log_decimation, scenario.step_count()
    y = scenario.start_state(model)
    p_m = np.zeros(model.n)
    segments, starts = [p_m.copy()], [0]
    states = np.empty((n_steps + 1, loop.dim))
    for k in range(n_steps + 1):
        events = [ev for ev in scenario.events if min(max(round(ev.time / dt), 0), n_steps) == k]
        for ev in events:
            p_m[ev.bus] += ev.delta_p_m
        if events:
            segments.append(p_m.copy())
            starts.append(k)
        if k == 0 or events:
            aff = loop.feedthrough(p_m)
            f = functools.partial(reference_derivative, loop, aff=aff)
        if snaps and k in snaps:
            recent = np.vstack([states[max(k - 256, 0) : k, loop.sl_d], y[loop.sl_d]])
            motion = np.max(np.abs(np.diff(recent, axis=0)), axis=0, initial=0.0)
            y = snapped(loop, y, snaps[k], motion, dt, aff)
        if (k % dec == 0 or k == n_steps) and not np.all(np.isfinite(y)):
            raise NumericalError(f"non-finite state at t={k * dt:g}s")
        states[k] = y
        if k < n_steps:
            y = textbook_rk4(f, y, dt) if snaps is None else y + reference_stages(loop, y, aff, dt, f)[0]
    return states, segments, starts


def rows_within(got: np.ndarray, ref: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether each row of got is within tol relative of the same row of ref, relative to that row's max |ref|."""
    if got.shape != ref.shape:
        return False
    return bool(np.all(np.max(np.abs(got - ref), axis=1) <= tol * np.max(np.abs(ref), axis=1)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="session")
def pipeline():
    """Factory returning cached checked pipelines keyed by (name, selection, mismatch)."""
    cache: dict = {}

    def build(name: str, selection: str = "minnorm", mismatch: str = "model") -> Pipeline:
        key = (name, selection, mismatch)
        if key not in cache:
            scenario = load_scenario(scenario_path(name))
            cfg = dataclasses.replace(scenario.config, selection=selection, mismatch=mismatch)
            scenario = dataclasses.replace(scenario, config=cfg)
            t0 = time.perf_counter()
            res = check_scenario(scenario, scenario.load_model(), name, tol=1e-4, t_max=600.0)
            cache[key] = Pipeline(**vars(res), name=name, wall_seconds=time.perf_counter() - t0)
        return cache[key]

    return build


class Chunk(NamedTuple):
    """One chunk the stepper took: its maps, start state and step, the steps it could take, the steps it kept."""

    maps: object
    y: np.ndarray
    k: int
    n: int
    taken: int


@pytest.fixture
def chunks(monkeypatch):
    """Every chunk that `run` and `settle` take through the stepper, `simulator._Stepper.advance`, in order.

    A block is a chunk when the stepper records no plain rows for it
    (`_Stepper.plain`). Its start state is its first row, after any move onto a
    kink (`snaps`); its steps kept are those up to a settle's rest cut.
    """
    seen: list[Chunk] = []
    advance = simulator._Stepper.advance

    def spy(self, y, k, n, tol=None):
        Y, residual = advance(self, y, k, n, tol)
        if self.plain == 0:
            seen.append(Chunk(self.chunk, Y[0].copy(), k, min(n, self.chunk.steps), len(Y) - 1))
        return Y, residual

    monkeypatch.setattr(simulator._Stepper, "advance", spy)
    return seen


@pytest.fixture
def snaps(monkeypatch):
    """Every move onto a kink that `run` and `settle` make, {step: {bus: kink}}.

    A move is a bus whose d differs, bit for bit, between the state that
    `simulator._Stepper.advance` is given and the first row it hands back.
    """
    seen: dict[int, dict[int, float]] = {}
    advance = simulator._Stepper.advance

    def spy(self, y, k, n, tol=None):
        d = y[self.loop.sl_d].copy()
        Y, residual = advance(self, y, k, n, tol)
        moved = np.flatnonzero(Y[0, self.loop.sl_d].view(np.int64) != d.view(np.int64))
        if moved.size:
            seen[k] = {int(j): float(Y[0, self.loop.sl_d][j]) for j in moved}
        return Y, residual

    monkeypatch.setattr(simulator._Stepper, "advance", spy)
    return seen
