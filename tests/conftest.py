"""Shared fixtures: bundled and degenerate networks, the uncached closed-loop derivative, RK4, and a cache of checked pipelines."""

import dataclasses
import functools
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from olfc import load_scenario, simulator
from olfc.cli import ScenarioResult, check_scenario
from olfc.controller import init_controller
from olfc.costs import PiecewiseCost
from olfc.dynamics import PlantState
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

    A dense network starts at rest, so chunks run before the state grows; the
    68-bus network takes no chunk, and starts from zero.
    """
    model = bundled_network(name)
    bus, value = DIVERGING_P_M[name]
    p_m = np.zeros(model.n)
    p_m[bus] = value
    if not dense(model):
        return model, p_m, PlantState.zero(model), init_controller(model)
    rest = settle(model, p_m, tol=1e-10, t_max=300.0)
    return model, p_m, rest.plant, rest.ctrl


def on_kinks(costs, x: np.ndarray) -> np.ndarray:
    """Whether each bus's cost has a kink at x: its Clarke interval there, read off the cost, has lo < hi."""
    return np.array([iv.lo < iv.hi for iv in map(PiecewiseCost.clarke, costs, x)])


def reference_derivative(loop, y: np.ndarray, aff: np.ndarray) -> np.ndarray:
    """dy/dt of `loop` at y with no cost piece kept: the operand filled with `CostBatch.select`, then K @ u + aff."""
    p_l = np.clip(y[loop.sl_d], loop.box_lower, loop.box_upper)
    u = np.concatenate([
        y,
        p_l,
        np.maximum(y[loop.sl_vp], 0.0),
        np.maximum(y[loop.sl_vm], 0.0),
        loop.batch.select(p_l, loop.config.selection),
    ])
    return loop.K @ u + aff


def textbook_increment(f, y: np.ndarray, dt: float) -> np.ndarray:
    """The increment Phi_dt(y) - y of one RK4 step of dy/dt = f(y), written as the textbook formula."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def textbook_rk4(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of dy/dt = f(y), written as the textbook formula."""
    return y + textbook_increment(f, y, dt)


def textbook_residual(loop, y: np.ndarray, p_m: np.ndarray, dt: float) -> float:
    """The rest residual max|Phi_dt(y) - y| / dt of one textbook RK4 step of `loop.rhs` from y."""
    aff = loop.feedthrough(p_m)
    return float(np.max(np.abs(textbook_increment(lambda x: loop.rhs(x, p_m, aff), y, dt)))) / dt


def textbook_run(scenario, model) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """The loop `run` specifies, one textbook RK4 step over `reference_derivative` at a time.

    Returns the state at every step (one row each), and p_m on each event
    segment with the step it starts at. A state that is not finite at a
    logged step raises `NumericalError` with `run`'s message.
    """
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
            f = functools.partial(reference_derivative, loop, aff=loop.feedthrough(p_m))
        if (k % dec == 0 or k == n_steps) and not np.all(np.isfinite(y)):
            raise NumericalError(f"non-finite state at t={k * dt:g}s")
        states[k] = y
        if k < n_steps:
            y = textbook_rk4(f, y, dt)
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

    A block is a chunk when its rows are not in the stepper's buffer of
    plain steps. Its steps kept are those up to a settle's rest cut.
    """
    seen: list[Chunk] = []
    advance = simulator._Stepper.advance

    def spy(self, y, k, n, tol=None):
        Y, residual = advance(self, y, k, n, tol)
        if not np.shares_memory(Y, self.rows):
            seen.append(Chunk(self.chunk, y.copy(), k, min(n, simulator._CHUNK_STEPS), len(Y) - 1))
        return Y, residual

    monkeypatch.setattr(simulator._Stepper, "advance", spy)
    return seen
