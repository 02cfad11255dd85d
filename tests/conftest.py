"""Shared fixtures: bundled networks, the uncached closed-loop derivative, RK4, and a cache of checked pipelines."""

import dataclasses
import functools
import time
from pathlib import Path

import numpy as np
import pytest

from olfc import load_scenario
from olfc.cli import ScenarioResult, check_scenario
from olfc.network import load_network

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "olfc" / "data"
SCENARIO_DIR = DATA_DIR / "scenarios"
NETWORKS = ("two_bus", "three_bus", "three_bus_congested", "nine_bus", "sixty_eight_bus")


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


def textbook_rk4(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of dy/dt = f(y), written as the textbook formula."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


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
