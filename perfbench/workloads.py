"""Seeded scenario generation for the three benchmark workloads.

Every generated scenario starts from a bundled scenario in
``src/olfc/data/scenarios`` and perturbs its events: each event is delayed
by up to a quarter second and has its magnitude scaled by a factor in
[0.95, 1.05]. These ranges keep the phase-1 problem feasible and the set of
active limits, and with it the time to rest, close to the template's, so
that runs on different seeds do comparable work: with factors in [0.9, 1.1]
the 68-bus time to rest still ranged over 118 to 131 model seconds. Events keep their bus:
moving one to a neighbouring bus changed the 68-bus time to rest from 141
to 109 model seconds, and moving events with magnitudes up to 20% off
spread the congested 3-bus one over 60 to 98 (92 at the template).
``three_bus_smooth`` stands for the 3-bus triangle, not ``three_bus_kink``:
the kink template rests exactly on a breakpoint, and a 0.2% larger step
there takes ten times longer to rest. A draw that fails later is counted
as a failure by the caller, never redrawn.

A run repeats one round of pipelines. A round has a fixed composition
(which fixtures, which mismatch source, which horizon); the seed decides
the event perturbations and, on ``small_sweep``, which of the equally
costly selection rules goes to which fixture. An export horizon drops the events after it. Seed ``s``
draws from ``default_rng(s)``, so a round is the same on every run with the
same seed.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# small_sweep: one check pipeline per fixture, state dimensions 17 to 63, as
# (template, mismatch source, selection rule or None). The mismatch source
# and minnorm stay with one fixture each, because they set the cost of a
# step (the estimate path adds about 40%, minnorm about 12% over the other
# rules): a run's work must not depend on its seed. The seed deals the
# other three rules, which cost within 4% of each other, to the pipelines
# marked None. two_bus_box (dimension 10) is left out: it would add about
# 8 s to every run.
SMALL_PIPELINES = (
    ("three_bus_smooth", "estimate", None),
    ("three_bus_congested", "model", "minnorm"),
    ("nine_bus_steps", "estimate", None),
)
DEALT_RULES = ("left", "right", "midpoint")
LARGE_TEMPLATE = "sixty_eight_bus_steps"
# trajectory_export: (template, horizon in model seconds) at log_decimation 1.
# Horizons are short so that a run repeats the round about ten times: CSV
# export is timed per call, and its fastest repeat is what the benchmark
# reports.
EXPORT_TEMPLATES = (("nine_bus_steps", 1.0), ("sixty_eight_bus_steps", 0.5))

MAGNITUDE_RANGE = (0.95, 1.05)
MAX_DELAY_S = 0.25


@dataclass(frozen=True)
class Job:
    """One pipeline: a generated scenario file and the CLI command run on it."""

    pipeline_id: str
    command: str  # "check" or "run"
    scenario: Path
    network: str
    selection: str
    mismatch: str


class ScenarioFactory:
    """Writes seeded scenarios and copies of their networks into a work directory."""

    def __init__(self, data_dir: Path, work_dir: Path, seed: int):
        self.data_dir = data_dir
        self.work_dir = work_dir
        self.seed = seed
        work_dir.mkdir(parents=True, exist_ok=True)

    def _network(self, rel: str) -> Path:
        """Copy a bundled network next to the generated scenarios."""
        src = (self.data_dir / "scenarios" / rel).resolve()
        dst = self.work_dir / src.name
        if not dst.exists():
            shutil.copyfile(src, dst)
        return dst

    def scenario(
        self,
        rng: np.random.Generator,
        template: str,
        *,
        selection: str = "minnorm",
        mismatch: str = "model",
        t_end: float | None = None,
        log_decimation: int | None = None,
    ) -> tuple[Path, str]:
        raw = json.loads((self.data_dir / "scenarios" / f"{template}.json").read_text())
        net_path = self._network(raw["network"])
        horizon = float(raw["t_end"] if t_end is None else t_end)
        events = []
        for ev in raw["events"]:
            time = float(ev["time"]) + float(rng.uniform(0.0, MAX_DELAY_S))
            scale = float(rng.uniform(*MAGNITUDE_RANGE))
            if time <= horizon:
                events.append({"time": time, "bus": ev["bus"], "delta_p_m": float(ev["delta_p_m"]) * scale})
        controller = dict(raw.get("controller", {}))
        controller.update(selection=selection, mismatch=mismatch)
        doc = {
            "network": net_path.name,
            "t_end": horizon,
            "dt": raw["dt"],
            "events": events,
            "controller": controller,
            "log_decimation": raw.get("log_decimation", 1) if log_decimation is None else log_decimation,
        }
        # Not "<template>.json": a network file of that name may sit beside it.
        path = self.work_dir / f"{template}.scenario.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        return path, net_path.stem


def round_jobs(workload: str, factory: ScenarioFactory) -> list[Job]:
    """The pipelines of a workload's round, with their scenario files written."""
    rng = np.random.default_rng(factory.seed)
    jobs = []
    if workload == "small_sweep":
        dealt = iter(rng.permutation(DEALT_RULES))
        for template, mismatch, rule in SMALL_PIPELINES:
            rule = rule or str(next(dealt))
            path, net = factory.scenario(rng, template, selection=rule, mismatch=mismatch)
            jobs.append(Job(template, "check", path, net, rule, mismatch))
    elif workload == "large_grid":
        path, net = factory.scenario(rng, LARGE_TEMPLATE)
        jobs.append(Job(LARGE_TEMPLATE, "check", path, net, "minnorm", "model"))
    elif workload == "trajectory_export":
        for template, horizon in EXPORT_TEMPLATES:
            path, net = factory.scenario(rng, template, t_end=horizon, log_decimation=1)
            jobs.append(Job(template, "run", path, net, "minnorm", "model"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


WORKLOADS = ("small_sweep", "large_grid", "trajectory_export")
