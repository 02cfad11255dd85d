"""olfc benchmark: seeded check/run pipelines, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small_sweep --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):

* ``small_sweep``: ``olfc check`` on the 3- and 9-bus fixtures, across the
  selection rules and both mismatch sources;
* ``large_grid``: ``olfc check`` on the 68-bus fixture, three events;
* ``trajectory_export``: ``olfc run --out`` on the 9- and 68-bus fixtures at
  ``log_decimation`` 1.

Each pipeline is one in-process call of ``olfc.cli.main`` on a generated
scenario file, as a user would run the CLI with the default ``--jobs 1``.
A run repeats the same round of pipelines until ``--seconds`` would be
exceeded; a round is never cut, so a run holds at least one round.

On a shared virtual machine (measured on a 2-vCPU Xeon guest) a core's
speed can swing by up to 1.7x within seconds, in CPU time as much as in
wall time, and its best speed drifts by about 10% over minutes; a run's
mean or median time then says more about its neighbours than about olfc.
The end-to-end times therefore come from short, repeated pieces of work,
each at the fastest of its repeats, the time it takes while nothing
contends for the core:

* integration and CSV export: every ``run``, ``settle`` and ``to_csv`` call
  is timed in slices of a few RK4 steps or CSV rows (``layers.py``); each
  call's sliced units are charged at the fastest time per unit over its
  slices in all rounds;
* everything else in a pipeline (parse, build, oracle, analysis, the units
  outside whole slices) is charged at its fastest time over the rounds.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics:

* ``wall_s``: one round's time in ``cli.main``, made up as above;
* ``model_s_per_s``: model seconds integrated in a round (run horizon plus
  settle time to rest) per second of its integration, made up as above;
* ``setup_s``: median over fresh interpreters of ``import olfc`` plus the
  first pipeline's parse, ``ClosedLoop`` build and first phase-1 LP solve;
* ``peak_rss_mb``: peak resident memory of this process.

The plain per-round wall times are kept in the run's ``result.json``.

With ``--trace 1`` the same rounds run with spans around every layer call,
and the last line holds the per-layer metrics (self times and counts
per round, per-call microbenchmarks on the workload's own states, and the
per-fixture table).

Every pipeline passes an output gate (check verdict PASS, settled p_l
within 1e-4 of the oracle; CSV rows, columns and last row equal to the
in-memory log) or counts as failed. A SHA-256 digest of each settled state
and CSV is kept under ``.perfbench_out/digests``, keyed by a hash of the
program and benchmark sources; a later round or run of the same seed that
disagrees counts the pipeline as failed. Everything a run writes goes under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from layers import INTEGRATION_KINDS, Capture, Instrumented, Recorder, span_cost_s
from probes import fixture_table, machine_record, operator_counts, prepare, state_microbench
from workloads import WORKLOADS, Job, ScenarioFactory, round_jobs

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
P_L_TOL = 1e-4
DEADLINE_S = 150.0  # the run must end within 180 s; a pipeline still running then fails
CSV_ALIASES = {"t": "times", "flow": "flows", "V": "lyapunov"}


class DeadlineExceeded(Exception):
    pass


@dataclasses.dataclass
class Outcome:
    job: Job
    round: int
    wall_s: float
    capture: Capture
    failure: str | None = None
    digest: str | None = None
    model_s: float = 0.0
    csv_bytes: int = 0
    extra: dict = dataclasses.field(default_factory=dict)


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def source_fingerprint(root: Path) -> str:
    """Hash of the program and benchmark sources that decide a run's outputs."""
    files = sorted(p for p in (root / "src" / "olfc").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    files += sorted(HERE.glob("*.py"))
    return _sha256(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() for p in files)[:16]


def _csv_value(log, name: str) -> float:
    base, _, index = name.partition("[")
    series = getattr(log, CSV_ALIASES.get(base, base))
    return float(series[-1, int(index.rstrip("]"))] if index else series[-1])


def _last_record(log):
    return dataclasses.replace(
        log, **{f.name: getattr(log, f.name)[-1:].copy() for f in dataclasses.fields(log) if f.name != "p_m_final"}
    )


def gate_check(out: Outcome, report_path: Path) -> None:
    cap = out.capture
    reports = json.loads(report_path.read_text())
    if len(reports) != 1 or not reports[0]["report"]["passed"]:
        out.failure = "check report did not pass"
        return
    if len(cap.runs) != 1 or len(cap.settles) != 1 or len(cap.solutions) != 1:
        out.failure = "pipeline did not call run, settle and the oracle once each"
        return
    scenario, model, log = cap.runs[0]
    settled, sol = cap.settles[0], cap.solutions[0]
    if not settled.converged:
        out.failure = "settle timed out"
        return
    ctrl = settled.ctrl
    p_l = np.clip(ctrl.d, model.load_box.lower, model.load_box.upper)
    gap = float(np.max(np.abs(p_l - sol.p_l_star)))
    if not gap <= P_L_TOL:
        out.failure = f"settled p_l is {gap:.3e} from the oracle optimum"
        return
    out.model_s = float(log.times[-1]) + float(settled.t)
    out.extra = {"settle_t": float(settled.t), "p_l_gap": gap}
    out.digest = _sha256(
        np.ascontiguousarray(v, dtype="<f8").tobytes()
        for v in (ctrl.d, ctrl.mu, ctrl.phi, ctrl.varphi_plus, ctrl.varphi_minus)
    )


def gate_export(out: Outcome, csv_path: Path) -> None:
    """Stream the CSV once: digest, header, row count and last row."""
    if len(out.capture.runs) != 1:
        out.failure = "pipeline did not call run once"
        return
    log = out.capture.runs[0][2]
    h = hashlib.sha256()
    newlines, size, header, tail = 0, 0, b"", b""
    with csv_path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
            newlines += chunk.count(b"\n")
            if not header and b"\n" in tail + chunk:
                header = (tail + chunk).split(b"\n", 1)[0]
            tail = (tail + chunk)[-(1 << 16):]
    csv_path.unlink()
    names = header.decode().split(",")
    last = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")
    rows = newlines - 1
    if rows != log.times.size or len(last) != len(names):
        out.failure = f"CSV has {rows} rows x {len(last)} columns, log has {log.times.size} records x {len(names)} names"
        return
    try:
        expected = np.array([_csv_value(log, n) for n in names])
    except (AttributeError, ValueError, IndexError) as exc:
        out.failure = f"CSV column does not map to the log: {exc}"
        return
    if not np.array_equal(np.array([float(x) for x in last]), expected, equal_nan=True):
        out.failure = "CSV last row differs from the in-memory log"
        return
    out.model_s = float(log.times[-1])
    out.csv_bytes = size
    out.digest = h.hexdigest()


def execute(job: Job, rnd: int, rec: Recorder, cli, run_dir: Path) -> Outcome:
    cap = rec.begin(job.pipeline_id)
    target = run_dir / (job.pipeline_id + (".report.json" if job.command == "check" else ".csv"))
    argv = [job.command, str(job.scenario), "--out", str(target)]
    sink = io.StringIO()
    out = Outcome(job, rnd, 0.0, cap)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = rec.call("cli.main", "cli", cli.main, argv)
        out.wall_s = time.perf_counter() - t0
        if code != 0:
            out.failure = f"exit code {code}: {sink.getvalue()[-400:]}"
        elif job.command == "check":
            gate_check(out, target)
        else:
            gate_export(out, target)
    except DeadlineExceeded:
        out.failure = "run deadline reached inside the pipeline"
    except Exception as exc:  # a layer raised past the CLI's handlers, or its output is malformed
        out.failure = f"raised {type(exc).__name__}: {exc}"
    out.wall_s = out.wall_s or time.perf_counter() - t0
    # Keep only the last record of each trajectory, so that peak memory does
    # not depend on how many rounds fit in a run.
    cap.runs = [(scenario, model, _last_record(log)) for scenario, model, log in cap.runs]
    return out


def compare_digests(store: Path, outcomes: list[Outcome]) -> int:
    """Check digests against earlier rounds and runs of the same seed; record new ones."""
    known = json.loads(store.read_text()) if store.exists() else {}
    compared = 0
    for out in outcomes:
        if out.digest is None:
            continue
        pid = out.job.pipeline_id
        if pid in known:
            compared += 1
            if known[pid] != out.digest and out.failure is None:
                out.failure = "digest differs from an earlier run of the same seed"
        else:
            known[pid] = out.digest
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return compared


def steady_times(rounds: list[list[Outcome]]) -> tuple[float, float]:
    """One round's time in cli.main and in integration, each piece at its fastest repeat."""
    wall = integration = 0.0
    for repeats in zip(*rounds):  # one pipeline, every round
        parts = [o.capture.sliced for o in repeats]
        wall += min(o.wall_s - sum(sum(c.slices) for c in calls) for o, calls in zip(repeats, parts))
        for k, first in enumerate(parts[0]):
            calls = [p[k] for p in parts if len(p) > k]
            sliced = 0.0
            if first.slices:
                per_unit = min(t / c.slice_units for c in calls for t in c.slices)
                sliced = len(first.slices) * first.slice_units * per_unit
            wall += sliced
            if first.kind in INTEGRATION_KINDS:
                integration += sliced + min(c.wall_s - sum(c.slices) for c in calls)
    return wall, integration


def setup_probe(src: Path, scenario: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probes.py"), str(src), str(scenario)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def layer_metrics(rec: Recorder, outcomes: list[Outcome], n_rounds: int, data_dir: Path) -> dict:
    """Per-layer metrics of a traced run: per-round self times and counts, microbenchmarks."""
    import olfc

    self_times = rec.self_times()
    per_round = {
        "network.load_s": self_times.get("network", 0.0),
        "simulator.build_s": self_times.get("simulator.build", 0.0),
        "simulator.run_s": self_times.get("simulator.run", 0.0),
        "simulator.settle_s": self_times.get("simulator.settle", 0.0),
        "simulator.to_csv_s": self_times.get("simulator.to_csv", 0.0),
        "oracle.solve_s": self_times.get("oracle", 0.0),
        "analysis.check_s": self_times.get("analysis", 0.0),
        "cli.main_overhead_s": self_times.get("cli", 0.0),
        "trace.wall_s": sum(o.wall_s for o in outcomes),
        "trace.spans": float(len(rec.spans)),
        "trace.overhead_s": len(rec.spans) * span_cost_s(),
        "simulator.run_steps": 0.0,
        "simulator.settle_steps": 0.0,
        "simulator.rhs_evals": 0.0,
        "simulator.csv_bytes": float(sum(o.csv_bytes for o in outcomes)),
        "oracle.admm_iters": 0.0,
        "oracle.dual_iters": 0.0,
    }
    for o in outcomes:
        for scenario, _, _ in o.capture.runs:
            steps = int(round(scenario.t_end / scenario.dt))
            per_round["simulator.run_steps"] += steps
            per_round["simulator.rhs_evals"] += 4 * steps
        for settled, (scenario, _, _) in zip(o.capture.settles, o.capture.runs):
            steps = int(round(settled.t / scenario.dt))
            per_round["simulator.settle_steps"] += steps
            per_round["simulator.rhs_evals"] += 4 * steps + 1
        for sol in o.capture.solutions:
            dual = int(sol.diagnostics.get("dual_iterations", 0))
            per_round["oracle.dual_iters"] += dual
            per_round["oracle.admm_iters"] += sol.iterations - dual
    metrics = {k: v / n_rounds for k, v in per_round.items()}

    # Microbenchmarks on the states the first round's pipelines ended in.
    samples = []
    for o in outcomes:
        if o.round == 0 and o.failure is None:
            scenario, model, log = o.capture.runs[0]
            model = model or scenario.load_model()
            loop = olfc.ClosedLoop(model, scenario.config)
            if o.capture.settles:
                state = o.capture.settles[0]
                y = loop.pack(state.plant, state.ctrl)
            else:
                y = loop.pack(log.final_plant(model), log.final_controller())
            row = state_microbench(loop, y, log.p_m_final, scenario.dt)
            row.update(operator_counts(loop))
            samples.append(row)
    for key in ("rhs_us", "rk4_us", "observe_us", "K_nnz", "K_density", "rhs_bytes_computed"):
        metrics[f"simulator.{key}"] = statistics.fmean(s[key] for s in samples) if samples else 0.0
    for key in ("select_us", "value_us"):
        metrics[f"costs.{key}"] = statistics.fmean(s[key] for s in samples) if samples else 0.0
    for label, row in fixture_table(data_dir).items():
        metrics[f"fixture.{label}.rhs_us"] = row["rhs_us"]
        metrics[f"fixture.{label}.rk4_us"] = row["rk4_us"]
    return metrics


UNITS = {"_per_s": "s/s", "_s": "s", "_us": "us", "_mb": "MiB", "_bytes": "bytes", "_computed": "bytes",
         "_density": "ratio"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "olfc" / "__init__.py").is_file():
        print(f"perfbench: no olfc sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import olfc
    from olfc import cli

    if Path(olfc.__file__).resolve().parent != (src / "olfc").resolve():
        print(f"perfbench: imported olfc from {olfc.__file__}, not from {src}", file=sys.stderr)
        return 2

    def on_deadline(signum, frame):
        raise DeadlineExceeded()

    signal.signal(signal.SIGALRM, on_deadline)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)

    out_root = root / ".perfbench_out"
    run_dir = out_root / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    data_dir = src / "olfc" / "data"
    factory = ScenarioFactory(data_dir, run_dir / "scenarios", args.seed)

    jobs = round_jobs(args.workload, factory)
    setup = [] if args.trace else [setup_probe(src, jobs[0].scenario) for _ in range(SETUP_PROBES)]
    prepare(jobs[0].scenario)  # the same warm-up here, so that no round pays it

    rec = Recorder(trace=bool(args.trace))
    rounds: list[list[Outcome]] = []
    t_start = time.perf_counter()
    with Instrumented(rec):
        while True:
            outcomes = [execute(job, len(rounds), rec, cli, run_dir) for job in jobs]
            rounds.append(outcomes)
            round_wall = sum(o.wall_s for o in outcomes)
            if time.perf_counter() - t_start + round_wall > args.seconds:
                break
    signal.setitimer(signal.ITIMER_REAL, 0.0)

    flat = [o for r in rounds for o in r]
    store = out_root / "digests" / source_fingerprint(root) / f"{args.workload}-s{args.seed}.json"
    compared = compare_digests(store, flat)
    failed = sum(o.failure is not None for o in flat)

    if args.trace:
        metrics = layer_metrics(rec, flat, len(rounds), data_dir)
        rec.write_spans(run_dir / "spans.jsonl")
    else:
        wall, integration = steady_times(rounds)
        metrics = {
            "wall_s": wall,
            "model_s_per_s": sum(o.model_s for o in rounds[0]) / integration if integration else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_record(),
        "setup_s": setup,
        "round_wall_s": [sum(o.wall_s for o in r) for r in rounds],
        "digests_compared": compared,
        "pipelines": [
            {"id": o.job.pipeline_id, "round": o.round, "network": o.job.network, "selection": o.job.selection,
             "mismatch": o.job.mismatch, "wall_s": o.wall_s, "model_s": o.model_s,
             "integration_s": o.capture.integration_s,
             "unsliced_s": o.wall_s - sum(sum(c.slices) for c in o.capture.sliced),
             "slices": [{"kind": c.kind, "units": c.units, "n": len(c.slices),
                         "min_s": min(c.slices, default=0.0), "median_s": statistics.median(c.slices or [0.0])}
                        for c in o.capture.sliced],
             "digest": o.digest, "failure": o.failure, **o.extra}
            for o in flat
        ],
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for o in flat:
        if o.failure:
            print(f"perfbench: round {o.round} {o.job.pipeline_id} failed: {o.failure}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(flat),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
