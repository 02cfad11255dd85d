"""Command-line entry point.

Subcommands:

* ``validate <network.json>``          parse and check a network file
* ``run <scenario...> --out <path>``   integrate and write trajectory CSV
* ``settle <scenario>``                integrate to equilibrium, print summary
* ``solve <network> --pm <file>``      run the optimization oracle
* ``check <scenario...>``              full pipeline: run, settle, oracle, report

Exit codes: 0 success; 1 validation or parse error; 2 numerical failure
(timeout, non-finite state, iteration cap); 3 a `check` report failed.
Errors are emitted as one JSON object per line on standard error.

Every scenario file, with the overrides applied, is validated before any
scenario is integrated, its event buses and warm-start files against its
network too; `settle` and `check` pass that network on to the job. So is
every file `--out` names: one that is a directory or lies under a file
exits 1 before any work, as does a write that fails later.
`run` and `check` take several scenarios one after another, in this
process. Both report every scenario that finishes: a numerical
failure in one of them prints one error line naming it (with a "scenario"
field), and the `wrote` lines, the tables and the `--out` files still hold
the others. The exit code is the gravest outcome: 1 if any input is
invalid (nothing is reported), else 2 if any scenario failed numerically,
else 3 if any `check` report failed, else 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import FullState, Theorem1Report, check_theorem1
from .costs import SELECTION_RULES, project_box
from .controller import MISMATCH_SOURCES
from .dynamics import assemble_frequencies
from .errors import InfeasibleProblemError, NumericalError, OlfcError, ValidationError, naming
from .network import NetworkModel, load_network
from .oracle import OptimalSolution, check_feasibility, solve_olc
from .simulator import Scenario, SettleResult, TrajectoryLog, load_scenario, run, settle

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse whose parse errors are validation errors, reported by `main` like any other."""

    def error(self, message):
        raise ValidationError(message)


def _emit_error(kind: str, message: str, **extra) -> None:
    print(json.dumps({"error": kind, "message": message, **extra}), file=sys.stderr)


def _dumps(obj, **kwargs) -> str:
    """JSON text of obj: numpy floats are floats already, and arrays and other numpy scalars go through `tolist`."""
    return json.dumps(obj, default=lambda x: x.tolist(), **kwargs)


def _positive(name: str):
    """An argparse type: the text as a finite float above zero, else a parse error naming `name`."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"{name} must be finite and positive, got {text}")
        return value

    return parse


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dt", type=float, default=None, help="integration step override [s]")
    p.add_argument("--t-end", type=float, default=None, help="horizon override [s]")
    p.add_argument("--selection", choices=[*SELECTION_RULES, "mid"], default=None,
                   help="subgradient selection rule override")
    p.add_argument("--mismatch", choices=MISMATCH_SOURCES, default=None,
                   help="power mismatch source override")
    p.add_argument("--epsilon", type=float, default=None, help="controller time-scale override")
    p.add_argument("--log-decimation", type=int, default=None, help="record every k-th step")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="olfc", description="distributed load-frequency control simulator and oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a network file")
    p_val.add_argument("network", help="network JSON file")

    p_run = sub.add_parser("run", help="integrate scenarios and write trajectory CSVs")
    p_run.add_argument("scenario", nargs="+", help="scenario JSON file(s)")
    p_run.add_argument("--out", required=True, help="output CSV path (directory when several scenarios)")
    _add_sim_flags(p_run)

    p_settle = sub.add_parser("settle", help="integrate a scenario to equilibrium")
    p_settle.add_argument("scenario", help="scenario JSON file")
    p_settle.add_argument("--tol", type=_positive("tol"), default=1e-8, help="settle tolerance on the RK4 step's increment over dt")
    p_settle.add_argument("--t-max", type=_positive("t_max"), default=600.0, help="settle time budget [s of model time]")
    _add_sim_flags(p_settle)

    p_solve = sub.add_parser("solve", help="solve the allocation problem with the oracle")
    p_solve.add_argument("network", help="network JSON file")
    p_solve.add_argument("--pm", required=True, help="text file with the injection vector p_m")
    p_solve.add_argument("--tol", type=_positive("tol"), default=1e-6, help="oracle objective tolerance")

    p_check = sub.add_parser("check", help="run, settle, solve and verify the optimality claims")
    p_check.add_argument("scenario", nargs="+", help="scenario JSON file(s)")
    p_check.add_argument("--tol", type=_positive("tol"), default=1e-4, help="acceptance tolerance")
    p_check.add_argument("--t-max", type=_positive("t_max"), default=600.0, help="settle time budget [s of model time]")
    p_check.add_argument("--out", default=None, help="write the machine-readable reports to this JSON file")
    _add_sim_flags(p_check)

    return parser


def _load(path: str, ns: argparse.Namespace) -> tuple[Scenario, NetworkModel]:
    """A scenario file with the command line's overrides applied and checked whole against its network, and that network.

    `path` is put in front of the errors that the scenario and network files do not name themselves.
    """
    scenario = load_scenario(path)
    model = scenario.load_model()
    config = {k: getattr(ns, k) for k in ("selection", "mismatch", "epsilon") if getattr(ns, k) is not None}
    fields = {k: getattr(ns, k) for k in ("dt", "t_end", "log_decimation") if getattr(ns, k) is not None}
    with naming(path):
        scenario = dataclasses.replace(scenario, config=dataclasses.replace(scenario.config, **config), **fields)
        scenario.start_state(model)
    return scenario, model


def _file_target(path: Path) -> Path:
    """`path`, once it is no directory and its nearest existing ancestor is one."""
    parent = next(p for p in path.absolute().parents if p.exists())
    if path.is_dir() or not parent.is_dir():
        why = "is a directory" if path.is_dir() else f"lies under {parent}, which is not a directory"
        raise ValidationError(f"--out {path} {why}, but a file is to be written there")
    return path


def _write(path: Path, write) -> None:
    """Create the directory of `path` and call write(path); an OSError becomes a validation error naming --out."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as exc:
        raise ValidationError(f"--out {path} cannot be written: {exc}") from exc


def _out_paths(out: str, paths: list[str]) -> list[Path]:
    """The CSV of each scenario: `out` itself, or <out>/<stem>.csv for several scenarios or a directory.

    An `out` that is a file while it must be a directory, a CSV that cannot
    be a file, and two scenarios that would write the same CSV, are rejected.
    """
    out_p = Path(out)
    if len(paths) == 1 and not (out_p.is_dir() or out.endswith("/")):
        return [_file_target(out_p)]
    if out_p.exists() and not out_p.is_dir():
        raise ValidationError(f"--out {out} is a file, but several scenarios need a directory")
    owners: dict[Path, str] = {}
    for path in paths:
        csv_path = _file_target(out_p / (Path(path).stem + ".csv"))
        if csv_path in owners:
            raise ValidationError(f"scenarios {owners[csv_path]} and {path} would both write {csv_path}")
        owners[csv_path] = path
    return list(owners)


def _run_job(path: str, scenario: Scenario, csv_path: Path) -> dict:
    with naming(path):
        log = run(scenario)
    _write(csv_path, log.to_csv)
    return {
        "scenario": path,
        "out": str(csv_path),
        "records": int(log.times.size),
        "t_end": float(log.times[-1]),
    }


@dataclasses.dataclass
class ScenarioResult:
    """One scenario taken to rest and, once checked, the oracle optimum and the verdict."""

    scenario: Scenario
    model: NetworkModel
    log: TrajectoryLog
    settled: SettleResult
    oracle: OptimalSolution | None = None
    report: Theorem1Report | None = None

    @property
    def p_m(self) -> np.ndarray:
        return self.log.p_m_final


def settle_scenario(scenario: Scenario, model: NetworkModel, tol: float, t_max: float) -> ScenarioResult:
    """Integrate a scenario on its network over its horizon, then settle it from the run's end state."""
    log = run(scenario, model)
    # The settle goes on from the run's end under its p_m, so it takes the run's last chunk maker and its maps (the
    # 68-bus P); the log lets go of it, so that it lives no longer than the settle.
    last, log._last = log._last, None
    settled = settle(
        model,
        log.p_m_final,
        tol=tol,
        t_max=t_max,
        plant=log.final_plant(model),
        ctrl=log.final_controller(),
        config=scenario.config,
        dt=scenario.dt,
        _last=last,
    )
    return ScenarioResult(scenario, model, log, settled)


def check_scenario(scenario: Scenario, model: NetworkModel, label: str, tol: float, t_max: float) -> ScenarioResult:
    """Settle a scenario on its network, solve for the optimum independently and check the claims at `tol`.

    When the closed loop does not settle within t_max seconds of model time,
    raises InfeasibleProblemError if no load allocation can balance the final
    injection (the oracle's phase 1), else NumericalError; either names `label`.
    """
    res = settle_scenario(scenario, model, tol=1e-8, t_max=t_max)
    sr = res.settled
    if not sr.converged:
        try:
            check_feasibility(res.model, res.p_m)
        except InfeasibleProblemError as exc:
            raise InfeasibleProblemError(f"{label}: {exc}") from None
        raise NumericalError(f"{label}: closed loop did not settle within {t_max:g} s (residual {sr.residual:.3e})")
    res.oracle = solve_olc(res.model, res.p_m, tol=1e-6)
    res.report = check_theorem1(res.model, FullState(sr.plant, sr.ctrl), res.oracle, res.p_m, tol=tol)
    return res


def _check_job(path: str, scenario: Scenario, model: NetworkModel, tol: float, t_max: float) -> dict:
    with naming(path):
        res = check_scenario(scenario, model, path, tol=tol, t_max=t_max)
    sr = res.settled
    return {
        "scenario": path,
        "settle_time": sr.t,
        "report": res.report.to_dict(),
        "flows": (res.model.susceptances * sr.plant.theta_e).tolist(),
        "edge_angles": (res.model.incidence.T @ sr.ctrl.phi).tolist(),
        "objective": res.oracle.objective,
        "mu": sr.ctrl.mu.tolist(),
    }


def _print_check_table(result: dict) -> None:
    rep = result["report"]
    checks = rep["checks"]
    detail = {
        "frequency_restored": f"|omega|_inf = {rep['omega_inf']:.3e}",
        "kkt": f"max residual = {rep['kkt']['max_residual']:.3e}",
        "theta_matches_phi": f"gap = {rep['theta_phi_gap']:.3e}",
        "line_limits": f"violation = {rep['line_violation']:.3e}",
        "p_l_matches_oracle": f"gap = {rep['p_l_gap']:.3e}",
    }
    print(f"scenario: {result['scenario']}")
    print(f"  settled at t = {result['settle_time']:.3f} s; objective = {result['objective']:.9g}; "
          f"mu spread = {rep['mu_spread']:.3e}")
    for name, ok in checks.items():
        print(f"  {name:<22} {'PASS' if ok else 'FAIL':<6} {detail.get(name, '')}")
    print(f"  {'overall':<22} {'PASS' if rep['passed'] else 'FAIL'}")


def _map_jobs(fn, job_args: list[tuple]) -> list[dict]:
    """fn(*args) of the jobs that do not fail numerically, in order; each that does is one error line naming it, args[0]."""
    results = []
    for args in job_args:
        try:
            results.append(fn(*args))
        except NumericalError as exc:
            _emit_error("numerical", str(exc), scenario=args[0])
    return results


def _cmd_validate(ns) -> int:
    model = load_network(ns.network)
    print(f"ok: {model.n} buses ({model.n_g} generators), {model.m} lines")
    return EXIT_OK


def _cmd_run(ns) -> int:
    # Each job loads its network again instead of taking the checked model:
    # perfbench's wrapper on `run` keeps every model it is passed until the
    # end of a benchmark run, which raised trajectory_export's peak RSS by
    # 6 % (90.8 -> 96.5 MiB median on a 2-vCPU Xeon guest).
    job_args = [(p, _load(p, ns)[0], csv) for p, csv in zip(ns.scenario, _out_paths(ns.out, ns.scenario))]
    results = _map_jobs(_run_job, job_args)
    for res in results:
        print(f"wrote {res['out']} ({res['records']} records, t_end = {res['t_end']:g} s)")
    return EXIT_NUMERICAL if len(results) < len(job_args) else EXIT_OK


def _cmd_settle(ns) -> int:
    scenario, model = _load(ns.scenario, ns)
    with naming(ns.scenario):
        res = settle_scenario(scenario, model, tol=ns.tol, t_max=ns.t_max)
    sr = res.settled
    p_l = project_box(sr.ctrl.d, res.model.load_box)
    omega = assemble_frequencies(res.model, sr.plant, res.p_m, p_l)
    print(_dumps({
        "converged": sr.converged,
        "t": sr.t,
        "residual": sr.residual,
        "omega_inf": float(np.max(np.abs(omega))),
        "p_l": p_l,
        "mu": sr.ctrl.mu,
        "mu_spread": float(np.max(sr.ctrl.mu) - np.min(sr.ctrl.mu)),
    }))
    if not sr.converged:
        raise NumericalError(f"did not settle within {ns.t_max:g} s (residual {sr.residual:.3e})")
    return EXIT_OK


def _cmd_solve(ns) -> int:
    model = load_network(ns.network)
    try:
        p_m = np.loadtxt(ns.pm, dtype=float, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read injection vector from {ns.pm}: {exc}") from exc
    with naming(ns.pm):
        sol = solve_olc(model, p_m, tol=ns.tol)
    print(_dumps({
        "objective": sol.objective,
        "dual_objective": sol.dual_objective,
        "p_l_star": sol.p_l_star,
        "phi_star": sol.phi_star,
        "mu_star": sol.mu_star,
        "eta_plus_star": sol.eta_plus_star,
        "eta_minus_star": sol.eta_minus_star,
        "iterations": sol.iterations,
        "balance_residual": sol.balance_residual,
    }))
    return EXIT_OK


def _cmd_check(ns) -> int:
    out = ns.out and _file_target(Path(ns.out))
    job_args = [(p, *_load(p, ns), ns.tol, ns.t_max) for p in ns.scenario]
    results = _map_jobs(_check_job, job_args)
    for res in results:
        _print_check_table(res)
    if out and results:
        _write(out, lambda path: path.write_text(_dumps(results, indent=2) + "\n"))
    if len(results) < len(job_args):
        return EXIT_NUMERICAL
    return EXIT_OK if all(res["report"]["passed"] for res in results) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    """Run one command; the one place an error becomes its JSON line on stderr and its exit code."""
    try:
        ns = build_parser().parse_args(argv)
        handler = {
            "validate": _cmd_validate,
            "run": _cmd_run,
            "settle": _cmd_settle,
            "solve": _cmd_solve,
            "check": _cmd_check,
        }[ns.command]
        return handler(ns)
    except SystemExit as exc:  # --help
        return exc.code
    except NumericalError as exc:
        _emit_error("numerical", str(exc))
        return EXIT_NUMERICAL
    except OlfcError as exc:
        _emit_error("validation", str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
