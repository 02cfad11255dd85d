"""Command-line interface: subcommands, exit codes, outputs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import olfc
from olfc import cli
from olfc.cli import main
from olfc.network import load_network

from conftest import network_path, scenario_path


@pytest.fixture()
def tmp_scenario(tmp_path):
    def make(name="scn.json", **over):
        doc = {
            "network": str(network_path("three_bus")),
            "t_end": 1.0,
            "dt": 0.001,
            "events": [{"time": 0.0, "bus": 0, "delta_p_m": 0.3}],
        }
        doc.update(over)
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return make


def read_stderr_json(capsys):
    """The captured output and stderr's lines, each of which must be one JSON object."""
    captured = capsys.readouterr()
    errs = [json.loads(ln) for ln in captured.err.splitlines()]
    assert all(isinstance(e, dict) for e in errs), captured.err
    return captured, errs


# -- validate -----------------------------------------------------------------


def test_validate_ok(capsys):
    assert main(["validate", str(network_path("three_bus"))]) == 0
    out = capsys.readouterr().out
    assert "ok: 3 buses (2 generators), 3 lines" in out


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/net.json"]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs and errs[0]["error"] == "validation"


def test_validate_rejects_a_file_that_is_not_text(tmp_path, capsys):
    p = tmp_path / "binary.json"
    p.write_bytes(b"\xff\xfe\x00")
    assert main(["validate", str(p)]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs[-1]["error"] == "validation" and f"cannot read network file {p}" in errs[-1]["message"]


def test_validate_broken_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{ nope")
    assert main(["validate", str(p)]) == 1
    _, errs = read_stderr_json(capsys)
    assert "broken.json:1:" in errs[0]["message"]


# -- argument errors ----------------------------------------------------------


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_exits_1(tmp_scenario, capsys):
    assert main(["run", tmp_scenario()]) == 1


def test_no_arguments_exits_1(capsys):
    assert main([]) == 1


def test_a_parse_error_is_one_json_line(capsys):
    """No usage text: stderr holds exactly the one validation error, naming the flag."""
    assert main(["check", str(scenario_path("three_bus_smooth")), "--tol", "0"]) == 1
    captured, errs = read_stderr_json(capsys)
    assert captured.out == ""
    assert errs == [{"error": "validation", "message": "argument --tol: tol must be finite and positive, got 0"}]


# -- non-finite input ---------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("buses", "D", NAN),
        ("buses", "M", NAN),
        ("buses", "p_l_max", INF),
        ("lines", "theta_max", NAN),
        ("lines", "B", INF),
    ],
)
def test_validate_rejects_non_finite_network_field(tmp_path, capsys, section, field, value):
    doc = json.loads(network_path("three_bus").read_text())
    doc[section][0][field] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs[0]["error"] == "validation"
    assert f"{field} must be finite" in errs[0]["message"]


@pytest.mark.parametrize(
    "over, flags, field",
    [
        ({"t_end": NAN, "events": []}, [], "t_end"),
        ({"dt": INF}, [], "dt"),
        ({"events": [{"time": 0.0, "bus": 0, "delta_p_m": NAN}]}, [], "delta_p_m"),
        ({"events": [{"time": NAN, "bus": 0, "delta_p_m": 0.3}]}, [], "time"),
        ({"events": [{"time": 0.0, "bus": NAN, "delta_p_m": 0.3}]}, [], "events[0]: field 'bus'"),
        ({"controller": {"epsilon": INF}}, [], "epsilon"),
        ({"events": []}, ["--t-end", "nan"], "t_end"),
    ],
)
def test_run_rejects_non_finite_scenario_field(tmp_scenario, tmp_path, capsys, over, flags, field):
    assert main(["run", tmp_scenario(**over), "--out", str(tmp_path / "x.csv"), *flags]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs[-1]["error"] == "validation"
    assert field in errs[-1]["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "command, flags, field",
    [
        ("settle", ["--t-max", "nan"], "t_max"),
        ("settle", ["--t-max", "inf"], "t_max"),
        ("settle", ["--tol", "inf"], "tol"),
        ("check", ["--tol", "inf"], "tol"),
        ("settle", ["--t-max", "-1"], "t_max"),
        ("check", ["--t-max", "-1"], "t_max"),
        ("check", ["--t-max", "nan"], "t_max"),
    ],
)
def test_non_finite_tolerance_or_budget_exits_1(tmp_scenario, capsys, command, flags, field):
    assert main([command, tmp_scenario(t_end=0.01), *flags]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs[-1]["error"] == "validation"
    assert f"{field} must be finite" in errs[-1]["message"]


@pytest.mark.parametrize("command", ["settle", "solve", "check"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "abc"])
def test_tolerance_must_be_finite_and_positive(tmp_scenario, tmp_path, capsys, command, value):
    """A bad --tol exits 1 at parse time, naming the flag, instead of running to a cap or a FAIL."""
    if command == "solve":
        pm = tmp_path / "pm.txt"
        np.savetxt(pm, np.array([0.3, 0.0, 0.0]))
        argv = ["solve", str(network_path("three_bus")), "--pm", str(pm)]
    else:
        argv = [command, tmp_scenario()]
    assert main([*argv, "--tol", value]) == 1
    captured, errs = read_stderr_json(capsys)
    assert captured.out == ""
    assert errs[-1]["error"] == "validation"
    assert "--tol" in errs[-1]["message"] and "tol must be finite and positive" in errs[-1]["message"]


@pytest.mark.parametrize("command", ["run", "check"])
def test_jobs_is_no_option(tmp_scenario, tmp_path, capsys, command):
    """Scenarios run one after another in this process, so `--jobs` is neither listed nor taken."""
    assert main([command, "--help"]) == 0
    assert "--jobs" not in capsys.readouterr().out
    assert main([command, tmp_scenario(), "--out", str(tmp_path / "x"), "--jobs", "2"]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs[-1]["error"] == "validation" and "--jobs" in errs[-1]["message"]
    assert not (tmp_path / "x").exists()


# -- wrong JSON types ---------------------------------------------------------

# One value of each JSON type, and the JSON types each declared field type takes.
JSON_SAMPLES = {"integer": 5, "number": 0.5, "string": "x", "boolean": True, "null": None, "array": [], "object": {}}
TAKES = {
    "number": {"integer", "number"},
    "number or null": {"integer", "number", "null"},
    "integer": {"integer"},
    "string": {"string"},
    "array": {"array"},
    "object": {"object"},
}

# (document, keys to the object in it, the object's section in messages, {field: declared type})
SECTIONS = [
    ("network", (), "network", {"buses": "array", "lines": "array"}),
    ("network", ("buses", 0), "buses[0]", {"id": "integer", "kind": "string", "M": "number", "D": "number",
                                           "p_l_min": "number", "p_l_max": "number", "cost": "array"}),
    ("network", ("lines", 0), "lines[0]", {"from": "integer", "to": "integer", "B": "number",
                                           "theta_min": "number", "theta_max": "number"}),
    ("network", ("buses", 0, "cost", 0), "buses[0].cost[0]", {"x_min": "number or null", "x_max": "number or null",
                                                               "a": "number", "b": "number", "c": "number"}),
    ("scenario", (), "scenario", {"network": "string", "t_end": "number", "dt": "number", "events": "array",
                                  "controller": "object", "init": "object", "log_decimation": "integer"}),
    ("scenario", ("events", 0), "events[0]", {"time": "number", "bus": "integer", "delta_p_m": "number"}),
    ("scenario", ("controller",), "controller", {"selection": "string", "mismatch": "string", "epsilon": "number"}),
    ("scenario", ("init",), "init", {"plant": "string", "controller": "string"}),
]
FIELDS = [(doc, keys, section, name, declared) for doc, keys, section, fields in SECTIONS for name, declared in fields.items()]


@pytest.mark.parametrize("document, keys, section, name, declared", FIELDS, ids=[f"{f[2]}.{f[3]}" for f in FIELDS])
def test_a_field_of_a_wrong_json_type_exits_1_naming_file_and_field(tmp_path, capsys, document, keys, section, name, declared):
    """Each JSON type the field does not take fails at parse time with a validation error, never a traceback."""
    for kind, value in JSON_SAMPLES.items():
        if kind in TAKES[declared]:
            continue
        if document == "network":
            doc = json.loads(network_path("three_bus").read_text())
        else:
            doc = {"network": str(network_path("three_bus")), "t_end": 0.05, "dt": 0.001,
                   "events": [{"time": 0.0, "bus": 0, "delta_p_m": 0.3}], "controller": {}, "init": {}}
        target = doc
        for key in keys:
            target = target[key]
        target[name] = value
        path = tmp_path / f"{document}.json"
        path.write_text(json.dumps(doc))
        assert main(["validate" if document == "network" else "check", str(path)]) == 1, kind
        captured, errs = read_stderr_json(capsys)
        assert "Traceback" not in captured.err and captured.out == ""
        assert errs[-1]["error"] == "validation"
        assert errs[-1]["message"].startswith(f"{path}: {section}") and f"field {name!r}" in errs[-1]["message"], kind


# -- run ----------------------------------------------------------------------


def test_importing_the_cli_does_not_load_the_lp_solver():
    """Only a feasibility check needs scipy.optimize, so a fresh `import olfc.cli` (as `olfc run` makes) leaves it unloaded."""
    src = str(Path(olfc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, olfc.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_run_writes_csv(tmp_scenario, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["run", tmp_scenario(), "--out", str(out)]) == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header.startswith("t,theta_e[0]")
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("half, length", [("controller", 14), ("plant", 4), ("controller", None)])
def test_run_rejects_bad_warm_start_file(tmp_scenario, tmp_path, capsys, half, length):
    """A short vector or a missing file exits 1 with a message that names the file."""
    warm = tmp_path / f"{half}.txt"
    if length is not None:
        np.savetxt(warm, np.zeros(length))
    assert main(["run", tmp_scenario(init={half: str(warm)}), "--out", str(tmp_path / "x.csv")]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs[-1]["error"] == "validation"
    assert str(warm) in errs[-1]["message"]
    assert not (tmp_path / "x.csv").exists()


def test_run_rejects_warm_start_with_loop_angle(tmp_scenario, tmp_path, capsys):
    """On the 3-bus triangle, theta_e = (-0.1, -0.05, 0) is not C^T of any bus angles."""
    warm = tmp_path / "plant.txt"
    np.savetxt(warm, np.linspace(-0.1, 0.1, 5))
    assert main(["run", tmp_scenario(init={"plant": str(warm)}), "--out", str(tmp_path / "x.csv")]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs[-1]["error"] == "validation"
    assert str(warm) in errs[-1]["message"] and "loop component" in errs[-1]["message"]
    assert not (tmp_path / "x.csv").exists()


def test_run_multiple_scenarios_to_directory(tmp_scenario, tmp_path, capsys):
    a = tmp_scenario("a.json", t_end=0.05)
    b = tmp_scenario("b.json", t_end=0.05)
    outdir = tmp_path / "out"
    assert main(["run", a, b, "--out", str(outdir)]) == 0
    assert (outdir / "a.csv").exists()
    assert (outdir / "b.csv").exists()


def test_several_scenarios_give_each_the_bytes_it_gives_alone(tmp_path, capsys):
    """One `check` or `run` of several scenarios prints, reports and writes for each what a call with it alone does.

    The scenarios run one after another in one process, so nothing one of
    them leaves behind may reach the next: the `check --out` entries and
    tables, and the `run` CSVs, must be those of one call per scenario.
    """
    paths = [str(scenario_path(name)) for name in ("three_bus_smooth", "two_bus_box", "nine_bus_steps")]
    assert main(["check", *paths, "--out", str(tmp_path / "all.json")]) == 0
    together = capsys.readouterr().out
    alone = []
    for k, path in enumerate(paths):
        assert main(["check", path, "--out", str(tmp_path / f"{k}.json")]) == 0
        alone.append(capsys.readouterr().out)
    assert together == "".join(alone)
    entries = json.loads((tmp_path / "all.json").read_text())
    assert entries == [json.loads((tmp_path / f"{k}.json").read_text())[0] for k in range(len(paths))]

    runs = [str(scenario_path(name)) for name in ("three_bus_congested", "nine_bus_steps")]
    flags = ["--t-end", "6", "--log-decimation", "1"]
    assert main(["run", *runs, *flags, "--out", str(tmp_path / "together") + "/"]) == 0
    for path in runs:
        csv = Path(path).stem + ".csv"
        assert main(["run", path, *flags, "--out", str(tmp_path / "alone" / csv)]) == 0
        assert (tmp_path / "together" / csv).read_bytes() == (tmp_path / "alone" / csv).read_bytes()


def test_run_rejects_scenarios_that_share_a_csv(tmp_scenario, tmp_path, capsys):
    """Two scenario files with one stem would write one CSV: exit 1 before anything runs."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = tmp_scenario("a/x.json", t_end=0.05)
    b = tmp_scenario("b/x.json", t_end=0.05)
    outdir = tmp_path / "out"
    assert main(["run", a, b, "--out", str(outdir)]) == 1
    captured, errs = read_stderr_json(capsys)
    assert "wrote" not in captured.out
    assert errs[-1]["error"] == "validation"
    assert a in errs[-1]["message"] and b in errs[-1]["message"]
    assert str(outdir / "x.csv") in errs[-1]["message"]
    assert not outdir.exists()


def test_run_rejects_an_existing_file_as_the_directory_of_several(tmp_scenario, tmp_path, capsys):
    a = tmp_scenario("a.json", t_end=0.05)
    b = tmp_scenario("b.json", t_end=0.05)
    out = tmp_path / "existing.csv"
    out.write_text("keep me\n")
    assert main(["run", a, b, "--out", str(out)]) == 1
    captured, errs = read_stderr_json(capsys)
    assert "wrote" not in captured.out
    assert errs[-1]["error"] == "validation" and str(out) in errs[-1]["message"]
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize(
    "over, message",
    [
        ({"dt": -1.0}, "dt must be positive"),
        # An event bus outside the network is found at load time too, naming the file.
        ({"events": [{"time": 0.0, "bus": 7, "delta_p_m": 0.1}]}, "bad.json: events[0] references unknown bus 7"),
        # So is a warm-start file that is too short (short.txt, next to the scenario files).
        ({"init": {"controller": "short.txt"}}, "bad.json: warm-start file"),
        # And a horizon whose step count overflows, at either end of t_end / dt.
        ({"t_end": 1e308}, "bad.json: scenario t_end / dt = 1e+308 / 0.001 is not a finite step count"),
        ({"dt": 1e-320}, "bad.json: scenario t_end / dt = 0.05 / 9.99989e-321 is not a finite step count"),
    ],
    ids=["bad_dt", "unknown_bus", "short_warm_start", "huge_t_end", "tiny_dt"],
)
def test_an_invalid_scenario_exits_1_before_anything_is_integrated(tmp_scenario, tmp_path, capsys, monkeypatch, command, over, message):
    """The valid first scenario is never run: every scenario is loaded, overridden and checked first."""
    monkeypatch.setattr("olfc.cli.run", lambda *args: pytest.fail("a scenario was integrated"))
    np.savetxt(tmp_path / "short.txt", np.zeros(14))
    good = tmp_scenario("good.json", t_end=0.05)
    bad = tmp_scenario("bad.json", **{"t_end": 0.05, **over})
    out = tmp_path / "out"
    assert main([command, good, bad, "--out", str(out)]) == 1
    captured, errs = read_stderr_json(capsys)
    assert captured.out == ""
    assert errs[-1]["error"] == "validation" and message in errs[-1]["message"]
    assert not out.exists()


def test_run_reports_a_record_that_cannot_be_allocated(tmp_scenario, tmp_path, capsys, monkeypatch):
    """No traceback: a MemoryError from the record array (the one allocated in Fortran order) is a validation error."""
    empty = np.empty

    def no_memory(shape, *args, **kwargs):
        if kwargs.get("order") == "F":
            raise MemoryError("Unable to allocate 7.28 TiB")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", no_memory)
    scn = tmp_scenario(t_end=0.05)
    out = tmp_path / "x.csv"
    assert main(["run", scn, "--out", str(out)]) == 1
    captured, errs = read_stderr_json(capsys)
    assert captured.out == "" and not out.exists()
    message = errs[-1]["message"]
    assert errs[-1]["error"] == "validation" and message.startswith(f"{scn}: scenario t_end / dt = 0.05 / 0.001")
    assert "51 records of 20 numbers, which cannot be allocated: Unable to allocate 7.28 TiB" in message


@pytest.mark.parametrize("selection", ["mid", "midpoint"])
def test_run_overrides_change_output(tmp_scenario, tmp_path, selection):
    out = tmp_path / "o.csv"
    assert main([
        "run", tmp_scenario(), "--out", str(out),
        "--t-end", "0.02", "--dt", "0.01", "--selection", selection,
        "--mismatch", "estimate", "--epsilon", "2.0", "--log-decimation", "1",
    ]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 3  # header + steps 0..2


def test_run_rejects_bad_selection(tmp_scenario, tmp_path):
    code = main(["run", tmp_scenario(), "--out", str(tmp_path / "x.csv"), "--selection", "bogus"])
    assert code == 1


# -- settle -------------------------------------------------------------------


def test_settle_reports_convergence(tmp_scenario, capsys):
    assert main(["settle", tmp_scenario(), "--tol", "1e-7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["omega_inf"] < 1e-6
    assert payload["mu_spread"] < 1e-6
    assert np.allclose(payload["p_l"], 0.1, atol=1e-5)


def test_settle_timeout_exits_2(tmp_scenario, capsys):
    assert main(["settle", tmp_scenario(), "--t-max", "0.01"]) == 2
    captured, errs = read_stderr_json(capsys)
    assert errs[-1]["error"] == "numerical"
    payload = json.loads(captured.out)
    assert payload["converged"] is False


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dt", "1e-320"], "scenario t_end / dt = 1 / 9.99989e-321 is not a finite step count"),
        # A zero horizon runs no step; the settle budget then overflows.
        (["--dt", "1e-320", "--t-end", "0"], "settle t_max / dt = 600 / 9.99989e-321 is not a finite step count"),
    ],
    ids=["run_steps", "settle_steps"],
)
def test_settle_rejects_a_step_count_that_overflows(tmp_scenario, capsys, flags, message):
    scn = tmp_scenario()
    assert main(["settle", scn, *flags]) == 1
    captured, errs = read_stderr_json(capsys)
    assert captured.out == ""
    assert errs[-1] == {"error": "validation", "message": f"{scn}: {message}"}


# -- solve --------------------------------------------------------------------


def test_solve_prints_solution(tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    np.savetxt(pm, np.array([0.3, 0.0, 0.0]))
    assert main(["solve", str(network_path("three_bus")), "--pm", str(pm)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == pytest.approx(0.015, abs=1e-6)
    assert np.allclose(payload["p_l_star"], 0.1, atol=1e-5)
    assert payload["balance_residual"] < 1e-9


def test_solve_missing_pm_file(tmp_path, capsys):
    assert main(["solve", str(network_path("three_bus")), "--pm", str(tmp_path / "no.txt")]) == 1
    _, errs = read_stderr_json(capsys)
    assert "injection vector" in errs[0]["message"]


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_solve_rejects_a_non_finite_injection(tmp_path, capsys, entry):
    """A NaN injection exits 1 naming the file, instead of running the oracle to its caps."""
    pm = tmp_path / "pm.txt"
    pm.write_text(f"{entry} 0 0\n")
    assert main(["solve", str(network_path("three_bus")), "--pm", str(pm)]) == 1
    captured, errs = read_stderr_json(capsys)
    assert captured.out == ""
    assert errs[-1]["error"] == "validation"
    assert str(pm) in errs[-1]["message"] and "finite" in errs[-1]["message"]


def test_solve_infeasible_exits_1(tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    np.savetxt(pm, np.array([9.0, 0.0, 0.0]))
    assert main(["solve", str(network_path("three_bus")), "--pm", str(pm)]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs[0]["error"] == "validation"


# -- check --------------------------------------------------------------------


def test_check_passes_and_writes_report(tmp_scenario, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["check", tmp_scenario(), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "overall" in out and "PASS" in out and "FAIL" not in out
    docs = json.loads(report.read_text())
    assert docs[0]["report"]["passed"] is True
    assert docs[0]["report"]["checks"]["frequency_restored"] is True


def test_check_unreachable_tolerance_exits_3(tmp_scenario, capsys):
    assert main(["check", tmp_scenario(), "--tol", "1e-15"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_check_settle_budget_exhausted_exits_2(tmp_scenario, capsys):
    assert main(["check", tmp_scenario(), "--t-max", "0.01"]) == 2
    _, errs = read_stderr_json(capsys)
    assert errs[-1]["error"] == "numerical"


def test_check_names_an_infeasible_injection(tmp_scenario, capsys):
    """A loop that cannot settle because no load allocation balances its injection exits 1 with the oracle's reason."""
    scn = tmp_scenario(events=[{"time": 0.0, "bus": 0, "delta_p_m": 5.0}])
    assert main(["check", scn, "--t-max", "5"]) == 1
    captured, errs = read_stderr_json(capsys)
    assert captured.out == ""
    assert errs == [{"error": "validation", "message": f"{scn}: total injection 5 outside aggregate load range [-3, 3]"}]


@pytest.mark.parametrize("command", ["check", "run"])
def test_check_reports_the_scenarios_that_settle(tmp_scenario, tmp_path, capsys, command):
    """One numerical failure among several scenarios: the others are still printed and written, exit 2.

    The failing scenario is the second: under `check` it does not settle in time, under `run` its step is past RK4's stability bound.
    """
    out = tmp_path / "out"
    if command == "check":
        paths = [str(scenario_path("three_bus_smooth")), str(scenario_path("two_bus_box"))]
        assert main(["check", *paths, "--t-max", "5", "--out", str(out)]) == 2
    else:
        paths = [str(scenario_path("three_bus_smooth")), tmp_scenario("diverging.json", t_end=120.0, dt=0.5)]
        assert main(["run", *paths, "--out", str(out)]) == 2
    captured, errs = read_stderr_json(capsys)
    assert [(e["error"], e["scenario"]) for e in errs] == [("numerical", paths[1])]
    if command == "check":
        assert f"scenario: {paths[0]}" in captured.out and f"scenario: {paths[1]}" not in captured.out
        assert paths[1] in errs[0]["message"]
        assert [doc["scenario"] for doc in json.loads(out.read_text())] == [paths[0]]
    else:
        assert errs[0]["message"].startswith("non-finite state at t=")
        assert captured.out == f"wrote {out / 'three_bus_smooth.csv'} (4001 records, t_end = 40 s)\n"
        assert [p.name for p in out.iterdir()] == ["three_bus_smooth.csv"]


def test_check_loads_each_network_once(tmp_scenario, monkeypatch, capsys):
    """The network a scenario is checked against at load time is the one it runs on."""
    calls = []
    monkeypatch.setattr("olfc.simulator.load_network", lambda path, load=load_network: calls.append(path) or load(path))
    paths = [tmp_scenario("a.json", t_end=0.05), tmp_scenario("b.json", t_end=0.05)]
    assert main(["check", *paths, "--t-max", "0.01"]) == 2
    assert len(calls) == 2


# -- unwritable --out -------------------------------------------------------------


@pytest.mark.parametrize(
    "command, scenarios, target, message",
    [
        ("check", 1, "afile/report.json", "lies under"),
        ("check", 1, "adir", "is a directory"),
        ("run", 1, "afile/x.csv", "lies under"),
        ("run", 2, "afile/sub/", "lies under"),
    ],
    ids=["check_under_a_file", "check_a_directory", "run_under_a_file", "run_several_under_a_file"],
)
def test_an_unwritable_out_exits_1_before_anything_is_integrated(tmp_scenario, tmp_path, capsys, monkeypatch, command, scenarios, target, message):
    monkeypatch.setattr("olfc.cli.run", lambda *args: pytest.fail("a scenario was integrated"))
    (tmp_path / "afile").write_text("keep me\n")
    (tmp_path / "adir").mkdir()
    paths = [tmp_scenario(f"{k}.json", t_end=0.05) for k in range(scenarios)]
    assert main([command, *paths, "--out", str(tmp_path / target)]) == 1
    captured, errs = read_stderr_json(capsys)
    assert "Traceback" not in captured.err and captured.out == ""
    assert len(errs) == 1 and errs[0]["error"] == "validation"
    assert errs[0]["message"].startswith("--out ") and message in errs[0]["message"]
    assert (tmp_path / "afile").read_text() == "keep me\n" and not any((tmp_path / "adir").iterdir())


@pytest.mark.parametrize("command", ["run", "check"])
def test_a_failed_write_of_out_is_a_validation_error(tmp_scenario, tmp_path, capsys, monkeypatch, command):
    """--out's directory becomes a file while the scenario runs: the write fails, exit 1 with one line naming --out."""
    outdir = tmp_path / "d"
    outdir.mkdir()
    integrate = cli.run

    def run_then_block(*args):
        log = integrate(*args)
        shutil.rmtree(outdir)
        outdir.write_text("in the way\n")
        return log

    monkeypatch.setattr(cli, "run", run_then_block)
    target = outdir / ("x.csv" if command == "run" else "report.json")
    assert main([command, tmp_scenario(t_end=0.05), "--out", str(target)]) == 1
    captured, errs = read_stderr_json(capsys)
    assert "Traceback" not in captured.err and "wrote" not in captured.out
    assert errs[-1]["error"] == "validation" and errs[-1]["message"].startswith(f"--out {target} cannot be written")
    assert outdir.read_text() == "in the way\n"


def test_solve_names_the_injection_file_when_its_length_is_wrong(tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    np.savetxt(pm, np.array([0.3, 0.0]))
    assert main(["solve", str(network_path("three_bus")), "--pm", str(pm)]) == 1
    _, errs = read_stderr_json(capsys)
    assert errs[-1]["error"] == "validation" and errs[-1]["message"].startswith(f"{pm}: p_m must have length 3")


def test_packaged_networks_validate(capsys):
    for name in ("two_bus", "three_bus", "three_bus_congested", "nine_bus", "sixty_eight_bus"):
        assert main(["validate", str(network_path(name))]) == 0
    capsys.readouterr()
