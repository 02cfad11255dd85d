"""Command-line interface: subcommands, exit codes, outputs."""

import json

import numpy as np
import pytest

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
    captured = capsys.readouterr()
    lines = [ln for ln in captured.err.splitlines() if ln.startswith("{")]
    return captured, [json.loads(ln) for ln in lines]


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
@pytest.mark.parametrize("value", ["0", "-2", "1.5"])
def test_jobs_must_be_a_positive_integer(tmp_scenario, tmp_path, capsys, command, value):
    assert main([command, tmp_scenario(), "--out", str(tmp_path / "x"), "--jobs", value]) == 1
    _, errs = read_stderr_json(capsys)
    assert "--jobs" in errs[-1]["message"]
    assert not (tmp_path / "x").exists()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in this process."""

    max_workers: list = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


@pytest.mark.parametrize("command", ["run", "check"])
def test_jobs_pool_is_capped_at_the_scenario_count(tmp_scenario, tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr("olfc.cli.ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    paths = [tmp_scenario("a.json", t_end=0.05), tmp_scenario("b.json", t_end=0.05)]
    assert main([command, *paths, "--out", str(tmp_path / "out"), "--jobs", "64"]) == 0
    assert _InlinePool.max_workers == [2]


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
    assert main(["run", a, b, "--out", str(outdir), "--jobs", "2"]) == 0
    assert (outdir / "a.csv").exists()
    assert (outdir / "b.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_rejects_scenarios_that_share_a_csv(tmp_scenario, tmp_path, capsys, jobs):
    """Two scenario files with one stem would write one CSV: exit 1 before anything runs."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = tmp_scenario("a/x.json", t_end=0.05)
    b = tmp_scenario("b/x.json", t_end=0.05)
    outdir = tmp_path / "out"
    assert main(["run", a, b, "--out", str(outdir), "--jobs", jobs]) == 1
    captured, errs = read_stderr_json(capsys)
    assert "wrote" not in captured.out
    assert errs[-1]["error"] == "validation"
    assert a in errs[-1]["message"] and b in errs[-1]["message"]
    assert str(outdir / "x.csv") in errs[-1]["message"]
    assert not outdir.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_rejects_an_existing_file_as_the_directory_of_several(tmp_scenario, tmp_path, capsys, jobs):
    a = tmp_scenario("a.json", t_end=0.05)
    b = tmp_scenario("b.json", t_end=0.05)
    out = tmp_path / "existing.csv"
    out.write_text("keep me\n")
    assert main(["run", a, b, "--out", str(out), "--jobs", jobs]) == 1
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
    ],
    ids=["bad_dt", "unknown_bus", "short_warm_start"],
)
def test_an_invalid_scenario_exits_1_before_anything_is_integrated(tmp_scenario, tmp_path, capsys, monkeypatch, command, over, message):
    """The valid first scenario is never run: every scenario is loaded, overridden and checked first."""
    monkeypatch.setattr("olfc.cli.run", lambda *args: pytest.fail("a scenario was integrated"))
    np.savetxt(tmp_path / "short.txt", np.zeros(14))
    good = tmp_scenario("good.json", t_end=0.05)
    bad = tmp_scenario("bad.json", t_end=0.05, **over)
    out = tmp_path / "out"
    assert main([command, good, bad, "--out", str(out)]) == 1
    captured, errs = read_stderr_json(capsys)
    assert captured.out == ""
    assert errs[-1]["error"] == "validation" and message in errs[-1]["message"]
    assert not out.exists()


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_check_reports_the_scenarios_that_settle(tmp_path, capsys, jobs):
    """One timeout among several scenarios: the others are still printed and written, exit 2."""
    paths = [str(scenario_path("three_bus_smooth")), str(scenario_path("two_bus_box"))]
    report = tmp_path / "report.json"
    assert main(["check", *paths, "--t-max", "5", "--jobs", jobs, "--out", str(report)]) == 2
    captured, errs = read_stderr_json(capsys)
    assert f"scenario: {paths[0]}" in captured.out and f"scenario: {paths[1]}" not in captured.out
    assert [(e["error"], e["scenario"]) for e in errs] == [("numerical", paths[1])]
    assert paths[1] in errs[0]["message"]
    assert [doc["scenario"] for doc in json.loads(report.read_text())] == [paths[0]]


def test_check_loads_each_network_once(tmp_scenario, monkeypatch, capsys):
    """The network a scenario is checked against at load time is the one it runs on."""
    calls = []
    monkeypatch.setattr("olfc.simulator.load_network", lambda path, load=load_network: calls.append(path) or load(path))
    paths = [tmp_scenario("a.json", t_end=0.05), tmp_scenario("b.json", t_end=0.05)]
    assert main(["check", *paths, "--t-max", "0.01", "--jobs", "1"]) == 2
    assert len(calls) == 2


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
