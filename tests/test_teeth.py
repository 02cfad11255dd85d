"""Teeth: mutants of the closed-loop operator that the claim check must reject.

Every other test shows that the right controller passes. Here a wrong one
must fail: each mutant edits `ClosedLoop.K` right after the build, by block
name through `ClosedLoop.operand`, and `check_scenario` must reject it for
its stated reason, a named check of `check_theorem1` that fails or a loop
that never settles. A loop from a 20 s run does not rest within a short
budget even unmutated, so a mutant that never settles must also end far
from rest: its `NumericalError` residual is at least 1e-2, where the
unmutated loop's is 1.6e-4 or less at the same budget. The unmutated loop
passes in the same test; its run is the session's cached pipeline.

Not yet covered by a mutant: `frequency_restored`, `theta_matches_phi`,
`line_limits` and the Lyapunov decay.
"""

import dataclasses
import re

import pytest

from olfc import load_scenario
from olfc.cli import check_scenario
from olfc.errors import NumericalError
from olfc.simulator import ClosedLoop

from conftest import scenario_path


def scale_g(loop):
    """The subgradient enters d' scaled by 1.1."""
    loop.K[:, loop.operand["g"]] *= 1.1


def drop_laplacian_of_mu(loop):
    """phi' loses -L mu."""
    loop.K[loop.sl_phi, loop.operand["mu"]] = 0.0


def drop_mu_from_d(loop):
    """d' loses -mu."""
    loop.K[loop.sl_d, loop.operand["mu"]] = 0.0


def drop_eta(loop):
    """phi' loses the line multipliers C (eta- - eta+)."""
    loop.K[loop.sl_phi, loop.operand["eta_plus"]] = 0.0
    loop.K[loop.sl_phi, loop.operand["eta_minus"]] = 0.0


def check_mutant(monkeypatch, name: str, mutate, t_max: float):
    """`check_scenario` of a bundled scenario, cut to t_end 20 s, with every closed loop built mutated."""
    build = ClosedLoop.__init__

    def mutated(self, *args, **kwargs):
        build(self, *args, **kwargs)
        mutate(self)

    monkeypatch.setattr(ClosedLoop, "__init__", mutated)
    scenario = dataclasses.replace(load_scenario(scenario_path(name)), t_end=20.0)
    return check_scenario(scenario, scenario.load_model(), name, tol=1e-4, t_max=t_max)


def failed_checks(result) -> set[str]:
    return {check for check, ok in result.report.checks.items() if not ok}


# (scenario, mutant, model-time budget of its settle, the checks that must
# fail, or None where it must never settle).
CASES = [
    ("three_bus_smooth", scale_g, 60.0, {"kkt"}),
    ("three_bus_smooth", drop_laplacian_of_mu, 60.0, {"kkt", "p_l_matches_oracle"}),
    ("three_bus_smooth", drop_mu_from_d, 10.0, None),
    # No line binds on three_bus_smooth, so eta stays 0 and the mutant is
    # the right controller there: it must pass.
    ("three_bus_smooth", drop_eta, 60.0, set()),
    ("three_bus_congested", drop_eta, 10.0, None),
]


@pytest.mark.parametrize("name, mutate, t_max, failing", CASES, ids=lambda v: getattr(v, "__name__", None))
def test_mutant_gets_its_stated_verdict(pipeline, monkeypatch, name, mutate, t_max, failing):
    assert pipeline(name).report.passed, pipeline(name).report.checks
    if failing is None:
        with pytest.raises(NumericalError, match="did not settle") as exc:
            check_mutant(monkeypatch, name, mutate, t_max)
        assert float(re.search(r"residual (\S+)\)", str(exc.value)).group(1)) >= 1e-2, exc.value
    else:
        assert failed_checks(check_mutant(monkeypatch, name, mutate, t_max)) == failing
