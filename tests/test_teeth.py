"""Teeth: mutants of the closed-loop operator that the claim check must reject.

Every other test shows that the right controller passes. Here a wrong one
must fail: each mutant edits `ClosedLoop.K`, `Kpm` or `k0` right after the
build, by block name through `ClosedLoop.operand`, or the sliding piece that
`ClosedLoop.affine_piece` returns, and `check_scenario` must
reject it for its stated reason, a named check of `check_theorem1` that
fails or a loop that never settles. A loop from a 20 s run does not rest
within a short budget even unmutated, so a mutant that never settles must
also end far from rest: its `NumericalError` residual is at least 1e-2,
where the unmutated loop's is 1.6e-4 or less at the same budget. The
unmutated loop passes in the same test; its run is the session's cached
pipeline.

Each of the five checks of `check_theorem1` is the stated reason of at
least one mutant. So is the energy decay of acceptance criterion 5: a loop
whose d integrates ten times slower rests at the same optimum, so all five
checks pass, and only V rising along its trajectory rejects it.
"""

import dataclasses
import re

import pytest

from olfc import load_scenario
from olfc.cli import check_scenario
from olfc.errors import NumericalError
from olfc.simulator import ClosedLoop

from conftest import Pipeline, scenario_path
from test_acceptance import lyapunov_audit


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


def offset_omega_g(loop):
    """omega_g' gains 0.05: every generator feels an injection that the controller does not know of."""
    loop.k0[loop.sl_og] += 0.05


def scale_laplacian_of_phi_in_mu(loop):
    """mu' integrates z with L phi scaled by 1.1."""
    loop.K[loop.sl_mu, loop.operand["phi"]] *= 1.1


def loosen_upper_limits(loop):
    """varphi+' enforces theta_max + 0.05: the controller lets each line run 0.05 rad past its limit."""
    loop.k0[loop.sl_vp] -= 0.05 * loop.config.epsilon


def slow_d(loop):
    """d' is scaled by 0.1: d integrates ten times slower, towards the same rest."""
    loop.K[loop.sl_d] *= 0.1
    loop.Kpm[loop.sl_d] *= 0.1
    loop.k0[loop.sl_d] *= 0.1


def left_subgradient_while_sliding(loop):
    """A bus sliding on a cost kink takes g- in place of g_eq: its d' is epsilon (g_eq - g-), not 0, so d leaves the kink.

    p_l stays at the kink while the piece holds, and the piece holds while
    g_eq stays strictly inside the Clarke interval. J is dense here.
    """
    piece_at = loop.affine_piece

    def affine_piece(y, aff):
        piece = piece_at(y, aff)
        if piece is None or not piece.held.size:
            return piece
        sliding, eps = piece.held - loop.sl_d.start, loop.config.epsilon
        J, c = piece.J.copy(), piece.c.copy()
        # The sliding bus's region row is g_eq: its d row becomes epsilon (g_eq - g-), g- the row's lower bound.
        J[piece.held] = eps * piece.W[sliding]
        c[piece.held] = eps * (piece.w[sliding] - piece.lower[sliding])
        return piece._replace(J=J, c=c, held=piece.held[:0], at=piece.at[:0])

    loop.affine_piece = affine_piece


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
    ("three_bus_smooth", offset_omega_g, 60.0, {"frequency_restored", "kkt", "theta_matches_phi"}),
    ("three_bus_smooth", scale_laplacian_of_phi_in_mu, 60.0, {"kkt", "theta_matches_phi"}),
    # Its settle takes 73 s of model time from the 20 s run's end, more
    # than the 60 s budget of the cases above.
    ("three_bus_congested", loosen_upper_limits, 300.0, {"line_limits", "kkt", "p_l_matches_oracle"}),
    # Bus 0 rests on its kink at 0.2, its price strictly inside the Clarke interval, so it slides there. The mutant
    # rests about 56 s after the 20 s run's end, with d past the kink where g_eq reaches g-.
    ("three_bus_interior_kink", left_subgradient_while_sliding, 120.0, {"kkt", "p_l_matches_oracle"}),
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


def test_slow_d_keeps_the_optimum_but_loses_the_energy_decay(pipeline, monkeypatch):
    """Criterion 5's audit rejects a loop that every check of `check_theorem1` passes."""
    worst, bound, _, _ = lyapunov_audit(pipeline("three_bus_smooth"))
    assert worst <= bound
    res = check_mutant(monkeypatch, "three_bus_smooth", slow_d, 300.0)
    assert res.report.passed, res.report.checks
    worst, bound, v_settle, _ = lyapunov_audit(Pipeline(**vars(res), name="three_bus_smooth"))
    assert worst > bound and v_settle < 1e-6, (worst, bound, v_settle)
