"""`run`'s affine path against the loop it specifies.

`run` takes its steps through the stepper that `settle` uses
(`simulator._Stepper`): chunks of the exact affine RK4 map of the piece
around the state, each cut at the next event step, else plain `rk4` steps.
The dense bundled scenarios are checked here; the 68-bus lane chunks (CSR K)
in `tests/test_rk4.py`. On a bus that slides on a cost kink the piece is Filippov's
sliding motion, entered by moving d onto the kink. The reference is the loop
`run` specifies (`conftest.reference_run`): textbook RK4 over the exact
selection, and RK4 of the readable equations with the sliding bus held on
its kink at the equivalent control while that slides for a whole step, with
the stepper's moves onto a kink made in its own state once each is checked
to be within one step's reach. Over a horizon that covers every event of
every dense bundled scenario, logged at every step and at the scenario's own
decimation, the chunked run must log the same times and the same p_m
segments, bit for bit, and every state within 1e-12 relative; no chunk may
span an event step. A diverging run must fail where the textbook loop does,
after chunks, on a dense K and on the 68-bus CSR K, and a chunk must never
hand back a state that an overflowing power of R made.
"""

import dataclasses
import json

import numpy as np
import pytest

from olfc.costs import SELECTION_RULES
from olfc.errors import NumericalError
from olfc.simulator import AffinePiece, ClosedLoop, _AffineSteps, load_scenario, run

from conftest import (
    DENSE_SCENARIOS,
    DIVERGING_DT,
    DIVERGING_P_M,
    diverging_start,
    network_path,
    reference_run,
    rows_within,
    same_bits,
    scenario_path,
    textbook_run,
)

pytestmark = pytest.mark.hot

# Past the last event of every dense bundled scenario (nine_bus_steps has one at 5 s).
HORIZON = 6.0


@pytest.fixture
def observed(monkeypatch):
    """The p_m segments and their first records, as `run` hands them to `ClosedLoop.observe`."""
    seen = []
    observe = ClosedLoop.observe

    def spy(self, y, p_m, starts=(0,)):
        seen.append((np.array(p_m), starts))
        return observe(self, y, p_m, starts)

    monkeypatch.setattr(ClosedLoop, "observe", spy)
    return seen


@pytest.mark.parametrize("mismatch", ["model", "estimate"])
@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("name", DENSE_SCENARIOS)
def test_chunked_run_is_the_textbook_loop(chunks, snaps, observed, name, selection, mismatch):
    """Same times and p_m segments bit for bit, states within 1e-12, no chunk across an event; at decimation 1 and the scenario's.

    The reference is textbook RK4 off the sliding steps (`conftest.reference_run`).
    """
    base = load_scenario(scenario_path(name))
    config = dataclasses.replace(base.config, selection=selection, mismatch=mismatch)
    base = dataclasses.replace(base, t_end=HORIZON, config=config)
    assert all(ev.time < HORIZON for ev in base.events)
    model = base.load_model()
    run(dataclasses.replace(base, log_decimation=1), model)
    moves = dict(snaps)
    states, segments, first_steps = reference_run(dataclasses.replace(base, log_decimation=1), model, moves)
    n_steps = base.step_count()
    for dec in sorted({1, base.log_decimation}):
        chunks.clear()
        observed.clear()
        snaps.clear()
        log = run(dataclasses.replace(base, log_decimation=dec), model)
        assert snaps == moves, dec
        steps = np.r_[np.arange(0, n_steps, dec), n_steps]
        assert same_bits(log.times, steps * base.dt), dec
        assert same_bits(log.p_m_final, segments[-1]), dec
        [(p_m, starts)] = observed
        assert same_bits(p_m, np.array(segments)) and starts == tuple(-(-s // dec) for s in first_steps), dec
        assert rows_within(log.states, states[steps]), dec
        across = [c for c in chunks for s in first_steps[1:] if c.k < s < c.k + c.taken]
        assert not across, f"chunks across an event step: {across}"
        if base.events:
            assert sum(c.taken for c in chunks) > n_steps // 2, "most steps should be chunk steps"


@pytest.mark.parametrize("name", DIVERGING_P_M)
def test_a_diverging_chunked_run_names_the_textbook_time(tmp_path, chunks, name):
    """At a step past RK4's stability bound the run fails at the textbook loop's logged step, after chunks.

    A block of plain steps steps past a state that is not finite before `run`
    records it, so the time must still be that of the first logged one.
    """
    model, _, plant, ctrl = diverging_start(name)
    np.savetxt(tmp_path / "plant.txt", np.concatenate([plant.theta_e, plant.omega_g]))
    np.savetxt(tmp_path / "ctrl.txt", ctrl.pack())
    bus, delta = DIVERGING_P_M[name]
    doc = {
        "network": str(network_path(name)),
        "t_end": 300.0,
        "dt": DIVERGING_DT,
        "events": [{"time": 0.0, "bus": bus, "delta_p_m": delta}],
        "init": {"plant": "plant.txt", "controller": "ctrl.txt"},
        "log_decimation": 10,
    }
    (tmp_path / "scn.json").write_text(json.dumps(doc))
    scenario = load_scenario(tmp_path / "scn.json")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"at t=\S+s") as exc:
            run(scenario, model)
        with pytest.raises(NumericalError) as ref:
            textbook_run(scenario, model)
    assert sum(c.taken for c in chunks) > 0, "no chunk step was taken"
    assert str(exc.value) == str(ref.value)


def test_a_chunk_stops_short_of_an_overflowing_power():
    """At a fixed point the states stay 0 while R^(2^i) overflows; the chunk hands back only the rows before it."""
    dim = 3
    piece = AffinePiece(
        J=1e3 * np.eye(dim),
        c=np.zeros(dim),
        W=np.eye(dim)[:1],
        w=np.zeros(1),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
        held=np.empty(0, dtype=int),
        at=np.empty(0),
    )
    steps = _AffineSteps(piece, dt=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        Y = steps.states(np.zeros(dim), 256, np.empty((257, dim)))
    overflows = next(i for i in range(9) if not np.all(np.isfinite(steps.powers[i][0])))
    assert len(Y) == 2**overflows
    assert np.all(Y == 0.0)
