"""The chunk makers' maps and their `states` contract, against textbook RK4 of the affine piece.

Both makers step with one kernel, `_Chunks._increment`: RK4's four stages as
products of the augmented operator [[J, c], [W, w]]. On the first smooth
piece (no held row) and the first sliding piece (bus 0 held on its kink) of
a `three_bus_interior_kink` settle, this checks that:

- the doubling maker's step map R y + r and each stage's region rows
  W s_i + w are those of the textbook RK4 stages s_i of J y + c, within
  1e-14 relative, over the rows of a chunk;
- its stage maps, G and every power of R are C-contiguous: with a strided
  stage offset, a 2 048-step chunk on the 9-bus network ran 6-7 % slower;
- its region test, made 256 rows at a time, cuts a chunk whose first stage
  exit lies past row 256 of a doubling block at the row where a row-by-row
  check of the textbook stages does;
- `states(..., tol=0.0)`, where no row rests, hands back with its rows the
  rest residual max|Phi_dt(y) - y| / dt of the step from each row but the
  last, within 1e-12 relative of the textbook step's, for the doubling maker
  and the lane maker (on the same piece held CSR), in one lane and in lanes
  started from P; without `tol` it hands back None;
- on the first piece of a `nine_bus_steps` run, the traced peak of one
  doubling `states(..., tol=0.0)` call, over its rows, is the same to
  within 64 KiB for 512 and 2 048 steps: no temporary grows with the chunk.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from olfc import load_scenario, simulator
from olfc.simulator import run, settle

from conftest import rows_within, scenario_path, textbook_increment, textbook_stages

pytestmark = pytest.mark.hot

KINDS = ["smooth", "sliding"]


def settle_piece(chunks, kind: str):
    """(piece, start state, dt) of the first chunk of a `three_bus_interior_kink` settle that is smooth, or that slides."""
    scenario = load_scenario(scenario_path("three_bus_interior_kink"))
    model = scenario.load_model()
    p_m = np.zeros(model.n)
    for ev in scenario.events:
        p_m[ev.bus] += ev.delta_p_m
    settle(model, p_m, config=scenario.config, dt=scenario.dt)
    return next((c.maps.piece, c.y, scenario.dt) for c in chunks if (c.maps.piece.held.size > 0) == (kind == "sliding"))


def field(piece):
    """y -> J y + c on one state or on each row of a stack."""
    return lambda Y: (piece.J @ Y.T).T + piece.c


@pytest.mark.parametrize("kind", KINDS)
def test_the_doubling_maps_are_textbook_rk4_stages(chunks, kind):
    piece, y, dt = settle_piece(chunks, kind)
    maker = simulator._AffineSteps(piece, dt)
    Y, _ = maker.states(y, maker.steps, np.empty((maker.steps + 1, y.size)))
    assert len(Y) > maker.steps // 2, "the chunk should take most of its steps"
    increment, stages = textbook_stages(field(piece), Y, dt)
    R_T, r = maker.powers[0]
    assert rows_within(Y @ R_T + r, Y + increment, 1e-14)
    regions = (Y @ maker.stage_T + maker.stage_a).reshape(len(Y), 4, -1)
    for i, s in enumerate(stages):
        assert rows_within(regions[:, i], (piece.W @ s.T).T + piece.w, 1e-14), f"stage {i + 1}"
    maps = [maker.stage_T, maker.stage_a, maker.G_T, *(a for power in maker.powers for a in power)]
    assert len(maker.powers) == len(Y).bit_length() - 1
    assert all(a.flags.c_contiguous for a in maps)


@pytest.mark.parametrize("how", ["doubling", "one lane", "lanes"])
@pytest.mark.parametrize("kind", KINDS)
def test_states_hands_back_the_rest_residuals_of_its_rows(chunks, kind, how):
    piece, y, dt = settle_piece(chunks, kind)
    if how == "doubling":
        maker, n = simulator._AffineSteps(piece, dt), simulator._AffineSteps.steps
    else:
        maker = simulator._LaneSteps(piece._replace(J=csr_matrix(piece.J), W=csr_matrix(piece.W)), dt)
        n = maker.min_steps - (how == "one lane")
    rows = np.empty((maker.steps + 1, y.size))
    assert maker.states(y, n, rows)[1] is None
    assert (getattr(maker, "P", None) is not None) == (how == "lanes")
    Y, residuals = maker.states(y, n, rows, tol=0.0)
    assert len(Y) > 1 and residuals.shape == (len(Y) - 1,)
    textbook = np.max(np.abs(textbook_increment(field(piece), Y[:-1], dt)), axis=1) / dt
    assert np.all(np.abs(residuals - textbook) <= 1e-12 * textbook)


@pytest.mark.parametrize("kind", KINDS)
def test_the_region_test_cuts_past_the_first_slice_of_a_block(chunks, kind):
    piece, y, dt = settle_piece(chunks, kind)
    maker = simulator._AffineSteps(piece, dt)
    rows = np.empty((maker.steps + 1, y.size))
    Y = maker.states(y, maker.steps, rows)[0].copy()
    assert len(Y) == maker.steps + 1, "the chunk should take all its steps"
    _, stages = textbook_stages(field(piece), Y[:-1], dt)
    regions = np.stack([(piece.W @ s.T).T + piece.w for s in stages], axis=1)
    # An upper bound on region row q halfway between its stages' maximum over the rows before row j and their value at
    # row j, the first new maximum at or past row `after`: that lies in the second 256-row slice of the last doubling
    # block, rows steps/2 .. steps - 1.
    after, top = maker.steps // 2 + 300, regions.max(axis=1)
    record = top[after:] > np.maximum.accumulate(top)[after - 1 : -1]
    q = int(np.argmax(record.any(axis=0)))
    j = after + int(np.argmax(record[:, q]))
    assert record[:, q].any()
    upper = piece.upper.copy()
    upper[q] = 0.5 * (top[j, q] + top[:j, q].max())
    # The first row with a stage outside, row by row.
    outside = ~np.all((piece.lower < regions) & (regions < upper), axis=(1, 2))
    cut = int(np.argmax(outside))
    assert cut == j >= maker.steps // 2 + 256
    got, _ = simulator._AffineSteps(piece._replace(upper=upper), dt).states(y, maker.steps, rows)
    assert len(got) == cut + 1 and np.array_equal(got, Y[: cut + 1])


def test_the_traced_peak_of_a_doubling_chunk_does_not_grow_with_it(chunks):
    scenario = load_scenario(scenario_path("nine_bus_steps"))
    run(scenario)
    first = next(c for c in chunks if c.taken == c.maps.steps)
    maker = simulator._AffineSteps(first.maps.piece, scenario.dt)
    rows = np.empty((maker.steps + 1, first.y.size))
    # Every power of R is made before the peaks are traced.
    maker.states(first.y, maker.steps, rows, tol=0.0)
    peaks = []
    for n in (512, maker.steps):
        tracemalloc.start()
        try:
            Y, residuals = maker.states(first.y, n, rows, tol=0.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(Y) == n + 1 and residuals.shape == (n,)
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks
