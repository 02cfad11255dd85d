"""Piecewise cost functions, Clarke intervals, selections and projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olfc.costs import (
    SELECTION_RULES,
    Box,
    CostBatch,
    PiecewiseCost,
    SubgradientInterval,
    normalize_selection_rule,
    project_box,
    project_nonneg,
    select_subgradient,
)
from olfc.errors import ValidationError

pytestmark = pytest.mark.hot


def reference_cost() -> PiecewiseCost:
    """Quadratic with doubled curvature outside [-0.2, 0.2], continuous at the kinks."""
    return PiecewiseCost.from_pieces([
        {"x_min": None, "x_max": -0.2, "a": 1.0, "b": 0.0, "c": -0.02},
        {"x_min": -0.2, "x_max": 0.2, "a": 0.5, "b": 0.0, "c": 0.0},
        {"x_min": 0.2, "x_max": None, "a": 1.0, "b": 0.0, "c": -0.02},
    ])


def test_reference_cost_values():
    cost = reference_cost()
    assert cost.value(0.1) == pytest.approx(0.005)
    assert cost.value(0.2) == pytest.approx(0.02)
    assert cost.value(0.5) == pytest.approx(0.23)
    assert cost.value(-0.2) == pytest.approx(0.02)
    assert cost.value(-0.5) == pytest.approx(0.23)


def test_reference_cost_clarke_intervals():
    cost = reference_cost()
    iv = cost.clarke(0.0)
    assert iv.lo == iv.hi == 0.0
    iv = cost.clarke(0.2)
    assert (iv.lo, iv.hi) == pytest.approx((0.2, 0.4))
    iv = cost.clarke(-0.2)
    assert (iv.lo, iv.hi) == pytest.approx((-0.4, -0.2))
    iv = cost.clarke(0.5)
    assert iv.lo == iv.hi == pytest.approx(1.0)


def test_clarke_matches_one_sided_differences():
    cost = reference_cost()
    h = 1e-7
    rng = np.random.default_rng(7)
    points = np.concatenate([rng.uniform(-1, 1, size=200), [-0.2, 0.2]])
    for x in points:
        iv = cost.clarke(float(x))
        left = (cost.value(x) - cost.value(x - h)) / h
        right = (cost.value(x + h) - cost.value(x)) / h
        assert abs(iv.lo - left) < 1e-6
        assert abs(iv.hi - right) < 1e-6


def test_selection_rules():
    iv = SubgradientInterval(lo=0.2, hi=0.4)
    assert select_subgradient(iv, "left") == 0.2
    assert select_subgradient(iv, "right") == 0.4
    assert select_subgradient(iv, "midpoint") == pytest.approx(0.3)
    assert select_subgradient(iv, "minnorm") == 0.2
    straddle = SubgradientInterval(lo=-0.1, hi=0.3)
    assert select_subgradient(straddle, "minnorm") == 0.0
    negative = SubgradientInterval(lo=-0.4, hi=-0.2)
    assert select_subgradient(negative, "minnorm") == -0.2
    with pytest.raises(ValidationError):
        select_subgradient(iv, "best")


def test_selection_rule_spelling():
    assert normalize_selection_rule("mid") == "midpoint"
    assert normalize_selection_rule("minnorm") == "minnorm"
    with pytest.raises(ValidationError):
        normalize_selection_rule("exact")


def test_from_pieces_rejects_bad_data():
    with pytest.raises(ValidationError):
        PiecewiseCost.from_pieces([])
    with pytest.raises(ValidationError):
        PiecewiseCost.from_pieces([{"x_min": None, "x_max": None, "a": -1.0, "b": 0.0, "c": 0.0}])
    with pytest.raises(ValidationError):
        # gap between pieces
        PiecewiseCost.from_pieces([
            {"x_min": None, "x_max": 0.0, "a": 1.0, "b": 0.0, "c": 0.0},
            {"x_min": 0.5, "x_max": None, "a": 1.0, "b": 0.0, "c": 0.0},
        ])
    with pytest.raises(ValidationError):
        # value jump at the seam
        PiecewiseCost.from_pieces([
            {"x_min": None, "x_max": 0.0, "a": 1.0, "b": 0.0, "c": 0.0},
            {"x_min": 0.0, "x_max": None, "a": 1.0, "b": 0.0, "c": 1.0},
        ])
    with pytest.raises(ValidationError):
        # concave kink: derivative drops at the seam
        PiecewiseCost.from_pieces([
            {"x_min": None, "x_max": 0.0, "a": 1.0, "b": 1.0, "c": 0.0},
            {"x_min": 0.0, "x_max": None, "a": 1.0, "b": -1.0, "c": 0.0},
        ])
    with pytest.raises(ValidationError, match="nondecreasing at breakpoint -1.0"):
        # derivative drops by two ulps at the seam: left -1.7, right -1.7000000000000002
        PiecewiseCost.from_pieces([
            {"x_min": None, "x_max": -1.0, "a": 1.0, "b": 0.3, "c": 0.0},
            {"x_min": -1.0, "x_max": None, "a": 1.0, "b": np.nextafter(np.nextafter(0.3, -1), -1), "c": 0.0},
        ])
    with pytest.raises(ValidationError):
        PiecewiseCost.from_pieces([{"x_min": None, "x_max": None, "a": 1.0, "b": 0.0}])
    with pytest.raises(ValidationError, match=r"cost\[0\]: field 'x_max' must be a number or null"):
        PiecewiseCost.from_pieces([{"x_min": None, "x_max": "abc", "a": 1.0, "b": 0.0, "c": 0.0}])
    with pytest.raises(ValidationError, match="x_min must be finite, or null"):
        # unbounded is spelled null, not -inf
        PiecewiseCost.from_pieces([{"x_min": float("-inf"), "x_max": None, "a": 1.0, "b": 0.0, "c": 0.0}])


def test_project_box():
    box = Box(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 0.5]))
    out = project_box(np.array([-2.0, 0.25]), box)
    assert np.allclose(out, [-1.0, 0.25])
    with pytest.raises(ValidationError):
        project_box(np.array([1.0]), box)


def test_project_nonneg():
    out = project_nonneg(np.array([-1.0, 0.0, 2.0]))
    assert np.allclose(out, [0.0, 0.0, 2.0])


@settings(max_examples=200)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_projection_inequality_scalar_box(x, y_raw):
    box = Box(lower=np.array([-1.0]), upper=np.array([1.0]))
    px = project_box(np.array([x]), box).item()
    y = project_box(np.array([y_raw]), box).item()  # any feasible point
    assert (x - px) * (y - px) <= 1e-12


@settings(max_examples=200)
@given(st.floats(-2, 2))
def test_clarke_supports_convexity(x):
    """f(y) >= f(x) + g (y - x) for every selection g in the Clarke interval."""
    cost = reference_cost()
    iv = cost.clarke(float(x))
    for g in (iv.lo, iv.hi):
        for y in (-1.5, -0.2, 0.0, 0.2, 1.5):
            assert cost.value(y) >= cost.value(float(x)) + g * (y - float(x)) - 1e-9


@st.composite
def convex_costs(draw, pieces: int) -> PiecewiseCost:
    """A continuous convex piecewise quadratic with real kinks, some of them on 0.

    Every kink raises the slope by at least 1e-3, so rounding cannot put the
    one-sided derivatives out of order (the scalar interval would reject it).
    """
    knot = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, width=32))
    bps = sorted(draw(st.lists(knot, min_size=pieces - 1, max_size=pieces - 1, unique=True)))
    a = [draw(st.floats(0.1, 2.0)) for _ in range(pieces)]
    b = [draw(st.floats(-1.0, 1.0))]
    c = [draw(st.floats(-1.0, 1.0))]
    for k, x in enumerate(bps):
        jump = draw(st.floats(1e-3, 1.0))
        b.append(2.0 * a[k] * x + b[k] + jump - 2.0 * a[k + 1] * x)
        c.append(a[k] * x * x + b[k] * x + c[k] - a[k + 1] * x * x - b[k + 1] * x)
    return PiecewiseCost(a=a, b=b, c=c, breakpoints=bps)


@st.composite
def batch_points(draw):
    """1- and 3-piece buses padded into one batch (the 68-bus mix), and one point per bus.

    Each point is free or pinned on a breakpoint of its bus, a bound of a
    load box around it, 0.0 or -0.0.
    """
    counts = draw(st.permutations([1, 3, *draw(st.lists(st.sampled_from([1, 2, 3]), max_size=5))]))
    costs = [draw(convex_costs(k)) for k in counts]
    x = []
    for cost in costs:
        lower = draw(st.floats(-1.5, 0.0))
        upper = draw(st.floats(0.0, 1.5))
        pinned = [*cost.breakpoints.tolist(), lower, upper, 0.0, -0.0]
        x.append(draw(st.one_of(st.floats(-2.0, 2.0), st.sampled_from(pinned))))
    return costs, np.array(x)


def same_bits(got: np.ndarray, expect: list[float]) -> bool:
    expect = np.array(expect, dtype=float)
    return got.dtype == np.float64 and np.array_equal(got.view(np.int64), expect.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(batch_points())
def test_cost_batch_matches_scalar_paths(case):
    """CostBatch reproduces the scalar value and selections bit for bit; `left` and `right` are the Clarke bounds."""
    costs, x = case
    batch = CostBatch(costs)
    intervals = [cost.clarke(float(xj)) for cost, xj in zip(costs, x)]
    assert same_bits(batch.value(x), [cost.value(float(xj)) for cost, xj in zip(costs, x)])
    for rule in SELECTION_RULES:
        assert same_bits(batch.select(x, rule), [select_subgradient(iv, rule) for iv in intervals]), rule


def one_piece(a: float, b: float) -> PiecewiseCost:
    return PiecewiseCost(a=[a], b=[b], c=[0.0])


# Each case: costs, points, and how many buses sit on a kink.
SELECT_CASES = {
    "off_kinks": ([reference_cost(), one_piece(0.5, 0.1), reference_cost()], [-0.3, 0.7, 0.0], 0),
    "one_on_kink": ([reference_cost(), one_piece(0.5, -0.1), reference_cost()], [0.05, -0.4, 0.2], 1),
    "padded_beside_3_piece": ([one_piece(1.0, 0.3), reference_cost(), one_piece(2.0, -0.2)], [5.0, -0.2, -5.0], 1),
    "negative_zero": ([one_piece(0.5, -0.0), reference_cost()], [-0.0, 0.1], 0),
    # g = 1.2e308: `midpoint`'s 0.5 * (g + g) is inf, not g.
    "g_plus_g_overflows": ([one_piece(4e307, 0.0)], [1.5], 0),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("rule", SELECTION_RULES)
@pytest.mark.parametrize("case", SELECT_CASES)
def test_select_branches_match_scalar_bits(case, rule):
    """CostBatch.select off and on kinks, signed zero and overflow included, pinned by bit pattern."""
    costs, x, on_kink = SELECT_CASES[case]
    x = np.array(x)
    intervals = [cost.clarke(float(xj)) for cost, xj in zip(costs, x)]
    assert sum(iv.lo < iv.hi for iv in intervals) == on_kink
    assert same_bits(CostBatch(costs).select(x, rule), [select_subgradient(iv, rule) for iv in intervals])


def test_minnorm_maps_negative_zero_to_positive_zero():
    """The "negative_zero" case above: the derivative is -0.0, minnorm must give +0.0."""
    batch = CostBatch([one_piece(0.5, -0.0)])
    x = np.array([-0.0])
    assert all(np.signbit(batch.select(x, rule)[0]) for rule in ("left", "right"))
    assert same_bits(batch.select(x, "minnorm"), [0.0])


@settings(max_examples=200, deadline=None)
@given(batch_points())
def test_select_piece_returns_the_piece_it_selected_on(case):
    """`select_piece` gives `select`'s bits and, per bus, the bracket and coefficients of a piece at x.

    The bracket runs between consecutive breakpoints (or to ±inf) and holds
    x strictly inside, unless x is a breakpoint, which is then an end of it.
    Strictly inside, 2a * x + b of the piece is the derivative at x.
    """
    costs, x = case
    batch = CostBatch(costs)
    for rule in SELECTION_RULES:
        g, (lower, upper, slope, b) = batch.select_piece(x, rule)
        assert same_bits(g, batch.select(x, rule).tolist()), rule
        for j, cost in enumerate(costs):
            ends = [-np.inf, *cost.breakpoints, np.inf]
            k = ends.index(lower[j])
            assert upper[j] == ends[k + 1], (rule, j)
            assert lower[j] <= x[j] <= upper[j], (rule, j)
            on_kink = x[j] in cost.breakpoints
            assert (lower[j] < x[j] < upper[j]) == (not on_kink), (rule, j)
            if not on_kink:
                assert same_bits(np.array([slope[j] * x[j] + b[j]]), [cost.clarke(float(x[j])).lo]), (rule, j)
