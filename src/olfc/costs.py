"""Per-bus disutility functions and the projection operators used by the controller.

Costs are strictly convex piecewise quadratics, continuous but possibly
nonsmooth at breakpoints. The subdifferential at a breakpoint is the closed
interval between the one-sided derivatives; everywhere else it is the
ordinary derivative. Breakpoint membership is decided by exact floating
point comparison: kinks are hit on a measure-zero set and the selection
rule deals with exact hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, naming, require_fields

SELECTION_RULES = ("minnorm", "left", "right", "midpoint")


@dataclass(frozen=True)
class SubgradientInterval:
    """Closed interval [lo, hi] of subgradients at a point."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValidationError(f"subgradient interval requires lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Box:
    """Componentwise box constraints, lower <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape:
            raise ValidationError("box bounds must have matching shapes")
        if np.any(lower > upper):
            raise ValidationError("box requires lower <= upper componentwise")


@dataclass(frozen=True)
class PiecewiseCost:
    """Strictly convex piecewise quadratic cost on the real line.

    Piece k is a_k x^2 + b_k x + c_k, active on [breakpoints[k-1], breakpoints[k])
    with the obvious unbounded first and last intervals. Validity means: all
    a_k > 0, value continuity and nondecreasing one-sided derivatives at every
    breakpoint.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    breakpoints: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        bp = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "breakpoints", bp)
        if not (a.shape == b.shape == c.shape):
            raise ValidationError("cost coefficient arrays must have equal length")
        if bp.size != a.size - 1:
            raise ValidationError("cost needs exactly one breakpoint between consecutive pieces")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)) or not np.all(np.isfinite(c)):
            raise ValidationError("cost coefficients must be finite")
        if np.any(a <= 0):
            raise ValidationError("cost pieces must be strictly convex (a > 0)")
        if bp.size and (not np.all(np.isfinite(bp)) or np.any(np.diff(bp) <= 0)):
            raise ValidationError("cost breakpoints must be finite and strictly increasing")
        for k, x in enumerate(bp):
            left = a[k] * x * x + b[k] * x + c[k]
            right = a[k + 1] * x * x + b[k + 1] * x + c[k + 1]
            if abs(left - right) > 1e-9 * max(1.0, abs(left)):
                raise ValidationError(f"cost pieces must agree in value at breakpoint {x} (got {left} vs {right})")
            dleft = 2.0 * a[k] * x + b[k]
            dright = 2.0 * a[k + 1] * x + b[k + 1]
            if dleft > dright:
                raise ValidationError(f"cost derivative must be nondecreasing at breakpoint {x} (convexity)")

    @classmethod
    def from_pieces(cls, pieces: list[dict], where: str = "cost") -> "PiecewiseCost":
        """Build from an ordered list of {x_min, x_max, a, b, c} dictionaries.

        x_min of the first piece and x_max of the last must be unbounded
        (null in files); interior interval endpoints must chain exactly.
        Every error starts with `where`, the cost's place in its document.
        """
        if not pieces:
            raise ValidationError(f"{where} needs at least one piece")
        fields = {"x_min": "a number or null", "x_max": "a number or null", "a": "a number", "b": "a number", "c": "a number"}
        for k, p in enumerate(pieces):
            require_fields(p, f"{where}[{k}]", fields)

        def _bound(k: int, name: str, unbounded: float) -> float:
            v = pieces[k][name]
            if v is None:
                return unbounded
            if not np.isfinite(v):
                raise ValidationError(f"{where}[{k}]: {name} must be finite, or null for unbounded, got {v}")
            return float(v)

        lo = [_bound(k, "x_min", -np.inf) for k in range(len(pieces))]
        hi = [_bound(k, "x_max", np.inf) for k in range(len(pieces))]
        if lo[0] != -np.inf:
            raise ValidationError(f"{where}: first piece must have x_min = null (covers the real line)")
        if hi[-1] != np.inf:
            raise ValidationError(f"{where}: last piece must have x_max = null (covers the real line)")
        for k in range(len(pieces) - 1):
            if hi[k] != lo[k + 1]:
                raise ValidationError(f"{where}: pieces must tile the line: piece {k} ends at {hi[k]}, piece {k + 1} starts at {lo[k + 1]}")
        with naming(where):
            return cls(
                a=np.array([p["a"] for p in pieces], dtype=float),
                b=np.array([p["b"] for p in pieces], dtype=float),
                c=np.array([p["c"] for p in pieces], dtype=float),
                breakpoints=np.array(hi[:-1], dtype=float),
            )

    def _piece(self, x: float) -> int:
        return int(np.searchsorted(self.breakpoints, x, side="right"))

    def value(self, x: float) -> float:
        k = self._piece(x)
        return float(self.a[k] * x * x + self.b[k] * x + self.c[k])

    def clarke(self, x: float) -> SubgradientInterval:
        bp = self.breakpoints
        i = int(np.searchsorted(bp, x, side="left"))
        if i < bp.size and x == bp[i]:
            lo = 2.0 * self.a[i] * x + self.b[i]
            hi = 2.0 * self.a[i + 1] * x + self.b[i + 1]
            return SubgradientInterval(lo, hi)
        g = 2.0 * self.a[i] * x + self.b[i]
        return SubgradientInterval(g, g)


def select_subgradient(interval: SubgradientInterval, rule: str = "minnorm") -> float:
    """Deterministic element of the interval under the configured rule.

    minnorm picks 0 when available, else the endpoint nearest 0; left/right
    pick the one-sided derivatives; midpoint averages them.
    """
    if rule == "minnorm":
        if interval.lo <= 0.0 <= interval.hi:
            return 0.0
        return interval.lo if interval.lo > 0.0 else interval.hi
    if rule == "left":
        return interval.lo
    if rule == "right":
        return interval.hi
    if rule == "midpoint":
        return 0.5 * (interval.lo + interval.hi)
    raise ValidationError(f"unknown selection rule {rule!r}, expected one of {SELECTION_RULES}")


class CostBatch:
    """Vectorized evaluation of one cost per bus, compiled into flat tables.

    Every bus is padded to the common piece count K by repeating its last
    piece. The coefficients are stored flat, piece k of bus j at j*K + k,
    with the derivative slope 2a folded in: (2a) * x is what 2.0 * a * x
    evaluates, so nothing changes bit for bit. Each breakpoint column is one
    contiguous (n,) array, padded with +inf. A piece index is then the bus's
    row base plus one comparison per column, and coefficients are fetched
    with `ndarray.take`. A further flat table holds the breakpoint just below
    each piece (NaN for piece 0 and for padded pieces, so it never compares
    equal). `_select` looks the Clarke interval up once: the right-sided
    piece, and the left-sided one only for the buses whose lower breakpoint
    equals x. Off every kink it is the point f'(x), whose element
    under each rule is `select_point`. The results equal the scalar
    PiecewiseCost methods (and `select_subgradient`) bit for bit, which the
    tests check. Only the simulator uses it: the claim check (`analysis`)
    reads each bus's Clarke interval off its own cost, so it certifies the
    loop's rest without running the lookup it checks.

    `select_piece` also returns the right-sided piece of each bus, under
    every rule: its column of a (4, n*K) table whose rows are the open
    bracket (lower, upper) between the breakpoints around the piece (-inf
    and +inf at the ends, NaN for padded pieces), 2a and b. Strictly inside
    its bracket a bus is on no kink, so a caller that keeps the columns can
    evaluate the selection from them until x leaves the bracket (see
    `ClosedLoop`). A bus exactly on a kink is an end of either bracket, so
    it never passes that check.
    """

    def __init__(self, costs: list[PiecewiseCost]):
        n = len(costs)
        K = max(c.a.size for c in costs)
        a = np.empty((n, K))
        b = np.empty((n, K))
        c = np.empty((n, K))
        bp = np.full((n, K - 1), np.inf)
        left_bp = np.full((n, K), np.nan)
        lower = np.full((n, K), np.nan)
        upper = np.full((n, K), np.nan)
        for j, cost in enumerate(costs):
            k = cost.a.size
            a[j, :k] = cost.a
            b[j, :k] = cost.b
            c[j, :k] = cost.c
            a[j, k:] = cost.a[-1]
            b[j, k:] = cost.b[-1]
            c[j, k:] = cost.c[-1]
            bp[j, : k - 1] = cost.breakpoints
            left_bp[j, 1:k] = cost.breakpoints
            lower[j, :k] = np.concatenate([[-np.inf], cost.breakpoints])
            upper[j, :k] = np.concatenate([cost.breakpoints, [np.inf]])
        # Rows lower, upper, slope 2a and b; one column per flat piece.
        self._table = np.stack([lower.ravel(), upper.ravel(), (2.0 * a).ravel(), b.ravel()])
        self._a = a.ravel()
        self._slope = self._table[2]
        self._b = self._table[3]
        self._c = c.ravel()
        self._base = np.arange(n) * K
        self._breakpoints = tuple(np.ascontiguousarray(col) for col in bp.T)
        self._left_bp = left_bp.ravel()

    def _pieces(self, x: np.ndarray) -> np.ndarray:
        """Flat index of the right-sided piece per bus: row base plus the breakpoints at or below x."""
        idx = self._base
        for col in self._breakpoints:
            idx = idx + np.less_equal(col, x)
        return idx

    def _slope_at(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self._slope.take(idx) * x + self._b.take(idx)

    def value(self, x: np.ndarray) -> np.ndarray:
        """Per-bus cost values f_j(x_j)."""
        idx = self._pieces(x)
        return self._a.take(idx) * x * x + self._b.take(idx) * x + self._c.take(idx)

    def select(self, x: np.ndarray, rule: str = "minnorm") -> np.ndarray:
        """Vectorized select_subgradient over the per-bus Clarke intervals."""
        return self._select(x, rule)[0]

    def select_piece(self, x: np.ndarray, rule: str = "minnorm") -> tuple[np.ndarray, np.ndarray]:
        """`select(x, rule)` and the right-sided piece per bus: a (4, n) array of rows lower, upper, 2a, b."""
        g, idx = self._select(x, rule)
        return g, self._table.take(idx, axis=1)

    def _select(self, x: np.ndarray, rule: str) -> tuple[np.ndarray, np.ndarray]:
        """The selection and the flat index of the right-sided piece per bus."""
        if rule not in SELECTION_RULES:
            raise ValidationError(f"unknown selection rule {rule!r}, expected one of {SELECTION_RULES}")
        idx = self._pieces(x)
        g_hi = self._slope_at(x, idx)
        kink = self._left_bp.take(idx) == x
        if not kink.any():
            return select_point(g_hi, rule), idx
        g_lo = self._slope_at(x, idx - kink)
        if rule == "minnorm":
            return np.where(g_lo > 0.0, g_lo, np.where(g_hi < 0.0, g_hi, 0.0)), idx
        if rule == "midpoint":
            return 0.5 * (g_lo + g_hi), idx
        return (g_lo if rule == "left" else g_hi), idx


def select_point(g: np.ndarray, rule: str, out: np.ndarray | None = None) -> np.ndarray:
    """The rule's element of each one-point interval {g_j}, bit for bit as `select_subgradient` gives it; `out` is None or g.

    `+ 0.0` maps -0.0 to +0.0, as minnorm's comparisons with 0 do; 0.5 * (g + g)
    equals g unless g + g overflows, so it is computed, not skipped.
    """
    if rule == "minnorm":
        return np.add(g, 0.0, out=out)
    if rule == "midpoint":
        return np.multiply(0.5, np.add(g, g, out=out), out=out)
    return g


def normalize_selection_rule(rule: str) -> str:
    """Accept the CLI spelling 'mid' as an alias for 'midpoint'."""
    rule = rule.lower()
    if rule == "mid":
        return "midpoint"
    if rule not in SELECTION_RULES:
        raise ValidationError(f"unknown selection rule {rule!r}, expected one of {SELECTION_RULES} or 'mid'")
    return rule


def project_box(x: np.ndarray, box: Box) -> np.ndarray:
    """Euclidean projection onto the box (componentwise clamp)."""
    x = np.asarray(x, dtype=float)
    if x.shape != box.lower.shape:
        raise ValidationError(f"projection dimension mismatch: x has shape {x.shape}, box has shape {box.lower.shape}")
    return np.clip(x, box.lower, box.upper)


def project_nonneg(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)
