"""Fixed-step closed-loop simulation of plant plus controller.

The coupled system is integrated with explicit RK4 at a fixed step (default
1 ms). Outputs (box projection of d, nonnegative projections of the filter
states, subgradient selection) are recomputed inside every internal stage,
so projections act on stage values and determinism is exact: the same
scenario and configuration always produce bit-identical logs. Disturbance
events are step changes in p_m snapped to the nearest grid point.

The hot path packs the whole state into one flat vector

    y = [ theta_e | omega_g | d | mu | phi | varphi+ | varphi- ]

and evaluates the right-hand side as one precomputed affine operator applied
to (y, p_l, eta+, eta-, g) plus the disturbance feedthrough. The local
imbalance z is an affine function of y, p_l and p_m under either mismatch
source (`model`, or the measured `estimate`), so it is folded into the
operator when it is built; a step costs the same for both. The readable
per-module functions in `dynamics` and `controller` define the semantics;
`tests/test_differential.py` checks the packed right-hand side against them
on every bundled network, selection rule and mismatch source.

The operator is written as the seven derivative equations, each one
expression over the named blocks of x = [y | p_l | eta+ | eta- | g | p_m]
(`ClosedLoop.operand`) and the maps omega and z on x. From 2**15 entries on,
the block selectors, the maps and the operator are canonical CSR, so a large
operator is never held dense; below that they are dense arrays. Products with
C, C^T and L take a CSR left operand, so their sums run in one order for both.

The operand stack (y, p_l, eta+, eta-, g) lives in one buffer that every
right-hand-side evaluation overwrites in place: the projections are written
straight into their blocks with `out=` ufuncs, read from views of its y
block made once (eta+ | eta- is one block, projected from varphi+ | varphi-
in one call). `rhs` copies y into that block; `rk4` writes each
stage state there directly and sums the stages in a preallocated
accumulator, with the operations of the textbook formula in their order, so
a step is bit-identical to RK4 built from four `rhs` calls (a test checks
this). `rhs` and `rk4` return new arrays on every call, so no caller ever
holds a view of the buffer.

A stage computes, in order: p_l = clip(d, box), eta = max(varphi, 0), the
subgradient g, and dy = K @ u, to which aff is added in place. For g each
bus's cost piece is kept across stages and steps, with the open bracket
between the breakpoints around it: while every p_l is strictly inside its
bracket, g is evaluated from the kept coefficients; otherwise the stage
takes the exact lookup, `CostBatch.select_piece`, and keeps the pieces it
returns. Either way g is `CostBatch.select` bit for bit (the argument is in
`ClosedLoop._derivative`; `tests/test_piece_cache.py` checks it), so the
result does not depend on which states a loop saw before.

`run` records only the packed state (and the time) of each logged step, then
observes the whole record once after integration: `observe` takes one state
or a stack of them and never touches the operand buffer. The record is kept
in Fortran order, so the sparse frequency map reads it without a copy; the
log's state signals are column blocks of it.

`run` and `settle` take every step through one stepper (`_Stepper`), which
hands back blocks of consecutive states. Off every kink, box bound and
varphi+- sign change the loop is affine, dy/dt = J y + c, with J and c read
off K and aff (`ClosedLoop.affine_piece`); then an RK4 step is the affine map
y -> R y + r, and so is each of its stages. Where K is dense (the size rule),
a block is a chunk where one holds: up to 256 states made by doubling with the
powers R^(2^i), taking a step only while all four of its stages are strictly
inside the piece. Every other block is plain `rk4` steps, up to 256. `run`
cuts each block at the next event step, since c depends on p_m, and logs its
states straight into its record. `settle` stops where the textbook loop does,
at the first step whose max|rhs| is below tol: the stepper ends each block at
the first state that may rest, read as max|J y + c| on a chunk, and `settle`
confirms it with `rhs`. A chunk's states agree with textbook RK4 to about
1e-13 relative, not bit for bit, since R^j y sums in another order; plain
steps, and so every step where K is CSR, are textbook RK4 bit for bit.

A plant warm start must be physical: its theta_e must be C^T of bus angles
(to within rounding), since the dynamics conserve any loop component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse import vstack as sparse_vstack

from .controller import MISMATCH_SOURCES, ControllerState, init_controller
from .costs import CostBatch, normalize_selection_rule, select_point
from .dynamics import PlantState
from .errors import NumericalError, ValidationError, naming, read_json, require_fields, require_finite
from .network import NetworkModel, load_network


# Largest loop component a warm-start theta_e may carry, relative to
# max(1, max|theta_e|): room for rounding, far below any physical angle.
_LOOP_TOL = 1e-9


@dataclass(frozen=True)
class ControllerConfig:
    """Run-time controller options: selection rule, mismatch source, time scale."""

    selection: str = "minnorm"
    mismatch: str = "model"
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "selection", normalize_selection_rule(self.selection))
        if self.mismatch not in MISMATCH_SOURCES:
            raise ValidationError(f"mismatch source must be one of {MISMATCH_SOURCES}, got {self.mismatch!r}")
        require_finite("controller", epsilon=self.epsilon)
        if not self.epsilon > 0:
            raise ValidationError("controller time scale epsilon must be positive")


@dataclass(frozen=True)
class Event:
    """Step change of p_m at one bus at a given time."""

    time: float
    bus: int
    delta_p_m: float

    def __post_init__(self) -> None:
        require_finite("event", time=self.time, delta_p_m=self.delta_p_m)


@dataclass
class Scenario:
    """A disturbance experiment: network, horizon, events, controller config."""

    network_path: Path
    t_end: float
    dt: float
    events: list[Event] = field(default_factory=list)
    config: ControllerConfig = field(default_factory=ControllerConfig)
    init_plant: Path | None = None
    init_controller: Path | None = None
    log_decimation: int = 1

    def __post_init__(self) -> None:
        require_finite("scenario", t_end=self.t_end, dt=self.dt)
        if not self.dt > 0:
            raise ValidationError("scenario dt must be positive")
        if self.t_end < 0:
            raise ValidationError("scenario t_end must be nonnegative")
        if self.log_decimation < 1:
            raise ValidationError("log_decimation must be a positive integer")
        for ev in self.events:
            if not 0 <= ev.time <= self.t_end:
                raise ValidationError(f"event time {ev.time} outside [0, t_end={self.t_end}]")

    def load_model(self) -> NetworkModel:
        return load_network(self.network_path)

    def step_count(self) -> int:
        """Steps of dt to t_end, rounded to the nearest; a ValidationError naming both when t_end / dt overflows."""
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ValidationError(f"scenario t_end / dt = {self.t_end:g} / {self.dt:g} is not a finite step count")
        return int(round(steps))

    def start_state(self, model: NetworkModel) -> np.ndarray:
        """The packed start state on `model`, once the step count, every event bus and warm-start file are checked.

        The state is zero, or read from flat vector files: a plant file holds
        theta_e | omega_g and a controller file d | mu | phi | varphi+ | varphi-.
        A plant theta_e must be C^T of some bus angles: the dynamics
        (theta_e' = C^T omega) conserve any loop component, so the loop could
        never come to rest with theta_e = C^T phi.
        """
        self.step_count()
        for i, ev in enumerate(self.events):
            if not 0 <= ev.bus < model.n:
                raise ValidationError(f"events[{i}] references unknown bus {ev.bus} (the network has {model.n} buses)")
        layout = _packed_layout(model.n, model.n_g, model.m)
        y = np.zeros(layout["varphi_minus"].stop)
        split = layout["d"].start
        halves = (
            (self.init_plant, y[:split], "theta_e | omega_g"),
            (self.init_controller, y[split:], "d | mu | phi | varphi+ | varphi-"),
        )
        for path, block, names in halves:
            if path is None:
                continue
            try:
                vec = np.loadtxt(path, dtype=float).reshape(-1)
            except OSError as exc:
                raise ValidationError(f"cannot read warm-start file {path}: {exc}") from exc
            except ValueError as exc:
                raise ValidationError(f"warm-start file {path} is not a flat numeric vector: {exc}") from exc
            if vec.size != block.size:
                raise ValidationError(f"warm-start file {path} must hold {block.size} numbers ({names}), got {vec.size}")
            if not np.all(np.isfinite(vec)):
                raise ValidationError(f"warm-start file {path} must hold finite numbers")
            block[...] = vec
        if self.init_plant is not None:
            theta = y[layout["theta_e"]]
            angles = np.linalg.lstsq(model.incidence.T, theta, rcond=None)[0]
            loop_part = float(np.max(np.abs(theta - model.incidence.T @ angles), initial=0.0))
            if loop_part > _LOOP_TOL * max(1.0, float(np.max(np.abs(theta), initial=0.0))):
                raise ValidationError(
                    f"warm-start file {self.init_plant}: theta_e has a loop component of {loop_part:.3e} "
                    f"(it must be C^T of bus angles, to within {_LOOP_TOL:g} relative)"
                )
        return y


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file (strict JSON schema), its path first in every error; its network is not read."""
    path = Path(path)
    data = read_json(path, "scenario")
    number = "a number"
    with naming(path):
        require_fields(
            data,
            "scenario",
            required={"network": "a string", "t_end": number, "dt": number},
            optional={"events": "an array", "controller": "an object", "init": "an object", "log_decimation": "an integer"},
        )
        events = []
        for i, raw in enumerate(data.get("events", [])):
            where = f"events[{i}]"
            require_fields(raw, where, required={"time": number, "bus": "an integer", "delta_p_m": number})
            with naming(where):
                events.append(Event(time=float(raw["time"]), bus=raw["bus"], delta_p_m=float(raw["delta_p_m"])))
        cfg_raw = require_fields(
            data.get("controller", {}), "controller", {}, {"selection": "a string", "mismatch": "a string", "epsilon": number}
        )
        init_raw = require_fields(data.get("init", {}), "init", {}, {"plant": "a string", "controller": "a string"})
        base = path.parent
        return Scenario(
            network_path=base / data["network"],
            t_end=float(data["t_end"]),
            dt=float(data["dt"]),
            events=events,
            config=ControllerConfig(
                selection=cfg_raw.get("selection", "minnorm"),
                mismatch=cfg_raw.get("mismatch", "model"),
                epsilon=float(cfg_raw.get("epsilon", 1.0)),
            ),
            init_plant=base / init_raw["plant"] if "plant" in init_raw else None,
            init_controller=base / init_raw["controller"] if "controller" in init_raw else None,
            log_decimation=data.get("log_decimation", 1),
        )


# A dense matvec costs ~2 us of call overhead plus 0.2-0.4 ns per stored
# entry; a CSR matvec costs ~5-7 us at the sparsity of these operators (well
# under 1 % nonzero on large networks). Measured on a 2-vCPU Xeon guest with
# numpy 2.4 and scipy 1.17, the two meet near 2**15 entries (68-bus frequency
# map, 68 x 478: 8.2 us dense vs 7.8 us CSR).
_CSR_MIN_ENTRIES = 2**15


def _slices(widths: dict[str, int], start: int = 0) -> dict[str, slice]:
    """Consecutive named slices of the given widths, from `start` on."""
    layout = {}
    for name, width in widths.items():
        layout[name] = slice(start, start + width)
        start += width
    return layout


def _packed_layout(n: int, g: int, m: int) -> dict[str, slice]:
    """Slices of the packed state [theta_e | omega_g | d | mu | phi | varphi+ | varphi-]."""
    return _slices({"theta_e": m, "omega_g": g, "d": n, "mu": n, "phi": n, "varphi_plus": m, "varphi_minus": m})


class AffinePiece(NamedTuple):
    """dy/dt = J y + c on the open region lower < y[rows] < upper, rows = `ClosedLoop.region_rows`."""

    J: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _unpack(y: np.ndarray, layout: dict[str, slice]) -> tuple[PlantState, ControllerState]:
    """Copies of the plant and controller parts of one packed state."""
    parts = {name: y[sl].copy() for name, sl in layout.items()}
    return PlantState(parts.pop("theta_e"), parts.pop("omega_g")), ControllerState(**parts)


class ClosedLoop:
    """Precompiled closed-loop right-hand side over the packed state vector.

    Outside the projections and the selection, the loop is the affine map
    dy = K @ x[:p_m] + Kpm @ p_m + k0 of x = [y | p_l | eta+ | eta- | g | p_m].
    `operand` names the slices of x, y's blocks included, so K's blocks are
    read by name: K[loop.sl_phi, loop.operand["eta_plus"]].
    """

    def __init__(self, model: NetworkModel, config: ControllerConfig | None = None):
        self.model = model
        self.config = config or ControllerConfig()
        n, m = model.n, model.m
        gidx = model.generator_index
        lidx = model.load_index
        g = gidx.size
        self.n = n

        self._layout = layout = _packed_layout(n, g, m)
        self.sl_theta, self.sl_og, self.sl_d, self.sl_mu, self.sl_phi, self.sl_vp, self.sl_vm = layout.values()
        self.dim = self.sl_vm.stop
        # The rows d | varphi+ | varphi- of y, whose values fix the affine piece.
        self.region_rows = np.r_[np.arange(self.dim)[self.sl_d], np.arange(self.sl_vp.start, self.dim)]

        C = model.incidence
        B = model.susceptances
        L = model.laplacian
        D = model.damping
        M = model.inertia_generators
        Cw = C * B
        self.B = B
        self.box_lower = model.load_box.lower
        self.box_upper = model.load_box.upper
        self.batch = CostBatch(model.costs)

        S = self.dim
        # Frequency on the plant part theta_e | omega_g of y:
        # omega = Wp @ y[:P] + wpl * p_l + wpm * p_m.
        P = self.sl_og.stop
        Wp = np.zeros((n, P))
        Wp[gidx, np.arange(P)[self.sl_og]] = 1.0
        wpl = np.zeros(n)
        wpm = np.zeros(n)
        Wp[lidx, self.sl_theta] = -Cw[lidx] / D[lidx, None]
        wpl[lidx] = -1.0 / D[lidx]
        wpm[lidx] = 1.0 / D[lidx]

        # -D omega - C B theta_e on the plant part is Rp @ y[:P]. The bus
        # balance over M at generator buses is the acceleration:
        # dog = Vp @ y[:P] + vpl * p_l[gidx] + vpm * p_m[gidx]. wpl and wpm
        # vanish at generator buses, so there (-D wpl - 1) / M = -1 / M and
        # (1 - D wpm) / M = 1 / M.
        Rp = -D[:, None] * Wp
        Rp[:, self.sl_theta] -= Cw
        Vp = Rp[gidx] / M[:, None]
        vpl, vpm = -1.0 / M, 1.0 / M

        # The local imbalance z = Zp @ y[:P] + L @ phi + zpl * p_l + zpm * p_m,
        # the one place the mismatch source is read.
        if self.config.mismatch == "model":
            # z = p_l - p_m + L phi
            Zp, zpl, zpm = np.zeros((n, P)), np.ones(n), np.full(n, -1.0)
        else:
            # Measured: -D omega - C B theta_e - M dog (at generator buses)
            # + L phi, with omega and dog through the maps above. On the
            # linear plant this is p_l - p_m + L phi again.
            Zp, zpl, zpm = Rp.copy(), -D * wpl, -D * wpm
            Zp[gidx] -= M[:, None] * Vp
            zpl[gidx] -= M * vpl
            zpm[gidx] -= M * vpm

        self.operand = operand = {
            "y": slice(0, S),
            **layout,
            **_slices({"p_l": n, "eta_plus": m, "eta_minus": m, "g": n, "p_m": n}, start=S),
        }
        X = operand["p_m"].stop
        # Selectors, maps and the operator are dense arrays below the size rule
        # and CSR from there on; the equations read the same either way. Every
        # product takes a CSR left operand, so its sums run in scipy's order
        # for both, not BLAS's.
        dense = S * X < _CSR_MIN_ENTRIES

        def entries(k: int, i, j, v):
            """The map from x to k values with entries v at (i, j), in row-major order."""
            if dense:
                A = np.zeros((k, X))
                A[i, j] = v
                return A
            return csr_matrix((np.full(i.shape, v), j, np.searchsorted(i, np.arange(k + 1))), shape=(k, X))

        def x(name: str, w=1.0, rows=slice(None)):
            """The map x -> w * x[name][rows]."""
            cols = np.arange(X)[operand[name]][rows]
            return entries(cols.size, np.arange(cols.size), cols, w)

        def plant(A: np.ndarray):
            """A map on the plant part theta_e | omega_g of x, padded to x's width; its -0.0 entries become 0."""
            i, j = np.nonzero(A)
            return entries(A.shape[0], i, j, A[i, j])

        Lc, Cc, Ct = csr_matrix(L), csr_matrix(C), csr_matrix(C.T)
        omega = plant(Wp) + x("p_l", wpl) + x("p_m", wpm)
        z = plant(Zp) + Lc @ x("phi") + x("p_l", zpl) + x("p_m", zpm)
        plant_rows = [
            Ct @ omega,  # theta_e'
            plant(Vp) + x("p_l", vpl, gidx) + x("p_m", vpm, gidx),  # omega_g'
        ]
        # p_l - z is formed before omega is added, so that under `model` its
        # p_l entries cancel to exactly 0. Each -0.0 of a negation is then
        # added to a +0.0, which makes it 0: a dense K holds none.
        controller_rows = [
            omega + (x("p_l") - z) - x("d") - x("mu") - x("g"),  # d'
            z,  # mu'
            -(Lc @ (z + x("mu"))) + Cc @ (x("eta_minus") - x("eta_plus")),  # phi'
            Ct @ x("phi") - x("varphi_plus") + x("eta_plus"),  # varphi+' (+ -theta_max in k0)
            -(Ct @ x("phi")) - x("varphi_minus") + x("eta_minus"),  # varphi-' (+ theta_min in k0)
        ]
        # The global controller time scale epsilon scales every row from d on.
        rows = plant_rows + [self.config.epsilon * row for row in controller_rows]
        if dense:
            A = np.vstack(rows)
        else:
            A = sparse_vstack(rows, format="csr")
            A.sort_indices()
            A.eliminate_zeros()
        self.K, self.Kpm = A[:, : operand["p_m"].start], A[:, operand["p_m"]]
        self.k0 = k0 = np.zeros(S)
        k0[self.sl_vp] = -model.angle_upper
        k0[self.sl_vm] = model.angle_lower
        k0[self.sl_d.start :] *= self.config.epsilon
        self._wpl, self._wpm = wpl, wpm
        # For `observe` on a stack of states: the frequency map on the plant
        # part as CSR (a few entries per row), so that k states cost a sparse
        # product instead of a dense BLAS gemm, whose worker threads take
        # memory and time.
        self._obs_Wp = csr_matrix(Wp)
        # Operand buffer of K; its blocks are written in place on every call.
        # varphi+ | varphi- ends y and eta+ | eta- follows p_l, so each pair
        # is one contiguous block.
        self._u = np.empty(operand["p_m"].start)
        self._u_y = self._u[operand["y"]]
        self._y_d = self._u_y[self.sl_d]
        self._y_varphi = self._u_y[self.sl_vp.start : self.sl_vm.stop]
        self._u_pl, self._u_g = self._u[operand["p_l"]], self._u[operand["g"]]
        self._u_eta = self._u[operand["eta_plus"].start : operand["eta_minus"].stop]
        # The cost piece of each bus as (lower, upper, 2a, b) rows, kept
        # across stages and steps; NaN brackets send the first stage to the
        # exact lookup.
        self._piece = tuple(np.full((4, n), np.nan))
        # Accumulator of the final RK4 combination.
        self._acc = np.empty(S)

    # -- state packing ------------------------------------------------------

    def pack(self, plant: PlantState, ctrl: ControllerState) -> np.ndarray:
        return np.concatenate([plant.theta_e, plant.omega_g, ctrl.pack()])

    def unpack(self, y: np.ndarray) -> tuple[PlantState, ControllerState]:
        return _unpack(y, self._layout)

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.dim)

    # -- right-hand side ----------------------------------------------------

    def feedthrough(self, p_m: np.ndarray) -> np.ndarray:
        """Constant part of the RHS for a fixed p_m segment."""
        return self.Kpm @ p_m + self.k0

    def _derivative(self, aff: np.ndarray) -> np.ndarray:
        """dy/dt at the state held in the buffer's y block, as a new array.

        Only the projections and the subgradient selection are written into
        the operand buffer; everything linear, z included, is in K and aff.

        The selection keeps each bus's cost piece from the stage before.
        While every p_l lies strictly inside its piece's bracket (lower,
        upper), g = 2a * p_l + b is written straight into the buffer and the
        rule's element of {g} taken there by `costs.select_point`. That is
        `CostBatch.select` bit for bit: strictly inside a bracket no bus is on
        a kink, so `select` takes `select_point` of 2a * x + b on the same
        piece. Otherwise the stage takes the exact lookup,
        `CostBatch.select_piece`, and keeps the pieces it returns. A bus
        exactly on a kink is an end of the bracket it gets, so it takes the
        exact lookup, where the rules differ, while it stays there.
        """
        p_l = self._u_pl
        # minimum(maximum(.)) is np.clip bit for bit, without clip's wrapper cost.
        np.minimum(np.maximum(self._y_d, self.box_lower, out=p_l), self.box_upper, out=p_l)
        np.maximum(self._y_varphi, 0.0, out=self._u_eta)
        lower, upper, slope, b = self._piece
        # count_nonzero is a plain C call, unlike ndarray.all's Python wrapper.
        if np.count_nonzero((lower < p_l) & (p_l < upper)) == self.n:
            g = np.add(np.multiply(slope, p_l, out=self._u_g), b, out=self._u_g)
            select_point(g, self.config.selection, out=g)
        else:
            self._u_g[...], piece = self.batch.select_piece(p_l, self.config.selection)
            self._piece = tuple(piece)
        dy = self.K @ self._u
        dy += aff
        return dy

    def affine_piece(self, y: np.ndarray, aff: np.ndarray) -> AffinePiece | None:
        """The piece dy/dt = J y + c of the right-hand side around y, or None when y lies on a piece's boundary.

        A piece fixes each bus's box side and, inside the box, its cost piece,
        and the sign of each varphi+-. Its region is open: lower < y < upper on
        the rows d | varphi+ | varphi- (`region_rows`), with the bracket of the
        cost piece intersected with the box on an inside bus. Inside it p_l is
        d or a box bound, eta is varphi or 0, and g is 2a p_l + b or, at a
        box bound, the rule's constant element there, so J and c are K's
        columns under 0/1 masks and 2a, and `aff` plus K times the constants.
        Both are read from K and aff as they are now, whatever edited them.
        """
        d, varphi = y[self.sl_d], y[self.region_rows[self.n :]]
        below, above = d < self.box_lower, d > self.box_upper
        inside = (self.box_lower < d) & (d < self.box_upper)
        p_l = np.clip(d, self.box_lower, self.box_upper)
        g, (lower, upper, slope, b) = self.batch.select_piece(p_l, self.config.selection)
        on_kink = inside & ~((lower < p_l) & (p_l < upper))
        if np.count_nonzero(below | above | inside) < self.n or on_kink.any() or not np.all(varphi != 0.0):
            return None
        active = varphi > 0.0
        K = self.K.toarray() if issparse(self.K) else self.K
        op = self.operand
        K_pl, K_g = K[:, op["p_l"]], K[:, op["g"]]
        J = K[:, op["y"]].copy()
        J[:, self.sl_d] += K_pl * inside + K_g * np.where(inside, slope, 0.0)
        J[:, self.region_rows[self.n :]] += K[:, op["eta_plus"].start : op["eta_minus"].stop] * active
        c = aff + K_pl @ np.where(inside, 0.0, p_l) + K_g @ np.where(inside, b, g)
        lo = np.concatenate([
            np.where(inside, np.maximum(self.box_lower, lower), np.where(below, -np.inf, self.box_upper)),
            np.where(active, 0.0, -np.inf),
        ])
        hi = np.concatenate([
            np.where(inside, np.minimum(self.box_upper, upper), np.where(below, self.box_lower, np.inf)),
            np.where(active, np.inf, 0.0),
        ])
        return AffinePiece(J, c, lo, hi)

    def rhs(self, y: np.ndarray, p_m: np.ndarray, aff: np.ndarray | None = None) -> np.ndarray:
        """Packed derivative dy/dt."""
        if aff is None:
            aff = self.feedthrough(p_m)
        self._u_y[...] = y
        return self._derivative(aff)

    def rk4(self, y: np.ndarray, p_m: np.ndarray, dt: float, aff: np.ndarray, k1: np.ndarray | None = None) -> np.ndarray:
        """One RK4 step, y + (dt / 6) * (k1 + 2 * (k2 + k3) + k4), as a new array.

        Each stage state is written straight into the buffer's y block; the
        operations and their order are those of the textbook formula, so the
        result is the same bit for bit. Neither y nor k1 is written to.
        """
        if k1 is None:
            k1 = self.rhs(y, p_m, aff)
        stage, acc = self._u_y, self._acc
        np.add(y, np.multiply(0.5 * dt, k1, out=stage), out=stage)
        k2 = self._derivative(aff)
        np.add(y, np.multiply(0.5 * dt, k2, out=stage), out=stage)
        k3 = self._derivative(aff)
        np.add(y, np.multiply(dt, k3, out=stage), out=stage)
        k4 = self._derivative(aff)
        np.add(k2, k3, out=acc)
        np.multiply(2.0, acc, out=acc)
        np.add(k1, acc, out=acc)
        np.add(acc, k4, out=acc)
        np.multiply(dt / 6.0, acc, out=acc)
        return y + acc

    # -- observation --------------------------------------------------------

    def observe(self, y: np.ndarray, p_m: np.ndarray, starts: tuple[int, ...] = (0,)) -> dict:
        """Logged signals at one packed state (dim,) or at each row of a stack (k, dim).

        Returns what a `TrajectoryLog` records besides the state, as new
        arrays (one row per state for a stack): omega, p_l, eta_plus,
        eta_minus, flows and the total cost (a float for one state). `p_m`
        is the injection (n,) at every state, or (s, n) with row i applying
        from state starts[i] on, so a run's event segments need no copy of
        p_m per record. The plant part of a stack in Fortran order (as `run`
        records it) is read in place; one in C order is copied.
        """
        y = np.asarray(y)
        # The cost first: its temporaries are freed before the outputs that
        # follow are allocated.
        p_l = np.maximum(y[..., self.sl_d], self.box_lower)
        np.minimum(p_l, self.box_upper, out=p_l)
        cost = self.batch.value(p_l).sum(axis=-1)
        omega = (self._obs_Wp @ y[..., : self.sl_og.stop].T).T
        omega += p_l * self._wpl
        rows, P_m = (omega if omega.ndim == 2 else omega[np.newaxis]), np.atleast_2d(p_m)
        for i, start in enumerate(starts):
            stop = starts[i + 1] if i + 1 < len(starts) else len(rows)
            rows[start:stop] += self._wpm * P_m[i]
        return {
            "omega": omega,
            "p_l": p_l,
            "eta_plus": np.maximum(y[..., self.sl_vp], 0.0),
            "eta_minus": np.maximum(y[..., self.sl_vm], 0.0),
            "flows": self.B * y[..., self.sl_theta],
            "cost": cost if y.ndim == 2 else float(cost),
        }


@dataclass
class TrajectoryLog:
    """Uniformly decimated record of a closed-loop run.

    `states` holds the packed state of every record; the state signals
    (theta_e, omega_g, d, mu, phi, varphi+, varphi-) are views of its column
    blocks, not copies. The other signals are observed from it.
    """

    times: np.ndarray
    states: np.ndarray
    omega: np.ndarray
    p_l: np.ndarray
    eta_plus: np.ndarray
    eta_minus: np.ndarray
    flows: np.ndarray
    cost: np.ndarray
    p_m_final: np.ndarray

    @property
    def _layout(self) -> dict[str, slice]:
        n, m = self.omega.shape[1], self.flows.shape[1]
        return _packed_layout(n, self.states.shape[1] - 3 * (n + m), m)

    def _block(self, name: str) -> np.ndarray:
        return self.states[:, self._layout[name]]

    theta_e = property(lambda self: self._block("theta_e"))
    omega_g = property(lambda self: self._block("omega_g"))
    d = property(lambda self: self._block("d"))
    mu = property(lambda self: self._block("mu"))
    phi = property(lambda self: self._block("phi"))
    varphi_plus = property(lambda self: self._block("varphi_plus"))
    varphi_minus = property(lambda self: self._block("varphi_minus"))

    def final_plant(self, model: NetworkModel) -> PlantState:
        plant = _unpack(self.states[-1], self._layout)[0]
        plant.validate(model)
        return plant

    def final_controller(self) -> ControllerState:
        return _unpack(self.states[-1], self._layout)[1]

    def to_csv(self, path: str | Path) -> None:
        """Write the log as CSV: a per-record signal is one column, a per-bus or per-line one a column each."""
        columns = {
            "t": self.times,
            "theta_e": self.theta_e,
            "omega": self.omega,
            "d": self.d,
            "mu": self.mu,
            "phi": self.phi,
            "varphi_plus": self.varphi_plus,
            "varphi_minus": self.varphi_minus,
            "p_l": self.p_l,
            "eta_plus": self.eta_plus,
            "eta_minus": self.eta_minus,
            "flow": self.flows,
            "cost": self.cost,
        }
        header = []
        for name, values in columns.items():
            header += [f"{name}[{k}]" for k in range(values.shape[1])] if values.ndim == 2 else [name]
        data = np.column_stack(list(columns.values()))
        np.savetxt(path, data, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def run(scenario: Scenario, model: NetworkModel | None = None) -> TrajectoryLog:
    """Integrate a scenario from t=0 to t_end, logging at the configured decimation.

    The steps are `_Stepper`'s, each block cut at the next event step:
    verified affine chunks where K is dense, else plain `rk4` steps. The
    records agree with textbook RK4 to about 1e-13 relative, and bit for bit
    where every step is plain. A logged state that is not finite raises
    `NumericalError` naming its model time.
    """
    if model is None:
        model = scenario.load_model()
    y = scenario.start_state(model)
    loop = ClosedLoop(model, scenario.config)
    dt = scenario.dt
    n_steps = scenario.step_count()

    events_at: dict[int, list[Event]] = {}
    for ev in scenario.events:
        k = min(max(int(round(ev.time / dt)), 0), n_steps)
        events_at.setdefault(k, []).append(ev)

    dec = scenario.log_decimation
    n_rec = n_steps // dec + 1 + (n_steps % dec != 0)
    try:
        times = np.empty(n_rec)
        # Fortran order: the transposed record is C-contiguous, which the
        # sparse frequency map in `observe` reads without a copy.
        states = np.empty((n_rec, loop.dim), order="F")
    except (MemoryError, ValueError) as exc:  # numpy raises ValueError for a size past its index range
        raise ValidationError(
            f"scenario t_end / dt = {scenario.t_end:g} / {dt:g} at log_decimation {dec} needs {n_rec:.4g} records "
            f"of {loop.dim} numbers, which cannot be allocated: {exc}"
        ) from exc
    rec = 0

    def record(k: int, rows: np.ndarray) -> None:
        """Log rows, the states at steps k, k + dec, ..., once each is checked finite."""
        nonlocal rec
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise NumericalError(f"non-finite state at t={(k + dec * int(np.argmax(bad))) * dt:g}s")
        m = len(rows)
        times[rec : rec + m] = (k + dec * np.arange(m)) * dt
        states[rec : rec + m] = rows
        rec += m

    # p_m per event segment: segment i applies from record starts[i] on.
    p_m = np.zeros(model.n)
    starts, segments = [0], [p_m.copy()]
    stepper = _Stepper(loop, dt, p_m, loop.feedthrough(p_m))
    k = 0
    for stop in sorted(events_at.keys() | {n_steps}):
        while k < stop:
            Y = stepper.advance(y, k, stop - k)
            # Row j is the state at step k + j; the last row starts the next pass.
            first = -k % dec
            record(k + first, Y[first:-1:dec])
            y, k = Y[-1], k + len(Y) - 1
        if stop in events_at:
            for ev in events_at[stop]:
                p_m[ev.bus] += ev.delta_p_m
            stepper.feed(p_m, loop.feedthrough(p_m))
            starts.append(rec)
            segments.append(p_m.copy())
    record(n_steps, y[np.newaxis])

    obs = loop.observe(states, np.array(segments), tuple(starts))
    return TrajectoryLog(times=times, states=states, p_m_final=p_m, **obs)


@dataclass
class SettleResult:
    """Outcome of settling: final states, elapsed simulated time, convergence flag.

    `rk4_steps` counts the plain `ClosedLoop.rk4` steps; the others were
    chunk steps of the affine path.
    """

    plant: PlantState
    ctrl: ControllerState
    t: float
    converged: bool
    residual: float
    rk4_steps: int


# Most steps in one chunk of the affine path. The chunk's states are made by
# doubling, so 256 steps take 8 products with the powers R^(2^i) and one with R.
_CHUNK_STEPS = 256


class _AffineSteps:
    """RK4 steps of dy/dt = J y + c, many at a time, while every stage state stays inside the piece's region.

    One step is the affine map y -> R y + r, and each of its four stage states
    an affine map of y (the first is y). A chunk holds the states y_0 .. y_n
    as rows: y_0 is given, and rows 2^i .. 2^(i+1) - 1 are R^(2^i) applied to
    rows 0 .. 2^i - 1 (row n, when n is a power of 2, is R applied to row
    n - 1). Each new block is checked before the next is made: a step is
    taken only if all four of its stage states are strictly inside the region.
    """

    def __init__(self, piece: AffinePiece, rows: np.ndarray, dt: float):
        J, c = piece.J, piece.c
        eye = np.eye(c.size)
        self.rows, self.lower, self.upper = rows, piece.lower, piece.upper
        # Stage i is s_i = A_i y + a_i and its derivative k_i = J s_i + c;
        # s_2 = y + (dt/2) k_1, s_3 = y + (dt/2) k_2, s_4 = y + dt k_3.
        A, a = eye, np.zeros(c.size)
        stages = [(A[rows], a[rows])]
        kA, ka = J, c
        sum_A, sum_a = J.copy(), c.copy()
        for h, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
            A, a = eye + h * kA, h * ka
            stages.append((A[rows], a[rows]))
            kA, ka = J @ A, J @ a + c
            sum_A += weight * kA
            sum_a += weight * ka
        # Row blocks hold the states, so every map is applied from the right.
        self.stage_T = np.ascontiguousarray(np.vstack([A for A, _ in stages]).T)
        self.stage_a = np.concatenate([a for _, a in stages])
        self.stage_lower, self.stage_upper = np.tile(piece.lower, 4), np.tile(piece.upper, 4)
        self.J_T, self.c = np.ascontiguousarray(J.T), c
        # (R^(2^i))^T and the offset of 2^i steps, made as the chunks need them.
        self.powers = [(np.ascontiguousarray((eye + (dt / 6.0) * sum_A).T), (dt / 6.0) * sum_a)]

    def holds(self, y: np.ndarray) -> bool:
        """Whether y is strictly inside the region."""
        x = y[self.rows]
        return bool(np.all((self.lower < x) & (x < self.upper)))

    def residuals(self, Y: np.ndarray) -> np.ndarray:
        """max|J y + c| of each row of Y: max|rhs| there, for a state inside the region."""
        return np.max(np.abs(Y @ self.J_T + self.c), axis=1)

    def _power(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        while len(self.powers) <= i:
            P_T, p = self.powers[-1]
            self.powers.append((P_T @ P_T, p @ P_T + p))
        return self.powers[i]

    def states(self, y: np.ndarray, n: int) -> np.ndarray:
        """y and the states of the steps from it, up to n, before the first one with a stage outside the region, as rows.

        No row is handed back past one that is not finite: a power of R can
        overflow before the states it would make do, so the steps that are
        left go to `rk4`.
        """
        Y = np.empty((n + 1, y.size))
        Y[0] = y
        done, made = 0, 1  # rows checked, rows made
        while True:
            S = Y[done : min(made, n)] @ self.stage_T
            S += self.stage_a
            inside = np.all((self.stage_lower < S) & (S < self.stage_upper), axis=1)
            if not inside.all():
                taken = done + int(np.argmin(inside))
                break
            if made > n:
                taken = n
                break
            # The next rows are `span` steps past rows made - span, ...
            span = made if made < n else 1
            k = min(span, n + 1 - made)
            P_T, p = self._power(span.bit_length() - 1)
            new = np.matmul(Y[made - span : made - span + k], P_T, out=Y[made : made + k])
            new += p
            done, made = made, made + k
        bad = ~np.isfinite(Y[1 : taken + 1]).all(axis=1)
        if bad.any():
            taken = int(np.argmax(bad))
        return Y[: taken + 1]


class _Stepper:
    """The steps of `run` and `settle`, as blocks of states: a chunk of `_AffineSteps` where one holds, else plain `rk4` steps.

    The chunk maps belong to the piece around the state that last found one,
    and to the feedthrough: `feed` sets a new one and drops them. After a
    chunk that takes no step, the next is tried only after 1, 2, 4, ... 256
    plain steps.
    """

    def __init__(self, loop: ClosedLoop, dt: float, p_m: np.ndarray, aff: np.ndarray):
        self.loop, self.dt = loop, dt
        # The first step a chunk may start at, and the plain steps after a chunk that takes none. Chunks are
        # tried only where the size rule holds K dense: on the 68-bus network their dense maps would raise
        # a `check`'s peak memory by about a quarter.
        self.next_chunk, self.wait = (math.inf if issparse(loop.K) else 0), 1
        self.rk4_steps = 0
        # Plain steps are written here, each block over the one before: a new block per call would keep two
        # alive while the next is made, which cost the 68-bus `check` benchmark 2.4 MiB of peak memory.
        self.rows = np.empty((_CHUNK_STEPS + 1, loop.dim))
        self.feed(p_m, aff)

    def feed(self, p_m: np.ndarray, aff: np.ndarray) -> None:
        """Step under p_m, whose feedthrough is aff, from now on."""
        self.p_m, self.aff, self.chunk = p_m, aff, None

    def advance(self, y: np.ndarray, k: int, n: int, tol: float | None = None, k1: np.ndarray | None = None) -> np.ndarray:
        """The states at steps k .. k + t from y at step k, for some 1 <= t <= n, as rows.

        They are one verified chunk, else plain `rk4` steps up to the next step
        a chunk may start at (at most 256). Given tol, the rows end at the first
        state past y whose residual is below tol or is not finite: max|J y + c|
        on a chunk, max|rhs| on a plain step, whose rhs the next step takes as
        its k1. k1, if given, is rhs(y). The rows are valid until the next
        call, which may write over them once it has read y.
        """
        if k >= self.next_chunk:
            if self.chunk is None or not self.chunk.holds(y):
                piece = self.loop.affine_piece(y, self.aff)
                self.chunk = None if piece is None else _AffineSteps(piece, self.loop.region_rows, self.dt)
            if self.chunk is not None:
                Y = self.chunk.states(y, min(_CHUNK_STEPS, n))
                if len(Y) > 1:
                    self.wait = 1
                    if tol is not None:
                        r = self.chunk.residuals(Y[1:])
                        rest = np.flatnonzero((r < tol) | ~np.isfinite(r))
                        Y = Y[: rest[0] + 2] if rest.size else Y
                    return Y
            self.next_chunk, self.wait = k + self.wait, min(2 * self.wait, _CHUNK_STEPS)
        Y = self.rows[: min(n, self.next_chunk - k, _CHUNK_STEPS) + 1]
        Y[0] = y
        for j in range(1, len(Y)):
            Y[j] = self.loop.rk4(Y[j - 1], self.p_m, self.dt, self.aff, k1=k1)
            self.rk4_steps += 1
            if tol is not None:
                k1 = self.loop.rhs(Y[j], self.p_m, self.aff)
                r = np.max(np.abs(k1))
                if r < tol or not np.isfinite(r):
                    return Y[: j + 1]
        return Y


def settle(
    model: NetworkModel,
    p_m: np.ndarray,
    tol: float = 1e-7,
    t_max: float = 600.0,
    plant: PlantState | None = None,
    ctrl: ControllerState | None = None,
    config: ControllerConfig | None = None,
    dt: float = 1e-3,
) -> SettleResult:
    """Integrate under constant p_m until the full state derivative is below tol.

    The result is that of the textbook loop: at each step k, stop if
    max|rhs(y_k)| < tol (or k is the last step), else take an RK4 step. The
    steps are `_Stepper`'s, as in `run`: chunks of the exact affine RK4 map of
    the piece around the state (`ClosedLoop.affine_piece`, `_AffineSteps`)
    where K is dense, else plain `rk4` steps (`rk4_steps` counts them). Each
    block ends at its first state that may rest, and the exact `rhs` there
    confirms it. The stop step and `residual` (max|rhs| at the returned state)
    are the textbook loop's; the states agree with it to about 1e-13 relative,
    and bit for bit where every step is plain.

    A timeout is reported via converged=False, not an exception: slow
    convergence is a finding, not a crash.
    """
    require_finite("settle", tol=tol, t_max=t_max, dt=dt)
    if not tol > 0:
        raise ValidationError("settle tolerance must be positive")
    if t_max < 0:
        raise ValidationError("settle time budget t_max must be nonnegative")
    if not dt > 0:
        raise ValidationError("settle step dt must be positive")
    if not math.isfinite(t_max / dt):
        raise ValidationError(f"settle t_max / dt = {t_max:g} / {dt:g} is not a finite step count")
    loop = ClosedLoop(model, config)
    plant = plant or PlantState.zero(model)
    ctrl = ctrl or init_controller(model)
    y = loop.pack(plant, ctrl)
    p_m = np.asarray(p_m, dtype=float)
    aff = loop.feedthrough(p_m)
    n_steps = int(np.ceil(t_max / dt))
    stepper = _Stepper(loop, dt, p_m, aff)
    k = 0
    while True:
        # The exact rest test; after a plain block it repeats the stepper's last rhs, on purpose.
        k1 = loop.rhs(y, p_m, aff)
        residual = float(np.max(np.abs(k1)))
        if not np.isfinite(residual):
            raise NumericalError(f"non-finite state while settling at t={k * dt:g}s")
        converged = residual < tol
        if converged or k == n_steps:
            break
        # The block ends at its first state that may rest; the next pass's rhs confirms it.
        Y = stepper.advance(y, k, n_steps - k, tol, k1)
        y, k = Y[-1], k + len(Y) - 1
    plant_f, ctrl_f = loop.unpack(y)
    return SettleResult(
        plant=plant_f, ctrl=ctrl_f, t=k * dt, converged=converged, residual=residual, rk4_steps=stepper.rk4_steps
    )
