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
operator when it is built. A step takes the same operations under both,
except that entries cancelling to exactly 0 under `model` may be left at
rounding level under `estimate`: the 68-bus CSR K holds 3 616 nonzeros
against 3 546 (70 entries, each at most 3.1e-15). The readable
per-module functions in `dynamics` and `controller` define the semantics;
`tests/test_differential.py` checks the packed right-hand side against them
on every bundled network, selection rule and mismatch source.

The operator is written as the seven derivative equations, each one
expression over the named blocks of x = [y | p_l | eta+ | eta- | g | p_m]
(`ClosedLoop.operand`) and the maps omega and z on x. From 2**15 entries on,
the block selectors, the maps and the operator are canonical CSR, so a large
operator is never held dense; below that they are dense arrays. Products with
C, C^T and L take a CSR left operand, so their sums run in one order for both.

`rhs` is the formula dy = K @ u + aff with the operand built anew from y,
u = [y | clip(d, box) | max(varphi, 0) | `CostBatch.select(p_l, rule)`], and
`rk4` is the textbook step over four `rhs` calls, so nothing a loop computed
before shows in what it computes next.

`run` records only the packed state (and the time) of each logged step, then
observes the whole record once after integration: `observe` takes one state
or a stack of them. The record is kept in Fortran order, so the sparse
frequency map reads it without a copy; the log's state signals are column
blocks of it.

`run` and `settle` take every step through one stepper (`_Stepper`), which
hands back blocks of consecutive states. Off every kink, box bound and
varphi+- sign change the loop is affine, dy/dt = J y + c, with J = K T and
c = K t + aff for the affine map u = T y + t that the operand follows there
(`ClosedLoop.affine_piece`, sparse products); then an RK4 step is the affine
map y -> R y + r, and so is each of its stages. A block is a chunk where one
holds, taking a step only while all four of its stages are strictly inside
the piece. Both chunk makers take RK4's stages from one kernel
(`_Chunks._increment`): each stage is one product of the augmented operator
A = [[J, c], [W, w]], held like J, with a block of columns over a last row,
which gives the stage's derivatives and region rows at once. The size rule
picks the chunk maker. Where K is dense, `_AffineSteps` takes R y + r and
each stage's region map from one kernel step of the columns of the identity
of size dim + 1, and makes the states by doubling with the powers R^(2^i),
up to 2 048 steps, testing the stage regions 256 rows at a time so that no
temporary grows with the chunk. Where K is CSR (the 68-bus network),
`_LaneSteps` runs 32 lanes of 16 steps side by side, a chunk of up to 512
states: the lane starts come from the 16-step map P = R^16, one
matrix-vector product each, and each stage of the 32 lanes is one CSR
product of A with the stage block over a row of ones. P is built with the
same kernel the first time a maker has 700 or more steps left in its
segment; with fewer left and no P, a chunk is one lane of up to 512 steps,
which needs neither P nor p. Each new piece gets a new maker, which borrows
one thing from the maker before it: its P, where dt and J are the same. So P
is kept across events while J is unchanged, and `settle` borrows it from
`run`'s last maker (`TrajectoryLog._last`). Every other block is plain `rk4`
steps, up to 256. `run` cuts each block at the next event step, since c
depends on p_m, and logs its states straight into its record. `settle` stops
at the first y that rests, max|Phi_dt(y) - y| / dt < tol with Phi_dt the
step taken there. The stepper reads it off the step's increment: a plain
step's (`ClosedLoop.increment`), else a chunk's. Both makers' `states(y, n,
rows, rest)` hand back the rows and, given `rest`, the rest residual of the
step from each row but the last (a doubling chunk's G y + r, a lane's step);
the stepper alone ends a block at its first resting row.

A bus whose price lies strictly inside the Clarke interval at a cost kink
slides on it: Filippov's solution holds d at the kink, with g the
equivalent control g_eq that makes d' = 0. Textbook RK4 chatters across the
kink there instead, its stages straddling it, at about dt |d'| per step.
The sliding motion is affine too: `affine_piece` returns it for a bus
inside its box exactly on a kink whose g_eq lies strictly inside the
interval, with p_l held at the kink, d's row of J and c zeroed, and the
region row g- < g_eq < g+ in place of d's bounds, so a chunk slides while
g_eq stays strictly inside at every stage. The stepper enters the slide at
a chunk attempt: it moves d onto a kink within one step's reach (dt |d'|, or
the largest step of d in the plain block before) where the sliding piece
holds there. It leaves by no rule of its own: when g_eq reaches an end of
the interval no chunk step holds, and plain steps go on from d on the kink.

This is the specification: off the sliding steps a chunk's states agree with
textbook RK4 to about 1e-13 relative, not bit for bit, since R^j y and J X
sum in other orders; on them, with Filippov's solution, RK4 of the sliding
field, and so with textbook RK4 only to about the chatter amplitude (2e-4 on
d on three_bus_congested). Plain steps are textbook RK4 bit for bit. Where K
is CSR every product that makes a state is a CSR product or a matrix-vector
product, whose sums run in an order that does not depend on the BLAS thread
count.

A plant warm start must be physical: its theta_e must be C^T of bus angles
(to within rounding), since the dynamics conserve any loop component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse import bmat as sparse_bmat
from scipy.sparse import csr_matrix, issparse
from scipy.sparse import vstack as sparse_vstack

from .controller import MISMATCH_SOURCES, ControllerState, init_controller
from .costs import CostBatch, normalize_selection_rule
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
            config=ControllerConfig(**{k: float(v) if k == "epsilon" else v for k, v in cfg_raw.items()}),
            init_plant=base / init_raw["plant"] if "plant" in init_raw else None,
            init_controller=base / init_raw["controller"] if "controller" in init_raw else None,
            log_decimation=data.get("log_decimation", 1),
        )


# The size rule: an operator K of this many entries or more is stored CSR, and
# so are its selectors and maps and each affine piece's J and W; a smaller one
# is dense. With the storage it picks the chunk maker: doubling
# (`_AffineSteps`) where K is dense, lanes (`_LaneSteps`) where it is CSR.
# Each is the cheaper on its side (2-vCPU Xeon guest, numpy 2.4, scipy 1.17):
# lanes made an in-process `check` of each dense bundled scenario 1.4-2.7x
# slower (best of 5, one BLAS thread: three_bus_congested 100 -> 236 ms,
# nine_bus_steps 110 -> 264 ms), and dense doubling chunks on the 68-bus
# network (478 x 854) raised the large_grid benchmark's peak RSS from 95.5 to
# 121.6 MiB.
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


def _entries(shape: tuple[int, int], i: np.ndarray, j: np.ndarray, v, dense: bool = False):
    """The matrix of `shape` with entries v at (i, j), i ascending and j ascending within a row: dense, or canonical CSR."""
    if dense:
        A = np.zeros(shape)
        A[i, j] = v
        return A
    return csr_matrix((np.full(i.shape, v, dtype=float), j, np.searchsorted(i, np.arange(shape[0] + 1))), shape=shape)


class AffinePiece(NamedTuple):
    """dy/dt = J y + c on the region y[held] = at, lower < W y + w < upper (open).

    Off every kink W y + w is y[`ClosedLoop.region_rows`] and nothing is held.
    """

    J: np.ndarray
    c: np.ndarray
    W: np.ndarray
    w: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    held: np.ndarray
    at: np.ndarray


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
        self._dense = dense = S * X < _CSR_MIN_ENTRIES

        def entries(k: int, i, j, v):
            """The map from x to k values with entries v at (i, j), in row-major order."""
            return _entries((k, X), i, j, v, dense)

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
        split = operand["p_m"].start
        if dense:
            # C-contiguous copies, not column views of the stack, whose rows
            # are strided across the p_m columns: as views, a dense matvec ran
            # up to 8 % slower at some 16-byte start offsets.
            self.K, self.Kpm = map(np.ascontiguousarray, np.hsplit(np.vstack(rows), [split]))
        else:
            A = sparse_vstack(rows, format="csr")
            A.sort_indices()
            A.eliminate_zeros()
            self.K, self.Kpm = A[:, :split], A[:, split:]
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
        # The increment Phi_dt(y) - y of the last `rk4` step.
        self.increment: np.ndarray | None = None

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

        A bus inside its box and exactly on a kink kappa slides (Filippov's
        solution): p_l is held at kappa, as at a box bound, and g is the
        equivalent control g_eq that makes d' = 0. g enters K only on its own
        d row, so that row of J and c is 0, and g_eq = d'/epsilon with g = 0,
        an affine function of y. The bus's row of the region is then
        g- < g_eq < g+, its Clarke interval at kappa, and its d is held at
        kappa. Where g_eq is not strictly inside, y has no piece.

        On the piece the operand is u = T y + t, so J = K T and c = K t + aff:
        sparse products, with J and W held like K (dense below the size rule,
        CSR from there on).
        """
        n, S, op = self.n, self.dim, self.operand
        d, varphi = y[self.sl_d], y[self.region_rows[n:]]
        below, above = d < self.box_lower, d > self.box_upper
        inside = (self.box_lower < d) & (d < self.box_upper)
        p_l = np.clip(d, self.box_lower, self.box_upper)
        g, (lower, upper, slope, b) = self.batch.select_piece(p_l, self.config.selection)
        smooth = inside & (lower < p_l) & (p_l < upper)
        if np.count_nonzero(below | above | inside) < n or not np.all(varphi != 0.0):
            return None
        active = varphi > 0.0
        # u's y block is y; p_l is d on a smooth bus; eta is varphi where positive; g is 2a d + b on a smooth bus.
        on, up = np.flatnonzero(smooth), np.flatnonzero(active)
        d_on = self.sl_d.start + on
        T = _entries(
            (op["g"].stop, S),
            np.concatenate([np.arange(S), op["p_l"].start + on, op["eta_plus"].start + up, op["g"].start + on]),
            np.concatenate([np.arange(S), d_on, self.region_rows[n:][up], d_on]),
            np.concatenate([np.ones(S + on.size + up.size), slope[on]]),
        )
        t = np.zeros(op["g"].stop)
        t[op["p_l"]] = np.where(smooth, 0.0, p_l)
        t[op["g"]] = np.where(smooth, b, np.where(inside, 0.0, g))
        J, c = self.K @ T, self.K @ t + aff
        lo = np.concatenate([
            np.where(inside, np.maximum(self.box_lower, lower), np.where(below, -np.inf, self.box_upper)),
            np.where(active, 0.0, -np.inf),
        ])
        hi = np.concatenate([
            np.where(inside, np.minimum(self.box_upper, upper), np.where(below, self.box_lower, np.inf)),
            np.where(active, np.inf, 0.0),
        ])
        # A region row reads its row of y; a sliding bus's reads g_eq = (J y + c)[held] / epsilon, before its d row
        # of J and c is zeroed.
        sliding = np.flatnonzero(inside & ~smooth)
        held = self.sl_d.start + sliding
        R, eps = self.region_rows.size, self.config.epsilon
        reads = np.setdiff1d(np.arange(R), sliding)
        W, w = _entries((R, S), reads, self.region_rows[reads], 1.0, self._dense), np.zeros(R)
        if sliding.size:
            W = W + _entries((R, S), sliding, held, 1.0 / eps) @ J
            w[sliding] = c[held] / eps
            keep = np.setdiff1d(np.arange(S), held)
            J = _entries((S, S), keep, keep, 1.0) @ J
            c[held] = 0.0
            lo[sliding] = self.batch.select(p_l, "left")[sliding]
            hi[sliding] = (slope * p_l + b)[sliding]
        g_eq = (W @ y + w)[sliding]
        if not np.all((lo[sliding] < g_eq) & (g_eq < hi[sliding])):
            return None
        return AffinePiece(J, c, W, w, lo, hi, held, d[sliding])

    def rhs(self, y: np.ndarray, p_m: np.ndarray, aff: np.ndarray | None = None) -> np.ndarray:
        """Packed derivative dy/dt = K @ u + aff, as a new array.

        The operand u = [y | p_l | eta+ | eta- | g] is built from y: p_l =
        clip(d, box), eta = max(varphi, 0) and g = `CostBatch.select(p_l,
        rule)`. Only these projections and the selection are computed here;
        everything linear, z included, is in K and aff.
        """
        if aff is None:
            aff = self.feedthrough(p_m)
        p_l = np.clip(y[self.sl_d], self.box_lower, self.box_upper)
        u = np.concatenate([y, p_l, np.maximum(y[self.sl_vp.start :], 0.0), self.batch.select(p_l, self.config.selection)])
        return self.K @ u + aff

    def rk4(self, y: np.ndarray, p_m: np.ndarray, dt: float, aff: np.ndarray) -> np.ndarray:
        """One RK4 step over four `rhs` calls, y + (dt / 6) * (k1 + 2 * (k2 + k3) + k4), as a new array.

        `increment` keeps the step's (dt / 6) * (k1 + 2 * (k2 + k3) + k4),
        Phi_dt(y) - y, until the next call.
        """
        k1 = self.rhs(y, p_m, aff)
        k2 = self.rhs(y + (0.5 * dt) * k1, p_m, aff)
        k3 = self.rhs(y + (0.5 * dt) * k2, p_m, aff)
        k4 = self.rhs(y + dt * k3, p_m, aff)
        self.increment = (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        return y + self.increment

    # -- observation --------------------------------------------------------

    def observe(self, y: np.ndarray, p_m: np.ndarray, starts: tuple[int, ...] = (0,)) -> dict:
        """Logged signals at one packed state (dim,) or at each row of a stack (k, dim).

        Returns the signals a `TrajectoryLog` records beside the state, those
        that need the network, as new arrays (one row per state for a stack):
        omega, p_l, flows and the total cost (a float for one state). `p_m`
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
            "flows": self.B * y[..., self.sl_theta],
            "cost": cost if y.ndim == 2 else float(cost),
        }


@dataclass
class TrajectoryLog:
    """Uniformly decimated record of a closed-loop run.

    `states` holds the packed state of every record; the state signals
    (theta_e, omega_g, d, mu, phi, varphi+, varphi-) are views of its column
    blocks, not copies, and eta+- = max(varphi+-, 0) are read off them. The
    signals that need the network (omega, p_l, flows, cost) are observed
    from it once, by `ClosedLoop.observe`.
    """

    times: np.ndarray
    states: np.ndarray
    omega: np.ndarray
    p_l: np.ndarray
    flows: np.ndarray
    cost: np.ndarray
    p_m_final: np.ndarray
    # The run's last chunk maker, whose P a settle from the run's end borrows (`settle`'s `_last`). Not a field, so no
    # copy of the log keeps it.
    _last = None

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
    eta_plus = property(lambda self: np.maximum(self.varphi_plus, 0.0))
    eta_minus = property(lambda self: np.maximum(self.varphi_minus, 0.0))

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


# `run` and `settle` check their states and rest residuals for finiteness and raise a `NumericalError` naming the model
# time, so numpy's overflow and invalid-value warnings on the way there are only noise on stderr.
@np.errstate(over="ignore", invalid="ignore")
def run(scenario: Scenario, model: NetworkModel | None = None) -> TrajectoryLog:
    """Integrate a scenario from t=0 to t_end, logging at the configured decimation.

    The steps are `_Stepper`'s, each block cut at the next event step:
    verified affine chunks (doubling where K is dense, lanes where it is
    CSR), sliding ones while a bus slides on a cost kink, else plain `rk4`
    steps. Off the slides the records agree with textbook RK4 to about 1e-13
    relative, and bit for bit where every step is plain; on a slide they
    follow Filippov's solution, from the step at which the stepper moved d
    onto the kink. A logged state that is not finite raises `NumericalError`
    naming its model time.
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
            Y, _ = stepper.advance(y, k, stop - k)
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
    # y and the last block are views of the stepper's buffers: free them before `observe` makes its temporaries. Only a
    # lane maker lends its P to a settle from here (`TrajectoryLog._last`).
    last = stepper.last if isinstance(stepper.last, _LaneSteps) else None
    stepper = y = Y = None

    obs = loop.observe(states, np.array(segments), tuple(starts))
    log = TrajectoryLog(times=times, states=states, p_m_final=p_m, **obs)
    log._last = last
    return log


@dataclass
class SettleResult:
    """Outcome of settling: final states, elapsed simulated time, convergence flag.

    `residual` is max|Phi_dt(y) - y| / dt at the returned state y, Phi_dt the
    step taken there: RK4 of the sliding field where a bus slides on a cost
    kink, else textbook RK4; on a timeout, one textbook `rk4` step's.
    `rk4_steps` counts the plain `rk4` steps taken, not chunk steps.
    """

    plant: PlantState
    ctrl: ControllerState
    t: float
    converged: bool
    residual: float
    rk4_steps: int


def _rest_residual(increment: np.ndarray, dt: float):
    """max|Phi_dt(y) - y| / dt from the increment Phi_dt(y) - y of an RK4 step, or one per row of a stack of them."""
    return np.max(np.abs(increment), axis=-1) / dt


def _rests(residual, tol: float):
    """Whether a state with this rest residual (or each of an array of them) ends a settle: below tol, or not finite."""
    return (residual < tol) | ~np.isfinite(residual)


# Most steps in one block of plain steps, and in the wait for the next chunk attempt after one that took no step; and
# the most rows a doubling chunk maps at a time (`_mapped`).
_CHUNK_STEPS = 256


def _finite_rows(rows: np.ndarray, taken: int) -> np.ndarray:
    """rows[: taken + 1], cut before the first row that is not finite, checked `_CHUNK_STEPS` rows at a time."""
    for b in range(1, taken + 1, _CHUNK_STEPS):
        bad = ~np.isfinite(rows[b : min(b + _CHUNK_STEPS, taken + 1)]).all(axis=1)
        if bad.any():
            return rows[: b + int(np.argmax(bad))]
    return rows[: taken + 1]


def _mapped(X: np.ndarray, M_T: np.ndarray, m: np.ndarray):
    """(b, X[b : b + 256] @ M_T + m) for b = 0, 256, ..., each made in one buffer that the next slice reuses.

    A doubling chunk's region test and rest residuals take its rows this way,
    so that no temporary grows with the chunk.
    """
    out = np.empty((min(len(X), _CHUNK_STEPS), m.size))
    for b in range(0, len(X), _CHUNK_STEPS):
        part = np.matmul(X[b : b + _CHUNK_STEPS], M_T, out=out[: min(_CHUNK_STEPS, len(X) - b)])
        part += m
        yield b, part


class _Chunks:
    """A chunk maker on one affine piece: `states` makes up to `steps` steps, with their rest residuals on request.

    Both makers step with one kernel, `_increment`: RK4's four stages as
    products of the augmented operator A = [[J, c], [W, w]] with a block of
    columns [x; e], each column a state x over a last entry e. A column with
    e = 1 is a state, and its stage products give the stage's derivative
    J s + c and region rows W s + w at once; a column with e = 0 is a
    direction, stepped by J alone. A is held like J: dense, or CSR.
    """

    piece: AffinePiece

    def __init__(self, piece: AffinePiece, dt: float):
        """The augmented operator of `piece`."""
        self.piece, self.dt = piece, dt
        c, w = piece.c[:, np.newaxis], piece.w[:, np.newaxis]
        if issparse(piece.J):
            self.A = sparse_bmat([[piece.J, csr_matrix(c)], [piece.W, csr_matrix(w)]], format="csr")
        else:
            self.A = np.block([[piece.J, c], [piece.W, w]])

    def holds(self, y: np.ndarray) -> bool:
        """Whether y is in the region: on every held row's value, and strictly inside the bounds."""
        p = self.piece
        x = p.W @ y + p.w
        return bool(np.all((p.lower < x) & (x < p.upper))) and np.array_equal(y[p.held], p.at)

    def _increment(self, A, X: np.ndarray, S: np.ndarray, regions: np.ndarray | None = None) -> np.ndarray:
        """The RK4 increment of each column x of X = [x; e] under A, or of X = x under J.

        Each stage's derivative is the first rows of A (or J) times the stage
        block, S = [s; e] (or s), whose last row is X's; the other rows of the
        four stage products with A, the region rows, go into `regions` (4 x
        region rows x columns).
        """
        h, dim = self.dt, self.piece.c.size
        x, s = X[:dim], S[:dim]

        def rate(i, B):
            out = A @ B
            if regions is not None:
                regions[i] = out[dim:]
            return out[:dim]

        k1 = rate(0, X)
        np.add(x, np.multiply(0.5 * h, k1, out=s), out=s)
        k2 = rate(1, S)
        np.add(x, np.multiply(0.5 * h, k2, out=s), out=s)
        k3 = rate(2, S)
        np.add(x, np.multiply(h, k3, out=s), out=s)
        # The textbook formula (h/6) (k1 + 2 (k2 + k3) + k4), summed in place; k3's product is freed before k4's.
        k2 += k3
        del k3
        k4 = rate(3, S)
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= h / 6.0
        return k1


class _AffineSteps(_Chunks):
    """RK4 steps of dy/dt = J y + c with a dense J, many at a time, while every stage state stays inside the piece's region.

    One step is the affine map y -> R y + r, R = I + G, with increment G y + r;
    each of its stage states is an affine map of y (the first is y). Both are
    one `_increment` of the columns of [[I, 0], [0, 1]] under A: its first
    columns are G and its last is r, and stage i's region rows are the map
    [W A_i | W a_i + w] of its state A_i y + a_i. A chunk holds the states
    y_0 .. y_n as rows: y_0 is given, and rows 2^i .. 2^(i+1) - 1 are
    R^(2^i) applied to rows 0 .. 2^i - 1 (row n, when n is a power of 2, is R
    applied to row n - 1), so 2 048 steps take 11 products with the powers
    and one with R. Each new block is checked before the next is made: a step
    is taken only if its stages are strictly inside. A block is checked, and
    once the rows are made the rest residuals G y + r are made, 256 rows at a
    time (`_mapped`), so that no temporary grows with the chunk: only the rows
    do.
    """

    steps = 2048

    def __init__(self, piece: AffinePiece, dt: float, last: _Chunks | None = None):
        """The maps of `piece`; `last` is not read, since they cost less than a few plain steps to make."""
        super().__init__(piece, dt)
        dim = piece.c.size
        # A held row of J and c is 0, so every stage and step keeps it exactly: only the first state need be checked. The
        # stage block starts as the identity too, since its last row must be the columns' last entries.
        regions = np.empty((4, piece.w.size, dim + 1))
        increment = self._increment(self.A, np.eye(dim + 1), np.eye(dim + 1), regions)
        # Row blocks hold the states, so every map is applied from the right. Each is a contiguous copy: with a strided
        # stage_a, a 2 048-step chunk on the 9-bus network ran 6-7 % slower (best of 300, one BLAS thread).
        self.stage_T = np.ascontiguousarray(regions[..., :dim].reshape(-1, dim).T)
        self.stage_a = regions[..., dim].flatten()
        self.stage_lower, self.stage_upper = np.tile(piece.lower, 4), np.tile(piece.upper, 4)
        self.G_T, self.r = np.ascontiguousarray(increment[:, :dim].T), increment[:, dim].copy()
        # (R^(2^i))^T and the offset of 2^i steps, made as the chunks need them.
        self.powers = [(self.G_T + np.eye(dim), self.r)]

    def _power(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        while len(self.powers) <= i:
            P_T, p = self.powers[-1]
            self.powers.append((P_T @ P_T, p @ P_T + p))
        return self.powers[i]

    def states(self, y: np.ndarray, n: int, rows: np.ndarray, rest: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """y and the states of the steps from it, up to n and `steps`, before the first one with a stage outside the region, as rows.

        The rows are the first of `rows`, which y may be one of. No row is
        handed back past one that is not finite: a power of R can overflow
        before the states it would make do, so the steps that are left go to
        `rk4`. Returned with the rows: given `rest`, the rest residual of the
        step from each row but the last, G y + r over dt, made 256 rows at a
        time from row 0; else None.
        """
        n = min(n, self.steps)
        Y = rows[: n + 1]
        Y[0] = y
        done, made = 0, 1  # rows checked, rows made
        while True:
            # Once made > n, every row up to n has been made, and the rows before it checked, so taken = n.
            taken = done + self._inside(Y[done : min(made, n)])
            if taken < min(made, n) or made > n:
                break
            # The next rows are `span` steps past rows made - span, ...
            span = made if made < n else 1
            k = min(span, n + 1 - made)
            P_T, p = self._power(span.bit_length() - 1)
            new = np.matmul(Y[made - span : made - span + k], P_T, out=Y[made : made + k])
            new += p
            done, made = made, made + k
        Y = _finite_rows(Y, taken)
        if not rest:
            return Y, None
        residuals = np.empty(len(Y) - 1)
        for b, increment in _mapped(Y[:-1], self.G_T, self.r):
            residuals[b : b + len(increment)] = _rest_residual(increment, self.dt)
        return Y, residuals

    def _inside(self, X: np.ndarray) -> int:
        """The number of leading rows of X whose four stages are all strictly inside the region."""
        for b, S in _mapped(X, self.stage_T, self.stage_a):
            inside = np.all((self.stage_lower < S) & (S < self.stage_upper), axis=1)
            if not inside.all():
                return b + int(np.argmin(inside))
        return len(X)


# Lanes of a chunk where J is CSR, and steps per lane: 32 lanes of 16 steps make a chunk of 512 steps, whose lane
# starts take 31 products with P = R^16, one per 16 steps. On the 68-bus network (2-vCPU Xeon guest, best of 7) a
# chunk step took 14.5, 12.6, 11.5 and 11.7 us with lanes of 8, 12, 16 and 24 steps; a block step cost 6.5 us a lane
# with 32 lanes against 8.0 us with 16 lanes of 32 steps, which is why a longer chunk keeps 32 lanes.
_LANES = 32
_LANE_STEPS = 16
# Columns of the identity stepped at a time while P is built. On the 68-bus network P = R^8 took 23 ms and a traced
# peak of 2.45 MiB (P itself 1.74 MiB), against 21 ms and 3.15 MiB with 64 columns, and 32 ms and 2.10 MiB with 16;
# P = R^16 takes 43 ms, twice the steps.
_POWER_COLUMNS = 32


class _LaneSteps(_Chunks):
    """RK4 steps of dy/dt = J y + c with a CSR J, in 32 lanes of 16 steps, while every stage state stays inside the piece's region.

    The lanes are the columns of a block [X; 1], whose last row is all ones,
    stepped by `_increment` under the CSR A: each RK4 stage is one CSR
    product, which gives the lanes' derivatives and region rows. M = 16
    steps are the affine map y -> P y + p, P = R^M. Lane j starts at y_{jM},
    made from y_0 by j products with P, each a matrix-vector product; then M
    block steps advance every lane at once. Every stage's region rows are
    checked, and the chunk is cut at the first step with a stage outside:
    lane j's steps count only if every lane before it stayed inside for all
    its steps, since its start was made on that premise. P and p are made by
    the same kernel, the first time `states` has `min_steps` or more steps
    left: P by M steps of the columns of the identity on J alone, p by M
    steps of the block [0; 1] on A. Until then a chunk is one lane of up to
    512 steps from y, which needs neither. P depends on dt and J alone, so a
    maker borrows the last maker's P where both are the same, and builds
    nothing else from it. Every product that makes a state
    is a CSR product or a matrix-vector one, so its sums run in an order that
    does not depend on BLAS threads.
    """

    # P costs about 43 ms, and a step 11.5-12.7 us in 32 lanes against 40-43 us in one, without and with the rest
    # residual (68-bus network, 2-vCPU Xeon guest, numpy 2.4, scipy 1.17, best of 7): 1 400-1 500 steps repay it in
    # one segment, and 700-750 in each of two segments on the same J, which keeps P. An event leaves J as it is, so
    # the larger bound would put large_grid's first segments (875-1 125 steps) on one lane before the P that the rest
    # of its `check` takes.
    min_steps = 700
    steps = _LANES * _LANE_STEPS

    def __init__(self, piece: AffinePiece, dt: float, last: _Chunks | None = None):
        super().__init__(piece, dt)
        # The bounds as (R, 1) columns, for one lane; `states` tiles them over the lanes once it has P and p, so that a
        # lane step's region test is one contiguous pass over each stage.
        self.lower, self.upper = piece.lower[:, np.newaxis], piece.upper[:, np.newaxis]
        # P and p, made by `states`; the last maker's P where dt and J are the same.
        same = last is not None and last.dt == dt and (last.piece.J != piece.J).nnz == 0
        self.P, self.p = last.P if same else None, None

    def _lanes(self, A, X: np.ndarray) -> np.ndarray:
        """The lanes of X, as `_increment` reads them, after M steps, stepped in place."""
        dim, S = self.piece.c.size, X.copy()
        for _ in range(_LANE_STEPS):
            X[:dim] += self._increment(A, X, S)
        return X[:dim]

    def _power(self) -> np.ndarray:
        dim = self.piece.c.size
        P = np.empty((dim, dim))
        for b in range(0, dim, _POWER_COLUMNS):
            w = min(_POWER_COLUMNS, dim - b)
            X = np.zeros((dim, w))
            X[b + np.arange(w), np.arange(w)] = 1.0
            P[:, b : b + w] = self._lanes(self.piece.J, X)
        return P

    def states(self, y: np.ndarray, n: int, rows: np.ndarray, rest: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """y and the states of the steps from it, up to n and `steps`, before the first one with a stage outside the region, as rows.

        As `_AffineSteps.states`; given `rest`, each residual is the lane
        step's max|increment| over dt.
        """
        dim = y.size
        if self.p is None and (self.P is not None or n >= self.min_steps):
            if self.P is None:
                self.P = self._power()
            self.p = self._lanes(self.A, np.eye(dim + 1, 1, -dim))[:, 0]
            self.lower, self.upper = (np.repeat(v, _LANES, axis=1) for v in (self.lower, self.upper))
        n = min(n, self.steps)
        # Lanes of M steps from P, else one lane of n steps.
        M, L = (_LANE_STEPS, min(_LANES, -(-n // _LANE_STEPS))) if self.p is not None else (n, 1)
        rows[0] = y
        for j in range(1, L):
            np.add(self.P @ rows[(j - 1) * M], self.p, out=rows[j * M])
        X, S = np.vstack([rows[: L * M : M].T, np.ones((1, L))]), np.ones((dim + 1, L))
        x = X[:dim]
        regions = np.empty((4, self.lower.shape[0], L))
        res = np.empty((M, L))
        # The lanes before `lanes` count in full, and lane `lanes` for its steps before `step`.
        lanes, step = L, 0
        for i in range(M):
            increment = self._increment(self.A, X, S, regions)
            r, lower, upper = regions[..., :lanes], self.lower[:, :lanes], self.upper[:, :lanes]
            if not ((lower < r).all() and (r < upper).all()):
                # The first lane with a stage outside: it and the lanes after it count no further.
                lanes, step = int(np.argmin(np.all((lower < r) & (r < upper), axis=(0, 1)))), i
                if lanes == 0:
                    break
            if rest:
                np.max(np.abs(increment), axis=0, out=res[i])
            x += increment
            if i + 1 < M:
                rows[i + 1 : L * M : M] = x.T
        rows[L * M] = x[:, -1]
        Y = _finite_rows(rows, min(n, lanes * M + step))
        return Y, res.T.reshape(-1)[: len(Y) - 1] / self.dt if rest else None


class _Stepper:
    """The steps of `run` and `settle`, as blocks of states: a chunk where one holds, else plain `rk4` steps.

    The size rule (`_CSR_MIN_ENTRIES`) stores K dense or CSR, and the chunk
    maker follows the storage, as the cheaper on its side: `_AffineSteps`
    doubles where K is dense (the bundled 2-, 3- and 9-bus networks),
    `_LaneSteps` runs lanes where it is CSR (the 68-bus one). The maker's
    maps belong to the piece around the state that last found one, and to
    the feedthrough: `feed` sets a new one and drops them. Each new piece
    gets a new maker, given the last one made, of which a lane maker
    borrows P where dt and J are the same. A chunk attempt
    first moves each bus within one step's reach of a kink onto it, where a
    sliding piece holds there (`_slide`). After a chunk that takes no step,
    the next is tried only after 1, 2, 4, ... 256 plain steps. A chunk is
    given every step left in the segment, and its maker caps them at its
    `steps`: 2 048 for doubling, 512 for lanes. Its `states` hands back the
    rows with, when a settle asks, the rest residual of the step from each
    row but the last (else None); `advance` alone cuts them at the first
    that rests.
    """

    def __init__(self, loop: ClosedLoop, dt: float, p_m: np.ndarray, aff: np.ndarray, last: _Chunks | None = None):
        self.loop, self.dt = loop, dt
        self.maker = _LaneSteps if issparse(loop.K) else _AffineSteps
        # The first step a chunk may start at, and the plain steps after a chunk that takes none.
        self.next_chunk, self.wait = 0, 1
        self.rk4_steps = 0
        # Every block is written here, over the one before: a new block per call would keep two alive while the
        # next is made, which cost the 68-bus `check` benchmark 2.4 MiB of peak memory.
        self.rows = np.empty((self.maker.steps + 1, loop.dim))
        # The rows of the last block, when it was plain steps, else 0; and whether it was a chunk that took every
        # step it could. A chunk that runs to its length stopped at no boundary, so the next attempt skips `_slide`:
        # a bus that nears a kink stops a chunk short first.
        self.plain, self.whole = 0, False
        # The last chunk maker made, kept across `feed`; at first, one handed over from another stepper on the network.
        self.last = last
        self.feed(p_m, aff)

    def feed(self, p_m: np.ndarray, aff: np.ndarray) -> None:
        """Step under p_m, whose feedthrough is aff, from now on."""
        self.p_m, self.aff, self.chunk = p_m, aff, None

    def _make(self, piece: AffinePiece) -> _Chunks:
        """A new chunk maker on `piece`, given the last one made."""
        self.chunk = self.last = self.maker(piece, self.dt, self.last)
        return self.chunk

    def advance(self, y: np.ndarray, k: int, n: int, tol: float | None = None) -> tuple[np.ndarray, float | None]:
        """The states at steps k .. k + t from y at step k, for some 0 <= t <= n, as rows, and a rest residual or None.

        The rows are one verified chunk, else plain `rk4` steps up to the next
        step a chunk may start at (at most 256). At a chunk attempt the first
        row is y with any move onto a kink (`_slide`). Given tol, the rows end at the
        first whose rest residual (the increment of the step from it, over dt)
        is below tol or not finite, returned with them, a chunk's cut here and
        nowhere else; else, and without tol,
        t >= 1, the last row is not checked for rest and None is returned. The rows are
        valid until the next call, which may write over them once it has read y.
        """
        if k >= self.next_chunk:
            # A chunk writes its rows over the last block, whose last row y may be.
            y = y.copy()
            Y, r = self._chunk(y, k, n, tol is not None)
            if Y is not None:
                if r is not None:
                    rest = np.flatnonzero(_rests(r, tol))
                    if rest.size:
                        return Y[: rest[0] + 1], float(r[rest[0]])
                return Y, None
        Y = self.rows[: min(n, self.next_chunk - k, _CHUNK_STEPS) + 1]
        Y[0] = y
        self.whole = False
        for j in range(1, len(Y)):
            Y[j] = self.loop.rk4(Y[j - 1], self.p_m, self.dt, self.aff)
            if tol is not None:
                r = float(_rest_residual(self.loop.increment, self.dt))
                if _rests(r, tol):
                    self.plain = j
                    return Y[:j], r
            self.rk4_steps += 1
        self.plain = len(Y)
        return Y, None

    def _chunk(self, y: np.ndarray, k: int, n: int, rest: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The maker's (rows, residuals or None, given `rest` or not) of a chunk from y at step k that takes from 1 to n steps.

        (None, None) when it takes no step, once the next attempt is set.
        """
        if not self.whole:
            y = self._slide(y)
        if self.chunk is None or not self.chunk.holds(y):
            piece = self.loop.affine_piece(y, self.aff)
            self.chunk = None if piece is None else self._make(piece)
        if self.chunk is not None:
            Y, r = self.chunk.states(y, n, self.rows, rest)
            if len(Y) > 1:
                self.wait, self.plain, self.whole = 1, 0, len(Y) > min(self.chunk.steps, n)
                return Y, r
        self.next_chunk, self.wait = k + self.wait, min(2 * self.wait, _CHUNK_STEPS)
        return None, None

    def _slide(self, y: np.ndarray) -> np.ndarray:
        """y with each bus within one step's reach of a kink moved onto it, where a sliding piece holds there; else y.

        One step's reach is dt |d'| at y, or the largest motion of d in one
        step of the block before, when that was plain steps: a bus chattering
        across its kink moves about that far per step. The piece found on the
        kinks becomes the chunk's.
        """
        loop, sl = self.loop, self.loop.sl_d
        d = y[sl]
        reach = self.dt * np.abs(loop.rhs(y, self.p_m, self.aff)[sl])
        if self.plain > 1:
            np.maximum(reach, np.max(np.abs(np.diff(self.rows[: self.plain, sl], axis=0)), axis=0), out=reach)
        # The kink nearest to d is an end of the bracket of its cost piece.
        lower, upper = loop.batch.select_piece(np.clip(d, loop.box_lower, loop.box_upper), loop.config.selection)[1][:2]
        kink = np.where(np.abs(lower - d) <= np.abs(upper - d), lower, upper)
        # Inside the box and within reach; a bus already on its kink is no move.
        near = (loop.box_lower < kink) & (kink < loop.box_upper) & (np.abs(kink - d) <= reach) & (kink != d)
        if not near.any():
            return y
        z = y.copy()
        z[sl][near] = kink[near]
        piece = loop.affine_piece(z, self.aff)
        if piece is None:
            return y
        self._make(piece)
        return z


@np.errstate(over="ignore", invalid="ignore")
def settle(
    model: NetworkModel,
    p_m: np.ndarray,
    tol: float = 1e-8,
    t_max: float = 600.0,
    plant: PlantState | None = None,
    ctrl: ControllerState | None = None,
    config: ControllerConfig | None = None,
    dt: float = 1e-3,
    _last: _Chunks | None = None,
) -> SettleResult:
    """Integrate under constant p_m until the state rests: max|Phi_dt(y) - y| / dt < tol, Phi_dt the RK4 step.

    The result is that of the loop: at each step k, stop if the increment of
    the step from y_k over dt is below tol (or k is the last step), else
    take that step. The steps and the rest test are `_Stepper`'s, as in
    `run`, in chunks wherever one holds, dense K or CSR: textbook RK4, or RK4
    of Filippov's sliding field while a bus slides on a cost kink, entered
    where the stepper moves d onto it. A bus that rests there rests on the
    kink, with its price strictly inside the Clarke interval. Off the slides
    the states agree with textbook RK4 to about 1e-13 relative, and bit for
    bit where every step is plain. On a timeout `residual` is that of one
    `rk4` step from the returned state.

    A timeout is reported via converged=False, not an exception: slow
    convergence is a finding, not a crash.

    `_last` is a chunk maker of an earlier stepper on the same network and
    configuration, such as `run`'s last (`TrajectoryLog._last`): the
    settle's first lane maker borrows its P where dt and J are the same,
    instead of building it again, and nothing else of it.
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
    stepper = _Stepper(loop, dt, p_m, aff, _last)
    k, residual = 0, None
    while residual is None and k < n_steps:
        Y, residual = stepper.advance(y, k, n_steps - k, tol)
        y, k = Y[-1], k + len(Y) - 1
    if residual is None:
        loop.rk4(y, p_m, dt, aff)
        residual = float(_rest_residual(loop.increment, dt))
    if not math.isfinite(residual):
        raise NumericalError(f"non-finite state while settling at t={k * dt:g}s")
    converged = residual < tol
    plant_f, ctrl_f = loop.unpack(y)
    return SettleResult(
        plant=plant_f, ctrl=ctrl_f, t=k * dt, converged=converged, residual=residual, rk4_steps=stepper.rk4_steps
    )
