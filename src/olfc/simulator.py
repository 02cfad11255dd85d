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

The fused operator is assembled sparse: the frequency and the imbalance are
sparse maps, and the nonzero entries of the operator's blocks are collected
in COO form. An operator with at least 2**15 entries is then stored as
canonical `scipy.sparse` CSR, so it is never held dense; a smaller one is
summed into a dense array. The choice follows from each operator's shape,
and the products are written the same way for both.

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

A plant warm start must be physical: its theta_e must be C^T of bus angles
(to within rounding), since the dynamics conserve any loop component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, issparse

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
# map, 68 x 478: 8.2 us dense vs 7.8 us CSR). Every operator is collected
# sparse; the rule only decides how the collected entries are stored.
_CSR_MIN_ENTRIES = 2**15

Entries = tuple[np.ndarray, np.ndarray, np.ndarray]


def _entries(block: np.ndarray | csr_matrix) -> Entries:
    """Rows, columns and values of the entries of a block: the nonzero ones if dense, the stored ones if sparse."""
    if issparse(block):
        block = block.tocoo()
        return block.row, block.col, block.data
    i, j = np.nonzero(block)
    return i, j, block[i, j]


def _hot_operator(shape: tuple[int, int], blocks: list[tuple[int, int, Entries]]) -> np.ndarray | csr_matrix:
    """A sum of sparse blocks placed at (row, column) offsets, stored for repeated products.

    The blocks' entries are collected in COO form. Below 2**15 entries they
    are summed into a dense array, in block order; from there on into
    canonical CSR, so a large operator is never held dense. Where no entry
    has more than two nonzero contributions, the CSR equals `csr_matrix` of
    the dense sum: a sum of two does not depend on its order. In the closed
    loop's operator each entry has one: the sums and products that fold the
    imbalance z into it are formed on its maps before their entries are
    collected.
    """
    rows = np.concatenate([r0 + i for r0, _, (i, _, _) in blocks])
    cols = np.concatenate([c0 + j for _, c0, (_, j, _) in blocks])
    vals = np.concatenate([v for _, _, (_, _, v) in blocks])
    A = coo_matrix((vals, (rows, cols)), shape=shape)
    if shape[0] * shape[1] < _CSR_MIN_ENTRIES:
        return A.toarray()
    A = A.tocsr()
    A.eliminate_zeros()
    return A


def _packed_layout(n: int, g: int, m: int) -> dict[str, slice]:
    """Slices of the packed state [theta_e | omega_g | d | mu | phi | varphi+ | varphi-]."""
    widths = {"theta_e": m, "omega_g": g, "d": n, "mu": n, "phi": n, "varphi_plus": m, "varphi_minus": m}
    layout, start = {}, 0
    for name, width in widths.items():
        layout[name] = slice(start, start + width)
        start += width
    return layout


def _unpack(y: np.ndarray, layout: dict[str, slice]) -> tuple[PlantState, ControllerState]:
    """Copies of the plant and controller parts of one packed state."""
    parts = {name: y[sl].copy() for name, sl in layout.items()}
    return PlantState(parts.pop("theta_e"), parts.pop("omega_g")), ControllerState(**parts)


class ClosedLoop:
    """Precompiled closed-loop right-hand side over the packed state vector."""

    def __init__(self, model: NetworkModel, config: ControllerConfig | None = None):
        self.model = model
        self.config = config or ControllerConfig()
        n, m = model.n, model.m
        gidx = model.generator_index
        lidx = model.load_index
        g = gidx.size
        self.n, self.m, self.g = n, m, g

        self._layout = layout = _packed_layout(n, g, m)
        self.sl_theta = layout["theta_e"]
        self.sl_og = layout["omega_g"]
        self.sl_d = layout["d"]
        self.sl_mu = layout["mu"]
        self.sl_phi = layout["phi"]
        self.sl_vp = layout["varphi_plus"]
        self.sl_vm = layout["varphi_minus"]
        self.dim = self.sl_vm.stop

        C = model.incidence
        B = model.susceptances
        L = model.laplacian
        D = model.damping
        M = model.inertia_generators
        Cw = C * B
        self.C, self.B = C, B
        self.box_lower = model.load_box.lower
        self.box_upper = model.load_box.upper
        self.batch = CostBatch(model.costs)

        S = self.dim
        # Frequency on the plant part theta_e | omega_g of y:
        # omega = Wp @ y[:P] + wpl * p_l + wpm * p_m.
        P = m + g
        ag = np.arange(g)
        Wp = np.zeros((n, P))
        Wp[gidx, m + ag] = 1.0
        wpl = np.zeros(n)
        wpm = np.zeros(n)
        Wp[np.ix_(lidx, np.arange(m))] = -Cw[lidx] / D[lidx, None]
        wpl[lidx] = -1.0 / D[lidx]
        wpm[lidx] = 1.0 / D[lidx]

        # -D omega - C B theta_e on the plant part is Rp @ y[:P]. The bus
        # balance over M at generator buses is the acceleration:
        # dog = Vp @ y[:P] + vpl * p_l[gidx] + vpm * p_m[gidx]. wpl and wpm
        # vanish at generator buses, so there (-D wpl - 1) / M = -1 / M and
        # (1 - D wpm) / M = 1 / M.
        Rp = -D[:, None] * Wp
        Rp[:, :m] -= Cw
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

        # Operand stack of K: [y | p_l | eta+ | eta- | g], with its blocks
        # starting at pl0, ep0, em0 and g0. The operator is assembled on the
        # stack extended by p_m, x = [y | p_l | ... | g | p_m], whose last n
        # columns (from pm0) become Kpm.
        pl0, ep0, em0, g0 = S, S + n, S + n + m, S + n + 2 * m
        U = pm0 = g0 + n
        X = U + n
        d0, mu0, phi0 = self.sl_d.start, self.sl_mu.start, self.sl_phi.start
        vp0, vm0 = self.sl_vp.start, self.sl_vm.start
        an, am = np.arange(n), np.arange(m)
        eye_n, neg_eye_n = (an, an, np.ones(n)), (an, an, np.full(n, -1.0))
        eye_m, neg_eye_m = (am, am, np.ones(m)), (am, am, np.full(m, -1.0))
        ci, cj, cv = _entries(C)
        li, lj, lv = _entries(L)

        # omega and z as maps on x, stored by the operators' size rule.
        W = _hot_operator((n, X), [(0, 0, _entries(Wp)), (0, pl0, (an, an, wpl)), (0, pm0, (an, an, wpm))])
        Z = _hot_operator((n, X), [(0, 0, _entries(Zp)), (0, phi0, (li, lj, lv)), (0, pl0, (an, an, zpl)), (0, pm0, (an, an, zpm))])
        p_l_minus_z = _hot_operator((n, X), [(0, pl0, eye_n)]) - Z

        # The fused operator as (row, column, block entries) pieces; no two
        # pieces share an entry.
        blocks = [
            # theta_e' = C^T omega
            (0, 0, _entries(csr_matrix(C.T) @ W)),
            # omega_g'
            (m, 0, _entries(Vp)),
            (m, pl0, (ag, gidx, vpl)),
            (m, pm0, (ag, gidx, vpm)),
            # d' = -d + p_l + omega - g - z - mu
            (d0, 0, _entries(W + p_l_minus_z)),
            (d0, d0, neg_eye_n),
            (d0, mu0, neg_eye_n),
            (d0, g0, neg_eye_n),
            # mu' = z
            (mu0, 0, _entries(Z)),
            # phi' = -L(mu + z) + C(eta- - eta+)
            (phi0, 0, _entries(-(csr_matrix(L) @ Z))),
            (phi0, mu0, (li, lj, -lv)),
            (phi0, ep0, (ci, cj, -cv)),
            (phi0, em0, (ci, cj, cv)),
            # varphi+' = -varphi+ + eta+ + C^T phi - theta_max
            (vp0, phi0, (cj, ci, cv)),
            (vp0, vp0, neg_eye_m),
            (vp0, ep0, eye_m),
            # varphi-' = -varphi- + eta- + theta_min - C^T phi
            (vm0, phi0, (cj, ci, -cv)),
            (vm0, vm0, neg_eye_m),
            (vm0, em0, eye_m),
        ]
        k0 = np.zeros(S)
        k0[self.sl_vp] = -model.angle_upper
        k0[self.sl_vm] = model.angle_lower

        # Global controller time scale: it scales every row from d on. No two
        # pieces share an entry, so scaling their entries scales the rows.
        eps = self.config.epsilon
        blocks = [(r0, c0, (i, j, eps * v) if r0 >= d0 else (i, j, v)) for r0, c0, (i, j, v) in blocks]
        k0[d0:] *= eps

        A = _hot_operator((S, X), blocks)
        self.K, self.Kpm = A[:, :U], A[:, U:]
        self.k0 = k0
        self._wpl, self._wpm = wpl, wpm
        # For `observe` on a stack of states: the frequency map on the plant
        # part as CSR (a few entries per row), so that k states cost a sparse
        # product instead of a dense BLAS gemm, whose worker threads take
        # memory and time.
        self._obs_Wp = csr_matrix(Wp)
        # Operand buffer of K; its blocks are written in place on every call.
        # varphi+ | varphi- ends y and eta+ | eta- follows p_l, so each pair
        # is one contiguous block.
        self._u = np.empty(U)
        self._u_y = self._u[:S]
        self._y_d = self._u_y[self.sl_d]
        self._y_varphi = self._u_y[vp0:]
        self._u_pl, self._u_eta, self._u_g = self._u[pl0:ep0], self._u[ep0:g0], self._u[g0:]
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
        upper), g = 2a * p_l + b is written straight into the buffer, then
        `+ 0.0` for `minnorm` and 0.5 * (g + g) for `midpoint`. That is
        `CostBatch.select` bit for bit: strictly inside a bracket no bus is on
        a kink, so `select` takes its off-kink branch, which does these
        operations on the same coefficients. `left` finds the piece by the
        breakpoints below p_l and the other rules by those at or below it;
        inside a bracket these are the same breakpoints, so every rule reads
        the kept piece. `midpoint`'s 0.5 * (g + g) equals g unless g + g
        overflows, so it is computed, not skipped. Otherwise the stage takes
        the exact lookup, `CostBatch.select_piece`, and keeps the pieces it
        returns. A bus exactly on a kink is an end of the bracket it gets, so
        it takes the exact lookup, where the rules differ, while it stays
        there.
        """
        p_l = self._u_pl
        # minimum(maximum(.)) is np.clip bit for bit, without clip's wrapper cost.
        np.minimum(np.maximum(self._y_d, self.box_lower, out=p_l), self.box_upper, out=p_l)
        np.maximum(self._y_varphi, 0.0, out=self._u_eta)
        lower, upper, slope, b = self._piece
        rule = self.config.selection
        # count_nonzero is a plain C call, unlike ndarray.all's Python wrapper.
        if np.count_nonzero((lower < p_l) & (p_l < upper)) == self.n:
            g = np.add(np.multiply(slope, p_l, out=self._u_g), b, out=self._u_g)
            if rule == "minnorm":
                np.add(g, 0.0, out=g)
            elif rule == "midpoint":
                np.multiply(0.5, np.add(g, g, out=g), out=g)
        else:
            self._u_g[...], piece = self.batch.select_piece(p_l, rule)
            self._piece = tuple(piece)
        dy = self.K @ self._u
        dy += aff
        return dy

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
    """Integrate a scenario from t=0 to t_end, logging at the configured decimation."""
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

    # p_m per event segment: segment i applies from record starts[i] on.
    p_m = np.zeros(model.n)
    starts, segments = [0], [p_m.copy()]
    aff = loop.feedthrough(p_m)
    rec = 0
    for k in range(n_steps + 1):
        if k in events_at:
            for ev in events_at[k]:
                p_m[ev.bus] += ev.delta_p_m
            aff = loop.feedthrough(p_m)
            starts.append(rec)
            segments.append(p_m.copy())
        if k % dec == 0 or k == n_steps:
            if not np.all(np.isfinite(y)):
                raise NumericalError(f"non-finite state at t={k * dt:g}s")
            times[rec] = k * dt
            states[rec] = y
            rec += 1
        if k < n_steps:
            y = loop.rk4(y, p_m, dt, aff)

    obs = loop.observe(states, np.array(segments), tuple(starts))
    return TrajectoryLog(times=times, states=states, p_m_final=p_m, **obs)


@dataclass
class SettleResult:
    """Outcome of settling: final states, elapsed simulated time, convergence flag."""

    plant: PlantState
    ctrl: ControllerState
    t: float
    converged: bool
    residual: float


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
    t = 0.0
    residual = np.inf
    converged = False
    for k in range(n_steps + 1):
        k1 = loop.rhs(y, p_m, aff)
        residual = float(np.max(np.abs(k1)))
        if not np.isfinite(residual):
            raise NumericalError(f"non-finite state while settling at t={t:g}s")
        converged = residual < tol
        if converged or k == n_steps:
            break
        y = loop.rk4(y, p_m, dt, aff, k1=k1)
        t = (k + 1) * dt
    plant_f, ctrl_f = loop.unpack(y)
    return SettleResult(plant=plant_f, ctrl=ctrl_f, t=t, converged=converged, residual=residual)
