"""Independent oracle for the steady-state allocation problem.

Solves

    minimize    sum_j f_j(p_j)
    subject to  p - p_m + C B C^T phi = 0        (bus balance)
                box_lower <= p <= box_upper       (load limits)
                theta_min <= C^T phi <= theta_max (angle-difference limits)

by two routes that share no code with the controller:

* a primal operator-splitting solve (consensus ADMM with exact per-bus
  proximal steps, the balance equality kept hard inside the linear block),
  which produces the primal point and multiplier estimates; and
* a dual price-coordination solve: the balance and line multipliers are
  reparameterized onto their stationarity subspace, per-bus subproblems are
  solved in closed form, and an accelerated projected gradient ascends the
  concave dual. Every iterate is dual-feasible by construction, so its
  value is a certified lower bound on the optimum.

The primal objective (upper bound) and the dual value (lower bound) must
close to within twice the requested tolerance or the solve reports failure;
this gap is a true optimality certificate, not a heuristic agreement.

A separate exhaustive lattice search over the load box (balance eliminating
one coordinate, angles eliminated through the pseudoinverse of the weighted
Laplacian) provides a desk-scale ground truth for tiny networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleProblemError, NumericalError, ValidationError
from .network import NetworkModel

_MAX_ITER = 400_000  # iteration cap of each route (ADMM, dual ascent) of `solve_olc`
_LATTICE_GRID = 1e-4  # final lattice spacing of `lattice_search`


class _PiecewiseBatch:
    """Oracle-private piecewise quadratic toolkit (vectorized over buses).

    Reads only the public coefficient data of the network's cost objects;
    shares no evaluation code with the controller-side `costs` module.
    """

    def __init__(self, model: NetworkModel):
        costs = model.costs
        n = len(costs)
        K = max(c.a.size for c in costs)
        self.n, self.K = n, K
        self.a = np.zeros((n, K))
        self.b = np.zeros((n, K))
        self.c = np.zeros((n, K))
        self.edges = np.full((n, K + 1), np.inf)
        for j, cost in enumerate(costs):
            k = cost.a.size
            self.a[j, :k] = cost.a
            self.b[j, :k] = cost.b
            self.c[j, :k] = cost.c
            self.edges[j, 0] = -np.inf
            # padded pieces keep [inf, inf] intervals: never selected
            self.edges[j, 1:k] = cost.breakpoints
        # Interior breakpoints, padded with +inf.
        self.bp = self.edges[:, 1:K]
        self.a_pad = np.where(self.a > 0, self.a, 1.0)
        self.lower = model.load_box.lower
        self.upper = model.load_box.upper
        self.min_curvature = np.array([c.a.min() for c in costs])

    def value(self, x: np.ndarray) -> np.ndarray:
        """f_j(x[..., j]) elementwise; x has shape (..., n)."""
        x = np.asarray(x, dtype=float)
        idx = (self.bp <= x[..., None]).sum(axis=-1)
        rows = np.arange(self.n)
        a = self.a[rows, idx]
        b = self.b[rows, idx]
        c = self.c[rows, idx]
        return a * x * x + b * x + c

    def total(self, x: np.ndarray) -> np.ndarray:
        return self.value(x).sum(axis=-1)

    def _argmin_augmented(self, lin: np.ndarray, rho: float, t: np.ndarray) -> np.ndarray:
        """argmin over [lower, upper] of f_j(q) + lin_j q + (rho/2)(q - t_j)^2.

        Candidate enumeration: each piece's unconstrained vertex clipped to
        the piece-and-box interval, plus automatic coverage of breakpoints
        and box corners through the clipping. Exact for convex data.
        """
        lo_k = np.maximum(self.edges[:, :-1], self.lower[:, None])
        hi_k = np.minimum(self.edges[:, 1:], self.upper[:, None])
        valid = lo_k <= hi_k
        denom = 2.0 * self.a_pad + rho
        numer = -(self.b + lin[:, None] - rho * t[:, None])
        vertex = numer / denom
        cand = np.clip(vertex, lo_k, hi_k)
        cand = np.where(valid, cand, 0.0)
        val = (self.a + 0.5 * rho) * cand * cand + (self.b + lin[:, None] - rho * t[:, None]) * cand + self.c
        val = np.where(valid, val, np.inf)
        pick = np.argmin(val, axis=1)
        return cand[np.arange(self.n), pick]

    def prox(self, t: np.ndarray, rho: float) -> np.ndarray:
        """Proximal map of f + box indicator at t with parameter rho."""
        return self._argmin_augmented(np.zeros(self.n), rho, t)

    def price_response(self, mu: np.ndarray) -> np.ndarray:
        """Per-bus argmin of f_j(q) + mu_j q over the box (unique by strict convexity)."""
        return self._argmin_augmented(mu, 0.0, np.zeros(self.n))

    def dual_local_value(self, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(q_j(mu_j), argmin) for the per-bus subproblems."""
        p = self.price_response(mu)
        return self.value(p) + mu * p, p


def check_feasibility(model: NetworkModel, p_m: np.ndarray) -> np.ndarray:
    """Phase-1 feasibility: find any point satisfying balance, box and line limits.

    Returns a feasible phi (gauge phi_0 = 0) or raises InfeasibleProblemError.
    """
    # Imported here, so that a process that never checks feasibility (`olfc run`) does not load scipy.optimize.
    from scipy.optimize import linprog

    p_m = np.asarray(p_m, dtype=float)
    n = model.n
    box = model.load_box
    total = float(p_m.sum())
    if total < box.lower.sum() - 1e-12 or total > box.upper.sum() + 1e-12:
        raise InfeasibleProblemError(
            f"total injection {total:g} outside aggregate load range [{box.lower.sum():g}, {box.upper.sum():g}]"
        )
    # p = p_m - L phi within the box, and theta_min <= C^T phi <= theta_max.
    # Validation makes every bound finite, so every row is kept.
    L = model.laplacian
    Ct = model.incidence.T
    A_eq = np.zeros((1, n))
    A_eq[0, 0] = 1.0
    res = linprog(
        c=np.zeros(n),
        A_ub=np.vstack([-L, L, Ct, -Ct]),
        b_ub=np.concatenate([box.upper - p_m, p_m - box.lower, model.angle_upper, -model.angle_lower]),
        A_eq=A_eq,
        b_eq=np.zeros(1),
        bounds=[(None, None)] * n,
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleProblemError("no load allocation satisfies balance, box and line limits")
    if not res.success:
        raise NumericalError(f"phase-1 feasibility solve failed: {res.message}")
    return np.asarray(res.x, dtype=float)


@dataclass
class OptimalSolution:
    """Optimum of the allocation problem with dual certificates."""

    p_l_star: np.ndarray
    phi_star: np.ndarray
    mu_star: np.ndarray
    eta_plus_star: np.ndarray
    eta_minus_star: np.ndarray
    objective: float
    dual_objective: float = float("-inf")
    iterations: int = 0
    balance_residual: float = float("nan")
    diagnostics: dict = field(default_factory=dict)


def _grounded_inverse(A: np.ndarray) -> np.ndarray:
    """The pseudo-inverse of a symmetric matrix whose null space is span(1), as inv(A + 11^T/n) - 11^T/n.

    A + 11^T/n is A on the complement of 1 and the identity on 1, so its
    inverse is A's pseudo-inverse plus 11^T/n. The Laplacian of a connected
    network (parsing rejects any other) and L L + C C^T are such matrices.
    One LU solve instead of an SVD: on the 68-bus network an SVD took 0.6 ms
    at best and 85-190 ms in some processes under two OpenBLAS threads
    (2-vCPU guest), this 0.12 ms.
    """
    ones = np.full(A.shape, 1.0 / A.shape[0])
    return np.linalg.inv(A + ones) - ones


def _admm_solve(model: NetworkModel, pw: _PiecewiseBatch, p_m: np.ndarray, tol: float):
    """Primal route: consensus splitting with the balance equality kept hard."""
    n, m = model.n, model.m
    L = model.laplacian
    C = model.incidence
    Ct = C.T
    G = L @ L + C @ Ct
    Gpinv = _grounded_inverse(G)
    rho = 1.0
    alpha = 1.6  # over-relaxation
    Q = np.zeros(n)
    psi = np.zeros(m)
    u = np.zeros(n)
    v = np.zeros(m)
    phi = np.zeros(n)
    eps_env = max(1.0, float(np.max(np.abs(p_m))))
    stop = max(1e-12, min(tol * 1e-3, 1e-9)) * eps_env
    it = 0
    for it in range(1, _MAX_ITER + 1):
        rhs = L @ (p_m - Q + u) + C @ (psi - v)
        phi = Gpinv @ rhs
        P = p_m - L @ phi
        edge = Ct @ phi
        P_rel = alpha * P + (1.0 - alpha) * Q
        edge_rel = alpha * edge + (1.0 - alpha) * psi
        Q_old = Q
        psi_old = psi
        Q = pw.prox(P_rel + u, rho)
        psi = np.clip(edge_rel + v, model.angle_lower, model.angle_upper)
        u = u + P_rel - Q
        v = v + edge_rel - psi
        if it % 25 == 0 or it == _MAX_ITER:
            r_primal = max(float(np.max(np.abs(P - Q))), float(np.max(np.abs(edge - psi))) if m else 0.0)
            r_dual = rho * max(float(np.max(np.abs(Q - Q_old))), float(np.max(np.abs(psi - psi_old))) if m else 0.0)
            if max(r_primal, r_dual) < stop:
                break
    mu = -rho * u
    lam = rho * v
    eta_plus = np.maximum(lam, 0.0)
    eta_minus = np.maximum(-lam, 0.0)
    r_balance = float(np.max(np.abs(Q - p_m + L @ phi)))
    return {
        "p": Q,
        "phi": phi,
        "mu": mu,
        "eta_plus": eta_plus,
        "eta_minus": eta_minus,
        "iterations": it,
        "balance_residual": r_balance,
    }


def _dual_lower_bound(model: NetworkModel, pw: _PiecewiseBatch, p_m: np.ndarray, upper: float, tol: float):
    """Dual route: accelerated projected ascent over prices (certified lower bounds).

    Balance prices are parameterized as mu = -pinv(L) C (eta+ - eta-) + c 1,
    which satisfies the network stationarity condition exactly, so every
    iterate with eta >= 0 is dual feasible and its value bounds the optimum
    from below.
    """
    n, m = model.n, model.m
    L = model.laplacian
    C = model.incidence
    Lpinv = _grounded_inverse(L)
    A = Lpinv @ C  # n x m
    # w = [eta+, eta-, c];  mu = T w
    T = np.concatenate([-A, A, np.ones((n, 1))], axis=1)
    lip_response = float(np.max(0.5 / pw.min_curvature))
    sigma = float(np.linalg.norm(T, 2)) if T.size else 1.0
    step = 1.0 / max(lip_response * sigma * sigma, 1e-12)

    theta_hi = model.angle_upper
    theta_lo = model.angle_lower
    grad_const = np.concatenate([-theta_hi, theta_lo, [0.0]])

    def dual_value_grad(w: np.ndarray):
        mu = T @ w
        qvals, p_resp = pw.dual_local_value(mu)
        val = float(qvals.sum() - mu @ p_m - w[:m] @ theta_hi + w[m : 2 * m] @ theta_lo)
        grad = T.T @ (p_resp - p_m) + grad_const
        return val, grad

    def project(w: np.ndarray) -> np.ndarray:
        out = w.copy()
        out[: 2 * m] = np.maximum(out[: 2 * m], 0.0)
        return out

    w = np.zeros(2 * m + 1)
    y = w.copy()
    t_acc = 1.0
    best = -np.inf
    it = 0
    for it in range(1, _MAX_ITER + 1):
        _, grad = dual_value_grad(y)
        w_next = project(y + step * grad)
        val_next, _ = dual_value_grad(w_next)
        if val_next > best:
            best = val_next
        if upper - best <= 2.0 * tol:
            return best, it
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = w_next + ((t_acc - 1.0) / t_next) * (w_next - w)
        w = w_next
        t_acc = t_next
    return best, it


def solve_olc(model: NetworkModel, p_m: np.ndarray, tol: float = 1e-6) -> OptimalSolution:
    """Solve the allocation problem; primal and dual routes must agree within 2 tol.

    The certificate and invariant checks are written so that NaN fails them.
    """
    p_m = np.asarray(p_m, dtype=float)
    if p_m.shape != (model.n,):
        raise ValidationError(f"p_m must have length {model.n}, got {p_m.shape}")
    if not np.all(np.isfinite(p_m)):
        raise ValidationError(f"p_m must be finite, got {p_m}")
    if not 0 < tol < np.inf:
        raise ValidationError(f"oracle tol must be finite and positive, got {tol}")
    pw = _PiecewiseBatch(model)
    check_feasibility(model, p_m)

    primal = _admm_solve(model, pw, p_m, tol)
    objective = float(pw.total(primal["p"]))
    lower, dual_iters = _dual_lower_bound(model, pw, p_m, objective, tol)
    if not objective - lower <= 2.0 * tol + 1e-12:
        raise NumericalError(
            f"oracle tolerance not reached within iteration cap: primal {objective:.9g} vs dual bound {lower:.9g}"
        )

    phi = primal["phi"] - primal["phi"][0]
    sol = OptimalSolution(
        p_l_star=primal["p"],
        phi_star=phi,
        mu_star=primal["mu"],
        eta_plus_star=primal["eta_plus"],
        eta_minus_star=primal["eta_minus"],
        objective=objective,
        dual_objective=lower,
        iterations=primal["iterations"] + dual_iters,
        balance_residual=primal["balance_residual"],
        diagnostics={"dual_iterations": dual_iters},
    )
    _assert_solution_invariants(model, sol, tol)
    return sol


def _assert_solution_invariants(model: NetworkModel, sol: OptimalSolution, tol: float) -> None:
    box = model.load_box
    slack = max(1e-7, 100 * tol)
    if not (np.all(sol.p_l_star >= box.lower - slack) and np.all(sol.p_l_star <= box.upper + slack)):
        raise NumericalError("oracle solution violates the load box")
    edge = model.incidence.T @ sol.phi_star
    if not (np.all(edge <= model.angle_upper + slack) and np.all(edge >= model.angle_lower - slack)):
        raise NumericalError("oracle solution violates line angle limits")
    if not (np.all(sol.eta_plus_star >= -slack) and np.all(sol.eta_minus_star >= -slack)):
        raise NumericalError("oracle multipliers must be nonnegative")
    if not sol.balance_residual <= slack:
        raise NumericalError(f"oracle balance residual too large: {sol.balance_residual:g}")


def lattice_search(model: NetworkModel, p_m: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive lattice search for n <= 3 networks (brute-force ground truth).

    Load coordinates except the last live on a lattice over the box; the last
    is pinned by total balance; angles are eliminated through the Laplacian
    pseudoinverse and checked against the line limits. Refinement proceeds
    stage by stage (factor-10 spacing) down to `_LATTICE_GRID`; each stage
    scans exhaustively inside a window of +-3 previous spacings around the
    incumbent, which is sound for a convex objective over a convex feasible
    set. The final stage spacing equals `_LATTICE_GRID` exactly.
    """
    p_m = np.asarray(p_m, dtype=float)
    pw = _PiecewiseBatch(model)
    n = model.n
    if n > 3:
        raise ValidationError("lattice_search is a desk-scale oracle (n <= 3)")
    box = model.load_box
    if not (np.all(np.isfinite(box.lower)) and np.all(np.isfinite(box.upper))):
        raise ValidationError("lattice_search needs a bounded load box")
    total = float(p_m.sum())
    Lpinv = np.linalg.pinv(model.laplacian)
    Ct = model.incidence.T
    feas_slack = 1e-9

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """points: (T, n-1) free coordinates -> (objective, feasibility mask)."""
        last = total - points.sum(axis=1)
        P = np.column_stack([points, last]) if n > 1 else last[:, None]
        ok = np.all(P >= box.lower - feas_slack, axis=1) & np.all(P <= box.upper + feas_slack, axis=1)
        if model.m:
            phi = (p_m - P) @ Lpinv.T
            edge = phi @ Ct.T
            ok &= np.all(edge <= model.angle_upper + feas_slack, axis=1)
            ok &= np.all(edge >= model.angle_lower - feas_slack, axis=1)
        vals = pw.total(P)
        vals = np.where(ok, vals, np.inf)
        return vals, ok

    free = n - 1
    if free == 0:
        P = np.array([total])
        vals, ok = evaluate(np.zeros((1, 0)))
        if not ok[0]:
            raise InfeasibleProblemError("single-bus lattice point infeasible")
        return P, float(vals[0])

    lo = box.lower[:free].copy()
    hi = box.upper[:free].copy()
    spacings = []
    s = _LATTICE_GRID
    while s < np.max(hi - lo) / 40.0:
        s *= 10.0
    while s > _LATTICE_GRID:
        spacings.append(s)
        s /= 10.0
    spacings.append(_LATTICE_GRID)

    window_lo, window_hi = lo, hi
    best_pt = None
    best_val = np.inf
    for stage, s in enumerate(spacings):
        axes = [np.arange(window_lo[i], window_hi[i] + 0.5 * s, s) for i in range(free)]
        mesh = np.meshgrid(*axes, indexing="ij") if free > 1 else [axes[0]]
        pts = np.column_stack([mg.ravel() for mg in mesh])
        vals, ok = evaluate(pts)
        k = int(np.argmin(vals))
        if np.isfinite(vals[k]):
            best_val = float(vals[k])
            best_pt = pts[k]
        elif best_pt is None:
            # widen: no feasible point at this resolution yet
            continue
        window_lo = np.maximum(lo, best_pt - 3.0 * s)
        window_hi = np.minimum(hi, best_pt + 3.0 * s)
    if best_pt is None:
        raise InfeasibleProblemError("lattice search found no feasible point")
    last = total - best_pt.sum()
    P = np.concatenate([best_pt, [last]])
    return P, best_val
