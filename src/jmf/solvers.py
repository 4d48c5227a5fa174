"""Alternating outer loop and the four subproblem update algorithms."""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import (Algorithm, DivergenceError, Factorization, Problem,
                    SolverConfig, SolverReport, StopRule, Termination,
                    TracePoint)
from .objective import (QuadSubproblem, _projected, h_subproblem,
                        objective_value, projected_gradient_norm,
                        reconstruction_error, w_subproblem)

_EPS = 1e-12  # multiplicative-update denominator guard


# ---------------------------------------------------------------------------
# stopping criteria

@dataclass
class StopState:
    """Per-solve bookkeeping for the two stopping rules."""

    initial_objective: float
    initial_gradient_norm: float | None = None
    window: deque = field(default_factory=lambda: deque(maxlen=10))
    previous_objective: float = 0.0

    def __post_init__(self):
        self.previous_objective = self.initial_objective


def check_stop_objective(f_prev: float, f_curr: float, f_initial: float,
                         tol: float) -> bool:
    """Objective-ratio rule: (F_prev - F_curr) / (F_initial - F_curr) <= tol.

    A non-positive denominator means no net progress since the start, which
    also stops the solve.  A step where the objective rises (possible when
    per-iteration rescaling shifts the regularization terms) never counts as
    converged.
    """
    denom = f_initial - f_curr
    if denom <= 0:
        return True
    progress = f_prev - f_curr
    if progress < 0:
        return False
    return progress / denom <= tol


def check_stop_gradient(state: StopState, grad_norm: float,
                        tol: float) -> bool:
    """Gradient-ratio rule plus the slow-change escape on a 10-norm window."""
    return _gradient_stop_reason(state, grad_norm, tol) is not None


def _gradient_stop_reason(state: StopState, grad_norm: float,
                          tol: float) -> Termination | None:
    if state.initial_gradient_norm is None:
        # reference norm is the first recorded outer iteration's, so the
        # rule can be re-checked from the trace alone
        state.initial_gradient_norm = grad_norm
    state.window.append(grad_norm)
    if grad_norm <= tol * state.initial_gradient_norm:
        return Termination.TOLERANCE_MET
    if len(state.window) == state.window.maxlen:
        if abs(state.window[-1] - state.window[0]) <= (
                1e-3 * tol * state.initial_gradient_norm):
            return Termination.SLOW_GRADIENT_CHANGE
    return None


# ---------------------------------------------------------------------------
# multiplicative updates

def mur_step_W(problem: Problem, factors: Factorization) -> np.ndarray:
    """Ratio update W * num / den, where -grad/2 = num - den splits the W
    quadratic by sign: num = -g0/2 and den = W A."""
    q = w_subproblem(problem, factors.H)
    (a,) = q.hess_mats
    w = factors.W
    return w * (-0.5 * q.g0 / np.maximum(w @ a, _EPS))


def mur_step_H(problem: Problem, factors: Factorization,
               view: int) -> np.ndarray:
    """Ratio update H * num / den on the H_I quadratic, split by sign:
    num = -g0/2 + (lambda1/2) H S and den = M H."""
    q = h_subproblem(problem, factors.W, factors.H, view)
    m, s, lam1, _ = q.hess_mats
    h = factors.H[view]
    num = -0.5 * q.g0
    if lam1 and s is not None:
        num = num + 0.5 * lam1 * (h @ s)
    return h * (num / np.maximum(m @ h, _EPS))


# ---------------------------------------------------------------------------
# generic engines on a quadratic subproblem

def _pgn(x: np.ndarray, g: np.ndarray) -> float:
    return float(np.linalg.norm(_projected(x, g)))


def _inner_tol(config: SolverConfig, pn0: float) -> float:
    return max(config.inner_tol, config.inner_tol_rel * pn0)


def _armijo_step(q: QuadSubproblem, x: np.ndarray, g: np.ndarray,
                 config: SolverConfig) -> tuple[np.ndarray, bool]:
    """One projected step with the smallest backtracking exponent.

    Returns (next iterate, search-exhausted flag).
    """
    for t in range(config.max_backtracks + 1):
        alpha = config.alpha0 * config.beta ** t
        xn = np.maximum(x - alpha * g, 0.0)
        d = xn - x
        decrease = (1.0 - config.sigma) * float(np.sum(g * d)) \
            + 0.5 * float(np.sum(d * q.hess_apply(d)))
        if decrease <= 0:
            return xn, False
    return x, True


def _pg_minimize(q: QuadSubproblem, x0: np.ndarray,
                 config: SolverConfig) -> tuple[np.ndarray, bool]:
    x = x0.copy()
    g = q.grad(x)
    pn = _pgn(x, g)
    tol = _inner_tol(config, pn)
    for _ in range(config.inner_iters):
        if pn <= tol:
            break
        x, exhausted = _armijo_step(q, x, g, config)
        if exhausted:
            return x, True
        g = q.grad(x)
        pn = _pgn(x, g)
    return x, False


def _ne_minimize(q: QuadSubproblem, x0: np.ndarray,
                 config: SolverConfig) -> np.ndarray:
    lip = q.lipschitz()
    if lip <= 0:
        return x0.copy()
    x = x0.copy()
    pn = _pgn(x, q.grad(x))
    tol = _inner_tol(config, pn)
    if pn <= tol:
        return x
    y = x.copy()
    alpha = config.alpha0
    for _ in range(config.inner_iters):
        xn = np.maximum(y - q.grad(y) / lip, 0.0)
        alpha_next = 0.5 * (1.0 + np.sqrt(4.0 * alpha * alpha + 1.0))
        y = xn + ((alpha - 1.0) / alpha_next) * (xn - x)
        x, alpha = xn, alpha_next
        pn = _pgn(x, q.grad(x))
        if pn <= tol:
            break
    return x


def _panls_minimize(q: QuadSubproblem, x0: np.ndarray,
                    config: SolverConfig) -> np.ndarray:
    """PG steps alternating with conjugate gradients on the inactive set."""
    x = x0.copy()
    g = q.grad(x)
    pn = _pgn(x, g)
    tol = _inner_tol(config, pn)
    eta = config.eta
    k = 0
    cap = config.inner_iters
    while pn > tol and k < cap:
        # constrained PG phase
        rounds_without_progress = 0
        while pn > tol and k < cap:
            x, exhausted = _armijo_step(q, x, g, config)
            k += 1
            g = q.grad(x)
            pn = _pgn(x, g)
            if exhausted:
                return x
            interior = float(np.linalg.norm(g * (x > 0)))
            if interior < eta * pn:
                eta *= config.rho
                rounds_without_progress = 0
            else:
                rounds_without_progress += 1
                if rounds_without_progress > config.n1:
                    break
        if pn <= tol or k >= cap:
            break
        # unconstrained CG phase restricted to the inactive set
        mask = x > 0
        resid = -(g * mask)
        direction = resid.copy()
        rr = float(np.sum(resid * resid))
        while pn > tol and k < cap:
            if rr == 0.0:
                break
            qd = q.hess_apply(direction)
            curv = float(np.sum(direction * qd))
            if curv <= 0:
                # breakdown: fall back to a PG step
                x, _ = _armijo_step(q, x, g, config)
                k += 1
                g = q.grad(x)
                pn = _pgn(x, g)
                break
            step = rr / curv
            # truncate at the nonnegativity boundary
            blocking = mask & (direction < 0)
            if np.any(blocking):
                limits = np.where(blocking, x / -np.where(blocking, direction,
                                                          -1.0), np.inf)
                step_max = float(limits.min())
            else:
                step_max = np.inf
            if step >= step_max:
                active_before = x.size - int(mask.sum())
                x = np.maximum(x + step_max * direction, 0.0)
                k += 1
                g = q.grad(x)
                pn = _pgn(x, g)
                new_mask = x > 0
                growth = (x.size - int(new_mask.sum())) - active_before
                uncertain = np.any(
                    (np.abs(g) >= pn ** config.panls_alpha)
                    & (x >= pn ** config.panls_beta))
                if uncertain and 0 < growth <= config.n2:
                    break  # return to the PG phase
                # restart CG at the reduced dimension
                mask = new_mask
                resid = -(g * mask)
                direction = resid.copy()
                rr = float(np.sum(resid * resid))
                continue
            x = np.maximum(x + step * direction, 0.0)
            k += 1
            g = q.grad(x)
            pn = _pgn(x, g)
            interior = float(np.linalg.norm(g * mask))
            if interior < eta * pn:
                break  # return to the PG phase
            resid_new = -(g * mask)
            rr_new = float(np.sum(resid_new * resid_new))
            direction = resid_new + (rr_new / rr) * direction
            resid, rr = resid_new, rr_new
    return x


def _build_quad(problem: Problem, factors: Factorization, target,
                config: SolverConfig, anchor: np.ndarray | None = None,
                proximal: bool = False) -> tuple[QuadSubproblem, np.ndarray]:
    if isinstance(target, str):
        if target.lower() != "w":
            raise ValueError(f"unknown subproblem target {target!r}")
        tau = config.tau1 if proximal else 0.0
        q = w_subproblem(problem, factors.H, tau1=tau,
                         anchor=anchor if proximal else None)
        return q, factors.W
    view = int(target)
    tau = config.tau2 if proximal else 0.0
    q = h_subproblem(problem, factors.W, factors.H, view, tau2=tau,
                     anchor=anchor if proximal else None)
    return q, factors.H[view]


def pg_subproblem(problem: Problem, factors: Factorization, target,
                  config: SolverConfig) -> tuple[np.ndarray, bool]:
    """Armijo projected-gradient solve of one subproblem.

    Returns the updated factor and a flag set when the step-size search was
    exhausted before reaching the inner tolerance.
    """
    q, start = _build_quad(problem, factors, target, config)
    return _pg_minimize(q, start, config)


def ne_subproblem(problem: Problem, factors: Factorization, target,
                  config: SolverConfig) -> np.ndarray:
    """Nesterov iteration with the subproblem Lipschitz step size."""
    q, start = _build_quad(problem, factors, target, config)
    return _ne_minimize(q, start, config)


def panls_subproblem(problem: Problem, factors: Factorization, target,
                     config: SolverConfig,
                     anchor: np.ndarray) -> np.ndarray:
    """Proximal subproblem solve switching between PG and active-set CG."""
    q, start = _build_quad(problem, factors, target, config, anchor=anchor,
                           proximal=True)
    return _panls_minimize(q, start, config)


# ---------------------------------------------------------------------------
# outer loop

def _rescale(w: np.ndarray, hs: list[np.ndarray]) -> None:
    """Product-preserving normalization: unit W columns, scale into H rows."""
    norms = np.linalg.norm(w, axis=0)
    keep = norms > 0
    w[:, keep] /= norms[keep]
    for h in hs:
        h[keep, :] *= norms[keep, None]


def _outer_update(problem: Problem, config: SolverConfig, w: np.ndarray,
                  hs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    factors = Factorization(w, hs)
    alg = config.algorithm
    if alg is Algorithm.MUR:
        factors.W = mur_step_W(problem, factors)
        for i in range(problem.n_views):
            factors.H[i] = mur_step_H(problem, factors, i)
    elif alg is Algorithm.PG:
        factors.W, _ = pg_subproblem(problem, factors, "w", config)
        for i in range(problem.n_views):
            factors.H[i], _ = pg_subproblem(problem, factors, i, config)
    elif alg is Algorithm.NE:
        factors.W = ne_subproblem(problem, factors, "w", config)
        for i in range(problem.n_views):
            factors.H[i] = ne_subproblem(problem, factors, i, config)
    elif alg is Algorithm.PANLS:
        anchor_w = factors.W.copy()
        anchors_h = [h.copy() for h in factors.H]
        factors.W = panls_subproblem(problem, factors, "w", config, anchor_w)
        for i in range(problem.n_views):
            factors.H[i] = panls_subproblem(problem, factors, i, config,
                                            anchors_h[i])
    else:  # pragma: no cover
        raise ValueError(f"unknown algorithm {alg}")
    return factors.W, factors.H


def solve(problem: Problem, config: SolverConfig,
          init: Factorization) -> tuple[Factorization, SolverReport]:
    """Alternate W and H updates until a stop rule or the iteration cap."""
    if init.W.shape != (problem.m, problem.rank):
        raise ValueError("initial W does not match the problem shapes")
    w = init.W.copy()
    hs = [h.copy() for h in init.H]

    f_init = objective_value(problem, Factorization(w, hs))
    state = StopState(initial_objective=f_init)

    trace: list[TracePoint] = []
    termination = Termination.MAX_ITERS
    f_prev = f_init
    start = time.perf_counter()
    for it in range(1, config.max_outer_iters + 1):
        # overflow produces inf/nan, caught below as divergence; the
        # intermediate warnings are expected noise on runaway weights
        with np.errstate(over="ignore", invalid="ignore"):
            w, hs = _outer_update(problem, config, w, hs)
            if not (np.isfinite(w).all()
                    and all(np.isfinite(h).all() for h in hs)):
                raise DivergenceError(
                    f"non-finite factor at outer iteration {it}", trace)
            if config.normalize_rows:
                _rescale(w, hs)
            factors = Factorization(w, hs)
            f_curr = objective_value(problem, factors)
        if not np.isfinite(f_curr):
            raise DivergenceError(
                f"non-finite objective at outer iteration {it}", trace)
        g_curr = projected_gradient_norm(problem, factors)
        trace.append(TracePoint(it, f_curr, g_curr,
                                time.perf_counter() - start))
        if config.stop_rule is StopRule.OBJECTIVE_RATIO:
            if check_stop_objective(f_prev, f_curr, f_init, config.tolerance):
                termination = Termination.TOLERANCE_MET
                break
        else:
            reason = _gradient_stop_reason(state, g_curr, config.tolerance)
            if reason is not None:
                termination = reason
                break
        f_prev = f_curr

    final = Factorization(w, hs)
    report = SolverReport(
        trace=trace,
        termination=termination,
        final_objective=trace[-1].objective,
        reconstruction_error=reconstruction_error(problem, final),
        iterations=trace[-1].iteration,
    )
    return final, report
