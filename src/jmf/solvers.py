"""Alternating outer loop and the four subproblem update algorithms."""
from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import (Algorithm, DivergenceError, Factorization, Problem,
                    SolverConfig, SolverReport, StopRule, Termination,
                    TracePoint)
from .objective import (Grams, QuadSubproblem, h_subproblem, objective_value,
                        projected_gradient_norm, projected_norm,
                        reconstruction_error, view_products, w_subproblem)

_EPS = 1e-12  # multiplicative-update denominator guard


# ---------------------------------------------------------------------------
# stopping criteria

@dataclass
class StopState:
    """Per-solve bookkeeping for the two stopping rules."""

    initial_objective: float
    initial_gradient_norm: float | None = None
    window: deque = field(default_factory=lambda: deque(maxlen=10))


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

def mur_step_W(problem: Problem, factors: Factorization,
               xprod: np.ndarray | None = None) -> np.ndarray:
    """Ratio update W * num / den, where -grad/2 = num - den splits the W
    quadratic by sign: num = -g0/2 and den = W A.  ``xprod`` is
    sum_I X_I H_I^T when the caller holds it."""
    q = w_subproblem(problem, factors.H, xht=xprod)
    (a,) = q.hess_mats
    w = factors.W
    return w * (-0.5 * q.g0 / np.maximum(w @ a, _EPS))


def mur_step_H(problem: Problem, factors: Factorization, view: int,
               xprod: np.ndarray | None = None) -> np.ndarray:
    """Ratio update H * num / den on the H_I quadratic, split by sign:
    num = -g0/2 + (lambda1/2) H S and den = M H.  ``xprod`` is W^T X_I
    when the caller holds it."""
    q = h_subproblem(problem, factors.W, factors.H, view, wtx=xprod)
    m, s, lam1, _ = q.hess_mats
    h = factors.H[view]
    num = -0.5 * q.g0
    if lam1 and s is not None:
        num = num + 0.5 * lam1 * (h @ s)
    return h * (num / np.maximum(m @ h, _EPS))


# ---------------------------------------------------------------------------
# generic engines on a quadratic subproblem
#
# Each engine owns its iterate and a few work buffers of the block's shape
# and writes its elementwise updates into them, so an inner step allocates
# only the one Hessian product it forms.

def _inner_tol(config: SolverConfig, pn0: float) -> float:
    return max(config.inner_tol, config.inner_tol_rel * pn0)


def _armijo_step(q: QuadSubproblem, x: np.ndarray, g: np.ndarray,
                 config: SolverConfig, out: np.ndarray,
                 d: np.ndarray) -> bool:
    """One projected step with the smallest backtracking exponent.

    Writes the next iterate into ``out`` (``d`` is a work buffer) and
    returns True when the search is exhausted, in which case the
    iterate stays x and ``out`` holds nothing of use.
    """
    for t in range(config.max_backtracks + 1):
        alpha = config.alpha0 * config.beta ** t
        np.multiply(g, alpha, out=out)
        np.subtract(x, out, out=out)
        np.maximum(out, 0.0, out=out)
        np.subtract(out, x, out=d)
        decrease = (1.0 - config.sigma) * float(np.vdot(g, d)) \
            + 0.5 * float(np.vdot(d, q.hess_apply(d)))
        if decrease <= 0:
            return False
    return True


def _pg_minimize(q: QuadSubproblem, x0: np.ndarray,
                 config: SolverConfig) -> tuple[np.ndarray, bool]:
    """Armijo projected gradient; returns (iterate, search-exhausted flag).

    The gradient is formed afresh after each accepted step rather than
    carried over as g + H d from the search, so rounding does not
    accumulate from one step to the next.
    """
    x = x0.copy()
    xn, work = np.empty_like(x), np.empty_like(x)
    g = q.grad(x)
    pn = projected_norm(x, g, work)
    tol = _inner_tol(config, pn)
    for _ in range(config.inner_iters):
        if pn <= tol:
            break
        if _armijo_step(q, x, g, config, xn, work):
            return x, True
        x, xn = xn, x
        g = q.grad(x)
        pn = projected_norm(x, g, work)
    return x, False


def _ne_minimize(q: QuadSubproblem, x0: np.ndarray,
                 config: SolverConfig) -> np.ndarray:
    """Nesterov's projected iteration with step 1 / L.

    Each step projects the gradient step from the extrapolated point
    y = x + b (x - x_prev).  The gradient is affine, so that step is
    z + b (z - z_prev) with z = x - grad(x) / L: one Hessian product per
    step, in the gradient at its new iterate, and no y is kept.
    """
    lip = q.lipschitz()
    if lip <= 0:
        return x0.copy()
    x = x0.copy()
    g = q.grad(x)
    work = np.empty_like(x)
    pn = projected_norm(x, g, work)
    tol = _inner_tol(config, pn)
    if pn <= tol:
        return x
    neg_step = -1.0 / lip
    # at the start y = x, so the first step is z itself
    z = np.multiply(g, neg_step)
    z += x
    step = z.copy()
    alpha = config.alpha0
    for _ in range(config.inner_iters):
        x = np.maximum(step, 0.0, out=x)
        g = q.grad(x)
        pn = projected_norm(x, g, work)
        if pn <= tol:
            break
        alpha_next = 0.5 * (1.0 + math.sqrt(4.0 * alpha * alpha + 1.0))
        b = (alpha - 1.0) / alpha_next
        # the new z goes where the last step was; the old z's buffer then
        # takes the next step, z_new + b (z_new - z)
        z_new = np.multiply(g, neg_step, out=step)
        z_new += x
        z -= z_new
        z *= -b
        z += z_new
        z, step, alpha = z_new, z, alpha_next
    return x


def _step_to_bound(x: np.ndarray, d: np.ndarray, out: np.ndarray) -> float:
    """Longest step along d that keeps x nonnegative: the least x / -d over
    the entries with d < 0, inf when there is none.

    Branch-free: the ratios x / max(-d, 0) are inf or NaN where d >= 0,
    and ``np.fmin`` skips NaN.  ``out`` is a work buffer.
    """
    np.negative(d, out=out)
    np.maximum(out, 0.0, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(x, out, out=out)
    step = float(np.fmin.reduce(out, axis=None))
    return np.inf if np.isnan(step) else step


def _panls_minimize(q: QuadSubproblem, x0: np.ndarray,
                    config: SolverConfig) -> tuple[np.ndarray, bool]:
    """PG steps alternating with conjugate gradients on the inactive set.

    Returns (iterate, search-exhausted flag).  A CG step that stops short
    of the bound keeps every inactive entry positive, so its new gradient
    is g + step H d (the CG residual recursion) from the one product the
    step forms; a step clipped at the bound forms the gradient afresh.
    """
    x = x0.copy()
    xn, work = np.empty_like(x), np.empty_like(x)
    g = q.grad(x)
    pn = projected_norm(x, g, work)
    tol = _inner_tol(config, pn)
    eta = config.eta
    k = 0
    cap = config.inner_iters
    while pn > tol and k < cap:
        # constrained PG phase
        rounds_without_progress = 0
        while pn > tol and k < cap:
            if _armijo_step(q, x, g, config, xn, work):
                return x, True
            x, xn = xn, x
            k += 1
            g = q.grad(x)
            pn = projected_norm(x, g, work)
            np.multiply(g, x > 0, out=work)
            interior = math.sqrt(np.vdot(work, work))
            if interior < eta * pn:
                eta *= config.rho
                rounds_without_progress = 0
            else:
                rounds_without_progress += 1
                if rounds_without_progress > config.n1:
                    break
        if pn <= tol or k >= cap:
            break
        # unconstrained CG phase restricted to the inactive set; the
        # direction starts at the residual -(g * mask)
        mask = x > 0
        direction = np.multiply(g, mask)
        np.negative(direction, out=direction)
        rr = float(np.vdot(direction, direction))
        while pn > tol and k < cap:
            if rr == 0.0:
                break
            qd = q.hess_apply(direction)
            curv = float(np.vdot(direction, qd))
            if curv <= 0:
                # breakdown: fall back to a PG step
                if _armijo_step(q, x, g, config, xn, work):
                    return x, True
                x, xn = xn, x
                k += 1
                g = q.grad(x)
                pn = projected_norm(x, g, work)
                break
            step = rr / curv
            # truncate at the nonnegativity boundary
            step_max = _step_to_bound(x, direction, work)
            clipped = step >= step_max
            np.multiply(direction, step_max if clipped else step, out=work)
            x += work
            np.maximum(x, 0.0, out=x)
            k += 1
            if clipped:
                active_before = x.size - np.count_nonzero(mask)
                g = q.grad(x)
                pn = projected_norm(x, g, work)
                np.greater(x, 0.0, out=mask)
                growth = (x.size - np.count_nonzero(mask)) - active_before
                uncertain = np.any(
                    (np.abs(g) >= pn ** config.panls_alpha)
                    & (x >= pn ** config.panls_beta))
                if uncertain and 0 < growth <= config.n2:
                    break  # return to the PG phase
                # restart CG at the reduced dimension
                np.multiply(g, mask, out=direction)
                np.negative(direction, out=direction)
                rr = float(np.vdot(direction, direction))
                continue
            qd *= step
            g += qd
            pn = projected_norm(x, g, work)
            # work = g * mask = -(new residual)
            np.multiply(g, mask, out=work)
            rr_new = float(np.vdot(work, work))
            if math.sqrt(rr_new) < eta * pn:
                break  # return to the PG phase
            direction *= rr_new / rr
            direction -= work
            rr = rr_new
    return x, False


def _build_quad(problem: Problem, factors: Factorization, target,
                config: SolverConfig, anchor: np.ndarray | None = None,
                proximal: bool = False, xprod: np.ndarray | None = None
                ) -> tuple[QuadSubproblem, np.ndarray]:
    """The target block's quadratic.  ``xprod`` is the block's product with
    the views when the caller holds it: sum_I X_I H_I^T for W, W^T X_I for
    H_I."""
    if isinstance(target, str):
        if target.lower() != "w":
            raise ValueError(f"unknown subproblem target {target!r}")
        tau = config.tau1 if proximal else 0.0
        q = w_subproblem(problem, factors.H, tau1=tau,
                         anchor=anchor if proximal else None, xht=xprod)
        return q, factors.W
    view = int(target)
    tau = config.tau2 if proximal else 0.0
    q = h_subproblem(problem, factors.W, factors.H, view, tau2=tau,
                     anchor=anchor if proximal else None, wtx=xprod)
    return q, factors.H[view]


def pg_subproblem(problem: Problem, factors: Factorization, target,
                  config: SolverConfig, xprod: np.ndarray | None = None
                  ) -> tuple[np.ndarray, bool]:
    """Armijo projected-gradient solve of one subproblem.

    Returns the updated factor and a flag set when the step-size search was
    exhausted before reaching the inner tolerance.
    """
    q, start = _build_quad(problem, factors, target, config, xprod=xprod)
    return _pg_minimize(q, start, config)


def ne_subproblem(problem: Problem, factors: Factorization, target,
                  config: SolverConfig, xprod: np.ndarray | None = None
                  ) -> np.ndarray:
    """Nesterov iteration with the subproblem Lipschitz step size."""
    q, start = _build_quad(problem, factors, target, config, xprod=xprod)
    return _ne_minimize(q, start, config)


def panls_subproblem(problem: Problem, factors: Factorization, target,
                     config: SolverConfig, anchor: np.ndarray,
                     xprod: np.ndarray | None = None
                     ) -> tuple[np.ndarray, bool]:
    """Proximal subproblem solve switching between PG and active-set CG.

    Returns the updated factor and a flag set when a step-size search was
    exhausted before reaching the inner tolerance.
    """
    q, start = _build_quad(problem, factors, target, config, anchor=anchor,
                           proximal=True, xprod=xprod)
    return _panls_minimize(q, start, config)


# ---------------------------------------------------------------------------
# outer loop

def _rescale(w: np.ndarray, hs: list[np.ndarray]) -> np.ndarray:
    """Product-preserving normalization: unit W columns, scale into H rows.

    Returns the divisor of each W column: its norm, or 1 for a zero column.
    """
    norms = np.linalg.norm(w, axis=0)
    norms[norms == 0] = 1.0
    w /= norms
    for h in hs:
        h *= norms[:, None]
    return norms


def _block_step(problem: Problem, config: SolverConfig,
                factors: Factorization, target,
                xprod: np.ndarray) -> tuple[np.ndarray, bool]:
    """The configured algorithm's update of one block ("w" or a view), with
    the flag of an exhausted step-size search."""
    alg = config.algorithm
    if alg is Algorithm.MUR:
        if target == "w":
            return mur_step_W(problem, factors, xprod), False
        return mur_step_H(problem, factors, target, xprod), False
    if alg is Algorithm.PG:
        return pg_subproblem(problem, factors, target, config, xprod)
    if alg is Algorithm.NE:
        return ne_subproblem(problem, factors, target, config, xprod), False
    if alg is Algorithm.PANLS:
        # the build reads the anchor before the engine moves a copy of it
        anchor = factors.W if target == "w" else factors.H[target]
        return panls_subproblem(problem, factors, target, config, anchor,
                                xprod)
    raise ValueError(f"unknown algorithm {alg}")  # pragma: no cover


def _outer_update(problem: Problem, config: SolverConfig,
                  factors: Factorization, grams: Grams) -> int:
    """Update W from ``grams.xht``, then each H_I, recording W^T X_I for the
    new W in ``grams.wtx``.  Returns how many of the block solves ran out
    of step-size search."""
    factors.W, exhausted = _block_step(problem, config, factors, "w",
                                       grams.xht)
    for i, x in enumerate(problem.dataset.views):
        grams.wtx[i] = factors.W.T @ x
        factors.H[i], flag = _block_step(problem, config, factors, i,
                                         grams.wtx[i])
        exhausted += flag
    return exhausted


def solve(problem: Problem, config: SolverConfig,
          init: Factorization) -> tuple[Factorization, SolverReport]:
    """Alternate W and H updates until a stop rule or the iteration cap.

    Each outer iteration forms 2 N products with the views, kept in one
    ``Grams`` record that F, the projected gradient and the next W build
    read.
    """
    if init.W.shape != (problem.m, problem.rank):
        raise ValueError("initial W does not match the problem shapes")
    factors = init.copy()
    views = problem.dataset.views
    grams = Grams(view_products(views, factors.H), [None] * len(views))

    f_init = objective_value(problem, factors, grams)
    state = StopState(initial_objective=f_init)

    trace: list[TracePoint] = []
    termination = Termination.MAX_ITERS
    f_prev = f_init
    exhausted = 0
    start = time.perf_counter()
    for it in range(1, config.max_outer_iters + 1):
        # overflow produces inf/nan, caught below as divergence; the
        # intermediate warnings are expected noise on runaway weights
        with np.errstate(over="ignore", invalid="ignore"):
            exhausted += _outer_update(problem, config, factors, grams)
            if not (np.isfinite(factors.W).all()
                    and all(np.isfinite(h).all() for h in factors.H)):
                raise DivergenceError(
                    f"non-finite factor at outer iteration {it}", trace)
            if config.normalize_rows:
                norms = _rescale(factors.W, factors.H)
                for wtx in grams.wtx:
                    wtx /= norms[:, None]
            grams.xht = view_products(views, factors.H)
            f_curr = objective_value(problem, factors, grams)
            g_curr = projected_gradient_norm(problem, factors, grams)
        if not np.isfinite(f_curr):
            raise DivergenceError(
                f"non-finite objective at outer iteration {it}", trace)
        if not np.isfinite(g_curr):
            raise DivergenceError(
                f"non-finite projected-gradient norm at outer iteration {it}",
                trace)
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

    report = SolverReport(
        trace=trace,
        termination=termination,
        final_objective=trace[-1].objective,
        reconstruction_error=reconstruction_error(problem, factors),
        iterations=trace[-1].iteration,
        exhausted_searches=exhausted,
    )
    return factors, report
