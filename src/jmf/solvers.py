"""Alternating outer loop and the four subproblem update algorithms."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import (Algorithm, DivergenceError, Factorization, Problem,
                    SolverConfig, SolverReport, StopRule, Termination,
                    TracePoint)
from .objective import (QuadSubproblem, _check_shapes, _fit, h_subproblem,
                        network_curvature, networks, objective_value,
                        orbit_penalty, penalty_terms,
                        projected_gradient_norm, projected_norm,
                        reads_networks, view_products, w_subproblem,
                        within_top)

_EPS = 1e-12  # multiplicative-update denominator guard
_INNER_ITERS = 500  # an inner engine's default cap on its steps per block
_INNER_TOL = 1e-6  # and its stop: a projected-gradient norm of at most
_INNER_TOL_REL = 0.01  # max(_INNER_TOL, _INNER_TOL_REL times the start's)
_RISE_TOL = 1e-12  # a relative rise of F over its start beyond rounding
# Gillis and Glineur's inner stop for repeated MUR steps (``mur_subproblem``)
_MUR_DELTA = 0.1  # 0.01 took 84 outer iterations on perfbench d2-mur, not 60
_MUR_ALPHA = 2.0  # so the steps after one build cost about twice that build
# Armijo search on the projection arc, PG and PANLS (Lin, Neural Comput. 2007)
_SIGMA = 0.01  # sufficient-decrease fraction
_BETA = 0.1  # step shrink factor
_ALPHA0 = 1.0  # first trial step
_MAX_BACKTRACKS = 50  # shrinks before the search counts as exhausted
# PANLS phase switching (the source paper, arXiv:1707.08183)
_ETA = 0.1  # first eta: a PG step with interior gradient < eta pn scales
_RHO = 0.5  # eta by rho; CG goes back to PG once it is below eta pn
_N1 = 2  # CG starts after more than n1 PG steps in a row without that
_N2 = 1  # a clipped CG step that adds 1..n2 active entries goes back to
_PANLS_ALPHA = 1.0  # PG when an entry has |g| >= pn^alpha
_PANLS_BETA = 0.1  # and x >= pn^beta
_TAU = 1e-3  # PANLS's proximal weight, tau1 for W and tau2 for H_I
# block principal pivoting, PANLS's exact solve of a block that splits
# (J. Kim and H. Park, SIAM J. Sci. Comput. 33(6), 2011)
_BPP_P_BAR = 3  # full exchanges allowed without fewer infeasible entries
_BPP_MAX_ROUNDS = 100  # a guard against rounding cycles, not a tolerance
# y's rounding bound, in (r + 1) eps (|C| |x| + |b|): of 3000 random
# blocks, r <= 11, cond(C) <= 1e11, a quarter with zero gradients at zero
# entries of the minimizer, 500 reached the round cap at 0, 8 at 1, none
# at 16
_BPP_SLACK = 16.0
_NE_T0 = 1.0  # Ne's t0 in t' = (1 + sqrt(4 t^2 + 1)) / 2 (Nesterov, 1983)
# extrapolation of the outer iterate, PG, Ne and PANLS (``solve``; A. Ang
# and N. Gillis, Neural Computation 31(2), 2019)
_EXTRAP_BETA = 0.5  # first weight beta
_EXTRAP_BETA_BAR = 1.0  # first ceiling on beta
_EXTRAP_GROW = 1.01  # a fall: beta <- min(ceiling, 1.01 beta)
_EXTRAP_BAR_GROW = 1.005  # and ceiling <- min(1, 1.005 ceiling)
_EXTRAP_SHRINK = 1.5  # a rise: ceiling <- beta, beta <- beta / 1.5


# ---------------------------------------------------------------------------
# stopping criteria

def _stop_reason(trace: list[TracePoint], f_init: float,
                 config: SolverConfig) -> Termination | None:
    """The reason the solve stops after the last point of ``trace``, or
    None; it reads only the trace and F at the start, ``f_init``.

    Objective ratio: (F_prev - F) / (F_init - F) <= tol, F_prev the point
    before (F_init at the first).  A non-positive denominator means no net
    progress since the start, which also stops the solve; a step where F
    rises (possible when the rescale shifts the regularization terms) never
    counts as converged.  Gradient ratio: the norm is at most tol times the
    first point's, or the last ten norms moved by at most 1e-3 tol times it.
    """
    tol, last = config.tolerance, trace[-1]
    if config.stop_rule is StopRule.OBJECTIVE_RATIO:
        f_prev = trace[-2].objective if len(trace) > 1 else f_init
        denom, progress = f_init - last.objective, f_prev - last.objective
        if denom <= 0 or (progress >= 0 and progress / denom <= tol):
            return Termination.TOLERANCE_MET
        return None
    ref = trace[0].grad_norm
    if last.grad_norm <= tol * ref:
        return Termination.TOLERANCE_MET
    if len(trace) >= 10 and abs(last.grad_norm - trace[-10].grad_norm) <= (
            1e-3 * tol * ref):
        return Termination.SLOW_GRADIENT_CHANGE
    return None


# ---------------------------------------------------------------------------
# multiplicative updates

def _mur_ratio(q: QuadSubproblem, x: np.ndarray, half_neg_g0: np.ndarray,
               out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """One Lee-Seung ratio step x * num / max(den, eps) on ``q``, written
    to ``out`` (``work`` is a buffer of x's shape).

    -grad/2 = num - den splits the quadratic by sign: num = -g0/2 +
    (lambda1/2) x S and den = M x, so num = -g0/2 for W's block W^T,
    which has no S.  ``half_neg_g0`` is -g0/2, the same on every step of
    one quadratic.
    """
    m, s, lam1, _ = q.hess_mats
    np.matmul(m, x, out=work)
    np.maximum(work, _EPS, out=work)
    num = half_neg_g0
    if s is not None:
        num = np.matmul(x, s, out=out)
        num *= 0.5 * lam1
        num += half_neg_g0
    np.divide(num, work, out=out)
    out *= x
    return out


def _mur_rho(problem: Problem, view: int | None) -> float:
    """Gillis and Glineur's rho for W (``view`` None) or H_I: one plus the
    cost of building the block quadratic over the cost of one ratio step,
    in multiply-adds divided by r, from the shapes and the network terms
    in use (``networks``).  An H_I build adds H_J M for each of its
    lambda2 pairs (J, M); an H_I step adds x S when it has lambda1's S."""
    m, r = problem.m, problem.rank
    if view is None:
        return 1.0 + sum(problem.n) * (m + r) / (m * (r + 1))
    n = problem.n[view]
    s, pairs = networks(problem, view)
    build = m * (n + r) + n * sum(problem.n[j] for j, _ in pairs)
    step = n * (r + 1) + (0 if s is None else n * n)
    return 1.0 + build / step


def mur_subproblem(q: QuadSubproblem, x0: np.ndarray, rho: float, *,
                   cap: int = _INNER_ITERS) -> tuple[np.ndarray, bool]:
    """Repeated ratio steps on one built quadratic (N. Gillis and
    F. Glineur, Neural Computation 24(4), 2012), so the steps after the
    first form no products with the views; returns (block, False).

    Each step lowers q by the Lee-Seung auxiliary function.  The steps stop
    once one moves x by at most ``_MUR_DELTA`` times the first step's
    move (Frobenius norm), or after min(floor(1 + ``_MUR_ALPHA`` rho),
    ``cap``) steps; ``rho`` is ``_mur_rho``'s.
    """
    x = x0.copy()
    xn, work = np.empty_like(x), np.empty_like(x)
    half_neg_g0 = -0.5 * q.g0
    first = None
    for _ in range(min(int(1.0 + _MUR_ALPHA * rho), cap)):
        _mur_ratio(q, x, half_neg_g0, xn, work)
        np.subtract(xn, x, out=work)
        move = math.sqrt(np.vdot(work, work))
        x, xn = xn, x
        if first is None:
            first = move
        # on the first step this holds only when x did not move
        if move <= _MUR_DELTA * first:
            break
    return x, False


def mur_step_W(problem: Problem, factors: Factorization) -> np.ndarray:
    """The paper's single multiplicative update of W: one ratio step on
    the W quadratic (see ``_mur_ratio``).  ``solve`` repeats the step
    through ``mur_subproblem`` instead."""
    q, wt = _build_quad(problem, factors, "w")
    return _as_factor("w", _mur_ratio(q, wt, -0.5 * q.g0, np.empty_like(wt),
                                      np.empty_like(wt)))


def mur_step_H(problem: Problem, factors: Factorization,
               view: int) -> np.ndarray:
    """The paper's single multiplicative update of H_I: one ratio step on
    the H_I quadratic (see ``_mur_ratio``).  ``solve`` repeats the step
    through ``mur_subproblem`` instead, on a quadratic whose build also
    checks that it is bounded below (``_build_quad``)."""
    q = h_subproblem(problem, factors.W, factors.H, view)
    h = factors.H[view]
    return _mur_ratio(q, h, -0.5 * q.g0, np.empty_like(h), np.empty_like(h))


# ---------------------------------------------------------------------------
# generic engines on a built quadratic subproblem
#
# Each engine takes a built quadratic q and the block's start x0, with its
# inner stop in keywords: at most ``cap`` steps, ending once the projected-
# gradient norm is at most max(``floor``, ``rel`` times its value at x0).
# It returns (block, search-exhausted flag).  It owns its iterate and a
# few work buffers of the block's shape and writes its elementwise updates
# into them, so an inner step allocates only its Hessian product.

def _armijo_step(q: QuadSubproblem, x: np.ndarray, g: np.ndarray,
                 out: np.ndarray, d: np.ndarray) -> bool:
    """One projected step with the smallest backtracking exponent.

    Writes the next iterate into ``out`` (``d`` is a work buffer) and
    returns True when the search is exhausted, in which case the
    iterate stays x and ``out`` holds nothing of use.
    """
    for t in range(_MAX_BACKTRACKS + 1):
        alpha = _ALPHA0 * _BETA ** t
        np.multiply(g, alpha, out=out)
        np.subtract(x, out, out=out)
        np.maximum(out, 0.0, out=out)
        np.subtract(out, x, out=d)
        decrease = (1.0 - _SIGMA) * float(np.vdot(g, d)) \
            + 0.5 * float(np.vdot(d, q.hess_apply(d)))
        if decrease <= 0:
            return False
    return True


def pg_subproblem(q: QuadSubproblem, x0: np.ndarray, *,
                  cap: int = _INNER_ITERS, floor: float = _INNER_TOL,
                  rel: float = _INNER_TOL_REL) -> tuple[np.ndarray, bool]:
    """Armijo projected gradient; returns (iterate, search-exhausted flag).

    The gradient is formed afresh after each accepted step rather than
    carried over as g + H d from the search, so rounding does not
    accumulate from one step to the next.
    """
    x = x0.copy()
    xn, work = np.empty_like(x), np.empty_like(x)
    g = q.grad(x)
    pn = projected_norm(x, g, work)
    tol = max(floor, rel * pn)
    for _ in range(cap):
        if pn <= tol:
            break
        if _armijo_step(q, x, g, xn, work):
            return x, True
        x, xn = xn, x
        g = q.grad(x)
        pn = projected_norm(x, g, work)
    return x, False


def ne_subproblem(q: QuadSubproblem, x0: np.ndarray, *,
                  cap: int = _INNER_ITERS, floor: float = _INNER_TOL,
                  rel: float = _INNER_TOL_REL) -> tuple[np.ndarray, bool]:
    """Nesterov's projected iteration with step 1 / L; returns
    (iterate, False), as it has no step-size search to run out.

    Each step projects the gradient step from the extrapolated point
    y = x + b (x - x_prev).  The gradient is affine, so that step is
    z + b (z - z_prev) with z = x - grad(x) / L: one Hessian product per
    step, in the gradient at its new iterate, and no y is kept.
    """
    lip = q.lipschitz()
    if lip <= 0:
        return x0.copy(), False
    x = x0.copy()
    g = q.grad(x)
    work = np.empty_like(x)
    pn = projected_norm(x, g, work)
    tol = max(floor, rel * pn)
    if pn <= tol:
        return x, False
    neg_step = -1.0 / lip
    # at the start y = x, so the first step is z itself
    z = np.multiply(g, neg_step)
    z += x
    step = z.copy()
    alpha = _NE_T0
    for _ in range(cap):
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
    return x, False


def _step_to_bound(x: np.ndarray, d: np.ndarray, out: np.ndarray) -> float:
    """Longest step along d that keeps x nonnegative: the least x / -d over
    the entries with d < 0, inf when there is none.

    Branch-free: the ratios x / max(-d, 0) are inf or NaN where d >= 0,
    and ``np.fmin`` skips NaN; the caller silences the division's
    warnings.  ``out`` is a work buffer.
    """
    np.negative(d, out=out)
    np.maximum(out, 0.0, out=out)
    np.divide(x, out, out=out)
    step = float(np.fmin.reduce(out, axis=None))
    return np.inf if np.isnan(step) else step


def _panls_minimize(q: QuadSubproblem, x0: np.ndarray, *,
                    cap: int = _INNER_ITERS, floor: float = _INNER_TOL,
                    rel: float = _INNER_TOL_REL) -> tuple[np.ndarray, bool]:
    """PG steps alternating with conjugate gradients on the inactive set.

    Returns (iterate, search-exhausted flag).  ``panls_subproblem`` runs
    this engine only on an H_I block with lambda1 S_I, and on a block
    that splits when its exact solve (``_nnls_bpp``) reaches the round
    cap or meets a singular matrix; every other block is solved exactly.
    A CG step that stops short of the bound keeps every inactive entry
    positive, so its new gradient is g + step H d (the CG residual
    recursion) from the one product the step forms; a step clipped at
    the bound forms the gradient afresh.
    """
    x = x0.copy()
    xn, work = np.empty_like(x), np.empty_like(x)
    mask = np.empty(x.shape, dtype=bool)  # x > 0, the inactive set
    g = q.grad(x)
    pn = projected_norm(x, g, work)
    tol = max(floor, rel * pn)
    eta = _ETA
    k = 0
    # ``_step_to_bound``'s ratios divide by 0 where d >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while pn > tol and k < cap:
            # constrained PG phase
            rounds_without_progress = 0
            while pn > tol and k < cap:
                if _armijo_step(q, x, g, xn, work):
                    return x, True
                x, xn = xn, x
                k += 1
                g = q.grad(x)
                np.greater(x, 0.0, out=mask)
                pn = projected_norm(x, g, work, mask)
                np.multiply(g, mask, out=work)
                interior = math.sqrt(np.vdot(work, work))
                if interior < eta * pn:
                    eta *= _RHO
                    rounds_without_progress = 0
                else:
                    rounds_without_progress += 1
                    if rounds_without_progress > _N1:
                        break
            if pn <= tol or k >= cap:
                break
            # unconstrained CG phase restricted to the inactive set, which
            # ``mask`` holds from the last PG step; the direction starts
            # at the residual -(g * mask)
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
                    if _armijo_step(q, x, g, xn, work):
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
                np.multiply(direction, step_max if clipped else step,
                            out=work)
                x += work
                np.maximum(x, 0.0, out=x)
                k += 1
                if clipped:
                    active_before = x.size - np.count_nonzero(mask)
                    g = q.grad(x)
                    np.greater(x, 0.0, out=mask)
                    pn = projected_norm(x, g, work, mask)
                    growth = (x.size - np.count_nonzero(mask)) - active_before
                    uncertain = ((np.abs(g) >= pn ** _PANLS_ALPHA)
                                 & (x >= pn ** _PANLS_BETA)).any()
                    if uncertain and 0 < growth <= _N2:
                        break  # return to the PG phase
                    # restart CG at the reduced dimension
                    np.multiply(g, mask, out=direction)
                    np.negative(direction, out=direction)
                    rr = float(np.vdot(direction, direction))
                    continue
                # the step kept every inactive entry positive: mask holds
                qd *= step
                g += qd
                pn = projected_norm(x, g, work, mask)
                # work = g * mask = -(new residual)
                np.multiply(g, mask, out=work)
                rr_new = float(np.vdot(work, work))
                if math.sqrt(rr_new) < eta * pn:
                    break  # return to the PG phase
                direction *= rr_new / rr
                direction -= work
                rr = rr_new
    return x, False


def _passive_solve(c: np.ndarray, b: np.ndarray,
                   passive: np.ndarray) -> np.ndarray:
    """x with C_PP x_P = b_P and x = 0 off P, for each column of ``b`` and
    its passive set P (that column of ``passive``).

    The full set, which most columns of a converging block hold (86% of
    them on D4), is one ``np.linalg.solve`` with C, and the empty set
    gives 0.  The other columns are grouped by the size |P| of their set
    alone: each size gathers its columns' C_PP and b_P into one stack and
    solves it in one batched ``np.linalg.solve``, so a passive solve makes
    at most one solve call per size whether its sets are shared, as at
    rank 5, or nearly all distinct, as at rank 20.  Grouping the columns
    by set as well, to factor or invert each set once, saves time only
    where sets are shared: replayed with one BLAS thread, it cut a D4
    solve's passive solves by about a quarter (some 25 ms of a 0.5 s
    solve) but made D1's and rank-20 D3's slower.
    """
    r = len(c)
    sizes = np.count_nonzero(passive, axis=0)
    full = sizes == r
    if full.all():
        return np.linalg.solve(c, b)
    x = np.zeros_like(b)
    if full.any():
        x[:, full] = np.linalg.solve(c, b[:, full])
    for size in np.unique(sizes[(sizes > 0) & ~full]).tolist():
        cols = np.flatnonzero(sizes == size)
        # row i: the passive rows of column cols[i], in order
        rows = np.nonzero(passive[:, cols].T)[1].reshape(cols.size, size)
        cols = cols[:, None]
        x[rows, cols] = np.linalg.solve(
            c[rows[:, :, None], rows[:, None, :]], b[rows, cols, None])[..., 0]
    return x


def _nnls_bpp(c: np.ndarray, b: np.ndarray,
              x0: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimize 1/2 x^T C x - b^T x over x >= 0 for every column b of
    ``b``, C positive definite, by block principal pivoting with multiple
    right-hand sides (J. Kim and H. Park, SIAM J. Sci. Comput. 33(6),
    2011).

    The passive sets start at x0 > 0.  Each round exchanges, in every
    column that breaks the KKT conditions, the entries that break them:
    a passive x_i < 0, or a zero entry whose gradient y_i = (C x - b)_i
    is below minus its rounding bound (``_BPP_SLACK``).  A column that
    does not reduce its count of such entries within ``_BPP_P_BAR``
    rounds exchanges only its last one until it does.
    Columns that meet the conditions keep their solution.  Returns
    (x, solved); after ``_BPP_MAX_ROUNDS`` rounds, ``solved`` is False and
    x is the last iterate clipped at 0.
    """
    r, k = b.shape
    passive = x0 > 0
    x = _passive_solve(c, b, passive)
    y = c @ x - b
    # a zero gradient that rounds below 0 would cycle its entry in and out
    # of the passive set
    abs_c, abs_b = np.abs(c), np.abs(b)
    unit = _BPP_SLACK * (r + 1) * np.finfo(float).eps
    slack = unit * (abs_c @ np.abs(x) + abs_b)
    best = np.full(k, r + 1)
    alpha = np.full(k, _BPP_P_BAR)
    for _ in range(_BPP_MAX_ROUNDS):
        wrong = np.where(passive, x < 0, y < -slack)
        count = wrong.sum(axis=0)
        todo = np.flatnonzero(count)
        if not todo.size:
            return x, True
        count, flip = count[todo], wrong[:, todo]
        fewer = count < best[todo]
        best[todo[fewer]] = count[fewer]
        alpha[todo[fewer]] = _BPP_P_BAR
        single = ~fewer & (alpha[todo] == 0)
        alpha[todo[~fewer & ~single]] -= 1
        if single.any():
            cols = np.flatnonzero(single)
            last = r - 1 - np.argmax(flip[::-1, cols], axis=0)
            flip[:, cols] = False
            flip[last, cols] = True
        passive[:, todo] ^= flip
        bt = b[:, todo]
        x[:, todo] = xt = _passive_solve(c, bt, passive[:, todo])
        y[:, todo] = c @ xt - bt
        slack[:, todo] = unit * (abs_c @ np.abs(xt) + abs_b[:, todo])
    return np.maximum(x, 0.0), False


def _check_bounded(problem: Problem, q: QuadSubproblem, view: int,
                   h: np.ndarray) -> None:
    """Raise ``DivergenceError`` when the H_I quadratic ``q`` falls without
    bound along a ray h + t e_k v^T, t >= 0, which stays nonnegative.

    v >= 0 is the unit top eigenvector of S_I (``within_top``),
    with ||v|| = 1.  Along the ray q has the curvature
    2 (M_kk + tau) - lambda1 v^T S_I v and, at t = 0, the slope
    <grad q(h), e_k v^T>; when both are negative q falls for every t.  A
    negative curvature alone leaves q unbounded below, but h can still
    sit beside a local minimum of the block, which the engines find.
    """
    m, s, lam1, tau = q.hess_mats
    if s is None:
        return
    v, vsv = within_top(problem, view)
    own = 2.0 * (np.diag(m) + tau)
    network = lam1 * vsv
    k = int(np.argmin(own))
    if own[k] >= network:
        return
    slope = float(q.grad(h)[k] @ v)
    if slope < 0:
        raise DivergenceError(
            f"view {view}'s H block is unbounded below along e_{k} v^T, v "
            f"the top eigenvector of S_{view}: its curvature "
            f"2 (M_kk + tau) ||v||^2 - lambda1 v^T S v = {own[k]:.6g} - "
            f"{network:.6g} is negative at k = {k}, and so is its slope "
            f"{slope:.6g}", unbounded=True)


def _build_quad(problem: Problem, factors: Factorization, target,
                anchor: np.ndarray | None = None,
                xprod: np.ndarray | None = None
                ) -> tuple[QuadSubproblem, np.ndarray]:
    """The quadratic of one block, "w" or a view index, proximal with
    weight ``_TAU`` about a given ``anchor`` (a factor, so W for "w"), and
    the block's current value: H_I, or a row-major copy of W^T, the
    block that W's quadratic is written in (``_as_factor`` turns it
    back).  ``xprod`` is the block's product with the views if the
    caller holds it: sum_I H_I X_I^T (W), W^T X_I (H_I).  An H_I
    quadratic that is unbounded below raises ``DivergenceError``
    (``_check_bounded``)."""
    tau = 0.0 if anchor is None else _TAU
    if target == "w":
        q = w_subproblem(problem, factors.H, tau1=tau, hxt=xprod,
                         anchor=None if anchor is None else anchor.T)
        return q, np.ascontiguousarray(factors.W.T)
    q = h_subproblem(problem, factors.W, factors.H, target, tau2=tau,
                     anchor=anchor, wtx=xprod)
    _check_bounded(problem, q, target, factors.H[target])
    return q, factors.H[target]


def _as_factor(target, x: np.ndarray) -> np.ndarray:
    """The factor of a solved block of ``target``: H_I as it is, W as a
    row-major copy of the transpose of its block W^T."""
    return np.ascontiguousarray(x.T) if target == "w" else x


def panls_subproblem(q: QuadSubproblem, x0: np.ndarray, *,
                     cap: int = _INNER_ITERS, floor: float = _INNER_TOL,
                     rel: float = _INNER_TOL_REL) -> tuple[np.ndarray, bool]:
    """PANLS on one built quadratic; returns (block, search-exhausted
    flag).

    A block without lambda1 S, which is W^T's and H_I's without
    lambda1 S_I, splits into one r-dim nonnegative least-squares problem
    per column, with the matrix 2 (M + tau I), and is solved exactly by
    ``_nnls_bpp``; its rare round cap hands the clipped iterate to
    ``_panls_minimize``.  Without the proximal term that matrix can be
    singular, and the block runs ``_panls_minimize`` from x0.  An H_I
    block with lambda1 S_I couples its columns and runs
    ``_panls_minimize``, the paper's PG and active-set CG phases, to its
    inner stop.
    """
    stop = dict(cap=cap, floor=floor, rel=rel)
    if q.hess_mats[1] is not None:
        return _panls_minimize(q, x0, **stop)
    try:
        x, solved = _nnls_bpp(q.doubled, -q.g0, x0)
    except np.linalg.LinAlgError:  # a singular passive matrix
        x, solved = x0, False
    return (x, False) if solved else _panls_minimize(q, x, **stop)


def _engine_step(q: QuadSubproblem, x0: np.ndarray, alg: Algorithm,
                 rho: float = 0.0, **stop) -> tuple[np.ndarray, bool]:
    """``alg``'s engine on one built quadratic, with the flag of an
    exhausted step-size search; ``rho`` is MUR's (``_mur_rho``), and
    ``stop`` the engine's inner stop when not its default.  The engines
    are looked up by name on each call."""
    if alg is Algorithm.MUR:
        return mur_subproblem(q, x0, rho, **stop)
    return {Algorithm.PG: pg_subproblem, Algorithm.NE: ne_subproblem,
            Algorithm.PANLS: panls_subproblem}[alg](q, x0, **stop)


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
    the flag of an exhausted step-size search.  Every algorithm builds the
    block quadratic once and hands it to its engine (``_engine_step``)."""
    alg, view = config.algorithm, None if target == "w" else target
    # PANLS's quadratic is proximal about the current block; the build
    # reads the anchor before the engine moves a copy of it
    anchor = None if alg is not Algorithm.PANLS else (
        factors.W if view is None else factors.H[view])
    q, x0 = _build_quad(problem, factors, target, anchor, xprod)
    rho = _mur_rho(problem, view) if alg is Algorithm.MUR else 0.0
    x, exhausted = _engine_step(q, x0, alg, rho)
    return _as_factor(target, x), exhausted


def _uncoupled(problem: Problem, config: SolverConfig) -> bool:
    """Whether PANLS solves every H_I block exactly and no H_I block reads
    another: no view reads a network under a positive weight
    (``reads_networks``)."""
    return (config.algorithm is Algorithm.PANLS
            and not reads_networks(problem))


def _check_sweep(problem: Problem, config: SolverConfig, w: np.ndarray,
                 curvature: float) -> None:
    """Raise ``DivergenceError`` when ``curvature`` (``network_curvature``'s
    lambda) proves F unbounded below and the H sweep at this W is not
    certified strongly convex.

    For D >= 0 over all views' columns, the H blocks' Hessian gives
    <D, Hess D> >= c ||D||^2 with c = 2 (lambda_min(W^T W) + gamma2 + tau)
    - lambda_max(B), since (1^T d)^2 >= ||d||^2 for d >= 0; tau is
    PANLS's proximal weight.  lambda is a lower bound on lambda_max(B),
    so the c it gives is at least the certificate's.
    """
    gamma2 = problem.params.gamma2
    if curvature <= 2.0 * gamma2:
        return
    tau = _TAU if config.algorithm is Algorithm.PANLS else 0.0
    lam_min = float(np.linalg.eigvalsh(w.T @ w)[0])
    c = 2.0 * (lam_min + gamma2 + tau) - curvature
    if c <= 0:
        raise DivergenceError(
            f"F has no minimum: its network curvature lambda_max(B) >= "
            f"{curvature:.6g} exceeds 2 gamma2 = {2.0 * gamma2:.6g}, and the "
            f"H sweep at this W is not certified convex: 2 (lambda_min(W^T W)"
            f" + gamma2 + tau) - lambda = {c:.6g} <= 0", unbounded=True)


@dataclass
class _Step:
    """The record of one attempted outer step.  Its ``terms`` give F's
    penalty at any point of the factors' rescale orbit (``orbit_penalty``),
    and the fit and the projected-gradient norm read them too."""

    factors: Factorization
    hxt: np.ndarray  # sum_I H_I X_I^T, which the next W build reads
    terms: tuple  # the factors' ``penalty_terms`` (c, a, G, HB, W^T W)
    f: float  # F after the rescale
    # F before it: the rescale changes only the penalty, so this is F with
    # the penalty at d = 1 / (the rescale's column norms) on the orbit
    f_unscaled: float
    exhausted: int  # block solves whose step-size search ran out
    g: float  # the projected-gradient norm


def _outer_step(problem: Problem, config: SolverConfig, start: Factorization,
                hxt: np.ndarray, curvature: float) -> _Step:
    """One outer step, in place on ``start`` (sum_I H_I X_I^T = ``hxt``):
    W's update, ``_check_sweep``'s refusal of an H sweep that ``curvature``
    leaves uncertified, each H_I's update, the rescale, F and the
    projected-gradient norm, which reads the H builds' W^T X_I.  The
    rescaled factors' ``penalty_terms`` are formed once: F, F before the
    rescale and the norm read them.

    ``_uncoupled`` H_I blocks share M + tau I, so one ``panls_subproblem``
    call solves their quadratics stacked column-wise: the same update as
    one solve per view, up to rounding.  Otherwise H_I's build reads the
    H_J updated before it."""
    start.W, exhausted = _block_step(problem, config, start, "w", hxt)
    _check_sweep(problem, config, start.W, curvature)
    wtx = [start.W.T @ x for x in problem.dataset.views]
    if not _uncoupled(problem, config):
        for i in range(problem.n_views):
            start.H[i], flag = _block_step(problem, config, start, i, wtx[i])
            exhausted += flag
    else:
        quads = [_build_quad(problem, start, i, h, x)[0]
                 for i, (h, x) in enumerate(zip(start.H, wtx))]
        m, _, _, tau = quads[0].hess_mats
        joint = QuadSubproblem((m, None, 0.0, tau),
                               np.hstack([q.g0 for q in quads]))
        x, flag = panls_subproblem(joint, np.hstack(start.H))
        cuts = np.cumsum([h.shape[1] for h in start.H])[:-1]
        start.H = [np.ascontiguousarray(h) for h in np.split(x, cuts, axis=1)]
        exhausted += flag
    norms = _rescale(start.W, start.H)
    for w in wtx:
        w /= norms[:, None]
    terms = penalty_terms(problem, start)
    hxt = view_products(problem.dataset.views, start.H)
    f = objective_value(problem, start, hxt, terms)
    p = problem.params
    unscaled = (f - orbit_penalty(p, terms)
                + orbit_penalty(p, terms, 1.0 / norms))
    return _Step(start, hxt, terms, f, unscaled, exhausted,
                 projected_gradient_norm(problem, start, hxt, wtx, terms))


def _extrapolated(views, factors: Factorization, hxt: np.ndarray,
                  prev: Factorization, prev_hxt: np.ndarray,
                  beta: float) -> tuple[Factorization, np.ndarray]:
    """max(0, X + beta (X - X_prev)) for W and each H_I, the point from
    which an extrapolated outer step starts, and its sum_I H_I X_I^T.

    ``hxt`` and ``prev_hxt`` are that sum for ``factors`` and ``prev``.
    Before the projection, Y_I = H_I + beta (H_I - H_prev,I) has the sum
    (1 + beta) hxt - beta prev_hxt.  The projection adds C_I >= 0 to Y_I,
    and C_I X_I^T reads only the columns of X_I where C_I has an entry,
    which are not few (see ``objective``'s module notes).
    """
    w = np.maximum(factors.W + beta * (factors.W - prev.W), 0.0)
    gram = (1.0 + beta) * hxt - beta * prev_hxt
    hs = []
    for x, h, h_prev in zip(views, factors.H, prev.H):
        y = h + beta * (h - h_prev)
        hs.append(np.maximum(y, 0.0))
        clipped = np.flatnonzero((y < 0.0).any(axis=0))
        if clipped.size:
            gram += (hs[-1][:, clipped] - y[:, clipped]) @ x[:, clipped].T
    return Factorization(w, hs), gram


def solve(problem: Problem, config: SolverConfig,
          init: Factorization) -> tuple[Factorization, SolverReport]:
    """Alternate W and H updates until a stop rule or the iteration cap.

    Each outer iteration keeps the ``_Step`` record of one
    ``_outer_step``: the swept and rescaled factors, their sum H_I X_I^T
    (which the next W build reads) and ``penalty_terms`` (which the
    report's fit reads), F after and before the rescale, the exhausted
    searches and the projected-gradient norm; the W^T X_I that the step
    forms do not outlive it.  PG, Ne and PANLS start each step
    after the first from the extrapolated iterate max(0, X_k + beta (X_k -
    X_k-1)) of the last two kept records (A. Ang and N. Gillis, Neural
    Computation 31(2), 2019), whose sum H_I X_I^T ``_extrapolated`` forms
    from theirs and the views' columns where the projection clipped an
    entry.  The beta rule here
    reads the step's record: beta grows after a step that lowers F and
    shrinks after one that raises it.  A step that raises F is redone
    from the plain iterate unless F before the rescale did not rise; then
    it stays and the next step starts plain.  MUR keeps the plain loop: a
    ratio step cannot revive an entry that the projection zeroed.

    F has no minimum exactly when lambda_max(B) > 2 gamma2, B the matrix
    of its network terms (``network_curvature``, computed once here).
    Three refusals come with that proof and raise ``DivergenceError``
    with ``unbounded`` set: F below 0 at the start or after any outer
    iteration, which a bounded F never is; an H sweep that
    ``_check_sweep`` does not certify convex while lambda > 2 gamma2;
    and an H_I block whose quadratic falls without bound from the
    current H_I when it is built (``_check_bounded``).  A refusal inside
    an extrapolated step raises too, with no redo.
    """
    _check_shapes(problem, init)
    factors = init.copy()
    views = problem.dataset.views
    hxt = view_products(views, factors.H)

    curvature = network_curvature(problem)[0]
    gamma2 = problem.params.gamma2
    terms = penalty_terms(problem, factors)
    f_init = objective_value(problem, factors, hxt, terms)
    # the size of F's rounding: F itself, or the data's ||X||^2 when F
    # starts near 0, as at an exact factorization
    rise_floor = _RISE_TOL * max(abs(f_init), problem.x_squared_norm())

    def check_sign(f: float, where: str, trace: list) -> None:
        if f < -rise_floor:
            raise DivergenceError(
                f"F has no minimum: the objective {f:.6g} is below 0 "
                f"{where}, which it never is when F is bounded below "
                f"(network curvature lambda_max(B) >= {curvature:.6g}, "
                f"2 gamma2 = {2.0 * gamma2:.6g})", trace, unbounded=True)

    check_sign(f_init, "at the start", [])

    trace: list[TracePoint] = []
    termination = Termination.MAX_ITERS
    exhausted = extrapolated = redone = 0
    accelerated = config.algorithm is not Algorithm.MUR
    # the kept record, and the one before it if the next step extrapolates
    curr, prev = _Step(factors, hxt, terms, f_init, f_init, 0,
                       math.nan), None
    beta, beta_bar = _EXTRAP_BETA, _EXTRAP_BETA_BAR
    start = time.perf_counter()
    for it in range(1, config.max_outer_iters + 1):
        # overflow produces inf/nan, caught below as divergence; the
        # intermediate warnings are expected noise on runaway weights
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                step, kept_rise = None, False
                if prev is not None:
                    extrapolated += 1
                    step = _outer_step(problem, config, *_extrapolated(
                        views, curr.factors, curr.hxt, prev.factors, prev.hxt,
                        beta), curvature)
                    exhausted += step.exhausted
                    if step.f <= curr.f:
                        beta = min(beta_bar, _EXTRAP_GROW * beta)
                        beta_bar = min(1.0, _EXTRAP_BAR_GROW * beta_bar)
                    else:
                        beta_bar, beta = beta, beta / _EXTRAP_SHRINK
                        # kept when only the rescale raised F
                        kept_rise = step.f_unscaled <= curr.f
                        if not kept_rise:
                            redone += 1
                            step = None
                if step is None:
                    step = _outer_step(problem, config, Factorization(
                        curr.factors.W, curr.factors.H), curr.hxt, curvature)
                    exhausted += step.exhausted
                refusal = None
            except DivergenceError as err:  # an unbounded H sweep
                refusal = str(err)
            # raised outside the handler, so that the error keeps no
            # context: the block's frames and quadratic are freed
            if refusal is not None:
                raise DivergenceError(f"{refusal} at outer iteration {it}",
                                      trace, unbounded=True)
        for what, finite in (
                ("factor", np.isfinite(step.factors.W).all() and all(
                    np.isfinite(h).all() for h in step.factors.H)),
                ("objective", np.isfinite(step.f)),
                ("projected-gradient norm", np.isfinite(step.g))):
            if not finite:
                raise DivergenceError(
                    f"non-finite {what} at outer iteration {it}", trace)
        check_sign(step.f, f"at outer iteration {it}", trace)
        trace.append(TracePoint(it, step.f, step.g,
                                time.perf_counter() - start))
        reason = _stop_reason(trace, f_init, config)
        # the objective ratio also stops when F is no lower than at the
        # start; above it by more than rounding, the solve has gone astray
        if (reason and config.stop_rule is StopRule.OBJECTIVE_RATIO
                and step.f > f_init + rise_floor):
            raise DivergenceError(
                f"objective {step.f:.6g} above its start {f_init:.6g} "
                f"at outer iteration {it}", trace[:-1])
        # the next step extrapolates from these two, unless this is a kept rise
        prev = curr if accelerated and not kept_rise else None
        curr = step
        if reason is not None:
            termination = reason
            break

    return curr.factors, SolverReport(
        trace=trace, termination=termination,
        final_objective=trace[-1].objective,
        reconstruction_error=_fit(problem, curr.factors, curr.hxt,
                                  curr.terms),
        iterations=trace[-1].iteration, exhausted_searches=exhausted,
        extrapolated_steps=extrapolated, redone_steps=redone,
        network_curvature=curvature, sparsity_curvature=2.0 * gamma2)
