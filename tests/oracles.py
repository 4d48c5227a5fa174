"""Independent brute-force reference implementations used by the tests.

Everything here is written with naive loops or dense materialization,
deliberately avoiding the library's own vectorized code paths.
"""
import itertools
from types import SimpleNamespace

import numpy as np

import jmf.solvers
from jmf import (Algorithm, ConstraintSet, DivergenceError, Factorization,
                 Hyperparameters, MultiViewDataset, StopRule,
                 Termination, TracePoint, new_problem)
from jmf.objective import QuadSubproblem


def make_problem(seed=0, m=6, n=(4, 5, 3), r=2, lambda1=0.0, lambda2=0.0,
                 gamma1=0.0, gamma2=0.0, with_constraints=True):
    """Random dense problem with one within-constraint per view and one
    between-constraint per ordered pair (i, j), i < j."""
    rng = np.random.default_rng(seed)
    views = [rng.random((m, ni)) for ni in n]
    within = {}
    between = {}
    if with_constraints:
        within = {i: [rng.random((ni, ni))] for i, ni in enumerate(n)}
        between = {(i, j): rng.random((n[i], n[j]))
                   for i in range(len(n)) for j in range(i + 1, len(n))}
    params = Hyperparameters(rank=r, lambda1=lambda1, lambda2=lambda2,
                             gamma1=gamma1, gamma2=gamma2)
    return new_problem(MultiViewDataset(views),
                       ConstraintSet(within=within, between=between), params)


def random_factors(problem, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.random((problem.m, problem.rank))
    hs = [rng.random((problem.rank, ni)) for ni in problem.n]
    return Factorization(w, hs)


def naive_objective(problem, factors):
    """Loop-based evaluation of every objective term."""
    p = problem.params
    w, hs = factors.W, factors.H
    m, r = w.shape
    total = 0.0
    for x, h in zip(problem.dataset.views, hs):
        for i in range(m):
            for j in range(x.shape[1]):
                pred = sum(w[i, k] * h[k, j] for k in range(r))
                total += (x[i, j] - pred) ** 2
    for i, thetas in problem.constraints.within.items():
        h = hs[i]
        for theta in thetas:
            acc = 0.0
            for k in range(r):
                for s in range(theta.shape[0]):
                    for t in range(theta.shape[1]):
                        acc += h[k, s] * theta[s, t] * h[k, t]
            total -= p.lambda1 * acc
    for (i, j), r_ij in problem.constraints.between.items():
        hi, hj = hs[i], hs[j]
        acc = 0.0
        for k in range(r):
            for s in range(r_ij.shape[0]):
                for t in range(r_ij.shape[1]):
                    acc += hi[k, s] * r_ij[s, t] * hj[k, t]
        total -= p.lambda2 * acc
    total += p.gamma1 * float(np.sum(w * w))
    for h in hs:
        for j in range(h.shape[1]):
            total += p.gamma2 * float(np.sum(h[:, j])) ** 2
    return total


def naive_mur_W(problem, factors, eps=1e-12):
    """Loop-based multiplicative W update: W * num / max(den, eps).

    num = sum_I X_I H_I^T and den = W (sum_I H_I H_I^T) + gamma1 W, the
    negative and positive parts of half the W gradient.
    """
    p = problem.params
    w, hs = factors.W, factors.H
    m, r = w.shape
    out = np.zeros_like(w)
    for i in range(m):
        for k in range(r):
            num = 0.0
            den = p.gamma1 * w[i, k]
            for x, h in zip(problem.dataset.views, hs):
                for j in range(x.shape[1]):
                    num += x[i, j] * h[k, j]
                    for l in range(r):
                        den += w[i, l] * h[l, j] * h[k, j]
            out[i, k] = w[i, k] * num / max(den, eps)
    return out


def naive_mur_H(problem, factors, view, eps=1e-12):
    """Loop-based multiplicative update of H_view: H * num / max(den, eps).

    num = W^T X + (lambda1 / 2) H sum_t (Theta_t + Theta_t^T)
          + (lambda2 / 2) sum of the partner terms of every stored R pair;
    den = W^T W H + gamma2 1 1^T H.
    """
    p = problem.params
    w, hs = factors.W, factors.H
    h = hs[view]
    x = problem.dataset.views[view]
    m, r = w.shape
    n = h.shape[1]
    out = np.zeros_like(h)
    for k in range(r):
        for j in range(n):
            num = sum(w[i, k] * x[i, j] for i in range(m))
            for theta in problem.constraints.within.get(view, ()):
                for s in range(n):
                    num += 0.5 * p.lambda1 * h[k, s] * (theta[s, j]
                                                        + theta[j, s])
            for (a, b), r_ab in problem.constraints.between.items():
                if a == view:  # Tr(H_view R H_b^T): partner H_b R^T
                    for s in range(r_ab.shape[1]):
                        num += 0.5 * p.lambda2 * hs[b][k, s] * r_ab[j, s]
                if b == view:  # Tr(H_a R H_view^T): partner H_a R
                    for s in range(r_ab.shape[0]):
                        num += 0.5 * p.lambda2 * hs[a][k, s] * r_ab[s, j]
            den = 0.0
            for l in range(r):
                den += sum(w[i, k] * w[i, l] for i in range(m)) * h[l, j]
                den += p.gamma2 * h[l, j]
            out[k, j] = h[k, j] * num / max(den, eps)
    return out


def brute_auc(scores, labels):
    """Pairwise positive-vs-negative counting with half credit for ties."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel()
    pos = s[y == 1]
    neg = s[y != 1]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def dense_hessian_W(hs, gamma1, tau1, m):
    """Explicit Kronecker Hessian of the W quadratic in the column-major
    vec of the m x r W, which is the row-major vec of W's block W^T."""
    r = hs[0].shape[0]
    a = sum(h @ h.T for h in hs) + (gamma1 + tau1) * np.eye(r)
    return np.kron(2.0 * a, np.eye(m))


def dense_hessian_H(w, s_sym, lambda1, gamma2, tau2, n):
    """Explicit Kronecker Hessian of one H quadratic (column-major vec)."""
    r = w.shape[1]
    m_mat = w.T @ w + gamma2 * np.ones((r, r))
    q = np.kron(np.eye(n), 2.0 * m_mat) + 2.0 * tau2 * np.eye(n * r)
    if s_sym is not None and lambda1:
        q = q - lambda1 * np.kron(s_sym.T, np.eye(r))
    return q


def quad_value(q: QuadSubproblem, x: np.ndarray) -> float:
    """The block quadratic's value at ``x`` without its additive constant,
    so only meaningful for comparisons within one subproblem."""
    return 0.5 * float(np.vdot(x, q.hess_apply(x))) + float(
        np.vdot(q.g0, x))


def quad_form(q_dense, d):
    v = d.ravel(order="F")
    return float(v @ q_dense @ v)


def finite_diff_grad(f, x, step=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        fp = f()
        x[idx] = orig - step
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * step)
        it.iternext()
    return g


def ref_greedy_matching(corr):
    """Greedy matching by loops over the free rows and columns: the largest
    correlation left, the first found in row-major order on ties."""
    r = corr.shape[0]
    perm = np.full(r, -1, dtype=int)
    free_rows, free_cols = set(range(r)), set(range(r))
    for _ in range(r):
        best = None
        for i in sorted(free_rows):
            for j in sorted(free_cols):
                if best is None or corr[i, j] > corr[best]:
                    best = (i, j)
        perm[best[0]] = best[1]
        free_rows.discard(best[0])
        free_cols.discard(best[1])
    return perm


def ref_modules(hs, threshold):
    """Per view and row, the columns whose within-row z-score exceeds
    ``threshold``, row by row; a constant row has none."""
    modules = []
    for h in hs:
        rows = []
        for row in h:
            std = row.std()
            rows.append([] if std == 0 else
                        [j for j, v in enumerate(row)
                         if (v - row.mean()) / std > threshold])
        modules.append(rows)
    return modules


def best_matching_score(corr):
    """Exhaustive assignment: max total correlation over all permutations."""
    r = corr.shape[0]
    best = -np.inf
    for perm in itertools.permutations(range(r)):
        best = max(best, sum(corr[i, perm[i]] for i in range(r)))
    return best


# ---------------------------------------------------------------------------
# the projected inner engines (PG, Ne, PANLS) as they were before each step
# was cut to one Hessian product: every step recomputes the gradient with
# q.grad, the projection uses np.where, and sums allocate temporaries.
# Kept verbatim, renamed, as the reference the current engines must match,
# except that PG and PANLS also return the flag of an exhausted search.
# They read their settings from the namespace ``ref_settings`` builds.

def ref_settings(cap: int, floor: float, rel: float) -> SimpleNamespace:
    """The inner stop the engines take in keywords (at most ``cap`` steps,
    ending at a projected-gradient norm of max(``floor``, ``rel`` times
    the start's)) plus the algorithm constants, read from ``jmf.solvers``
    at call time so that a monkeypatched constant reaches the engine and
    its reference alike.  ``alpha0`` is the Armijo first step, ``t0``
    Ne's."""
    s = jmf.solvers
    return SimpleNamespace(
        cap=cap, floor=floor, rel=rel, sigma=s._SIGMA, beta=s._BETA,
        alpha0=s._ALPHA0, t0=s._NE_T0,
        max_backtracks=s._MAX_BACKTRACKS, eta=s._ETA, rho=s._RHO,
        panls_alpha=s._PANLS_ALPHA, panls_beta=s._PANLS_BETA, n1=s._N1,
        n2=s._N2)


def ref_projected(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """KKT residual: positive gradients at the zero bound are projected out."""
    return np.where(x > 0, g, np.minimum(g, 0.0))


def ref_pgn(x: np.ndarray, g: np.ndarray) -> float:
    return float(np.linalg.norm(ref_projected(x, g)))


def ref_inner_tol(config: SimpleNamespace, pn0: float) -> float:
    return max(config.floor, config.rel * pn0)


def ref_armijo_step(q: QuadSubproblem, x: np.ndarray, g: np.ndarray,
                    config: SimpleNamespace) -> tuple[np.ndarray, bool]:
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


def ref_pg_minimize(q: QuadSubproblem, x0: np.ndarray,
                    config: SimpleNamespace) -> tuple[np.ndarray, bool]:
    x = x0.copy()
    g = q.grad(x)
    pn = ref_pgn(x, g)
    tol = ref_inner_tol(config, pn)
    for _ in range(config.cap):
        if pn <= tol:
            break
        x, exhausted = ref_armijo_step(q, x, g, config)
        if exhausted:
            return x, True
        g = q.grad(x)
        pn = ref_pgn(x, g)
    return x, False


def ref_ne_minimize(q: QuadSubproblem, x0: np.ndarray,
                    config: SimpleNamespace) -> np.ndarray:
    lip = q.lipschitz()
    if lip <= 0:
        return x0.copy()
    x = x0.copy()
    pn = ref_pgn(x, q.grad(x))
    tol = ref_inner_tol(config, pn)
    if pn <= tol:
        return x
    y = x.copy()
    alpha = config.t0
    for _ in range(config.cap):
        xn = np.maximum(y - q.grad(y) / lip, 0.0)
        alpha_next = 0.5 * (1.0 + np.sqrt(4.0 * alpha * alpha + 1.0))
        y = xn + ((alpha - 1.0) / alpha_next) * (xn - x)
        x, alpha = xn, alpha_next
        pn = ref_pgn(x, q.grad(x))
        if pn <= tol:
            break
    return x


def ref_panls_minimize(q: QuadSubproblem, x0: np.ndarray,
                       config: SimpleNamespace) -> tuple[np.ndarray, bool]:
    """PG steps alternating with conjugate gradients on the inactive set.

    Returns (iterate, search-exhausted flag); an exhausted search in the
    PG phase or in a CG breakdown's PG step ends the minimization."""
    x = x0.copy()
    g = q.grad(x)
    pn = ref_pgn(x, g)
    tol = ref_inner_tol(config, pn)
    eta = config.eta
    k = 0
    cap = config.cap
    while pn > tol and k < cap:
        # constrained PG phase
        rounds_without_progress = 0
        while pn > tol and k < cap:
            x, exhausted = ref_armijo_step(q, x, g, config)
            k += 1
            g = q.grad(x)
            pn = ref_pgn(x, g)
            if exhausted:
                return x, True
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
                x, exhausted = ref_armijo_step(q, x, g, config)
                if exhausted:
                    return x, True
                k += 1
                g = q.grad(x)
                pn = ref_pgn(x, g)
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
                pn = ref_pgn(x, g)
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
            pn = ref_pgn(x, g)
            interior = float(np.linalg.norm(g * mask))
            if interior < eta * pn:
                break  # return to the PG phase
            resid_new = -(g * mask)
            rr_new = float(np.sum(resid_new * resid_new))
            direction = resid_new + (rr_new / rr) * direction
            resid, rr = resid_new, rr_new
    return x, False


# ---------------------------------------------------------------------------
# nonnegative least squares by enumeration of the passive sets

def ref_nnls(c: np.ndarray, b: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """The minimizer of 1/2 x^T C x - b^T x over x >= 0, C positive
    definite, for one vector b: the one KKT point among all 2^r passive
    sets.

    A passive set P gives x_P = C_PP^-1 b_P and x = 0 off P.  It is the
    KKT point when x_P >= 0 and the gradient y = C x - b is >= 0 off P,
    both up to ``rtol`` times the size of the terms that form them.
    Every passive set that passes must give the same point.
    """
    r = len(b)
    points = []
    for bits in itertools.product((False, True), repeat=r):
        p = [i for i in range(r) if bits[i]]
        x = np.zeros(r)
        if p:
            x[p] = np.linalg.solve(c[np.ix_(p, p)], b[p])
        y = c @ x - b
        size = np.abs(c) @ np.abs(x) + np.abs(b)
        if (all(x[i] >= -rtol * np.abs(x).max() for i in p)
                and all(y[i] >= -rtol * size[i]
                        for i in range(r) if i not in p)):
            points.append(x)
    assert points, "no passive set meets the KKT conditions"
    for x in points[1:]:
        np.testing.assert_allclose(x, points[0], rtol=1e-6,
                                   atol=1e-9 * np.abs(points[0]).max())
    return points[0]


def no_rescale(monkeypatch) -> None:
    """Make ``jmf.solvers._rescale`` leave the factors as they are, so an
    outer step keeps what the engines returned."""
    monkeypatch.setattr(jmf.solvers, "_rescale",
                        lambda w, hs: np.ones(w.shape[1]))


# ---------------------------------------------------------------------------
# the alternating outer loop written out in one function: the block sweep,
# the extrapolated start, the beta rule, redo or keep, the rescale and its
# bookkeeping, the refusals and the stop rules.  It reaches the library
# only for the block steps and engines, ``_check_sweep``,
# ``_extrapolated``, the products with the views and with B
# (``network_product``), F and the projected gradient, all read from
# ``jmf.solvers`` at call time with its constants.  F's penalty before and
# after the rescale is written out here.

def ref_sweep(problem, config, fac, hxt, curvature):
    """W's update from ``hxt``, the sweep certificate, then every H_I,
    in place on ``fac``: one stacked PANLS solve when no H_I block reads
    another, else view by view.  Returns W^T X_I and the exhausted
    searches."""
    s = jmf.solvers
    fac.W, exhausted = s._block_step(problem, config, fac, "w", hxt)
    s._check_sweep(problem, config, fac.W, curvature)
    wtx = [fac.W.T @ x for x in problem.dataset.views]
    p, cons = problem.params, problem.constraints
    # a block reads a network when lambda1 > 0 and its view has a within
    # network, or lambda2 > 0 and any between network is stored
    coupled = (p.lambda1 and any(cons.within_sym(i) is not None
                                 for i in range(problem.n_views))
               ) or (p.lambda2 and bool(cons.between))
    if config.algorithm is not Algorithm.PANLS or coupled:
        for i in range(problem.n_views):
            fac.H[i], flag = s._block_step(problem, config, fac, i, wtx[i])
            exhausted += flag
        return wtx, exhausted
    quads = [s._build_quad(problem, fac, i, h, x)[0]
             for i, (h, x) in enumerate(zip(fac.H, wtx))]
    m, _, _, tau = quads[0].hess_mats
    joint = QuadSubproblem((m, None, 0.0, tau),
                           np.hstack([q.g0 for q in quads]))
    x, flag = s.panls_subproblem(joint, np.hstack(fac.H))
    cuts = np.cumsum([h.shape[1] for h in fac.H])[:-1]
    fac.H = [np.ascontiguousarray(h) for h in np.split(x, cuts, axis=1)]
    return wtx, exhausted + flag


def written_sparsity(problem, fac):
    """F's sparsity terms, gamma1 ||W||^2 + gamma2 sum_I sum_j
    ||h_j^I||_1^2, summed from the factors."""
    p = problem.params
    return p.gamma1 * float(np.sum(fac.W * fac.W)) + p.gamma2 * sum(
        float(np.sum(h.sum(axis=0) ** 2)) for h in fac.H)


def ref_solve(problem, config, init):
    """``solve``'s outer loop; returns the factors and a namespace with the
    trace's F values, the termination and the step counts.

    PG, Ne and PANLS start each step after the first from the extrapolated
    iterate.  A step that lowers F is kept and grows beta; one that raises
    it shrinks beta, and is redone from the plain iterate unless F before
    the rescale did not rise, in which case it is kept and the next step
    starts plain.
    """
    s = jmf.solvers
    views = problem.dataset.views
    fac = init.copy()
    hxt = s.view_products(views, fac.H)
    curvature = s.network_curvature(problem)[0]
    gamma2 = problem.params.gamma2
    f_init = s.objective_value(problem, fac, hxt)
    floor = s._RISE_TOL * max(abs(f_init), problem.x_squared_norm())

    def refuse_below_0(f, where, trace):
        if f < -floor:
            raise DivergenceError(
                f"F has no minimum: the objective {f:.6g} is below 0 "
                f"{where}, which it never is when F is bounded below "
                f"(network curvature lambda_max(B) >= {curvature:.6g}, "
                f"2 gamma2 = {2.0 * gamma2:.6g})", trace, unbounded=True)

    def attempt(start, start_hxt, it, trace):
        """One sweep, the rescale and F, with F before the rescale and
        whether the swept factors were finite before it."""
        try:
            wtx, exhausted = ref_sweep(problem, config, start, start_hxt,
                                       curvature)
        except DivergenceError as err:
            message = str(err)
        else:
            sparsity = written_sparsity(problem, start)
            finite = (np.isfinite(start.W).all()
                      and all(np.isfinite(h).all() for h in start.H))
            norms = np.linalg.norm(start.W, axis=0)
            norms[norms == 0] = 1.0
            start.W /= norms
            for h in start.H:
                h *= norms[:, None]
            for w in wtx:
                w /= norms[:, None]
            new_hxt = s.view_products(views, start.H)
            f = s.objective_value(problem, start, new_hxt)
            # the penalty after the rescale and before it: the sparsity
            # terms taken at each, and the network terms, row k's share
            # a_k of -1/2 <H, H B>, before it divided by the n_k^2 that
            # the rescale put in
            a = sum(np.einsum("ij,ij->i", h, hb) for h, hb in zip(
                start.H, jmf.objective.network_product(problem, start.H)))
            after = written_sparsity(problem, start) - 0.5 * float(np.sum(a))
            before = sparsity - 0.5 * float(np.sum(a / (norms * norms)))
            return SimpleNamespace(
                fac=start, hxt=new_hxt, wtx=wtx, f=f,
                f_unscaled=f - after + before,
                exhausted=exhausted, finite=finite)
        raise DivergenceError(f"{message} at outer iteration {it}", trace,
                              unbounded=True)

    refuse_below_0(f_init, "at the start", [])
    trace, objectives = [], []
    termination = Termination.MAX_ITERS
    window, g_first = [], None
    f_prev, prev = f_init, None
    exhausted = extrapolated = redone = 0
    beta, beta_bar = s._EXTRAP_BETA, s._EXTRAP_BETA_BAR
    for it in range(1, config.max_outer_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            step, kept_rise = None, False
            if prev is not None and config.algorithm is not Algorithm.MUR:
                extrapolated += 1
                step = attempt(*s._extrapolated(views, fac, hxt, *prev,
                                                beta), it, trace)
                exhausted += step.exhausted
                if step.f <= f_prev:
                    beta = min(beta_bar, s._EXTRAP_GROW * beta)
                    beta_bar = min(1.0, s._EXTRAP_BAR_GROW * beta_bar)
                else:
                    beta_bar, beta = beta, beta / s._EXTRAP_SHRINK
                    kept_rise = step.f_unscaled <= f_prev
                    if not kept_rise:
                        redone += 1
                        step = None
            if step is None:
                step = attempt(Factorization(fac.W, fac.H), hxt, it, trace)
                exhausted += step.exhausted
                if not step.finite:
                    raise DivergenceError(
                        f"non-finite factor at outer iteration {it}", trace)
            f = step.f
            g = s.projected_gradient_norm(problem, step.fac, step.hxt,
                                          step.wtx)
        if not np.isfinite(f):
            raise DivergenceError(
                f"non-finite objective at outer iteration {it}", trace)
        if not np.isfinite(g):
            raise DivergenceError(
                f"non-finite projected-gradient norm at outer iteration {it}",
                trace)
        refuse_below_0(f, f"at outer iteration {it}", trace)
        prev = None if kept_rise else (fac, hxt)
        fac, hxt = step.fac, step.hxt
        reason = None
        if config.stop_rule is StopRule.OBJECTIVE_RATIO:
            denom, progress = f_init - f, f_prev - f
            if denom <= 0 or (progress >= 0
                              and progress / denom <= config.tolerance):
                reason = Termination.TOLERANCE_MET
                if f > f_init + floor:
                    raise DivergenceError(
                        f"objective {f:.6g} above its start {f_init:.6g} "
                        f"at outer iteration {it}", trace)
        else:
            g_first = g if g_first is None else g_first
            window = (window + [g])[-10:]
            if g <= config.tolerance * g_first:
                reason = Termination.TOLERANCE_MET
            elif len(window) == 10 and abs(window[-1] - window[0]) <= (
                    1e-3 * config.tolerance * g_first):
                reason = Termination.SLOW_GRADIENT_CHANGE
        trace.append(TracePoint(it, f, g, 0.0))
        objectives.append(f)
        if reason is not None:
            termination = reason
            break
        f_prev = f
    return fac, SimpleNamespace(
        objectives=objectives, termination=termination,
        iterations=len(trace), exhausted_searches=exhausted,
        extrapolated_steps=extrapolated, redone_steps=redone)
