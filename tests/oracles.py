"""Independent brute-force reference implementations used by the tests.

Everything here is written with naive loops or dense materialization,
deliberately avoiding the library's own vectorized code paths.
"""
import itertools

import numpy as np

from jmf import (ConstraintSet, Factorization, Hyperparameters,
                 MultiViewDataset, new_problem)


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
    """Explicit Kronecker Hessian of the W quadratic (column-major vec)."""
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


def best_matching_score(corr):
    """Exhaustive assignment: max total correlation over all permutations."""
    r = corr.shape[0]
    best = -np.inf
    for perm in itertools.permutations(range(r)):
        best = max(best, sum(corr[i, perm[i]] for i in range(r)))
    return best
