"""Objective value, gradients, Lipschitz constants and Hessian products.

The objective over factors (W, H_1..H_N) is

    F = sum_I ||X_I - W H_I||_F^2
        - lambda1 * sum_I sum_t Tr(H_I Theta_I^(t) H_I^T)
        - lambda2 * sum_(I,J) Tr(H_I R_IJ H_J^T)      (stored pairs only)
        + gamma1 * ||W||_F^2
        + gamma2 * sum_I sum_j ||h_j^I||_1^2

The sparsity term acts through the all-ones r x r operator: under
nonnegativity, sum_j ||h_j||_1^2 = Tr(H^T 1 1^T H).

With all other factors fixed, F is a quadratic in W or in one H_I.
``QuadSubproblem``, built by ``w_subproblem`` and ``h_subproblem``, is the
one place where that block quadratic is written out.  The public gradient,
Hessian quadratic form and Lipschitz functions here, and the multiplicative
updates in ``solvers``, are views of it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Factorization, Problem


def _check_shapes(problem: Problem, factors: Factorization) -> None:
    if factors.W.shape != (problem.m, problem.rank):
        raise ValueError(
            f"W shape {factors.W.shape} != {(problem.m, problem.rank)}")
    if len(factors.H) != problem.n_views:
        raise ValueError("factor view count does not match the problem")
    for i, h in enumerate(factors.H):
        if h.shape != (problem.rank, problem.n[i]):
            raise ValueError(
                f"H[{i}] shape {h.shape} != {(problem.rank, problem.n[i])}")


def reconstruction_error(problem: Problem, factors: Factorization) -> float:
    """sum_I ||X_I - W H_I||_F^2, without any regularizer."""
    _check_shapes(problem, factors)
    total = 0.0
    for x, h in zip(problem.dataset.views, factors.H):
        resid = x - factors.W @ h
        total += float(np.sum(resid * resid))
    return total


def objective_value(problem: Problem, factors: Factorization) -> float:
    _check_shapes(problem, factors)
    p = problem.params
    value = reconstruction_error(problem, factors)
    if p.lambda1:
        for i, h in enumerate(factors.H):
            for theta in problem.constraints.within.get(i, ()):
                value -= p.lambda1 * float(np.trace(h @ theta @ h.T))
    if p.lambda2:
        for (i, j), r_ij in problem.constraints.between.items():
            value -= p.lambda2 * float(
                np.sum((factors.H[i] @ r_ij) * factors.H[j]))
    if p.gamma1:
        value += p.gamma1 * float(np.sum(factors.W * factors.W))
    if p.gamma2:
        for h in factors.H:
            col_l1 = h.sum(axis=0)
            value += p.gamma2 * float(np.sum(col_l1 * col_l1))
    return value


def grad_W(problem: Problem, factors: Factorization) -> np.ndarray:
    """2 sum_I (W H_I H_I^T - X_I H_I^T) + 2 gamma1 W."""
    _check_shapes(problem, factors)
    return w_subproblem(problem, factors.H).grad(factors.W)


def _check_view(problem: Problem, view: int) -> None:
    if not (0 <= view < problem.n_views):
        raise ValueError(f"unknown view index {view}")


def grad_H(problem: Problem, factors: Factorization, view: int) -> np.ndarray:
    _check_shapes(problem, factors)
    _check_view(problem, view)
    q = h_subproblem(problem, factors.W, factors.H, view)
    return q.grad(factors.H[view])


def _projected(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """KKT residual: at the zero bound, positive gradients are projected out."""
    return np.where(x > 0, g, np.minimum(g, 0.0))


def projected_gradient_norm(problem: Problem, factors: Factorization) -> float:
    """Frobenius norm of the projected gradients stacked over W and all H_I."""
    total = float(np.sum(_projected(factors.W, grad_W(problem, factors)) ** 2))
    for i in range(problem.n_views):
        total += float(np.sum(
            _projected(factors.H[i], grad_H(problem, factors, i)) ** 2))
    return float(np.sqrt(total))


def spectral_norm(mat: np.ndarray, tol: float = 1e-8,
                  max_iter: int = 1000) -> float:
    """Largest absolute eigenvalue of a symmetric matrix by power iteration."""
    n = mat.shape[0]
    if n == 0:
        return 0.0
    v = np.ones(n) + 1e-3 * np.arange(n)  # deterministic, not an eigvector
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = mat @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v_new = w / norm
        lam_new = float(abs(v_new @ (mat @ v_new)))
        if abs(lam_new - lam) <= tol * max(1.0, lam_new):
            return lam_new
        v, lam = v_new, lam_new
    return lam


def lipschitz_W(problem: Problem, factors: Factorization) -> float:
    """2 ||sum_I H_I H_I^T + gamma1 I||_2 on the r x r matrix."""
    return w_subproblem(problem, factors.H).lipschitz()


def lipschitz_H(problem: Problem, factors: Factorization, view: int) -> float:
    """2 ||W^T W + gamma2 * ones||_2 + lambda1 ||sum_t Theta + Theta^T||_2."""
    return h_subproblem(problem, factors.W, factors.H, view).lipschitz()


def _quadratic_form(q: QuadSubproblem, direction: np.ndarray,
                    expected: tuple) -> float:
    d = np.asarray(direction, dtype=float)
    if d.shape != expected:
        raise ValueError(f"direction shape {d.shape} != {expected}")
    return float(np.sum(d * q.hess_apply(d)))


def hessian_quadratic_form_W(problem: Problem, factors: Factorization,
                             direction: np.ndarray,
                             extra_prox: float = 0.0) -> float:
    """vec(D)^T Q_W vec(D) = 2 Tr(D (sum_I H_I H_I^T + (g1+tau1) I) D^T)."""
    q = w_subproblem(problem, factors.H, tau1=extra_prox)
    return _quadratic_form(q, direction, factors.W.shape)


def hessian_quadratic_form_H(problem: Problem, factors: Factorization,
                             view: int, direction: np.ndarray,
                             extra_prox: float = 0.0) -> float:
    """Quadratic form of the H_I subproblem Hessian along D.

    Follows the gradient's all-ones sparsity operator:
    2 Tr(D^T (W^T W + gamma2 * ones) D) - lambda1 Tr(D S D^T) + 2 tau ||D||^2
    with S the summed symmetrized within-constraints.
    """
    _check_view(problem, view)
    q = h_subproblem(problem, factors.W, factors.H, view, tau2=extra_prox)
    return _quadratic_form(q, direction, (problem.rank, problem.n[view]))


def _lambda_max(mat: np.ndarray) -> float:
    """Largest eigenvalue of a small symmetric matrix."""
    return float(np.linalg.eigvalsh(mat)[-1])


def _within_norm(problem: Problem, view: int) -> float:
    """||S_I||_2 of the view's summed within-constraints, computed once."""
    if view not in problem._within_norm:
        problem._within_norm[view] = spectral_norm(problem.within_sym(view))
    return problem._within_norm[view]


@dataclass
class QuadSubproblem:
    """One factor's subproblem as an explicit quadratic.

    grad(X) = hess_apply(X) + g0; value(X) omits the additive constant, so it
    is only meaningful for comparisons within one subproblem.

    ``hess_mats`` holds the Hessian operator.  For kind "w" it is ``(A,)``
    with A = sum_I H_I H_I^T + (gamma1 + tau1) I, applied as D -> 2 D A.
    For kind "h" it is ``(M, S, lambda1, tau2)`` with
    M = W^T W + gamma2 * ones and S the view's summed symmetrized
    within-constraints (or None), applied as
    D -> 2 M D - lambda1 D S + 2 tau2 D.

    ``lipschitz()`` is computed on request: 2 lambda_max of the r x r
    matrix (plus 2 tau2 and lambda1 ||S||_2 for kind "h").  ``s_norm``
    supplies ||S||_2, which the builder caches per problem and view.
    """

    hess_mats: tuple
    g0: np.ndarray
    kind: str  # "w" or "h"
    s_norm: Callable[[], float] | None = None

    def hess_apply(self, d: np.ndarray) -> np.ndarray:
        if self.kind == "w":
            (a,) = self.hess_mats
            return 2.0 * (d @ a)
        m, s, lam1, tau = self.hess_mats
        out = 2.0 * (m @ d)
        if s is not None and lam1:
            out -= lam1 * (d @ s)
        if tau:
            out += 2.0 * tau * d
        return out

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.hess_apply(x) + self.g0

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(np.sum(x * self.hess_apply(x))) + float(
            np.sum(self.g0 * x))

    def lipschitz(self) -> float:
        if self.kind == "w":
            (a,) = self.hess_mats
            return 2.0 * _lambda_max(a)
        m, s, lam1, tau = self.hess_mats
        lip = 2.0 * (_lambda_max(m) + tau)
        if s is not None and lam1:
            lip += lam1 * self.s_norm()
        return lip


def w_subproblem(problem: Problem, H: list[np.ndarray],
                 tau1: float = 0.0, anchor: np.ndarray | None = None,
                 views: list[np.ndarray] | None = None) -> QuadSubproblem:
    """Quadratic model of the W update (optionally with a proximal anchor)."""
    xs = problem.dataset.views if views is None else views
    r = H[0].shape[0]
    a = (problem.params.gamma1 + tau1) * np.eye(r)
    b = None
    for x, h in zip(xs, H):
        a += h @ h.T
        bt = x @ h.T
        b = bt if b is None else b + bt
    g0 = -2.0 * b
    if tau1 and anchor is not None:
        g0 = g0 - 2.0 * tau1 * anchor
    return QuadSubproblem((a,), g0, "w")


def h_subproblem(problem: Problem, W: np.ndarray, H: list[np.ndarray],
                 view: int, tau2: float = 0.0,
                 anchor: np.ndarray | None = None,
                 x_view: np.ndarray | None = None) -> QuadSubproblem:
    """Quadratic model of one view's H update with the other factors fixed."""
    p = problem.params
    r = W.shape[1]
    x = problem.dataset.views[view] if x_view is None else x_view
    m = W.T @ W + p.gamma2 * np.ones((r, r))
    g0 = -2.0 * (W.T @ x)
    if p.lambda2:
        # C = sum over partner views J of H_J @ M_J (r x n_I)
        c = np.zeros((r, x.shape[1]))
        for j, mat in problem.between_partners(view):
            c += H[j] @ mat
        g0 -= p.lambda2 * c
    if tau2 and anchor is not None:
        g0 -= 2.0 * tau2 * anchor
    return QuadSubproblem((m, problem.within_sym(view), p.lambda1, tau2), g0,
                          "h", functools.partial(_within_norm, problem, view))
