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
one place where that block quadratic is written out, in one form for
both: W's quadratic is written in W^T, an r x m block like H_I's r x n_I.
The gradients, Lipschitz constants and multiplicative updates in
``solvers`` read it.

The only products with the views X_I that F and the block quadratics need
are hxt = sum_I H_I X_I^T (the W^T quadratic's linear term) and wtx[I] =
W^T X_I (the H_I quadratic's), which ``objective_value`` and
``projected_gradient_norm`` take as arrays (None: form them here).  A
solve forms them once per outer step and reads F, the projected gradient
and the next W build from them: 2 N products with the views per
iteration, and only hxt outlives the step.  A step redone from the plain
iterate forms 2 N more.  A step started from an extrapolated iterate
forms no full product more: its W build reads sum_I H_I X_I^T from the
records of the two plain iterates before it and
a product with the columns of each X_I where the projection clipped an
entry.  Those are not few: on D3 a median 18% (mean 26%) of the columns
are clipped, and that product takes about 0.16 s of a 1.37 s solve.
F's fit term comes from the trace identity

    sum_I ||X_I - W H_I||^2 = ||X||^2 - 2 <W^T, hxt> + <W^T W, sum_I H_I H_I^T>

(Kim, He & Park, J. Global Optim. 2014), which needs no m x n_I residual.
Its terms cancel, leaving a rounding error of a few eps ||X||^2, so the
fit's relative error grows as the fit shrinks: about 1e-12 at
``FIT_FLOOR`` ||X||^2 and 1e-9 at 1e-7 ||X||^2.  Below ``FIT_FLOOR``
||X||^2 the fit is therefore summed from the residuals themselves, which
keeps small fits (and the objective-ratio rule's differences of them)
accurate and an exact factorization at 0.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from .model import Factorization, Problem

# fits below this share of ||X||^2 are summed from the residual (see above)
FIT_FLOOR = 1e-4
# ``network_curvature``'s stop: a relative move of its quotient; on D1's
# networks at lambda1 in {1e-3, 1e-2, 0.1} and the CLI grid's lambda2 it
# takes 11-24 iterations and 1-5 ms, and its quotient comes within 4e-4
# relative of lambda_max(B) (dense eigvalsh: about 25 ms)
_CURVATURE_TOL = 1e-4
_NORM_TOL = 1e-8  # ``spectral_norm``'s and ``within_top``'s stop
_POWER_MAX_ITER = 1000


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


def view_products(views: Sequence[np.ndarray],
                  H: Sequence[np.ndarray]) -> np.ndarray:
    """sum_I H_I X_I^T over the given views, r x m, the linear term of the
    W^T quadratic: for a row-major X_I, BLAS forms H_I X_I^T 8-28% faster
    than X_I H_I^T (OpenBLAS, at the benchmark workloads' shapes)."""
    return sum(h @ x.T for x, h in zip(views, H))


def objective_value(problem: Problem, factors: Factorization,
                    hxt: np.ndarray | None = None,
                    penalty: float | None = None) -> float:
    """F at ``factors``; ``hxt`` is sum_I H_I X_I^T and ``penalty`` F's
    ``penalty_value``, each formed here when None."""
    _check_shapes(problem, factors)
    if hxt is None:
        hxt = view_products(problem.dataset.views, factors.H)
    if penalty is None:
        penalty = penalty_value(problem, factors)
    return _fit(problem, factors, hxt) + penalty


def _fit(problem: Problem, factors: Factorization, hxt: np.ndarray) -> float:
    """sum_I ||X_I - W H_I||_F^2 from the trace identity and hxt =
    sum_I H_I X_I^T, or from the residuals below ``FIT_FLOOR`` ||X||^2."""
    w = factors.W
    x_sq = problem.x_squared_norm()
    value = x_sq - 2.0 * float(np.vdot(w.T, hxt)) + float(
        np.vdot(w.T @ w, sum(h @ h.T for h in factors.H)))
    if not value >= FIT_FLOOR * x_sq:  # also catches a NaN identity
        value = reconstruction_error(problem, factors)
    return value


def penalty_value(problem: Problem, factors: Factorization) -> float:
    """F's network and sparsity terms, everything but the fit: the part of
    F that a product-preserving rescale of the factors can change.  The
    network terms are -1/2 <H, H B> (``network_product``)."""
    p = problem.params
    value = -0.5 * sum(float(np.vdot(h, hb)) for h, hb in zip(
        factors.H, network_product(problem, factors.H)))
    if p.gamma1:
        value += p.gamma1 * float(np.sum(factors.W * factors.W))
    if p.gamma2:
        for h in factors.H:
            col_l1 = h.sum(axis=0)
            value += p.gamma2 * float(np.sum(col_l1 * col_l1))
    return value


def networks(problem: Problem, view: int
             ) -> tuple[np.ndarray | None, list[tuple[int, np.ndarray]]]:
    """The networks that view I's terms read under positive weights:
    lambda1's S_I, the summed symmetrized within-networks (None when
    lambda1 = 0 or the view has none), and lambda2's pairs (J, M), M
    n_J x n_I, so that H_J M enters view I's terms: a stored R_IJ enters
    as R_IJ^T and a stored R_JI as itself (none when lambda2 = 0)."""
    p, cons = problem.params, problem.constraints
    s = cons.within_sym(view) if p.lambda1 else None
    pairs = []
    if p.lambda2:
        for (i, j), r in cons.between.items():
            if i == view:
                pairs.append((j, r.T))
            elif j == view:
                pairs.append((i, r))
    return s, pairs


def network_product(problem: Problem,
                    H: Sequence[np.ndarray]) -> list[np.ndarray]:
    """(H B)_I for each view I, H = [H_1 ... H_N] blocks with any common
    number of rows and B the matrix of F's network terms: lambda1 H_I S_I
    plus lambda2 H_J M for each of ``networks``' pairs (J, M).  This is
    the one place where B is written out (see ``network_curvature``)."""
    p = problem.params
    out = []
    for i, h in enumerate(H):
        s, pairs = networks(problem, i)
        hb = np.zeros_like(h) if s is None else p.lambda1 * (h @ s)
        for j, mat in pairs:
            hb += p.lambda2 * (H[j] @ mat)
        out.append(hb)
    return out


def _projected(x: np.ndarray, g: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """KKT residual: at the zero bound, positive gradients are projected out.

    Zeroes g where x <= 0 and g >= 0 by a multiply with a mask, which does
    not branch per entry as ``np.where`` does; every entry's square equals
    that of ``np.where(x > 0, g, np.minimum(g, 0.0))`` for finite g (a
    +inf gradient at the bound becomes NaN instead of 0).  ``out`` is an
    optional buffer of x's shape.
    """
    return np.multiply(g, (x > 0) | (g < 0), out=out)


def projected_norm(x: np.ndarray, g: np.ndarray,
                   out: np.ndarray | None = None) -> float:
    """Frobenius norm of one block's projected gradient ``_projected(x, g)``,
    written to the optional buffer ``out`` on the way."""
    p = _projected(x, g, out)
    return math.sqrt(np.vdot(p, p))


def projected_gradient_norm(problem: Problem, factors: Factorization,
                            hxt: np.ndarray | None = None,
                            wtx: Sequence[np.ndarray] | None = None) -> float:
    """Frobenius norm of the projected gradients stacked over W and all H_I.

    ``hxt`` is sum_I H_I X_I^T and ``wtx[I]`` is W^T X_I; each is formed
    here when None.
    """
    _check_shapes(problem, factors)
    if wtx is None:
        wtx = [factors.W.T @ x for x in problem.dataset.views]
    wt, hs = factors.W.T, factors.H
    q = w_subproblem(problem, hs, hxt=hxt)
    norms = [projected_norm(wt, q.grad(wt))]
    for i, x in enumerate(wtx):
        q = h_subproblem(problem, factors.W, hs, i, wtx=x)
        norms.append(projected_norm(hs[i], q.grad(hs[i])))
    return float(np.linalg.norm(norms))


def _top_eigenpair(times: Callable[[np.ndarray], np.ndarray], n: int,
                   tol: float) -> tuple[float, np.ndarray]:
    """lambda, a lower bound on lambda_max of the nonnegative symmetric
    n x n operator ``times`` (x -> A x), and the unit vector v >= 0 whose
    Rayleigh quotient it is.

    The power iteration runs on A + sigma I, with sigma the quotient at
    the uniform start, so that a bipartite A (a chain, tree or star
    without self-loops, whose -lambda_max pairs with lambda_max)
    converges too.  Each iteration takes one product with A and keeps
    v >= 0; it stops once the quotient moves by at most ``tol``
    relative.  A zero operator gives (0, the uniform vector) and n = 0
    gives (0, an empty vector).
    """
    if not n:
        return 0.0, np.zeros(0)
    v = np.full(n, 1.0 / math.sqrt(n))
    av = times(v)
    lam = sigma = float(v @ av)
    if lam <= 0:  # A >= 0 and v > 0, so A is 0
        return 0.0, v
    for _ in range(_POWER_MAX_ITER):
        av += sigma * v
        v = av / np.linalg.norm(av)
        av = times(v)
        lam_new = float(v @ av)
        if abs(lam_new - lam) <= tol * lam_new:
            return lam_new, v
        lam = lam_new
    return lam, v


def network_curvature(problem: Problem) -> tuple[float, np.ndarray]:
    """lambda, a lower bound on lambda_max(B), and the unit vector v >= 0
    over all views' columns (in view order) whose Rayleigh quotient it is.

    B is the symmetric nonnegative matrix of F's network terms, which add
    up to -1/2 Tr(H B H^T) for H the views' H_I side by side: lambda1 S_I
    on diagonal block I, lambda2 R_IJ at block (I, J) and R_IJ^T at
    (J, I).  F is bounded below on the feasible set if and only if
    lambda_max(B) <= 2 gamma2.  Along W's column k at 0 and H's row k at
    t v, F changes by t^2 (gamma2 - v^T B v / 2) plus a term linear in t,
    so lambda > 2 gamma2 proves F unbounded below, whatever the tolerance.

    ``_top_eigenpair`` runs on B to the relative tolerance
    ``_CURVATURE_TOL``, each product ``network_product`` on the one-row
    blocks of its vector.  Without networks under a positive weight B is
    0, and it returns (0, the uniform vector).
    """
    cuts = np.cumsum(problem.n)[:-1]

    def times_b(x: np.ndarray) -> np.ndarray:
        rows = [part[None] for part in np.split(x, cuts)]
        return np.hstack(network_product(problem, rows))[0]

    return _top_eigenpair(times_b, sum(problem.n), _CURVATURE_TOL)


def spectral_norm(mat: np.ndarray, tol: float = _NORM_TOL) -> float:
    """||A||_2 of a nonnegative symmetric matrix, which is its largest
    eigenvalue, by ``_top_eigenpair`` to the relative tolerance ``tol``."""
    return _top_eigenpair(lambda x: mat @ x, mat.shape[0], tol)[0]


def within_top(problem: Problem, view: int) -> tuple[np.ndarray, float]:
    """S_I's unit top eigenvector v >= 0 and v^T S_I v, computed once per
    constraint set and view by ``_top_eigenpair``.

    v^T S_I v is bit for bit ``spectral_norm(S_I)``, the ||S_I||_2 of
    Ne's step size.  Any v >= 0 gives the H_I block the curvature
    2 (M_kk + tau) ||v||^2 - lambda1 v^T S_I v along e_k v^T, a direction
    that keeps H_I nonnegative; this v makes the second term about as
    large as it can be, lambda1 ||S_I||_2.
    """
    cons = problem.constraints
    if view not in cons._within_top:
        s = cons.within_sym(view)
        lam, v = _top_eigenpair(lambda x: s @ x, s.shape[0], _NORM_TOL)
        cons._within_top[view] = (v, lam)
    return cons._within_top[view]


@dataclass
class QuadSubproblem:
    """One block's subproblem as an explicit quadratic in an r x k block.

    grad(X) = hess_apply(X) + g0; value(X) omits the additive constant, so it
    is only meaningful for comparisons within one subproblem.

    ``hess_mats`` is ``(M, S, lambda1, tau)``, the Hessian operator
    D -> 2 M D - lambda1 D S + 2 tau D, with M r x r and S k x k or None.
    H_I's block is H_I, with M = W^T W + gamma2 * ones, S the view's
    summed symmetrized within-constraints (None when lambda1 = 0 or the
    view has none, so S alone says whether the within term acts) and
    tau = tau2.  W's block is W^T, which puts its quadratic in the same
    form: M = sum_I H_I H_I^T + (gamma1 + tau1) I, S = None, lambda1 = 0
    and tau = 0.

    The doubled r x r matrix 2M is formed once when the subproblem is
    built and ``hess_apply`` multiplies by it, which saves a pass and a
    temporary over each product.  Doubling is exact, so (2M) D equals
    2 (M D) bit for bit unless an entry overflows or falls into the
    subnormal range.

    ``lipschitz()`` is computed on request: 2 (lambda_max(M) + tau) plus
    lambda1 ||S||_2.  ``s_norm`` supplies ||S||_2, which ``within_top``
    caches per constraint set.
    """

    hess_mats: tuple
    g0: np.ndarray
    s_norm: Callable[[], float] | None = None
    # the name of the one layout, read only by the benchmark's flop count
    kind: ClassVar[str] = "h"
    _doubled: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._doubled = 2.0 * self.hess_mats[0]

    def hess_apply(self, d: np.ndarray) -> np.ndarray:
        _, s, lam1, tau = self.hess_mats
        out = self._doubled @ d
        if s is not None:
            out -= lam1 * (d @ s)
        if tau:
            out += 2.0 * tau * d
        return out

    def grad(self, x: np.ndarray) -> np.ndarray:
        out = self.hess_apply(x)
        out += self.g0
        return out

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(np.vdot(x, self.hess_apply(x))) + float(
            np.vdot(self.g0, x))

    def lipschitz(self) -> float:
        m, s, lam1, tau = self.hess_mats
        lip = 2.0 * (float(np.linalg.eigvalsh(m)[-1]) + tau)
        if s is not None:
            lip += lam1 * self.s_norm()
        return lip


def w_subproblem(problem: Problem, H: list[np.ndarray],
                 tau1: float = 0.0, anchor: np.ndarray | None = None,
                 hxt: np.ndarray | None = None) -> QuadSubproblem:
    """Quadratic model of the W update, in the r x m block W^T (optionally
    proximal about an ``anchor``, also given as W^T).

    ``hxt`` is sum_I H_I X_I^T when the caller already holds it; only
    without it are ``problem``'s views read, so prediction passes its test
    rows' product and a ``TrainedModel`` as ``problem``.
    """
    r = H[0].shape[0]
    a = (problem.params.gamma1 + tau1) * np.eye(r)
    for h in H:
        a += h @ h.T
    if hxt is None:
        hxt = view_products(problem.dataset.views, H)
    g0 = -2.0 * hxt
    if tau1 and anchor is not None:
        g0 -= 2.0 * tau1 * anchor
    return QuadSubproblem((a, None, 0.0, 0.0), g0)


def h_subproblem(problem: Problem, W: np.ndarray, H: list[np.ndarray],
                 view: int, tau2: float = 0.0,
                 anchor: np.ndarray | None = None,
                 wtx: np.ndarray | None = None) -> QuadSubproblem:
    """Quadratic model of one view's H update with the other factors fixed.

    ``wtx`` is W^T X_I when the caller already holds it; only without it
    are ``problem``'s views read, so prediction passes its test columns'
    product and a ``TrainedModel`` (weights and constraints) as ``problem``.
    """
    p = problem.params
    r = W.shape[1]
    if wtx is None:
        wtx = W.T @ problem.dataset.views[view]
    m = W.T @ W + p.gamma2 * np.ones((r, r))
    g0 = -2.0 * wtx
    s, pairs = networks(problem, view)
    if pairs:
        g0 -= p.lambda2 * sum(H[j] @ mat for j, mat in pairs)
    if tau2 and anchor is not None:
        g0 -= 2.0 * tau2 * anchor
    return QuadSubproblem((m, s, p.lambda1, tau2), g0,
                          lambda: within_top(problem, view)[1])
