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

An iterate's record (``penalty_terms``) holds the small products that F
and the projected-gradient norm read: c_k = ||w_k||^2, the row terms a,
G = sum_I H_I H_I^T, the network product (H B)_I (None without networks)
and W^T W.  A solve forms it once per outer step, after the rescale: F's
fit reads G and W^T W, F's penalty is one closed form in (c, a, G)
(``orbit_penalty``), at the iterate and before the rescale, and the
gradient norm reads G, (H B)_I and W^T W.  The weighted network
lambda1 S_I that H_I's Hessian products read is formed once per problem
and view (``weighted_within``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from .model import Factorization, Hyperparameters, Problem

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
                    terms: tuple | None = None) -> float:
    """F at ``factors``; ``hxt`` is sum_I H_I X_I^T and ``terms`` the
    factors' ``penalty_terms``, each formed here when None."""
    _check_shapes(problem, factors)
    if hxt is None:
        hxt = view_products(problem.dataset.views, factors.H)
    if terms is None:
        terms = penalty_terms(problem, factors)
    return _fit(problem, factors, hxt, terms) + orbit_penalty(
        problem.params, terms)


def _fit(problem: Problem, factors: Factorization, hxt: np.ndarray,
         terms: tuple) -> float:
    """sum_I ||X_I - W H_I||_F^2 from the trace identity, with hxt =
    sum_I H_I X_I^T and the factors' ``penalty_terms``' G and W^T W, or
    from the residuals below ``FIT_FLOOR`` ||X||^2."""
    c, a, gram, hb, wtw = terms
    x_sq = problem.x_squared_norm()
    value = x_sq - 2.0 * float(np.vdot(factors.W.T, hxt)) + float(
        np.vdot(wtw, gram))
    if not value >= FIT_FLOOR * x_sq:  # also catches a NaN identity
        value = reconstruction_error(problem, factors)
    return value


def penalty_terms(problem: Problem, factors: Factorization) -> tuple:
    """The record of an iterate that F and the projected-gradient norm
    read, (c, a, G, HB, W^T W): c_k = ||w_k||^2, a_k the row sums of
    sum_I H_I o (H B)_I, G = sum_I H_I H_I^T and HB the list of
    ``network_product``'s (H B)_I.  Without networks (``reads_networks``)
    HB is None and a = 0, so that no zero blocks are formed."""
    w, hs = factors.W, factors.H
    hb = network_product(problem, hs) if reads_networks(problem) else None
    c = np.einsum("ij,ij->j", w, w)
    a = np.zeros_like(c) if hb is None else sum(
        np.einsum("ij,ij->i", h, b) for h, b in zip(hs, hb))
    return c, a, sum(h @ h.T for h in hs), hb, w.T @ w


def orbit_penalty(params: Hyperparameters, terms: tuple,
                  d: np.ndarray | float = 1.0) -> float:
    """F's penalty, everything but the fit, at (W D^-1, D H_I), D =
    diag(d) > 0, from the ``penalty_terms`` of (W, H_I): gamma1
    sum_k c_k / d_k^2 - 1/2 sum_k a_k d_k^2 + gamma2 d^T G d, its terms
    gamma1 ||W||^2, -1/2 sum_I <H_I, (H B)_I> and gamma2 sum_I 1^T H_I
    H_I^T 1 on the orbit that keeps the fit; d = 1 is (W, H_I) itself."""
    c, a, gram, hb, wtw = terms
    d = np.ones_like(c) * d
    sq = d * d
    return (params.gamma1 * float((c / sq).sum())
            - 0.5 * float((a * sq).sum())
            + params.gamma2 * float(d @ gram @ d))


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


def weighted_within(problem: Problem, view: int) -> np.ndarray | None:
    """lambda1 S_I, the within term of H_I's Hessian (None without S_I).

    A ``Problem`` forms it once per view, at the view's first H_I build,
    and holds it, so that it is freed with the problem: it depends on
    the weights, which differ between the problems of a grid on one
    constraint set.  A solve refused before its first H_I build forms
    none.  Another holder of weights and constraints (prediction's
    ``TrainedModel``) forms it on each call.
    """
    cache = getattr(problem, "_weighted_within", {})
    if view not in cache:
        s = networks(problem, view)[0]
        if s is not None:
            s = problem.params.lambda1 * s
            s.flags.writeable = False
        cache[view] = s
    return cache[view]


def reads_networks(problem: Problem) -> bool:
    """Whether any view reads a network under a positive weight
    (``networks``); otherwise B is 0 and so are F's network terms."""
    return any(s is not None or pairs for s, pairs in
               (networks(problem, i) for i in range(problem.n_views)))


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


def _projected(x: np.ndarray, g: np.ndarray, out: np.ndarray | None = None,
               positive: np.ndarray | None = None) -> np.ndarray:
    """KKT residual: at the zero bound, positive gradients are projected out.

    Zeroes g where x <= 0 and g >= 0 by a multiply with a mask, which does
    not branch per entry as ``np.where`` does; every entry's square equals
    that of ``np.where(x > 0, g, np.minimum(g, 0.0))`` for finite g (a
    +inf gradient at the bound becomes NaN instead of 0).  ``out`` is an
    optional buffer of x's shape, and ``positive`` the mask x > 0 when
    the caller holds it.
    """
    if positive is None:
        positive = x > 0
    return np.multiply(g, positive | (g < 0), out=out)


def projected_norm(x: np.ndarray, g: np.ndarray,
                   out: np.ndarray | None = None,
                   positive: np.ndarray | None = None) -> float:
    """Frobenius norm of one block's projected gradient ``_projected(x, g)``,
    written to the optional buffer ``out`` on the way."""
    p = _projected(x, g, out, positive)
    return math.sqrt(np.vdot(p, p))


def projected_gradient_norm(problem: Problem, factors: Factorization,
                            hxt: np.ndarray | None = None,
                            wtx: Sequence[np.ndarray] | None = None,
                            terms: tuple | None = None) -> float:
    """Frobenius norm of the projected gradients stacked over W and all H_I.

    ``hxt`` is sum_I H_I X_I^T, ``wtx[I]`` is W^T X_I and ``terms`` the
    factors' ``penalty_terms``; each is formed here when None.  The
    gradients are those of the block quadratics (``w_subproblem``,
    ``h_subproblem``), written out from the terms without building them:
    W^T's is 2 (G + gamma1 I) W^T - 2 hxt and H_I's is 2 M H_I -
    2 W^T X_I - (H B)_I, M = W^T W + gamma2 11^T.
    """
    _check_shapes(problem, factors)
    if hxt is None:
        hxt = view_products(problem.dataset.views, factors.H)
    if wtx is None:
        wtx = [factors.W.T @ x for x in problem.dataset.views]
    if terms is None:
        terms = penalty_terms(problem, factors)
    c, a, gram, hb, wtw = terms
    p, r, wt = problem.params, problem.rank, factors.W.T
    g = 2.0 * (gram + p.gamma1 * np.eye(r)) @ wt
    g -= 2.0 * hxt
    norms = [projected_norm(wt, g)]
    doubled = 2.0 * (wtw + p.gamma2 * np.ones((r, r)))
    for i, (h, x) in enumerate(zip(factors.H, wtx)):
        g = doubled @ h
        g -= 2.0 * x
        if hb is not None:
            g -= hb[i]
        norms.append(projected_norm(h, g))
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
    """One block's subproblem as an explicit quadratic in an r x k block,
    with grad(X) = hess_apply(X) + g0.

    ``hess_mats`` is ``(M, S, lambda1, tau)``, the Hessian operator
    D -> 2 M D - lambda1 D S + 2 tau D, with M r x r and S k x k or None.
    H_I's block is H_I, with M = W^T W + gamma2 * ones, S the view's
    summed symmetrized within-constraints (None when lambda1 = 0 or the
    view has none, so S alone says whether the within term acts) and
    tau = tau2.  W's block is W^T, which puts its quadratic in the same
    form: M = sum_I H_I H_I^T + (gamma1 + tau1) I, S = None, lambda1 = 0
    and tau = 0.  MUR's ratio steps, the Lipschitz constant and the
    boundedness check read ``hess_mats``.

    ``hess_apply`` applies the operator folded into two matrices, formed
    once per subproblem: the r x r ``doubled`` = 2 (M + tau I) and the
    k x k ``weighted_s`` = lambda1 S (None without S), so that a product
    is doubled D - D weighted_s, two matrix products and one subtraction.
    The fold rounds differently from the unfolded sum, by a few eps
    relative; without S and tau it is 2 (M D) bit for bit, as doubling
    is exact unless an entry overflows or falls into the subnormal
    range.  ``weighted_s`` is formed here when not given; an H_I build
    passes the one its ``Problem`` holds for the view.  PANLS's exact
    solve of a block without S takes ``doubled`` as its matrix.

    ``lipschitz()`` is computed on request: 2 (lambda_max(M) + tau) plus
    lambda1 ||S||_2.  ``s_norm`` supplies ||S||_2, which ``within_top``
    caches per constraint set.
    """

    hess_mats: tuple
    g0: np.ndarray
    s_norm: Callable[[], float] | None = None
    weighted_s: np.ndarray | None = None
    # the name of the one layout, read only by the benchmark's flop count
    kind: ClassVar[str] = "h"
    doubled: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, s, lam1, tau = self.hess_mats
        self.doubled = 2.0 * (m + tau * np.eye(len(m)) if tau else m)
        if s is not None and self.weighted_s is None:
            self.weighted_s = lam1 * s

    def hess_apply(self, d: np.ndarray) -> np.ndarray:
        out = self.doubled @ d
        if self.weighted_s is not None:
            out -= d @ self.weighted_s
        return out

    def grad(self, x: np.ndarray, out: np.ndarray | None = None
             ) -> np.ndarray:
        """hess_apply(x) + g0, written to ``out`` when given (a row-major
        buffer of x's shape): its product is then formed in place, by the
        same operations, and not through ``hess_apply``."""
        if out is None:
            out = self.hess_apply(x)
        else:
            np.matmul(self.doubled, x, out=out)
            if self.weighted_s is not None:
                out -= x @ self.weighted_s
        out += self.g0
        return out

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
                          lambda: within_top(problem, view)[1],
                          weighted_within(problem, view))
