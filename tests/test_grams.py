"""The Gram record a solve shares within each outer iteration.

A solve forms the products with the views once per outer iteration and
reads F, the projected gradient and the next W build from them: 2 N per
iteration, plus N for each step started from the extrapolated iterate
and 2 N for each step redone from the plain one (PG, Ne and PANLS).
These tests pin that count and check that the record describes the
factors the solve returns.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jmf import (ConstraintSet, Factorization, Hyperparameters,
                 MultiViewDataset, SolverConfig, init_factors, new_problem,
                 objective_value, projected_gradient_norm,
                 reconstruction_error, solve)
from jmf.objective import FIT_FLOOR, Grams, view_products
from jmf.solvers import _rescale
from oracles import make_problem, naive_objective

ALGORITHMS = ["MUR", "PG", "Ne", "PANLS"]


def weighted_problem():
    return make_problem(seed=1, m=30, n=(20, 25, 15), r=3, lambda1=1e-3,
                        lambda2=1e-3, gamma1=1e-2, gamma2=1e-2)


def count_view_products(problem) -> list:
    """Make every matrix product with a view add one to the returned
    counter.  ``MultiViewDataset`` copies its inputs into plain arrays, so
    the counting views replace them on the built problem."""
    count = [0]

    class CountedView(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                count[0] += 1
            plain = [a.view(np.ndarray) if isinstance(a, CountedView) else a
                     for a in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    problem.dataset.views = tuple(x.view(CountedView)
                                  for x in problem.dataset.views)
    return count


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_two_products_with_each_view_per_outer_iteration(algorithm,
                                                         normalize):
    counts, reports = {}, {}
    for iters in (3, 6):
        prob = weighted_problem()
        count = count_view_products(prob)
        cfg = SolverConfig(algorithm=algorithm, normalize_rows=normalize,
                           tolerance=1e-300, max_outer_iters=iters)
        _, reports[iters] = solve(prob, cfg, init_factors(prob, 0))
        assert reports[iters].iterations == iters
        counts[iters] = count[0]
    n = prob.n_views
    extrapolated = (reports[6].extrapolated_steps
                    - reports[3].extrapolated_steps)
    redone = reports[6].redone_steps - reports[3].redone_steps
    if algorithm == "MUR":
        assert extrapolated == redone == 0
    else:
        assert extrapolated > 0
    # an extrapolated start's W build needs N more products, and a step
    # redone from the plain iterate repeats the 2 N of a plain one
    assert counts[6] - counts[3] == (3 * 2 * n + extrapolated * n
                                     + redone * 2 * n)


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cached_monitoring_describes_the_returned_factors(algorithm,
                                                          normalize):
    prob = weighted_problem()
    cfg = SolverConfig(algorithm=algorithm, normalize_rows=normalize,
                       max_outer_iters=30)
    final, report = solve(prob, cfg, init_factors(prob, 0))
    assert report.final_objective == pytest.approx(
        objective_value(prob, final), rel=1e-12)
    assert report.final_objective == pytest.approx(
        naive_objective(prob, final), rel=1e-10)
    assert report.trace[-1].grad_norm == pytest.approx(
        projected_gradient_norm(prob, final), rel=1e-10)


@pytest.mark.parametrize("gamma1", [0.0, 0.3])
def test_near_exact_fit_is_summed_from_the_residual(gamma1):
    rng = np.random.default_rng(4)
    w = rng.random((7, 2))
    hs = [rng.random((2, 5)), rng.random((2, 6))]
    views = [w @ h + 1e-7 * rng.random(h.shape[1]) for h in hs]
    prob = new_problem(MultiViewDataset(views), ConstraintSet.empty(),
                       Hyperparameters(rank=2, gamma1=gamma1))
    fac = Factorization(w, hs)
    fit = reconstruction_error(prob, fac)
    assert 0 < fit < FIT_FLOOR * prob.x_squared_norm()
    assert objective_value(prob, fac) == pytest.approx(
        fit + gamma1 * float(np.sum(w * w)), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# properties over random small problems


@st.composite
def problems(draw):
    """A small problem with random weights and networks, plus factors.

    With ``near`` the data are the factors' product plus small noise, so
    F's fit term can fall below the identity's fallback threshold.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 8))
    n = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    r = draw(st.integers(1, min(3, m, min(n))))
    weights = {k: draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
               for k in ("lambda1", "lambda2", "gamma1", "gamma2")}
    networks = draw(st.booleans())
    near = draw(st.sampled_from([None, 0.0, 1e-9, 1e-3]))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0]))

    rng = np.random.default_rng(seed)
    w = scale * rng.random((m, r))
    hs = [rng.random((r, ni)) for ni in n]
    if near is None:
        views = [rng.random((m, ni)) for ni in n]
    else:
        views = [w @ h + near * rng.random((m, h.shape[1])) for h in hs]
    within, between = {}, {}
    if networks:
        within = {i: [rng.random((ni, ni))] for i, ni in enumerate(n)}
        between = {(i, j): rng.random((n[i], n[j]))
                   for i in range(len(n)) for j in range(i + 1, len(n))}
    prob = new_problem(MultiViewDataset(views),
                       ConstraintSet(within=within, between=between),
                       Hyperparameters(rank=r, **weights))
    return prob, Factorization(w, hs)


def magnitude(prob, fac) -> float:
    """Sum of the magnitudes of F's terms (all are nonnegative here), the
    scale of the rounding error in any way of summing F."""
    p = prob.params
    w, hs = fac.W, fac.H
    total = prob.x_squared_norm()
    total += sum(float(np.sum((w @ h) ** 2)) for h in hs)
    for i, thetas in prob.constraints.within.items():
        total += p.lambda1 * sum(float(np.trace(hs[i] @ t @ hs[i].T))
                                 for t in thetas)
    for (i, j), r_ij in prob.constraints.between.items():
        total += p.lambda2 * float(np.sum((hs[i] @ r_ij) * hs[j]))
    total += p.gamma1 * float(np.sum(w * w))
    total += p.gamma2 * sum(float(np.sum(h.sum(axis=0) ** 2)) for h in hs)
    return total


@given(problems())
def test_rescale_keeps_every_product(case):
    _, fac = case
    before = [fac.W @ h for h in fac.H]
    _rescale(fac.W, fac.H)
    norms = np.linalg.norm(fac.W, axis=0)
    assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))
    for want, h in zip(before, fac.H):
        np.testing.assert_allclose(fac.W @ h, want, rtol=1e-12,
                                   atol=1e-14 * float(np.max(want, initial=0)))


@given(problems())
def test_rescaled_record_matches_an_uncached_call(case):
    prob, fac = case
    grams = Grams.of(prob, fac)
    norms = _rescale(fac.W, fac.H)
    for wtx in grams.wtx:
        wtx /= norms[:, None]
    grams.xht = view_products(prob.dataset.views, fac.H)
    tol = 1e-12 * magnitude(prob, fac)
    assert objective_value(prob, fac, grams) == pytest.approx(
        objective_value(prob, fac), rel=1e-12, abs=tol)
    # the scaled W^T X_I differs from a fresh one by rounding in each entry
    g_tol = 1e-12 * (1.0 + sum(float(np.linalg.norm(fac.W.T @ x))
                               for x in prob.dataset.views))
    assert projected_gradient_norm(prob, fac, grams) == pytest.approx(
        projected_gradient_norm(prob, fac), rel=1e-10, abs=g_tol)


@given(problems())
def test_objective_matches_the_naive_loops(case):
    prob, fac = case
    assert objective_value(prob, fac) == pytest.approx(
        naive_objective(prob, fac), rel=1e-10,
        abs=1e-12 * magnitude(prob, fac))
