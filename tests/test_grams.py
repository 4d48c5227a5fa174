"""The Gram record a solve shares within each outer iteration.

A solve forms the products with the views once per outer iteration and
reads F, the projected gradient and the next W build from them: 2 N per
iteration, plus 2 N for each step redone from the plain iterate (PG, Ne
and PANLS).  A step started from the extrapolated iterate reads its W
build's sum X_I H_I^T from those of the two plain iterates and forms a
product only with the columns of X_I where the projection clipped an
entry of H_I.  These tests pin those counts and check that the record
describes the factors the solve returns.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jmf import (ConstraintSet, Factorization, Hyperparameters,
                 MultiViewDataset, SolverConfig, SyntheticSpec, generate,
                 init_factors, new_problem, objective_value,
                 projected_gradient_norm, reconstruction_error, solve)
import jmf.solvers
from jmf.objective import FIT_FLOOR, Grams, view_products
from jmf.solvers import _extrapolated, _rescale
from oracles import make_problem, naive_objective

ALGORITHMS = ["MUR", "PG", "Ne", "PANLS"]


def weighted_problem():
    return make_problem(seed=1, m=30, n=(20, 25, 15), r=3, lambda1=1e-3,
                        lambda2=1e-3, gamma1=1e-2, gamma2=1e-2)


def count_view_products(problem) -> dict:
    """Record every matrix product with a view in the returned dict:
    ``full`` counts those with a whole view, and ``columns`` lists
    (view, column indices) for each product with columns taken from a
    view by ``x[:, cols]``.  ``MultiViewDataset`` copies its inputs into
    plain arrays, so the counting views replace them on the built
    problem."""
    count = {"full": 0, "columns": []}

    def plain(inputs):
        return [a.view(np.ndarray) if isinstance(a, np.ndarray) else a
                for a in inputs]

    class Columns(np.ndarray):
        def __array_finalize__(self, obj):  # a transpose keeps the record
            self.taken = getattr(obj, "taken", None)

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                count["columns"].append(self.taken)
            return getattr(ufunc, method)(*plain(inputs), **kwargs)

    class CountedView(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                count["full"] += 1
            return getattr(ufunc, method)(*plain(inputs), **kwargs)

        def __getitem__(self, key):
            part = self.view(np.ndarray)[key]
            if not (isinstance(key, tuple) and key[0] == slice(None)):
                return part
            part = part.view(Columns)
            part.taken = (self.index, tuple(np.asarray(key[1]).tolist()))
            return part

    views = []
    for i, x in enumerate(problem.dataset.views):
        views.append(x.view(CountedView))
        views[-1].index = i
    problem.dataset.views = tuple(views)
    return count


def record_clipped_columns(monkeypatch) -> list:
    """Record, for each extrapolated start, (view, columns of H_I + beta
    (H_I - H_prev,I) with a negative entry) for every view that has one:
    the columns the projection clips."""
    clipped = []
    real = jmf.solvers._extrapolated

    def recording(views, factors, hxt, prev, prev_hxt, beta):
        for i, (h, h_prev) in enumerate(zip(factors.H, prev.H)):
            cols = np.flatnonzero((h + beta * (h - h_prev) < 0).any(axis=0))
            if cols.size:
                clipped.append((i, tuple(cols.tolist())))
        return real(views, factors, hxt, prev, prev_hxt, beta)

    monkeypatch.setattr(jmf.solvers, "_extrapolated", recording)
    return clipped


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_two_products_with_each_view_per_outer_iteration(
        monkeypatch, algorithm, normalize):
    clipped = record_clipped_columns(monkeypatch)
    counts, reports, columns = {}, {}, {}
    for iters in (3, 6):
        prob = weighted_problem()
        count = count_view_products(prob)
        clipped.clear()
        cfg = SolverConfig(algorithm=algorithm, normalize_rows=normalize,
                           tolerance=1e-300, max_outer_iters=iters)
        _, reports[iters] = solve(prob, cfg, init_factors(prob, 0))
        assert reports[iters].iterations == iters
        counts[iters] = count["full"]
        # the only partial products read exactly the clipped columns
        assert count["columns"] == clipped
        columns[iters] = len(clipped)
    n = prob.n_views
    extrapolated = (reports[6].extrapolated_steps
                    - reports[3].extrapolated_steps)
    redone = reports[6].redone_steps - reports[3].redone_steps
    if algorithm == "MUR":
        assert extrapolated == redone == 0
        assert columns[6] == 0
    else:
        assert extrapolated > 0
        assert columns[6] > columns[3]
    # an extrapolated start forms no product with a whole view, and a
    # step redone from the plain iterate repeats the 2 N of a plain one
    assert counts[6] - counts[3] == 3 * 2 * n + redone * 2 * n


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


@pytest.mark.parametrize("dataset", ["D1", "D2", "D3", "D4"])
def test_reported_fit_matches_the_residual_sum(dataset):
    # the report reads the fit from the final record's trace identity
    truth = generate(SyntheticSpec(dataset, seed=0))
    prob = new_problem(truth.to_dataset(), None,
                       Hyperparameters(rank=truth.rank))
    final, report = solve(prob, SolverConfig(max_outer_iters=5),
                          init_factors(prob, 0))
    assert report.reconstruction_error == pytest.approx(
        reconstruction_error(prob, final), rel=1e-10)


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
    grams.hxt = view_products(prob.dataset.views, fac.H)
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


@st.composite
def extrapolations(draw):
    """Views, two plain iterates and beta, with the previous iterate drawn
    so that the projection clips no entry, every entry or some."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 8))
    n = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    r = draw(st.integers(1, 3))
    clip = draw(st.sampled_from(["none", "all", "some"]))
    # beta = 0 keeps every entry: none can be clipped
    beta = draw(st.sampled_from([0.5, 1.0] if clip == "all"
                                else [0.0, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    views = [rng.random((m, ni)) for ni in n]
    hs = [rng.random((r, ni)) for ni in n]
    if clip == "none":  # H_prev <= H, so H + beta (H - H_prev) >= H
        prevs = [h * rng.random(h.shape) for h in hs]
    elif clip == "all":  # H_prev > (1 + beta) H / beta
        prevs = [(1.0 + beta) / beta * h + 0.1 + rng.random(h.shape)
                 for h in hs]
    else:
        prevs = [2.0 * rng.random(h.shape) for h in hs]
    w = rng.random((m, r))
    return (views, Factorization(w, hs),
            Factorization(rng.random((m, r)), prevs), beta, clip)


@given(extrapolations())
def test_extrapolated_gram_matches_a_full_product(case):
    views, fac, prev, beta, clip = case
    step, gram = _extrapolated(views, fac, view_products(views, fac.H),
                               prev, view_products(views, prev.H), beta)
    for x, x_prev, got in zip((fac.W, *fac.H), (prev.W, *prev.H),
                              (step.W, *step.H)):
        np.testing.assert_array_equal(
            got, np.maximum(x + beta * (x - x_prev), 0.0))
    if clip == "none":
        assert all(np.all(h > 0) for h in step.H)
    elif clip == "all":
        assert all(not np.any(h) for h in step.H)
    # the sum is formed from the plain iterates' sums, whose terms are of
    # the size ||X|| (||H|| + ||H_prev||) even when every entry is clipped
    scale = sum(np.linalg.norm(x) * (np.linalg.norm(h) + np.linalg.norm(hp)
                                     + np.linalg.norm(hh))
                for x, h, hp, hh in zip(views, fac.H, prev.H, step.H))
    np.testing.assert_allclose(gram, view_products(views, step.H), rtol=0,
                               atol=1e-12 * scale)


def test_view_products_are_the_row_major_sum_of_h_x_transpose():
    # sum_I H_I X_I^T, r x m, BLAS's faster orientation and W^T's layout
    prob = weighted_problem()
    rng = np.random.default_rng(0)
    hs = [rng.random((prob.rank, n)) for n in prob.n]
    got = view_products(prob.dataset.views, hs)
    want = sum(x @ h.T for x, h in zip(prob.dataset.views, hs)).T
    assert got.shape == (prob.rank, prob.m) and got.flags.c_contiguous
    np.testing.assert_allclose(got, want, rtol=1e-14)
