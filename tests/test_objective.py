import gc
import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

import jmf.objective
from jmf import (ConstraintSet, DivergenceError, Factorization,
                 Hyperparameters, MultiViewDataset, SolverConfig,
                 SyntheticSpec, generate, init_factors, new_problem,
                 objective_value, projected_gradient_norm,
                 reconstruction_error, solve, spectral_norm)
from jmf.objective import (_fit, h_subproblem, network_curvature,
                           network_product, networks, orbit_penalty,
                           penalty_terms, projected_norm, view_products,
                           w_subproblem, weighted_within, within_top)
from jmf.solvers import _outer_step, _rescale
from oracles import (dense_hessian_H, dense_hessian_W, finite_diff_grad,
                     make_problem, naive_objective, quad_form, quad_value,
                     random_factors)


def tiny_problem(**kw):
    return new_problem(MultiViewDataset([np.array([[2.0]])]),
                       ConstraintSet.empty(),
                       Hyperparameters(rank=1, **kw))


# The W quadratic is written in the r x m block W^T, so its gradient and
# Hessian products are transposed back to W's m x r here.

def grad_w(prob, fac):
    """dF/dW from the W quadratic."""
    return w_subproblem(prob, fac.H).grad(fac.W.T).T


def grad_h(prob, fac, view):
    """dF/dH_view from the H_view quadratic."""
    return h_subproblem(prob, fac.W, fac.H, view).grad(fac.H[view])


def lipschitz_w(prob, fac):
    return w_subproblem(prob, fac.H).lipschitz()


def lipschitz_h(prob, fac, view):
    return h_subproblem(prob, fac.W, fac.H, view).lipschitz()


def hessian_form_w(prob, fac, d, tau1=0.0):
    """vec(D)^T Q_W vec(D) for an m x r direction D."""
    q = w_subproblem(prob, fac.H, tau1=tau1)
    return float(np.vdot(d.T, q.hess_apply(d.T)))


def hessian_form_h(prob, fac, view, d, tau2=0.0):
    q = h_subproblem(prob, fac.W, fac.H, view, tau2=tau2)
    return float(np.vdot(d, q.hess_apply(d)))


def test_objective_zero_factors_is_data_norm():
    prob = make_problem(seed=5, lambda1=0.3, lambda2=0.2, gamma1=1.0,
                        gamma2=2.0)
    zero = Factorization(np.zeros((prob.m, prob.rank)),
                         [np.zeros((prob.rank, ni)) for ni in prob.n])
    expected = sum(float(np.sum(x * x)) for x in prob.dataset.views)
    assert objective_value(prob, zero) == pytest.approx(expected, rel=1e-14)


def test_objective_exact_factorization_is_zero():
    prob = tiny_problem()
    fac = Factorization(np.array([[2.0]]), [np.array([[1.0]])])
    assert objective_value(prob, fac) == 0.0


def test_objective_matches_naive_oracle():
    prob = make_problem(seed=9, m=6, n=(4, 5, 3), r=2, lambda1=0.7,
                        lambda2=0.4, gamma1=0.2, gamma2=0.9)
    fac = random_factors(prob, seed=10)
    got = objective_value(prob, fac)
    want = naive_objective(prob, fac)
    assert got == pytest.approx(want, rel=1e-10)


def test_reconstruction_error_examples():
    prob = tiny_problem()
    assert reconstruction_error(
        prob, Factorization(np.array([[2.0]]), [np.array([[1.0]])])) == 0.0
    assert reconstruction_error(
        prob, Factorization(np.array([[1.0]]),
                            [np.array([[1.0]])])) == pytest.approx(1.0)


def test_objective_with_zero_weights_equals_reconstruction():
    prob = make_problem(seed=4, with_constraints=True)
    fac = random_factors(prob, seed=6)
    assert objective_value(prob, fac) == pytest.approx(
        reconstruction_error(prob, fac), rel=1e-12)


def test_grad_w_zero_at_exact_factorization():
    prob = tiny_problem()
    fac = Factorization(np.array([[2.0]]), [np.array([[1.0]])])
    assert np.allclose(grad_w(prob, fac), 0.0)


def test_grad_w_hand_value():
    prob = tiny_problem()
    fac = Factorization(np.array([[1.0]]), [np.array([[1.0]])])
    assert grad_w(prob, fac) == pytest.approx(np.array([[-2.0]]))


def test_grad_h_zero_at_exact_factorization():
    prob = tiny_problem()
    fac = Factorization(np.array([[2.0]]), [np.array([[1.0]])])
    assert np.allclose(grad_h(prob, fac, 0), 0.0)


def test_grad_h_within_term_hand_value():
    lam = 0.37
    prob = new_problem(
        MultiViewDataset([np.zeros((1, 2))]),
        ConstraintSet(within={0: [np.eye(2)]}),
        Hyperparameters(rank=1, lambda1=lam))
    fac = Factorization(np.zeros((1, 1)), [np.array([[1.0, 1.0]])])
    assert grad_h(prob, fac, 0) == pytest.approx(
        np.array([[-2 * lam, -2 * lam]]))


@pytest.mark.parametrize("seed", range(4))
def test_gradients_match_finite_differences(seed):
    prob = make_problem(seed=seed, m=4, n=(3, 4), r=2, lambda1=0.3,
                        lambda2=0.2, gamma1=0.1, gamma2=0.4)
    fac = random_factors(prob, seed=seed + 50)
    f = lambda: objective_value(prob, fac)
    gw = finite_diff_grad(f, fac.W)
    assert np.allclose(grad_w(prob, fac), gw, rtol=1e-5, atol=1e-6)
    for i in range(prob.n_views):
        gh = finite_diff_grad(f, fac.H[i])
        assert np.allclose(grad_h(prob, fac, i), gh, rtol=1e-5, atol=1e-6)


def test_projected_gradient_interior_equals_plain_norm():
    prob = make_problem(seed=8, lambda1=0.2, lambda2=0.1, gamma1=0.3,
                        gamma2=0.2)
    fac = random_factors(prob, seed=3)  # strictly positive entries
    plain = np.sum(grad_w(prob, fac) ** 2)
    for i in range(prob.n_views):
        plain += np.sum(grad_h(prob, fac, i) ** 2)
    assert projected_gradient_norm(prob, fac) == pytest.approx(
        np.sqrt(plain), rel=1e-12)


def test_projected_gradient_at_the_bound():
    # an entry at zero with a push away from the feasible set contributes
    # nothing; one with a descent direction still counts
    with pytest.warns(UserWarning):  # overcomplete rank, deliberate
        prob = new_problem(MultiViewDataset([np.zeros((1, 1))]),
                           ConstraintSet.empty(),
                           Hyperparameters(rank=2, gamma2=1.0))
    fac = Factorization(np.zeros((1, 2)), [np.array([[0.0], [1.0]])])
    # H-gradient is 2*gamma2*ones@H = [[2],[2]]; the zero entry's +2 is
    # projected away, the interior entry's +2 remains
    assert projected_gradient_norm(prob, fac) == pytest.approx(2.0)

    prob2 = new_problem(MultiViewDataset([np.array([[1.0]])]),
                        ConstraintSet.empty(), Hyperparameters(rank=1))
    # W at the bound with a negative (descent) gradient -2XH^T = -4 counts
    fac2 = Factorization(np.array([[0.0]]), [np.array([[2.0]])])
    assert projected_gradient_norm(prob2, fac2) == pytest.approx(4.0)


def test_spectral_norm_matches_eigensolver():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.random((6, 6))
        sym = a @ a.T
        want = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        assert spectral_norm(sym) == pytest.approx(want, rel=1e-6)


def test_lipschitz_w_examples():
    prob = new_problem(MultiViewDataset([np.ones((2, 2))]),
                       ConstraintSet.empty(), Hyperparameters(rank=2))
    fac = Factorization(np.ones((2, 2)), [np.eye(2)])
    assert lipschitz_w(prob, fac) == pytest.approx(2.0)

    fac2 = Factorization(np.ones((2, 2)), [np.diag([2.0, 1.0])])
    assert lipschitz_w(prob, fac2) == pytest.approx(8.0)

    prob3 = new_problem(MultiViewDataset([np.ones((2, 2))]),
                        ConstraintSet.empty(),
                        Hyperparameters(rank=2, gamma1=5.0))
    fac3 = Factorization(np.ones((2, 2)), [np.zeros((2, 2))])
    assert lipschitz_w(prob3, fac3) == pytest.approx(10.0)


def test_lipschitz_h_examples():
    prob = tiny_problem()
    fac = Factorization(np.array([[1.0]]), [np.array([[1.0]])])
    assert lipschitz_h(prob, fac, 0) == pytest.approx(2.0)

    prob2 = new_problem(MultiViewDataset([np.ones((2, 2))]),
                        ConstraintSet.empty(),
                        Hyperparameters(rank=2, gamma2=1.0))
    fac2 = Factorization(np.eye(2), [np.ones((2, 2))])
    assert lipschitz_h(prob2, fac2, 0) == pytest.approx(6.0)

    prob3 = new_problem(MultiViewDataset([np.ones((2, 3))]),
                        ConstraintSet(within={0: [np.eye(3)]}),
                        Hyperparameters(rank=2, lambda1=1.0))
    fac3 = Factorization(np.zeros((2, 2)), [np.ones((2, 3))])
    assert lipschitz_h(prob3, fac3, 0) == pytest.approx(2.0)


def test_hessian_quadratic_form_w_examples():
    prob = tiny_problem()
    fac = Factorization(np.array([[1.0]]), [np.array([[1.0]])])
    assert hessian_form_w(prob, fac, np.zeros((1, 1))) == 0.0
    assert hessian_form_w(
        prob, fac, np.array([[1.0]])) == pytest.approx(2.0)


def test_hessian_quadratic_form_h_example():
    prob = new_problem(MultiViewDataset([np.ones((2, 2))]),
                       ConstraintSet.empty(), Hyperparameters(rank=2))
    fac = Factorization(np.eye(2), [np.ones((2, 2))])
    assert hessian_form_h(
        prob, fac, 0, np.eye(2)) == pytest.approx(4.0)


@pytest.mark.parametrize("seed", range(5))
def test_hessian_quadratic_forms_match_dense_kronecker(seed):
    prob = make_problem(seed=seed, m=3, n=(4, 2), r=2, lambda1=0.5,
                        lambda2=0.3, gamma1=0.2, gamma2=0.7)
    fac = random_factors(prob, seed=seed + 20)
    rng = np.random.default_rng(seed + 40)
    d_w = rng.standard_normal(fac.W.shape)
    tau1 = 0.13
    qw = dense_hessian_W(fac.H, prob.params.gamma1, tau1, prob.m)
    assert hessian_form_w(prob, fac, d_w, tau1) == pytest.approx(
        quad_form(qw, d_w), rel=1e-10)
    for i in range(prob.n_views):
        d_h = rng.standard_normal(fac.H[i].shape)
        tau2 = 0.21
        qh = dense_hessian_H(fac.W, prob.constraints.within_sym(i),
                             prob.params.lambda1, prob.params.gamma2, tau2,
                             prob.n[i])
        got = hessian_form_h(prob, fac, i, d_h, tau2)
        assert got == pytest.approx(quad_form(qh, d_h), rel=1e-10)


def test_hessian_quadratic_form_w_strictly_positive():
    prob = make_problem(seed=2, gamma1=0.5, with_constraints=False)
    fac = random_factors(prob, seed=1)
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = rng.standard_normal(fac.W.shape)
        assert hessian_form_w(prob, fac, d, 0.0) > 0.0


@pytest.mark.parametrize("seed", range(5))
def test_lipschitz_bounds_gradient_differences(seed):
    prob = make_problem(seed=seed, lambda1=0.4, lambda2=0.3, gamma1=0.2,
                        gamma2=0.5)
    rng = np.random.default_rng(seed + 100)
    fac = random_factors(prob, seed=seed)
    for _ in range(20):
        a = rng.random(fac.W.shape)
        b = rng.random(fac.W.shape)
        ga = grad_w(prob, Factorization(a, fac.H))
        gb = grad_w(prob, Factorization(b, fac.H))
        bound = lipschitz_w(prob, fac) * np.linalg.norm(a - b)
        assert np.linalg.norm(ga - gb) <= bound * (1 + 1e-12)
    for i in range(prob.n_views):
        for _ in range(20):
            ha = rng.random(fac.H[i].shape)
            hb = rng.random(fac.H[i].shape)
            fa, fb = fac.copy(), fac.copy()
            fa.H[i] = ha
            fb.H[i] = hb
            ga = grad_h(prob, fa, i)
            gb = grad_h(prob, fb, i)
            bound = lipschitz_h(prob, fac, i) * np.linalg.norm(ha - hb)
            assert np.linalg.norm(ga - gb) <= bound * (1 + 1e-12)


def test_quad_subproblem_gradients_match_full_gradients():
    # the quadratic models must reproduce F's gradients, written out
    prob = make_problem(seed=7, lambda1=0.3, lambda2=0.2, gamma1=0.1,
                        gamma2=0.6)
    p, cons = prob.params, prob.constraints
    fac = random_factors(prob, seed=8)
    w, hs, views = fac.W, fac.H, prob.dataset.views
    want_w = sum(2.0 * (w @ h - x) @ h.T for x, h in zip(views, hs))
    qw = w_subproblem(prob, fac.H)
    assert np.allclose(qw.grad(w.T).T, want_w + 2.0 * p.gamma1 * w,
                       rtol=1e-12)
    for i, (x, h) in enumerate(zip(views, hs)):
        want = 2.0 * w.T @ (w @ h - x) + 2.0 * p.gamma2 * np.ones(
            (prob.rank, prob.rank)) @ h
        for theta in cons.within.get(i, ()):
            want -= p.lambda1 * h @ (theta + theta.T)
        for (a, b), r_ab in cons.between.items():
            if a == i:
                want -= p.lambda2 * hs[b] @ r_ab.T
            if b == i:
                want -= p.lambda2 * hs[a] @ r_ab
        qh = h_subproblem(prob, fac.W, fac.H, i)
        assert np.allclose(qh.grad(h), want, rtol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_w_subproblem_is_the_w_quadratic_in_w_transpose(seed):
    # gamma1 > 0 and a proximal term about an anchor: the block W^T's
    # gradient, Hessian product, value and Lipschitz constant against the
    # m x r quadratic written out and its dense Kronecker Hessian
    prob = make_problem(seed=seed, m=5, n=(4, 3), r=3, gamma1=0.3)
    fac = random_factors(prob, seed=seed + 60)
    rng = np.random.default_rng(seed + 80)
    w, hs, views = fac.W, fac.H, prob.dataset.views
    anchor, d = rng.random(w.shape), rng.standard_normal(w.shape)
    gamma1, tau1 = prob.params.gamma1, 0.17
    q = w_subproblem(prob, hs, tau1=tau1, anchor=anchor.T)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    a = sum(h @ h.T for h in hs) + (gamma1 + tau1) * np.eye(prob.rank)
    grad = 2.0 * w @ a - 2.0 * sum(x @ h.T for x, h in zip(views, hs)) \
        - 2.0 * tau1 * anchor
    close(q.grad(w.T), grad.T)
    dense = dense_hessian_W(hs, gamma1, tau1, prob.m)
    close(q.hess_apply(d.T),
          (dense @ d.ravel(order="F")).reshape(w.shape, order="F").T)
    # value omits the constant sum_I ||X_I||^2 + tau1 ||anchor||^2
    block = (sum(float(np.sum((x - w @ h) ** 2)) for x, h in zip(views, hs))
             + gamma1 * float(np.sum(w * w))
             + tau1 * float(np.sum((w - anchor) ** 2)))
    constant = sum(float(np.sum(x * x)) for x in views) \
        + tau1 * float(np.sum(anchor * anchor))
    assert quad_value(q, w.T) + constant == pytest.approx(block,
                                                          rel=1e-12)
    assert q.lipschitz() == pytest.approx(np.linalg.eigvalsh(dense)[-1],
                                          rel=1e-12)


def counted_calls(monkeypatch, name):
    """Route the function ``name`` of jmf.objective through a call counter
    that records each call's positional arguments."""
    calls = []
    original = getattr(jmf.objective, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(jmf.objective, name, counting)
    return calls


def networked_problem():
    # lambda_max(B) is about 0.396 here, under 2 gamma2 = 0.5, so F is
    # bounded below and the solves run their iterations
    return make_problem(seed=3, lambda1=0.05, lambda2=0.05, gamma1=0.1,
                        gamma2=0.25)


# An H block's step size reads ||S_I||_2 through ``q.s_norm()``, which calls
# jmf.objective.within_top; solvers.py's own ``within_top`` (the boundedness
# check) is imported by name and so is not counted.
@pytest.mark.parametrize("algorithm", ["PG", "PANLS", "MUR"])
def test_solvers_without_step_size_never_compute_spectral_norms(
        monkeypatch, algorithm):
    calls = counted_calls(monkeypatch, "within_top")
    prob = networked_problem()
    cfg = SolverConfig(algorithm=algorithm, max_outer_iters=5)
    solve(prob, cfg, random_factors(prob, seed=4))
    assert calls == []


def test_projected_gradient_norm_never_computes_spectral_norms(monkeypatch):
    calls = counted_calls(monkeypatch, "within_top")
    prob = networked_problem()
    projected_gradient_norm(prob, random_factors(prob, seed=4))
    assert calls == []


# ``_top_eigenpair``'s operator size tells its callers apart: n_I for
# S_I's (``within_top``), sum_I n_I for B's (``network_curvature``, once
# per solve).

def test_ne_computes_each_within_norm_once(monkeypatch):
    # Ne's ||S_I||_2 and the boundedness check read one cached power
    # iteration per view (``within_top``)
    calls = counted_calls(monkeypatch, "_top_eigenpair")
    prob = networked_problem()
    cfg = SolverConfig(algorithm="Ne", max_outer_iters=5)
    _, report = solve(prob, cfg, random_factors(prob, seed=4))
    assert report.iterations > 1
    # one power iteration per view's summed within-constraints, then cached
    assert sorted(n for _, n, _ in calls) == sorted(
        prob.n + (sum(prob.n),))


def test_problems_on_one_constraint_set_share_its_power_iterations(
        monkeypatch):
    # a grid search builds one problem per weight cell on one constraint
    # set; S_I's power iteration still runs once per view
    calls = counted_calls(monkeypatch, "_top_eigenpair")
    base = networked_problem()
    for lambda1 in (0.05, 0.01):
        prob = new_problem(base.dataset, base.constraints,
                           replace(base.params, lambda1=lambda1))
        cfg = SolverConfig(algorithm="Ne", max_outer_iters=3)
        solve(prob, cfg, random_factors(prob, seed=4))
    assert sorted(n for _, n, _ in calls) == sorted(
        base.n + (sum(base.n),) * 2)


def star_or_path(kind: str, n: int) -> np.ndarray:
    """One direction of each edge of an n-node star (node 0 at the centre)
    or path, so that Theta + Theta^T is the network's adjacency matrix."""
    theta = np.zeros((n, n))
    for k in range(1, n):
        theta[0 if kind == "star" else k - 1, k] = 1.0
    return theta


@pytest.mark.parametrize("kind, n", [("path", 3), ("star", 5)])
def test_bipartite_networks_get_their_top_eigenpair(kind, n):
    # a path or star has -lambda_max beside lambda_max, so an unshifted
    # power iteration from a vector with both components never settles:
    # it read 1.3333 for the 3-node path's sqrt(2), 1.598 for the star's 2
    prob = new_problem(MultiViewDataset([np.ones((2, n))]),
                       ConstraintSet(within={0: [star_or_path(kind, n)]}),
                       Hyperparameters(rank=1, lambda1=1.0))
    s = prob.constraints.within_sym(0)
    top = np.linalg.eigvalsh(s)[-1]
    assert spectral_norm(s) == pytest.approx(top, rel=1e-6)
    v, vsv = within_top(prob, 0)
    assert vsv == pytest.approx(top, rel=1e-6)
    assert np.all(v >= 0) and np.linalg.norm(v) == pytest.approx(1.0)


def test_ne_step_size_covers_a_star_network():
    # 1/L is Ne's step, so L must not fall below the block's curvature:
    # on a star, 2 lambda_max(M) + lambda1 ||S||_2 is the dense Hessian's
    # top eigenvalue, which the unshifted iteration put at 59.50 of 59.93
    rng = np.random.default_rng(0)
    prob = new_problem(MultiViewDataset([rng.random((30, 40))]),
                       ConstraintSet(within={0: [star_or_path("star", 40)]}),
                       Hyperparameters(rank=3, lambda1=0.05, gamma2=1.0))
    fac = random_factors(prob, seed=1)
    q = h_subproblem(prob, fac.W, fac.H, 0)
    hess = dense_hessian_H(fac.W, prob.constraints.within_sym(0), 0.05, 1.0,
                           0.0, 40)
    assert q.lipschitz() >= np.linalg.eigvalsh(hess)[-1] * (1 - 1e-6)


@pytest.mark.parametrize("mat", [np.zeros((0, 0)), np.zeros((3, 3))],
                         ids=["empty", "zero"])
def test_spectral_norm_of_an_empty_or_zero_matrix_is_zero(mat):
    # with no warning, which the suite's filterwarnings would raise
    assert spectral_norm(mat) == 0.0


def test_within_top_is_bitwise_the_spectral_norm_on_d1():
    truth = generate(SyntheticSpec("D1", seed=0))
    prob = new_problem(truth.to_dataset(), truth.constraints,
                       Hyperparameters(rank=truth.rank, lambda1=1e-3))
    for view in range(prob.n_views):
        _, vsv = within_top(prob, view)
        assert vsv == spectral_norm(prob.constraints.within_sym(view))


# ---------------------------------------------------------------------------
# network curvature: F is bounded below iff lambda_max(B) <= 2 gamma2


def written_penalty(prob, w, hs) -> float:
    """F's penalty at (W, H_I), everything but the fit, written out over
    H = [H_1 ... H_N] with B dense: -1/2 Tr(H B H^T) + gamma1 ||W||^2 +
    gamma2 sum_j ||h_j||_1^2."""
    h = np.hstack(hs)
    p = prob.params
    return (-0.5 * np.trace(h @ dense_network_matrix(prob) @ h.T)
            + p.gamma1 * np.sum(w ** 2)
            + p.gamma2 * np.sum(h.sum(axis=0) ** 2))


def dense_network_matrix(prob) -> np.ndarray:
    """B over all views' columns: lambda1 S_I on diagonal block I,
    lambda2 R_IJ at (I, J) and R_IJ^T at (J, I)."""
    p, cons = prob.params, prob.constraints
    cuts = np.cumsum((0,) + prob.n)
    blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    b = np.zeros((cuts[-1], cuts[-1]))
    for i, mats in cons.within.items():
        for theta in mats:
            b[blocks[i], blocks[i]] += p.lambda1 * (theta + theta.T)
    for (i, j), r in cons.between.items():
        b[blocks[i], blocks[j]] += p.lambda2 * r
        b[blocks[j], blocks[i]] += p.lambda2 * r.T
    return b


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("lambda1, lambda2", [
    (0.3, 0.2), (0.0, 0.2), (0.3, 0.0), (0.0, 0.0)],
    ids=["both", "between-only", "within-only", "none"])
def test_network_product_is_h_times_the_dense_network_matrix(
        rows, lambda1, lambda2):
    prob = make_problem(seed=5, m=5, n=(7, 4, 9), lambda1=lambda1,
                        lambda2=lambda2)
    rng = np.random.default_rng(rows)
    hs = [rng.random((rows, n)) for n in prob.n]
    got = network_product(prob, hs)
    assert [hb.shape for hb in got] == [h.shape for h in hs]
    np.testing.assert_allclose(np.hstack(got),
                               np.hstack(hs) @ dense_network_matrix(prob),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("lambda1, lambda2", [(0.3, 0.2), (0.0, 0.0)])
def test_networks_lists_what_each_view_reads_under_its_weights(
        lambda1, lambda2):
    # make_problem stores R_01, R_02 and R_12: a stored R_IJ enters view I
    # as R_IJ^T and view J as itself
    prob = make_problem(seed=5, m=5, n=(7, 4, 9), lambda1=lambda1,
                        lambda2=lambda2)
    cons = prob.constraints
    for view, partners in enumerate([[1, 2], [0, 2], [0, 1]]):
        s, pairs = networks(prob, view)
        assert s is (cons.within_sym(view) if lambda1 else None)
        assert [j for j, _ in pairs] == (partners if lambda2 else [])
        for j, mat in pairs:
            want = (cons.between[(view, j)].T if view < j
                    else cons.between[(j, view)])
            assert mat.shape == (prob.n[j], prob.n[view])
            assert np.array_equal(mat, want)


@pytest.mark.parametrize("seed", range(3))
def test_penalty_is_half_the_network_quadratic_plus_the_sparsity_terms(
        seed):
    prob = make_problem(seed=seed, m=5, n=(7, 4, 9), lambda1=0.3,
                        lambda2=0.2, gamma1=0.1, gamma2=0.6)
    fac = random_factors(prob, seed=seed + 20)
    assert orbit_penalty(prob.params, penalty_terms(prob, fac)) == \
        pytest.approx(written_penalty(prob, fac.W, fac.H), rel=1e-12)


@pytest.mark.parametrize("cap", [1, 3])
def test_power_iteration_stopped_at_its_cap_keeps_its_bounds(monkeypatch,
                                                             cap):
    # ``_top_eigenpair`` returns its last iterate when the quotient still
    # moves at the cap: network_curvature's lambda stays a lower bound on
    # lambda_max(B), which its refusals rely on, and within_top's v stays
    # a unit vector >= 0
    prob = make_problem(seed=3, m=5, n=(7, 4, 9), lambda1=0.3, lambda2=0.2)
    converged = within_top(make_problem(seed=3, lambda1=0.3), 0)[1]
    monkeypatch.setattr(jmf.objective, "_POWER_MAX_ITER", cap)
    quotients, product = [], jmf.objective.network_product

    def spy(problem, rows):
        out = product(problem, rows)
        quotients.append(sum(float(np.vdot(a, b)) for a, b in zip(rows, out)))
        return out

    monkeypatch.setattr(jmf.objective, "network_product", spy)
    lam, v = network_curvature(prob)
    assert len(quotients) == cap + 1  # the start and cap iterations
    assert abs(quotients[-1] - quotients[-2]) > (
        jmf.objective._CURVATURE_TOL * quotients[-1])
    assert lam == pytest.approx(quotients[-1], rel=1e-12)
    assert lam <= np.linalg.eigvalsh(dense_network_matrix(prob))[-1]
    assert np.all(v >= 0) and np.linalg.norm(v) == pytest.approx(1.0)
    capped = make_problem(seed=3, lambda1=0.3)
    v, vsv = within_top(capped, 0)
    s = capped.constraints.within_sym(0)
    assert np.all(v >= 0) and np.linalg.norm(v) == pytest.approx(1.0)
    assert vsv < converged <= np.linalg.eigvalsh(s)[-1] * (1 + 1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda p, f: reconstruction_error(p, Factorization(f.W[1:], f.H)),
     r"^W shape \(5, 2\) != \(6, 2\)"),
    (lambda p, f: projected_gradient_norm(p, Factorization(f.W, f.H[:-1])),
     "^factor view count does not match"),
    (lambda p, f: objective_value(p, Factorization(f.W, [h[:, 1:]
                                                         for h in f.H])),
     r"^H\[0\] shape \(2, 3\) != \(2, 4\)"),
], ids=["w-shape", "view-count", "h-shape"])
def test_objective_rejects_factors_that_do_not_fit(call, message):
    prob = make_problem(seed=0)
    with pytest.raises(ValueError, match=message):
        call(prob, random_factors(prob))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lambda1, lambda2", [
    (0.3, 0.2), (0.0, 0.2), (0.3, 0.0), (1e-3, 50.0)],
    ids=["both", "bipartite", "within-only", "between-heavy"])
def test_network_curvature_matches_the_dense_top_eigenvalue(
        seed, lambda1, lambda2):
    prob = make_problem(seed=seed, m=5, n=(7, 4, 9), lambda1=lambda1,
                        lambda2=lambda2)
    b = dense_network_matrix(prob)
    top = np.linalg.eigvalsh(b)[-1]
    lam, v = network_curvature(prob)
    # the Rayleigh quotient of a unit v >= 0: a lower bound, close to it
    assert v.shape == (sum(prob.n),) and np.all(v >= 0)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert lam == pytest.approx(float(v @ b @ v), rel=1e-12)
    assert lam <= top * (1 + 1e-12)
    assert lam >= top * (1 - 1e-3)


def test_network_curvature_of_no_weighted_network_is_zero(monkeypatch):
    prob = make_problem(seed=1)  # networks stored, both weights 0
    monkeypatch.setattr(prob.constraints, "within_sym", None)
    lam, v = network_curvature(prob)
    assert lam == 0.0 and np.linalg.norm(v) == pytest.approx(1.0)
    bare = make_problem(seed=1, lambda1=1.0, lambda2=1.0,
                        with_constraints=False)
    assert network_curvature(bare)[0] == 0.0
    # networks stored under positive weights, every one of them 0
    zeros = new_problem(bare.dataset, ConstraintSet(
        within={0: [np.zeros((4, 4))]}, between={(1, 2): np.zeros((5, 3))}),
        bare.params)
    lam, v = network_curvature(zeros)
    assert lam == 0.0 and np.array_equal(v, np.full(12, 1 / np.sqrt(12)))


@pytest.mark.parametrize("algorithm", ["MUR", "PANLS"])
def test_a_near_tie_with_2_gamma2_is_decided_soundly(algorithm):
    # lambda never exceeds lambda_max(B), so at 2 gamma2 just above
    # lambda_max(B) it never reports F unbounded, and no solve refuses
    # the problem with that proof
    base = make_problem(seed=2, m=5, n=(7, 4, 9), lambda1=0.3, lambda2=0.2,
                        gamma1=0.1)
    top = np.linalg.eigvalsh(dense_network_matrix(base))[-1]
    prob = new_problem(base.dataset, base.constraints,
                       replace(base.params, gamma2=top / 2 * (1 + 1e-9)))
    lam, _ = network_curvature(prob)
    assert not lam > 2 * prob.params.gamma2
    try:
        solve(prob, SolverConfig(algorithm=algorithm, max_outer_iters=30),
              random_factors(prob, seed=1))
    except DivergenceError as err:
        assert not err.unbounded, str(err)


@pytest.mark.parametrize("lambda1, lambda2", [(0.3, 0.2), (0.0, 0.2)])
def test_f_along_the_perron_ray_has_the_curvature_of_the_test(
        lambda1, lambda2):
    # W's column k at 0 and H's row k at t v: F is quadratic in t with
    # leading coefficient gamma2 ||v||^2 - v^T B v / 2, so its second
    # difference F(0) - 2 F(t) + F(2t) is 2 t^2 times that
    prob = make_problem(seed=4, m=5, n=(7, 4, 9), lambda1=lambda1,
                        lambda2=lambda2, gamma1=0.1, gamma2=0.05)
    lam, v = network_curvature(prob)
    fac = random_factors(prob, seed=6)
    k, t = 1, 3.0
    fac.W[:, k] = 0.0
    parts = np.split(v, np.cumsum(prob.n)[:-1])

    def f_at(scale):
        for h, part in zip(fac.H, parts):
            h[k] = scale * part
        return objective_value(prob, fac)

    second = f_at(0.0) - 2 * f_at(t) + f_at(2 * t)
    expected = 2 * t * t * (prob.params.gamma2 * float(v @ v) - lam / 2)
    assert expected < 0  # this ray proves F unbounded
    assert second == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# one network product per outer step: F, F before the rescale and the
# projected-gradient norm read the (H B)_I of ``network_product``

def d1_grid():
    """D1 instance 0 at each of the 18 cells of perfbench's d1-net-grid,
    with its ``init_factors``, whose W columns have norms 3.7-4.5."""
    truth = generate(SyntheticSpec("D1", seed=0))
    data = truth.to_dataset()
    for l1, l2, g2 in itertools.product((1e-3, 1e-2, 1e-1),
                                        (1e-3, 1e-2, 1e-1), (0.01, 0.1)):
        prob = new_problem(data, truth.constraints, Hyperparameters(
            rank=truth.rank, lambda1=l1, lambda2=l2, gamma1=1e-4,
            gamma2=g2))
        yield prob, init_factors(prob, 0)


def networked_cases():
    """The D1 grid, then small random problems under all four weights."""
    yield from d1_grid()
    for seed in range(3):
        prob = make_problem(seed=seed, m=5, n=(7, 4, 9), lambda1=0.3,
                            lambda2=0.2, gamma1=0.1, gamma2=0.6)
        yield prob, random_factors(prob, seed=seed + 20)


def network_free_cases():
    """Problems whose networks F does not read: no weight, or none
    stored under positive weights."""
    yield make_problem(seed=1, gamma1=0.1, gamma2=0.6)
    yield make_problem(seed=2, lambda1=1.0, lambda2=1.0, gamma2=0.3,
                       with_constraints=False)


def rebuilt_gradient_norm(prob, fac):
    """The projected-gradient norm from each block's quadratic, W's and
    every H_I's built afresh."""
    wt = fac.W.T
    norms = [projected_norm(wt, w_subproblem(prob, fac.H).grad(wt))]
    for i, h in enumerate(fac.H):
        norms.append(projected_norm(
            h, h_subproblem(prob, fac.W, fac.H, i).grad(h)))
    return float(np.linalg.norm(norms))


@pytest.mark.parametrize("zero_column", [False, True])
def test_orbit_penalty_is_the_penalty_along_the_rescale_orbit(zero_column):
    # F's penalty at (W D^-1, D H_I), D = diag(d), written out with B
    # dense, at d = 1 and at random d > 0; a zero column of W carries
    # c_k = 0 at every d
    rng = np.random.default_rng(7)
    cases = [*networked_cases(), *((prob, random_factors(prob, seed=3))
                                   for prob in network_free_cases())]
    for prob, fac in cases:
        if zero_column:
            fac.W[:, 1] = 0.0
        terms, p = penalty_terms(prob, fac), prob.params
        assert orbit_penalty(p, terms) == pytest.approx(
            written_penalty(prob, fac.W, fac.H), rel=1e-12)
        for d in rng.uniform(0.2, 5.0, (3, prob.rank)):
            want = written_penalty(prob, fac.W / d,
                                   [d[:, None] * h for h in fac.H])
            assert orbit_penalty(p, terms, d) == pytest.approx(want,
                                                               rel=1e-12)


def test_the_record_holds_the_network_product_and_w_gram_bitwise():
    for prob, fac in networked_cases():
        c, a, gram, hb, wtw = penalty_terms(prob, fac)
        want = network_product(prob, fac.H)
        assert len(hb) == len(want)
        for got, block in zip(hb, want):
            assert got.tobytes() == block.tobytes()
        assert wtw.tobytes() == (fac.W.T @ fac.W).tobytes()
    for prob in network_free_cases():
        fac = random_factors(prob, seed=3)
        c, a, gram, hb, wtw = penalty_terms(prob, fac)
        assert hb is None
        assert wtw.tobytes() == (fac.W.T @ fac.W).tobytes()


def test_penalty_before_the_rescale_is_closed_form():
    # the penalty of the factors before the rescale is the orbit's at
    # d = 1 / norms, from the terms of the rescaled factors
    for prob, fac in networked_cases():
        want = written_penalty(prob, fac.W, fac.H)
        scaled = fac.copy()
        norms = _rescale(scaled.W, scaled.H)
        assert not np.allclose(norms, 1.0)
        got = orbit_penalty(prob.params, penalty_terms(prob, scaled),
                            1.0 / norms)
        assert got == pytest.approx(want, rel=1e-12)


def test_gradient_norm_given_the_network_product_matches_the_rebuild():
    for prob, fac in networked_cases():
        got = projected_gradient_norm(prob, fac,
                                      terms=penalty_terms(prob, fac))
        assert got == pytest.approx(rebuilt_gradient_norm(prob, fac),
                                    rel=1e-12)
    for prob in network_free_cases():
        fac = random_factors(prob, seed=3)
        assert repr(projected_gradient_norm(prob, fac)) == repr(
            rebuilt_gradient_norm(prob, fac))


def test_a_problem_without_networks_forms_no_network_product(monkeypatch):
    calls = counted_calls(monkeypatch, "network_product")
    for prob in network_free_cases():
        fac = random_factors(prob, seed=3)
        # F in closed form with the row terms of the zero blocks of (H B)_I
        # written in: skipping them changes no bit of F
        c, _, gram, _, wtw = penalty_terms(prob, fac)
        zeros = [np.zeros_like(h) for h in fac.H]
        a = sum(np.einsum("ij,ij->i", h, z) for h, z in zip(fac.H, zeros))
        terms = (c, a, gram, zeros, wtw)
        hxt = view_products(prob.dataset.views, fac.H)
        assert repr(objective_value(prob, fac)) == repr(
            _fit(prob, fac, hxt, terms) + orbit_penalty(prob.params, terms))
        projected_gradient_norm(prob, fac)
        step = _outer_step(prob, SolverConfig(), fac, hxt, 0.0)
        assert step.f == objective_value(prob, step.factors, step.hxt)
    assert calls == []


def test_an_outer_step_builds_each_block_quadratic_once(monkeypatch):
    # W's build and one per H_I; the gradient norm builds none
    prob = make_problem(seed=0, m=5, n=(7, 4, 9), lambda1=0.3,
                        lambda2=0.2, gamma1=0.1, gamma2=0.6)
    fac = random_factors(prob, seed=20)
    assert jmf.objective.reads_networks(prob)
    built = []
    post_init = jmf.objective.QuadSubproblem.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(jmf.objective.QuadSubproblem, "__post_init__",
                        counted)
    hxt = view_products(prob.dataset.views, fac.H)
    _outer_step(prob, SolverConfig(algorithm="PG"), fac, hxt, 0.0)
    assert len(built) == 1 + prob.n_views


def refuse_sweep(*args):
    raise DivergenceError("refused", unbounded=True)


def test_a_problems_weighted_networks_are_freed_with_it(monkeypatch):
    # lambda1 S_I is formed once per problem and view, at its first H_I
    # build, and held by the problem alone: the constraint set, which
    # every problem of a grid shares, and the module hold no copy
    prob = networked_problem()
    cons, data, params = prob.constraints, prob.dataset, prob.params
    fac = random_factors(prob, seed=4)
    solve(prob, SolverConfig(max_outer_iters=3), fac)
    held = weighted_within(prob, 0)
    np.testing.assert_array_equal(held, params.lambda1 * cons.within_sym(0))
    assert weighted_within(prob, 0) is held
    assert h_subproblem(prob, fac.W, fac.H, 0).weighted_s is held
    ref = weakref.ref(held)
    del prob, held
    gc.collect()
    assert ref() is None
    # a solve refused before it builds an H_I block forms none
    prob = new_problem(data, cons, params)
    monkeypatch.setattr(jmf.solvers, "_check_sweep", refuse_sweep)
    with pytest.raises(DivergenceError):
        solve(prob, SolverConfig(), fac)
    assert prob._weighted_within == {}
