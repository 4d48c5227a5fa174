from dataclasses import replace

import numpy as np
import pytest

import jmf.solvers
from jmf import (ConstraintSet, Factorization, Hyperparameters,
                 MultiViewDataset, SolverConfig, SyntheticSpec, TrainedModel,
                 generate, init_factors, new_problem, predict_class,
                 predict_left, predict_right, predict_view, solve)
from jmf.model import DivergenceError
from jmf.objective import (h_subproblem, projected_norm, view_products,
                           w_subproblem)
from oracles import make_problem, random_factors
from test_engines import count_products

CFG = SolverConfig(algorithm="Ne", stop_rule="ObjectiveRatio",
                   tolerance=1e-9)


def trained_model(seed=0, **weights):
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=seed))
    prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                       Hyperparameters(rank=truth.rank, **weights))
    factors, report = solve(prob, CFG, init_factors(prob, seed))
    return TrainedModel(factors, prob.params, config=CFG), truth


def ground_truth_model(seed=0):
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=seed))
    prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                       Hyperparameters(rank=truth.rank))
    factors = Factorization(truth.w0, [h.astype(float) for h in truth.h0])
    return TrainedModel(factors, prob.params, config=CFG), truth


def test_predict_left_resolve_reproduces_training_error():
    model, truth = trained_model()
    test = {i: x for i, x in enumerate(truth.x0)}
    w_hat = predict_left(model, test)
    err_hat = sum(np.sum((x - w_hat @ h) ** 2)
                  for x, h in zip(truth.x0, model.factors.H))
    err_train = sum(np.sum((x - model.factors.W @ h) ** 2)
                    for x, h in zip(truth.x0, model.factors.H))
    assert err_hat <= err_train * (1 + 1e-6) + 1e-9


def test_predict_left_scales_linearly_with_test_rows():
    model, truth = ground_truth_model()
    row = 5
    test = {i: 2.0 * x[row:row + 1, :] for i, x in enumerate(truth.x0)}
    w_hat = predict_left(model, test)
    assert w_hat.shape == (1, truth.rank)
    assert np.allclose(w_hat[0], 2.0 * truth.w0[row], atol=1e-6)


def test_predict_left_zero_rows_with_ridge_gives_zero():
    model, truth = trained_model(gamma1=0.5)
    test = {i: np.zeros((3, x.shape[1])) for i, x in enumerate(truth.x0)}
    w_hat = predict_left(model, test)
    assert np.allclose(w_hat, 0.0, atol=1e-10)


def test_predict_left_rejects_bad_columns():
    model, truth = trained_model()
    with pytest.raises(ValueError):
        predict_left(model, {0: np.ones((2, truth.x0[0].shape[1] + 1))})
    with pytest.raises(ValueError):
        predict_left(model, {})
    rows = {i: np.ones((2 + i, x.shape[1])) for i, x in enumerate(truth.x0)}
    with pytest.raises(ValueError, match="disagree on the row count"):
        predict_left(model, rows)


def test_predict_left_takes_a_list_of_views():
    model, truth = trained_model()
    rng = np.random.default_rng(0)
    test = [rng.random((4, x.shape[1])) for x in truth.x0]
    assert np.array_equal(predict_left(model, test),
                          predict_left(model, dict(enumerate(test))))


def test_predict_left_output_nonnegative():
    model, truth = trained_model()
    rng = np.random.default_rng(0)
    test = {i: rng.random((4, x.shape[1])) for i, x in enumerate(truth.x0)}
    assert predict_left(model, test).min() >= 0


@pytest.mark.parametrize("algorithm", ["PG"])
def test_predict_left_stops_at_an_exhausted_search(monkeypatch, algorithm):
    prob = make_problem(seed=3, m=10, n=(6, 8), r=3)
    model = TrainedModel(random_factors(prob, seed=1), prob.params,
                         prob.constraints)
    # one trial step, far too long: the first search runs out
    monkeypatch.setattr(jmf.solvers, "_MAX_BACKTRACKS", 0)
    monkeypatch.setattr(jmf.solvers, "_ALPHA0", 1e12)
    cfg = SolverConfig(algorithm=algorithm)
    count = count_products(monkeypatch)
    with pytest.warns(RuntimeWarning):
        w_hat = predict_left(model, prob.dataset, cfg)
    assert count[0] <= 5
    # the search left the start, rng(config.seed).random, where it was
    start = np.random.default_rng(cfg.seed).random((prob.m, prob.rank))
    assert np.array_equal(w_hat, start)


@pytest.mark.parametrize("algorithm", ["PG", "PANLS"])
def test_predict_right_stops_at_an_exhausted_search(monkeypatch, algorithm):
    # an H block with lambda1 S_I runs the step-size searches; PANLS solves
    # the other blocks exactly
    prob = make_problem(seed=3, m=10, n=(6, 8), r=3, lambda1=1e-3)
    model = TrainedModel(random_factors(prob, seed=1), prob.params,
                         prob.constraints)
    # one trial step, far too long: the first search runs out
    monkeypatch.setattr(jmf.solvers, "_MAX_BACKTRACKS", 0)
    monkeypatch.setattr(jmf.solvers, "_ALPHA0", 1e12)
    cfg = SolverConfig(algorithm=algorithm)
    count = count_products(monkeypatch)
    with pytest.warns(RuntimeWarning):
        hs = predict_right(model, prob.dataset, cfg)
    assert count[0] <= 5
    # the first view's search left its start, rng(config.seed).random,
    # where it was, and the sweep stopped before the second view
    rng = np.random.default_rng(cfg.seed)
    for h, n in zip(hs, prob.n):
        assert np.array_equal(h, rng.random((prob.rank, n)))


def networked_d1_model(algorithm, lambda1):
    """A D1 model trained without networks, then given its networks at
    ``lambda1``."""
    model, truth = trained_model()
    return TrainedModel(model.factors, replace(model.params, lambda1=lambda1),
                        truth.constraints,
                        SolverConfig(algorithm=algorithm)), truth


@pytest.mark.parametrize("algorithm", ["PG", "Ne", "PANLS"])
def test_predict_right_names_an_unbounded_view(algorithm):
    model, truth = networked_d1_model(algorithm, lambda1=1.0)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(DivergenceError,
                           match="view 0's H block is unbounded below"):
            predict_right(model, dict(enumerate(truth.x0)))


def test_predict_left_solves_the_panls_w_block_exactly(monkeypatch):
    model, truth = networked_d1_model("PANLS", lambda1=1e-3)
    test = {i: x[:20] for i, x in enumerate(truth.x0)}
    count = count_products(monkeypatch)
    w_hat = predict_left(model, test)
    assert count[0] == 0
    # the W quadratic is written in the block W^T
    q = w_subproblem(model, model.factors.H,
                     hxt=view_products(list(test.values()), model.factors.H))
    start = np.random.default_rng(0).random(w_hat.shape).T
    pn0 = projected_norm(start, q.grad(start))
    assert w_hat.min() >= 0
    assert projected_norm(w_hat.T, q.grad(w_hat.T)) <= 1e-9 * pn0


@pytest.mark.parametrize("algorithm", ["PG", "Ne", "PANLS"])
def test_predict_solves_blocks_with_a_singular_matrix(algorithm):
    # a component that no view uses: with gamma1 = gamma2 = 0 and no
    # proximal term, the W and H blocks' r x r matrices are singular
    model, truth = ground_truth_model()
    w = np.hstack([model.factors.W, np.zeros((model.factors.W.shape[0], 1))])
    hs = [np.vstack([h, np.zeros((1, h.shape[1]))]) for h in model.factors.H]
    model = TrainedModel(Factorization(w, hs), replace(model.params,
                                                       rank=w.shape[1]),
                         config=replace(CFG, algorithm=algorithm))
    test = dict(enumerate(truth.x0))
    x_hat = predict_left(model, test) @ model.factors.H[0]
    assert np.allclose(x_hat, truth.x0[0], atol=1e-6)
    for h, x in zip(predict_right(model, test), truth.x0):
        assert np.allclose(w @ h, x, atol=1e-6)


def test_trained_model_rejects_a_rank_that_w_does_not_have():
    prob = make_problem(seed=3, m=10, n=(6, 8), r=3)
    fac = random_factors(prob, seed=1)
    with pytest.raises(ValueError, match="rank 2 does not match the 3 "):
        TrainedModel(fac, replace(prob.params, rank=2))


@pytest.mark.parametrize("bad, message", [
    ({"within": {0: [np.ones((8, 8))]}}, r"within\[0\]\[0\] shape \(8, 8\)"),
    ({"within": {2: [np.ones((6, 6))]}}, "unknown view 2"),
    ({"between": {(0, 1): np.ones((8, 6))}}, r"between\[0,1\] shape \(8, 6\)"),
    ({"between": {(0, 2): np.ones((6, 6))}}, r"unknown pair \(0,2\)"),
], ids=["within-shape", "within-view", "between-shape", "between-pair"])
def test_trained_model_rejects_constraints_that_do_not_fit_h(bad, message):
    prob = make_problem(seed=3, m=10, n=(6, 8), r=3)
    fac = random_factors(prob, seed=1)
    TrainedModel(fac, prob.params, prob.constraints)
    with pytest.raises(ValueError, match=message):
        TrainedModel(fac, prob.params, ConstraintSet(**bad))


def test_predict_class_examples():
    assert predict_class(np.array([[0.1, 0.9, 0.3]])).tolist() == [1]
    assert predict_class(np.array([[0.5, 0.5, 0.5]])).tolist() == [0]
    assert predict_class(np.eye(3)).tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="empty basis matrix"):
        predict_class(np.empty((0, 3)))


def test_predict_class_scale_invariant():
    rng = np.random.default_rng(1)
    w = rng.random((6, 4))
    assert np.array_equal(predict_class(w), predict_class(17.0 * w))


def test_predict_view_zero_noise_exact():
    model, truth = ground_truth_model()
    test = {i: truth.x0[i] for i in (1, 2)}
    x_hat = predict_view(model, test, target_view=0)
    assert np.allclose(x_hat, truth.x0[0], atol=1e-8)


def test_predict_view_rejects_target_in_input():
    model, truth = ground_truth_model()
    with pytest.raises(ValueError):
        predict_view(model, {0: truth.x0[0], 1: truth.x0[1]}, target_view=0)


@pytest.mark.parametrize("target", [-1, 3])
def test_predict_view_rejects_unknown_target(target):
    model, truth = ground_truth_model()
    with pytest.raises(ValueError, match=f"unknown view index {target}"):
        predict_view(model, {0: truth.x0[0]}, target_view=target)


def test_predict_view_one_dim_multiplication():
    views = [np.array([[3.0, 3.0]]), np.array([[3.0]])]
    prob = new_problem(MultiViewDataset(views), ConstraintSet.empty(),
                       Hyperparameters(rank=1))
    factors = Factorization(np.array([[1.0]]),
                            [np.array([[1.0, 1.0]]), np.array([[1.0]])])
    model = TrainedModel(factors, prob.params, config=CFG)
    x_hat = predict_view(model, {1: np.array([[3.0]])}, target_view=0)
    assert np.allclose(x_hat, [[3.0, 3.0]], atol=1e-6)


def test_predict_right_resolve_reproduces_training_error():
    model, truth = trained_model()
    test = {i: x for i, x in enumerate(truth.x0)}
    hs = predict_right(model, test)
    err_hat = sum(np.sum((x - model.factors.W @ h) ** 2)
                  for x, h in zip(truth.x0, hs))
    err_train = sum(np.sum((x - model.factors.W @ h) ** 2)
                    for x, h in zip(truth.x0, model.factors.H))
    assert err_hat <= err_train * (1 + 1e-6) + 1e-9


def test_predict_right_zero_data_gives_zero():
    model, truth = trained_model()
    test = {0: np.zeros((45, 7))}
    hs = predict_right(model, test)
    assert np.allclose(hs[0], 0.0, atol=1e-10)


def test_predict_right_duplicated_columns_agree():
    model, truth = trained_model()
    col = truth.x0[0][:, :1]
    test = {0: np.tile(col, (1, 4))}
    hs = predict_right(model, test)
    for j in range(1, 4):
        assert np.allclose(hs[0][:, j], hs[0][:, 0], atol=1e-8)


def test_predict_right_rejects_row_mismatch():
    model, truth = trained_model()
    with pytest.raises(ValueError):
        predict_right(model, {0: np.ones((44, 5))})


def nan_entry(x):
    x = x.copy()
    x[0, 0] = np.nan
    return x


@pytest.mark.parametrize("mode, bad, message", [
    ("left", nan_entry, "test view 0 contains non-finite entries"),
    ("left", lambda x: -x, "test view 0 has negative entries"),
    ("right", lambda x: np.full_like(x, np.nan),
     "test view 0 contains non-finite entries"),
    ("right", lambda x: np.where(x > 0, np.inf, x),
     "test view 0 contains non-finite entries"),
], ids=["left-nan-entry", "left-negative", "right-all-nan", "right-inf"])
def test_prediction_refuses_a_test_view_no_training_view_could_be(
        mode, bad, message):
    # a NaN entry gave JMF/L an all-NaN basis row, and an all-NaN view gave
    # JMF/R zeros, each without an error
    model, truth = ground_truth_model()
    x = truth.x0[0][:5] if mode == "left" else truth.x0[0][:, :7]
    predict = predict_left if mode == "left" else predict_right
    with pytest.raises(ValueError, match=message):
        predict(model, {0: bad(x)})


def test_predict_right_rejects_unknown_view_and_vectors():
    model, truth = ground_truth_model()
    with pytest.raises(ValueError, match="unknown view index 5"):
        predict_right(model, {5: truth.x0[0]})
    with pytest.raises(ValueError):
        predict_right(model, {0: truth.x0[0][:, 0]})


def test_predict_right_output_nonnegative():
    model, truth = trained_model()
    rng = np.random.default_rng(2)
    test = {i: rng.random((45, 6)) for i in range(3)}
    hs = predict_right(model, test)
    assert all(h.min() >= 0 for h in hs)


def test_predict_right_sweeps_views_in_order():
    # each view's subproblem must see the partners updated earlier in the
    # same sweep, so after one sweep the last view is solved against the
    # returned partners
    prob = make_problem(seed=1, m=8, n=(5, 6), r=2, lambda1=0.05,
                        lambda2=0.5, gamma2=0.1)
    fac = random_factors(prob, seed=2)
    cfg = SolverConfig(algorithm="PG", tolerance=1e-10, max_outer_iters=1)
    model = TrainedModel(fac, prob.params, prob.constraints, cfg)
    with pytest.warns(RuntimeWarning, match="max_outer_iters = 1"):
        hs = predict_right(model, dict(enumerate(prob.dataset.views)))
    last = prob.n_views - 1
    q = h_subproblem(prob, fac.W, hs, last)
    # predict_right starts every view from rng(config.seed).random
    rng = np.random.default_rng(cfg.seed)
    h_start = [rng.random((prob.rank, ni)) for ni in prob.n][last]
    pn0 = projected_norm(h_start, q.grad(h_start))
    assert projected_norm(hs[last], q.grad(hs[last])) <= cfg.tolerance * pn0


def test_predict_right_warns_when_its_sweeps_reach_the_cap():
    # the between-view terms couple the views, so one sweep leaves the
    # residual above its target, and a prediction capped there says so
    # instead of returning as if it had converged; uncapped, the same
    # prediction converges without a warning
    prob = make_problem(seed=1, m=8, n=(5, 6), r=2, lambda1=0.05,
                        lambda2=0.5, gamma2=0.1)
    cfg = SolverConfig(algorithm="PG", tolerance=1e-10, max_outer_iters=1)
    model = TrainedModel(random_factors(prob, seed=2), prob.params,
                         prob.constraints, cfg)
    test = dict(enumerate(prob.dataset.views))
    with pytest.warns(RuntimeWarning, match=(
            r"reached max_outer_iters = 1 with the projected-gradient "
            r"residual \S+ above its target")):
        hs = predict_right(model, test)
    assert [h.shape for h in hs] == [h.shape for h in model.factors.H]
    predict_right(model, test, replace(cfg, max_outer_iters=2000))
