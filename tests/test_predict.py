import numpy as np
import pytest

from jmf import (ConstraintSet, Factorization, Hyperparameters,
                 MultiViewDataset, SolverConfig, SyntheticSpec, TrainedModel,
                 generate, init_factors, new_problem, predict_class,
                 predict_left, predict_right, predict_view, solve)
from jmf.objective import h_subproblem
from jmf.solvers import _pgn
from oracles import make_problem, random_factors

CFG = SolverConfig(algorithm="Ne", stop_rule="ObjectiveRatio",
                   tolerance=1e-9)


def trained_model(seed=0, **weights):
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=seed))
    prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                       Hyperparameters(rank=truth.rank, **weights))
    factors, report = solve(prob, CFG, init_factors(prob, seed))
    return TrainedModel(problem=prob, factors=factors, config=CFG), truth


def ground_truth_model(seed=0):
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=seed))
    prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                       Hyperparameters(rank=truth.rank))
    factors = Factorization(truth.w0, [h.astype(float) for h in truth.h0])
    return TrainedModel(problem=prob, factors=factors, config=CFG), truth


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


def test_predict_left_output_nonnegative():
    model, truth = trained_model()
    rng = np.random.default_rng(0)
    test = {i: rng.random((4, x.shape[1])) for i, x in enumerate(truth.x0)}
    assert predict_left(model, test).min() >= 0


def test_predict_class_examples():
    assert predict_class(np.array([[0.1, 0.9, 0.3]])).tolist() == [1]
    assert predict_class(np.array([[0.5, 0.5, 0.5]])).tolist() == [0]
    assert predict_class(np.eye(3)).tolist() == [0, 1, 2]


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


def test_predict_view_one_dim_multiplication():
    views = [np.array([[3.0, 3.0]]), np.array([[3.0]])]
    prob = new_problem(MultiViewDataset(views), ConstraintSet.empty(),
                       Hyperparameters(rank=1))
    factors = Factorization(np.array([[1.0]]),
                            [np.array([[1.0, 1.0]]), np.array([[1.0]])])
    model = TrainedModel(problem=prob, factors=factors, config=CFG)
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
    model = TrainedModel(problem=prob, factors=fac, config=cfg)
    hs = predict_right(model, dict(enumerate(prob.dataset.views)))
    last = prob.n_views - 1
    q = h_subproblem(prob, fac.W, hs, last)
    # predict_right starts every view from rng(config.seed).random
    rng = np.random.default_rng(cfg.seed)
    h_start = [rng.random((prob.rank, ni)) for ni in prob.n][last]
    pn0 = _pgn(h_start, q.grad(h_start))
    assert _pgn(hs[last], q.grad(hs[last])) <= cfg.tolerance * pn0
