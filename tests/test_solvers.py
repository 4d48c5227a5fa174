import numpy as np
import pytest

from jmf import (Algorithm, ConstraintSet, Factorization, Hyperparameters,
                 MultiViewDataset, SolverConfig, StopRule, SyntheticSpec,
                 Termination, generate, init_factors, new_problem,
                 objective_value, reconstruction_error, solve)
from jmf.objective import h_subproblem, w_subproblem
from jmf.solvers import (StopState, _rescale, check_stop_gradient,
                         check_stop_objective, mur_step_H, mur_step_W,
                         ne_subproblem, panls_subproblem, pg_subproblem)
from oracles import (make_problem, naive_mur_H, naive_mur_W,
                     random_factors)

CFG = dict(stop_rule="ObjectiveRatio", tolerance=1e-7)


def exact_problem():
    """1x1 single-view problem X=[[2]] with exact factors W=2, H=1."""
    prob = new_problem(MultiViewDataset([np.array([[2.0]])]),
                       ConstraintSet.empty(), Hyperparameters(rank=1))
    fac = Factorization(np.array([[2.0]]), [np.array([[1.0]])])
    return prob, fac


# ---------------------------------------------------------------------------
# stopping rules

def test_stop_objective_stall_is_converged():
    assert check_stop_objective(49.0, 49.0, 100.0, 1e-9)


def test_stop_objective_large_step_is_not_converged():
    assert not check_stop_objective(50.0, 49.0, 100.0, 1e-2)


def test_stop_objective_small_step_is_converged():
    assert check_stop_objective(49.001, 49.0, 100.0, 1e-3)


def test_stop_objective_no_net_progress_stops():
    assert check_stop_objective(99.0, 101.0, 100.0, 1e-7)


def test_stop_objective_increase_with_net_progress_continues():
    assert not check_stop_objective(49.0, 49.5, 100.0, 1e-2)


def test_stop_gradient_first_iteration_is_false():
    state = StopState(initial_objective=100.0)
    assert not check_stop_gradient(state, 5.0, 0.5)


def test_stop_gradient_zero_norm_is_true():
    state = StopState(initial_objective=100.0, initial_gradient_norm=10.0)
    assert check_stop_gradient(state, 0.0, 1e-9)


def test_stop_gradient_ratio_fires():
    state = StopState(initial_objective=100.0, initial_gradient_norm=10.0)
    assert check_stop_gradient(state, 1e-4, 1e-4)


def test_stop_gradient_slow_change_window_fires():
    state = StopState(initial_objective=100.0, initial_gradient_norm=10.0)
    norms = [5.0] * 9 + [5.0000001]
    results = [check_stop_gradient(state, g, 1e-4) for g in norms]
    assert results[:-1] == [False] * 9
    assert results[-1]  # |5.0000001 - 5| = 1e-7 <= 1e-3 * 1e-4 * 10 = 1e-6


def test_stop_gradient_window_does_not_fire_on_fast_change():
    state = StopState(initial_objective=100.0, initial_gradient_norm=10.0)
    norms = [5.0, 4.9, 4.8, 4.7, 4.6, 4.5, 4.4, 4.3, 4.2, 4.1]
    assert not any(check_stop_gradient(state, g, 1e-4) for g in norms)


# ---------------------------------------------------------------------------
# multiplicative updates

def test_mur_w_fixed_point_at_exact_factorization():
    prob, fac = exact_problem()
    assert mur_step_W(prob, fac) == pytest.approx(fac.W, abs=1e-12)


def test_mur_h_fixed_point_at_exact_factorization():
    prob, fac = exact_problem()
    assert mur_step_H(prob, fac, 0) == pytest.approx(fac.H[0], abs=1e-12)


def test_mur_zero_entries_stay_zero():
    prob = make_problem(seed=1, lambda1=0.1, lambda2=0.1, gamma2=0.1)
    fac = random_factors(prob, seed=2)
    fac.W[0, 0] = 0.0
    fac.H[0][1, 2] = 0.0
    assert mur_step_W(prob, fac)[0, 0] == 0.0
    assert mur_step_H(prob, fac, 0)[1, 2] == 0.0


def test_mur_monotone_reconstruction_with_zero_weights():
    prob = make_problem(seed=3, with_constraints=False)
    fac = random_factors(prob, seed=4)
    prev = reconstruction_error(prob, fac)
    for _ in range(50):
        fac.W = mur_step_W(prob, fac)
        for i in range(prob.n_views):
            fac.H[i] = mur_step_H(prob, fac, i)
        curr = reconstruction_error(prob, fac)
        assert curr <= prev * (1 + 1e-12)
        prev = curr


def test_mur_stays_nonnegative_with_all_weights():
    prob = make_problem(seed=5, lambda1=0.05, lambda2=0.05, gamma1=0.1,
                        gamma2=0.1)
    fac = random_factors(prob, seed=6)
    for _ in range(100):
        fac.W = mur_step_W(prob, fac)
        for i in range(prob.n_views):
            fac.H[i] = mur_step_H(prob, fac, i)
    assert fac.W.min() >= 0
    assert all(h.min() >= 0 for h in fac.H)


@pytest.mark.parametrize("seed", range(3))
def test_mur_steps_match_loop_oracle_with_all_weights(seed):
    # pins where every weight enters the MUR ratios, networks included
    prob = make_problem(seed=seed, lambda1=0.3, lambda2=0.2, gamma1=0.4,
                        gamma2=0.5)
    fac = random_factors(prob, seed=seed + 10)
    np.testing.assert_allclose(mur_step_W(prob, fac),
                               naive_mur_W(prob, fac), rtol=1e-12, atol=0)
    for i in range(prob.n_views):
        np.testing.assert_allclose(mur_step_H(prob, fac, i),
                                   naive_mur_H(prob, fac, i),
                                   rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# subproblem solvers

def one_dim_problem():
    """min over w >= 0 of (2-w)^2: X=[[2]], H=[[1]], start W=[[0]]."""
    prob = new_problem(MultiViewDataset([np.array([[2.0]])]),
                       ConstraintSet.empty(), Hyperparameters(rank=1))
    fac = Factorization(np.array([[0.0]]), [np.array([[1.0]])])
    return prob, fac


def test_pg_one_dim_converges_to_closed_form():
    prob, fac = one_dim_problem()
    cfg = SolverConfig(algorithm="PG", inner_tol=1e-10,
                       inner_tol_rel=0.0, **CFG)
    w, exhausted = pg_subproblem(prob, fac, "w", cfg)
    assert not exhausted
    assert w == pytest.approx(np.array([[2.0]]), abs=1e-8)


def test_ne_one_dim_converges_to_closed_form():
    prob, fac = one_dim_problem()
    cfg = SolverConfig(algorithm="Ne", inner_tol=1e-10,
                       inner_tol_rel=0.0, **CFG)
    w = ne_subproblem(prob, fac, "w", cfg)
    assert w == pytest.approx(np.array([[2.0]]), abs=1e-8)


def test_panls_one_dim_proximal_minimizer():
    # min (2-w)^2 + tau1*(w-0)^2 has minimizer 2/(1+tau1)
    prob, fac = one_dim_problem()
    cfg = SolverConfig(algorithm="PANLS", inner_tol=1e-12,
                       inner_tol_rel=0.0, tau1=1e-3, **CFG)
    anchor = np.array([[0.0]])
    w = panls_subproblem(prob, fac, "w", cfg, anchor)
    assert w == pytest.approx(np.array([[2.0 / 1.001]]), abs=1e-6)


def test_subproblems_return_immediately_at_optimum():
    prob, fac = exact_problem()
    cfg = SolverConfig(algorithm="PG", **CFG)
    w, exhausted = pg_subproblem(prob, fac, "w", cfg)
    assert not exhausted and w == pytest.approx(fac.W)
    w = ne_subproblem(prob, fac, "w", SolverConfig(algorithm="Ne", **CFG))
    assert w == pytest.approx(fac.W)


def test_panls_unique_minimizer_from_different_starts():
    prob = make_problem(seed=9, gamma1=0.3, with_constraints=False)
    cfg = SolverConfig(algorithm="PANLS", inner_tol=1e-10,
                       inner_tol_rel=0.0, **CFG)
    fac_a = random_factors(prob, seed=10)
    fac_b = random_factors(prob, seed=11)
    fac_b.H = [h.copy() for h in fac_a.H]  # same subproblem, other start
    anchor = np.zeros(fac_a.W.shape)
    wa = panls_subproblem(prob, fac_a, "w", cfg, anchor)
    wb = panls_subproblem(prob, fac_b, "w", cfg, anchor)
    assert wa == pytest.approx(wb, abs=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_subproblem_descent(seed):
    prob = make_problem(seed=seed, lambda1=0.01, gamma1=0.1, gamma2=0.1)
    fac = random_factors(prob, seed=seed + 30)
    q = w_subproblem(prob, fac.H)
    before = q.value(fac.W)
    for alg in ("PG", "Ne", "PANLS"):
        cfg = SolverConfig(algorithm=alg, **CFG)
        if alg == "PG":
            out, _ = pg_subproblem(prob, fac, "w", cfg)
        elif alg == "Ne":
            out = ne_subproblem(prob, fac, "w", cfg)
        else:
            out = panls_subproblem(prob, fac, "w", cfg, fac.W)
        assert q.value(out) <= before + 1e-10
        assert out.min() >= 0


@pytest.mark.parametrize("seed", range(5))
def test_strictly_convex_w_subproblem_agreement(seed):
    prob = make_problem(seed=seed, gamma1=0.5, with_constraints=False)
    fac = random_factors(prob, seed=seed + 7)
    cfg = lambda alg: SolverConfig(algorithm=alg, inner_tol=1e-10,
                                   inner_tol_rel=0.0, **CFG)
    q = w_subproblem(prob, fac.H)
    w_pg, _ = pg_subproblem(prob, fac, "w", cfg("PG"))
    w_ne = ne_subproblem(prob, fac, "w", cfg("Ne"))
    w_pa = panls_subproblem(prob, fac, "w", cfg("PANLS"), fac.W.copy())
    vals = [q.value(w) for w in (w_pg, w_ne, w_pa)]
    scale = max(1.0, abs(min(vals)))
    assert max(vals) - min(vals) <= 1e-4 * scale


# ---------------------------------------------------------------------------
# outer loop

def test_solve_single_iteration_trace():
    prob = make_problem(seed=1, with_constraints=False)
    for alg in ("MUR", "PG", "Ne", "PANLS"):
        cfg = SolverConfig(algorithm=alg, max_outer_iters=1, **CFG)
        _, report = solve(prob, cfg, init_factors(prob, 0))
        assert len(report.trace) == 1
        assert report.termination is Termination.MAX_ITERS


def test_solve_deterministic():
    prob = make_problem(seed=2, lambda1=0.001, lambda2=0.001, gamma1=0.01,
                        gamma2=0.01)
    cfg = SolverConfig(algorithm="PANLS", max_outer_iters=40, **CFG)
    _, r1 = solve(prob, cfg, init_factors(prob, 5))
    _, r2 = solve(prob, cfg, init_factors(prob, 5))
    assert r1.final_objective == r2.final_objective
    assert [p.objective for p in r1.trace] == [p.objective for p in r2.trace]


def test_solve_zero_noise_near_exact_recovery():
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=0))
    prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                       Hyperparameters(rank=truth.rank))
    cfg = SolverConfig(algorithm="PANLS", tolerance=1e-7,
                       stop_rule="ObjectiveRatio")
    fac, report = solve(prob, cfg, init_factors(prob, 0))
    budget = 1e-4 * sum(prob.x_squared_norm(i) for i in range(prob.n_views))
    assert report.reconstruction_error <= budget


def test_solve_outputs_nonnegative_factors():
    prob = make_problem(seed=8, lambda1=0.001, lambda2=0.001, gamma1=0.01,
                        gamma2=0.01)
    for alg in ("MUR", "PG", "Ne", "PANLS"):
        cfg = SolverConfig(algorithm=alg, max_outer_iters=25, **CFG)
        fac, _ = solve(prob, cfg, init_factors(prob, 3))
        assert fac.W.min() >= 0
        assert all(h.min() >= 0 for h in fac.H)


def test_rescale_preserves_products_and_unit_columns():
    rng = np.random.default_rng(17)
    w = rng.random((6, 3))
    hs = [rng.random((3, 4)), rng.random((3, 5))]
    products = [w @ h for h in hs]
    _rescale(w, hs)
    assert np.allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)
    for before, h in zip(products, hs):
        assert np.allclose(w @ h, before, atol=1e-10)


def test_solve_normalization_keeps_reconstruction_path():
    # with all regularizers at zero the rescaling is objective-neutral, so
    # normalized and raw solves give identical objective traces
    prob = make_problem(seed=12, with_constraints=False)
    base = dict(algorithm="Ne", max_outer_iters=20, **CFG)
    _, r_on = solve(prob, SolverConfig(normalize_rows=True, **base),
                    init_factors(prob, 2))
    _, r_off = solve(prob, SolverConfig(normalize_rows=False, **base),
                     init_factors(prob, 2))
    on = [p.objective for p in r_on.trace]
    off = [p.objective for p in r_off.trace]
    assert on[0] == pytest.approx(off[0], rel=1e-9)


def test_gradient_stop_is_recheckable_from_trace():
    prob = make_problem(seed=13, with_constraints=False, gamma1=0.01,
                        gamma2=0.01)
    cfg = SolverConfig(algorithm="Ne", stop_rule="GradientRatio",
                       tolerance=1e-3, max_outer_iters=2000)
    _, report = solve(prob, cfg, init_factors(prob, 1))
    norms = [p.grad_norm for p in report.trace]
    ref = norms[0]
    if report.termination is Termination.TOLERANCE_MET:
        assert norms[-1] <= cfg.tolerance * ref
    elif report.termination is Termination.SLOW_GRADIENT_CHANGE:
        assert abs(norms[-1] - norms[-10]) <= 1e-3 * cfg.tolerance * ref
    else:
        pytest.fail("solve hit the iteration cap; enlarge max_outer_iters")


def test_mur_objective_ratio_only_guard_is_cli_level():
    # the library itself accepts any combination; the CLI enforces the
    # MUR/GradientRatio rejection (covered in the CLI tests)
    cfg = SolverConfig(algorithm="MUR", stop_rule="GradientRatio",
                       tolerance=1e-3)
    assert cfg.algorithm is Algorithm.MUR
    assert cfg.stop_rule is StopRule.GRADIENT_RATIO


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(algorithm="PG", stop_rule="ObjectiveRatio",
                     tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="nope", stop_rule="ObjectiveRatio",
                     tolerance=1e-6)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="PG", stop_rule="ObjectiveRatio",
                     tolerance=1e-6, beta=1.5)
