import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import jmf.solvers
from jmf import (Algorithm, ConstraintSet, DivergenceError, Factorization,
                 Hyperparameters, MultiViewDataset, SolverConfig, StopRule,
                 SyntheticSpec, Termination, generate, init_factors,
                 new_problem, objective_value, reconstruction_error, solve)
from jmf.objective import (QuadSubproblem, h_subproblem,
                           network_curvature, spectral_norm, w_subproblem,
                           within_top)
from jmf.solvers import (StopState, _build_quad, _gradient_stop_reason,
                         _rescale, check_stop_objective,
                         mur_step_H, mur_step_W, ne_subproblem,
                         panls_subproblem, pg_subproblem)
from oracles import (make_problem, naive_mur_H, naive_mur_W,
                     random_factors, ref_solve)

CFG = dict(stop_rule="ObjectiveRatio", tolerance=1e-7)
ALGORITHMS = ["MUR", "PG", "Ne", "PANLS"]


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
    state = StopState()
    assert _gradient_stop_reason(state, 5.0, 0.5) is None


def test_stop_gradient_zero_norm_is_true():
    state = StopState(initial_gradient_norm=10.0)
    assert _gradient_stop_reason(
        state, 0.0, 1e-9) is Termination.TOLERANCE_MET


def test_stop_gradient_ratio_fires():
    state = StopState(initial_gradient_norm=10.0)
    assert _gradient_stop_reason(
        state, 1e-4, 1e-4) is Termination.TOLERANCE_MET


def test_stop_gradient_slow_change_window_fires():
    state = StopState(initial_gradient_norm=10.0)
    norms = [5.0] * 9 + [5.0000001]
    results = [_gradient_stop_reason(state, g, 1e-4) for g in norms]
    assert results[:-1] == [None] * 9
    # |5.0000001 - 5| = 1e-7 <= 1e-3 * 1e-4 * 10 = 1e-6
    assert results[-1] is Termination.SLOW_GRADIENT_CHANGE


def test_stop_gradient_window_does_not_fire_on_fast_change():
    state = StopState(initial_gradient_norm=10.0)
    norms = [5.0, 4.9, 4.8, 4.7, 4.6, 4.5, 4.4, 4.3, 4.2, 4.1]
    assert all(_gradient_stop_reason(state, g, 1e-4) is None for g in norms)


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
    w, exhausted = pg_subproblem(*_build_quad(prob, fac, "w"), cfg)
    assert not exhausted
    assert w == pytest.approx(np.array([[2.0]]), abs=1e-8)


def test_ne_one_dim_converges_to_closed_form():
    prob, fac = one_dim_problem()
    cfg = SolverConfig(algorithm="Ne", inner_tol=1e-10,
                       inner_tol_rel=0.0, **CFG)
    w, _ = ne_subproblem(*_build_quad(prob, fac, "w"), cfg)
    assert w == pytest.approx(np.array([[2.0]]), abs=1e-8)


def test_panls_one_dim_proximal_minimizer():
    # min (2-w)^2 + tau1*(w-0)^2 has minimizer 2/(1+tau1)
    prob, fac = one_dim_problem()
    cfg = SolverConfig(algorithm="PANLS", inner_tol=1e-12,
                       inner_tol_rel=0.0, **CFG)
    anchor = np.array([[0.0]])
    w, _ = panls_subproblem(*_build_quad(prob, fac, "w", anchor), cfg)
    assert w == pytest.approx(np.array([[2.0 / 1.001]]), abs=1e-6)


def test_subproblems_return_immediately_at_optimum():
    prob, fac = exact_problem()
    cfg = SolverConfig(algorithm="PG", **CFG)
    w, exhausted = pg_subproblem(*_build_quad(prob, fac, "w"), cfg)
    assert not exhausted and w == pytest.approx(fac.W)
    w, _ = ne_subproblem(*_build_quad(prob, fac, "w"),
                         SolverConfig(algorithm="Ne", **CFG))
    assert w == pytest.approx(fac.W)


def test_panls_unique_minimizer_from_different_starts():
    prob = make_problem(seed=9, gamma1=0.3, with_constraints=False)
    cfg = SolverConfig(algorithm="PANLS", inner_tol=1e-10,
                       inner_tol_rel=0.0, **CFG)
    fac_a = random_factors(prob, seed=10)
    fac_b = random_factors(prob, seed=11)
    fac_b.H = [h.copy() for h in fac_a.H]  # same subproblem, other start
    anchor = np.zeros(fac_a.W.shape)
    wa, _ = panls_subproblem(*_build_quad(prob, fac_a, "w", anchor), cfg)
    wb, _ = panls_subproblem(*_build_quad(prob, fac_b, "w", anchor), cfg)
    assert wa == pytest.approx(wb, abs=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_subproblem_descent(seed):
    prob = make_problem(seed=seed, lambda1=0.01, gamma1=0.1, gamma2=0.1)
    fac = random_factors(prob, seed=seed + 30)
    q = w_subproblem(prob, fac.H)  # on the block W^T
    before = q.value(fac.W.T)
    for alg in ("PG", "Ne", "PANLS"):
        cfg = SolverConfig(algorithm=alg, **CFG)
        if alg == "PG":
            out, _ = pg_subproblem(*_build_quad(prob, fac, "w"), cfg)
        elif alg == "Ne":
            out, _ = ne_subproblem(*_build_quad(prob, fac, "w"), cfg)
        else:
            out, _ = panls_subproblem(*_build_quad(prob, fac, "w", fac.W),
                                      cfg)
        assert q.value(out) <= before + 1e-10
        assert out.min() >= 0


@pytest.mark.parametrize("seed", range(5))
def test_strictly_convex_w_subproblem_agreement(seed):
    prob = make_problem(seed=seed, gamma1=0.5, with_constraints=False)
    fac = random_factors(prob, seed=seed + 7)
    cfg = lambda alg: SolverConfig(algorithm=alg, inner_tol=1e-10,
                                   inner_tol_rel=0.0, **CFG)
    q = w_subproblem(prob, fac.H)
    w_pg, _ = pg_subproblem(*_build_quad(prob, fac, "w"), cfg("PG"))
    w_ne, _ = ne_subproblem(*_build_quad(prob, fac, "w"), cfg("Ne"))
    w_pa, _ = panls_subproblem(*_build_quad(prob, fac, "w", fac.W.copy()),
                               cfg("PANLS"))
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


def test_non_finite_gradient_norm_is_divergence(monkeypatch):
    real = jmf.solvers.projected_gradient_norm
    calls = []

    def overflowing(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs) if len(calls) == 1 else np.inf

    monkeypatch.setattr(jmf.solvers, "projected_gradient_norm", overflowing)
    prob = make_problem(seed=1, with_constraints=False)
    cfg = SolverConfig(algorithm="PG", max_outer_iters=10,
                       stop_rule="ObjectiveRatio", tolerance=1e-300)
    with pytest.raises(DivergenceError) as err:
        solve(prob, cfg, init_factors(prob, 0))
    assert len(err.value.trace) == 1


def test_an_initial_w_of_the_wrong_shape_is_refused():
    prob = make_problem(seed=1, with_constraints=False)
    init = init_factors(prob, 0)
    with pytest.raises(ValueError, match="^initial W does not match"):
        solve(prob, SolverConfig(), Factorization(init.W[1:], init.H))


@pytest.mark.parametrize("value, what", [
    (np.nan, "factor"),
    # finite factors whose product overflows: F is inf
    (1e160, "objective"),
])
def test_a_non_finite_outer_step_is_divergence(monkeypatch, value, what):
    # from outer iteration 3's W block on, MUR's engine returns blocks of
    # ``value``; MUR runs one sweep per outer iteration, with no redo
    real = jmf.solvers.mur_subproblem
    prob = make_problem(seed=1, with_constraints=False)
    w_blocks = [0]

    def poisoned(q, x0, *args):
        # W's block is W^T, r x m; no H_I block has m = 6 columns here
        w_blocks[0] += x0.shape == (prob.rank, prob.m)
        if w_blocks[0] >= 3:
            return np.full_like(x0, value), False
        return real(q, x0, *args)

    monkeypatch.setattr(jmf.solvers, "mur_subproblem", poisoned)
    cfg = SolverConfig(algorithm="MUR", max_outer_iters=10,
                       tolerance=1e-300, normalize_rows=False)
    with pytest.raises(DivergenceError) as err:
        solve(prob, cfg, init_factors(prob, 0))
    assert str(err.value) == f"non-finite {what} at outer iteration 3"
    assert err.value.unbounded is False and len(err.value.trace) == 2


def test_ne_keeps_its_start_on_a_flat_block():
    # a zero Hessian has Lipschitz constant 0: Ne takes no step
    q = QuadSubproblem((np.zeros((1, 1)), None, 0.0, 0.0), np.ones((1, 3)),
                       "h")
    x0 = np.array([[0.0, 2.0, 1.5]])
    x, flag = ne_subproblem(q, x0, SolverConfig(algorithm="Ne"))
    assert np.array_equal(x, x0) and not np.shares_memory(x, x0)
    assert not flag


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_objective_ratio_stop_above_the_start_is_divergence(algorithm):
    # a bounded problem (no networks) whose start sits near its minimum,
    # at W = H = 10 with F = 20; the unit-column rescale forces W to 1,
    # where the best H leaves F near 909, so F ends its first outer
    # iteration above its start and the objective-ratio rule stops on
    # the lost net progress
    prob = new_problem(MultiViewDataset([np.array([[100.0]])]),
                       ConstraintSet.empty(),
                       Hyperparameters(rank=1, gamma1=0.1, gamma2=0.1))
    init = Factorization(np.array([[10.0]]), [np.array([[10.0]])])
    assert objective_value(prob, init) == pytest.approx(20.0)
    with pytest.raises(DivergenceError, match="above its start 20 at outer "
                                              "iteration 1$") as err:
        solve(prob, SolverConfig(algorithm=algorithm, max_outer_iters=200),
              init)
    f_curr = float(re.match(r"objective (\S+) above", str(err.value))[1])
    assert np.isfinite(f_curr) and f_curr > 20.0
    assert err.value.trace == [] and not err.value.unbounded


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_exact_start_stops_with_tolerance_met(algorithm):
    # F starts at 0 and stays there up to rounding (about 1e-31)
    rng = np.random.default_rng(31)
    w0 = rng.random((6, 2))
    hs0 = [rng.random((2, n)) for n in (4, 5)]
    prob = new_problem(MultiViewDataset([w0 @ h for h in hs0]),
                       ConstraintSet.empty(), Hyperparameters(rank=2))
    _, report = solve(prob, SolverConfig(algorithm=algorithm, **CFG),
                      Factorization(w0, hs0))
    assert report.termination is Termination.TOLERANCE_MET
    assert report.iterations == 1


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


# ---------------------------------------------------------------------------
# extrapolation of the outer iterate

def d1_unweighted():
    truth = generate(SyntheticSpec(dataset_id="D1", seed=0))
    return new_problem(truth.to_dataset(), ConstraintSet.empty(),
                       Hyperparameters(rank=truth.rank))


@pytest.mark.parametrize("algorithm", ["PG", "PANLS"])
def test_a_rising_extrapolated_step_is_redone(monkeypatch, algorithm):
    # a first weight of 50 overshoots, so some extrapolated steps end
    # above F_prev; at zero weights the rescale leaves F alone, so each
    # of them is redone from the plain iterate
    monkeypatch.setattr(jmf.solvers, "_EXTRAP_BETA", 50.0)
    prob = d1_unweighted()
    cfg = SolverConfig(algorithm=algorithm, max_outer_iters=30, **CFG)
    fac, report = solve(prob, cfg, init_factors(prob, 0))
    assert report.redone_steps > 0
    assert report.extrapolated_steps == report.iterations - 1
    objs = [p.objective for p in report.trace]
    assert all(curr <= prev for prev, curr in zip(objs, objs[1:]))
    assert report.final_objective == objective_value(prob, fac)



def loop_case(name: str, monkeypatch) -> tuple:
    """(problem, config) of one ``test_solve_matches_the_written_out_loop``
    case."""
    small = dict(seed=0, m=12, n=(8, 9), r=3, gamma1=0.1)
    if name == "MUR":
        return make_problem(**small), SolverConfig(algorithm="MUR", **CFG)
    if name == "PG-redo":
        monkeypatch.setattr(jmf.solvers, "_EXTRAP_BETA", 50.0)
        return d1_unweighted(), SolverConfig(algorithm="PG",
                                             max_outer_iters=30, **CFG)
    if name in ("PG-kept-rise", "PANLS-kept-rise"):
        return make_problem(**small), SolverConfig(
            algorithm=name.split("-")[0], **CFG)
    if name == "Ne-gradient":
        return make_problem(seed=4, m=12, n=(8, 9), r=3, gamma2=0.1), \
            SolverConfig(algorithm="Ne", stop_rule="GradientRatio",
                         tolerance=1e-3)
    if name == "PANLS-unscaled":
        return make_problem(**small), SolverConfig(normalize_rows=False,
                                                   **CFG)
    if name == "D1-refused":
        return d1_problem(1e-3, 1e-2, 0.01), SolverConfig()
    assert name == "D1-bounded"
    return d1_problem(1e-3, 1e-3, 0.1), SolverConfig()


@pytest.mark.parametrize("name", [
    "MUR", "PG-redo", "PG-kept-rise", "PANLS-kept-rise", "Ne-gradient",
    "PANLS-unscaled", "D1-refused", "D1-bounded"])
def test_solve_matches_the_written_out_loop(monkeypatch, name):
    # the beta schedule, redo or keep, the rescale bookkeeping, the
    # refusals and the stop rules, against ``oracles.ref_solve`` bit for bit
    prob, cfg = loop_case(name, monkeypatch)
    init = init_factors(prob, 0)
    try:
        want = ref_solve(prob, cfg, init)
    except DivergenceError as err:
        with pytest.raises(DivergenceError) as got:
            solve(prob, cfg, init)
        assert str(got.value) == str(err)
        assert got.value.unbounded == err.unbounded
        assert len(got.value.trace) == len(err.trace)
        assert name == "D1-refused" and "not certified" in str(err)
        return
    fac, report = solve(prob, cfg, init)
    ref_fac, ref = want
    assert report.iterations == ref.iterations
    assert report.termination is ref.termination
    assert [repr(p.objective) for p in report.trace] == [
        repr(f) for f in ref.objectives]
    for got, wanted in zip((fac.W, *fac.H), (ref_fac.W, *ref_fac.H)):
        assert got.tobytes() == wanted.tobytes()
    assert (report.extrapolated_steps, report.redone_steps,
            report.exhausted_searches) == (
        ref.extrapolated_steps, ref.redone_steps, ref.exhausted_searches)
    # each path the case is there for is taken
    kept_rises = report.iterations - 1 - report.extrapolated_steps
    assert {"MUR": report.extrapolated_steps == 0,
            "PG-redo": report.redone_steps > 0,
            "PG-kept-rise": kept_rises > 0,
            "PANLS-kept-rise": kept_rises > 0,
            "Ne-gradient": report.termination is not Termination.MAX_ITERS,
            "PANLS-unscaled": report.extrapolated_steps > 0,
            "D1-bounded": kept_rises > 0}[name]

def two_node_problem(lambda1: float, x: list, w: list,
                     h: list) -> tuple:
    """One view whose network joins its two columns: S = [[0, 1], [1, 0]],
    top eigenvector v = (1, 1) / sqrt 2 with v^T S v = 1."""
    prob = new_problem(MultiViewDataset([np.array(x)]),
                       ConstraintSet(within={0: [np.array([[0.0, 1.0],
                                                           [0.0, 0.0]])]}),
                       Hyperparameters(rank=len(h), lambda1=lambda1))
    return prob, Factorization(np.array(w), [np.array(h)])


def update_h0(algorithm: str, prob, fac) -> np.ndarray:
    """The configured algorithm's update of H_0, as ``solve`` makes it."""
    cfg = SolverConfig(algorithm=algorithm)
    return jmf.solvers._block_step(prob, cfg, fac, 0, None)[0]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_an_unbounded_h_block_raises_at_its_build(algorithm):
    # at W = 0.5 the curvature along e_0 v^T is 2 * (0.25 + tau) - lambda1
    # (tau = 1e-3 for PANLS), and the slope at H = (1, 1) is negative
    tau = jmf.solvers._TAU if algorithm == "PANLS" else 0.0
    lam1 = 0.49 + 2 * tau
    prob, fac = two_node_problem(lam1, [[1.0, 2.0]], [[0.5]], [[1.0, 1.0]])
    assert np.all(update_h0(algorithm, prob, fac) >= 0)
    lam1 = 0.51 + 2 * tau
    prob, fac = two_node_problem(lam1, [[1.0, 2.0]], [[0.5]], [[1.0, 1.0]])
    with pytest.raises(DivergenceError,
                       match=rf"view 0's H block is unbounded below along "
                             rf"e_0 v\^T.* = {0.5 + 2 * tau:g} - {lam1:g} "
                             rf"is negative at k = 0, and so is its slope -"):
        update_h0(algorithm, prob, fac)
    # the paper's single multiplicative step does not check
    assert np.all(mur_step_H(prob, fac, 0) >= 0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_rising_ray_with_negative_curvature_does_not_raise(algorithm):
    # the same curvature along e_0 v^T, but W's second column couples
    # H's rows and makes the slope there positive: the block can have a
    # local minimum beside H, and the engines look for it
    prob, fac = two_node_problem(0.52, [[0.1, 0.1], [0.1, 0.1]],
                                 [[0.5, 3.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [1.0, 1.0]])
    q = h_subproblem(prob, fac.W, fac.H, 0)
    v = np.full(2, np.sqrt(0.5))
    assert float(q.grad(fac.H[0])[0] @ v) > 0
    assert np.all(update_h0(algorithm, prob, fac) >= 0)


def d1_problem(lambda1, lambda2, gamma2):
    """D1 instance 0 with its networks at gamma1 = 1e-4, as in the CLI's
    grid and perfbench's d1-net-grid."""
    truth = generate(SyntheticSpec("D1", seed=0))
    return new_problem(truth.to_dataset(), truth.constraints,
                       Hyperparameters(rank=truth.rank, lambda1=lambda1,
                                       lambda2=lambda2, gamma1=1e-4,
                                       gamma2=gamma2))


@pytest.mark.parametrize("algorithm", ["MUR", "PANLS"])
def test_d1_at_lambda1_0_1_names_its_unbounded_block(algorithm):
    # the benchmark's lambda1 = 0.1 cells: MUR used to end ToleranceMet
    # with F near -9e60 to -8e116.  F has no minimum there, and the
    # first H sweep is not certified convex, so the solve stops before
    # any H engine runs
    prob = d1_problem(0.1, 1e-3, 0.01)
    with pytest.raises(DivergenceError,
                       match=r"^F has no minimum: .* is not certified "
                             r"convex: .* at outer iteration 1$") as err:
        solve(prob, SolverConfig(algorithm=algorithm),
              init_factors(prob, 0))
    lam, c = (float(a) for a in re.search(
        r"lambda_max\(B\) >= (\S+) exceeds .* = (\S+) <= 0",
        str(err.value)).groups())
    assert lam == pytest.approx(network_curvature(prob)[0], rel=1e-5)
    assert lam > 0.02 and c <= 0
    assert err.value.unbounded and err.value.trace == []
    # raised with no context, which would keep the block's frames alive
    assert err.value.__context__ is None and err.value.__cause__ is None
    # with W's first column at 0, each view's H block falls without bound
    # along e_0 v^T, and its build names the ray
    fac = init_factors(prob, 0)
    fac.W[:, 0] = 0.0
    for view in range(prob.n_views):
        with pytest.raises(DivergenceError,
                           match=rf"^view {view}'s H block is unbounded "
                                 rf"below along e_0 v\^T") as err:
            jmf.solvers._block_step(prob, SolverConfig(algorithm=algorithm),
                                    fac, view, None)
        own, network, slope = (float(a) for a in re.search(
            r"= (\S+) - (\S+) is negative.* slope (\S+)$",
            str(err.value)).groups())
        assert own < network and slope < 0 and err.value.unbounded
        v, vsv = within_top(prob, view)
        assert network == pytest.approx(0.1 * vsv, rel=1e-5)
        # v is a unit vector, and v^T S v comes within the power
        # iteration's tolerance of its bound ||S_I||_2
        assert np.all(v >= 0) and np.linalg.norm(v) == pytest.approx(1.0)
        assert vsv == pytest.approx(
            spectral_norm(prob.constraints.within_sym(view)), rel=1e-6)


def test_d1_runaway_is_refused_before_its_first_iteration():
    # the CLI grid's cell that used to report ToleranceMet at F = -2.86e24
    # after 26 outer iterations; its F starts at -1.18e7
    prob = d1_problem(1e-2, 1e3, 10.0)
    with pytest.raises(DivergenceError, match=r"^F has no minimum: the "
                       r"objective -1\.17765e\+07 is below 0 at the start, "
                       r".*lambda_max\(B\) >= 83\d{3}.*, 2 gamma2 = 20\)$"
                       ) as err:
        solve(prob, SolverConfig(), init_factors(prob, 0))
    assert err.value.unbounded and err.value.trace == []


def test_d1_negative_start_is_refused_before_iteration_1():
    # F starts near -78,790, which F never is when it is bounded below
    prob = d1_problem(1e-3, 10.0, 1.0)
    f_init = objective_value(prob, init_factors(prob, 0))
    assert f_init == pytest.approx(-78790, rel=1e-4)
    with pytest.raises(DivergenceError, match=r"^F has no minimum: the "
                       r"objective -78\d{3}\.?\d* is below 0 at the start, "
                       r".* 2 gamma2 = 2\)$") as err:
        solve(prob, SolverConfig(), init_factors(prob, 0))
    assert err.value.unbounded and err.value.trace == []


def test_an_uncertified_extrapolated_sweep_raises_with_no_redo(
        monkeypatch):
    # PANLS starts outer iteration 2 from the extrapolated iterate; its
    # sweep is refused there, and not redone from the plain iterate
    updates = []
    outer_step = jmf.solvers._outer_step

    def counted(*args):
        updates.append(args[2])
        return outer_step(*args)

    monkeypatch.setattr(jmf.solvers, "_outer_step", counted)
    prob = d1_problem(1e-3, 1e-2, 0.01)
    with pytest.raises(DivergenceError, match=r"not certified convex: .* "
                       r"at outer iteration 2$") as err:
        solve(prob, SolverConfig(), init_factors(prob, 0))
    assert err.value.unbounded and len(err.value.trace) == 1
    assert len(updates) == 2


def test_f_below_0_after_an_outer_iteration_is_refused(monkeypatch):
    # with the sweep certificate off, MUR's second outer iteration on this
    # unbounded cell takes F from 13,178 to about -5.1e5
    monkeypatch.setattr(jmf.solvers, "network_curvature",
                        lambda problem: (0.0, None))
    prob = d1_problem(1e-3, 0.1, 0.01)
    with pytest.raises(DivergenceError, match=r"^F has no minimum: the "
                       r"objective -5\d{5}(\.\d*)? is below 0 at outer "
                       r"iteration 2, ") as err:
        solve(prob, SolverConfig(algorithm="MUR"), init_factors(prob, 0))
    assert err.value.unbounded
    assert [p.objective > 0 for p in err.value.trace] == [True]


@pytest.mark.parametrize("gamma2", [0.01, 0.1], ids=["tuned", "bounded"])
def test_d1_answering_cells_are_not_touched_by_the_refusals(
        monkeypatch, gamma2):
    # the tuned cell is unbounded (lambda_max(B) > 2 gamma2) but every
    # sweep of its solve is certified, and the bounded cell is never
    # checked: both end as they do with the refusals switched off
    prob = d1_problem(1e-3, 1e-3, gamma2)
    cfg = SolverConfig()
    fac, report = solve(prob, cfg, init_factors(prob, 0))
    assert report.termination is Termination.TOLERANCE_MET
    assert (report.network_curvature > report.sparsity_curvature) == (
        gamma2 == 0.01)
    assert report.sparsity_curvature == 2 * gamma2
    monkeypatch.setattr(jmf.solvers, "network_curvature",
                        lambda problem: (0.0, None))
    fac_off, report_off = solve(prob, cfg, init_factors(prob, 0))
    assert report.iterations == report_off.iterations
    assert repr(report.final_objective) == repr(report_off.final_objective)
    assert fac.W.tobytes() == fac_off.W.tobytes()


def test_d1_diverging_grid_cells_stop_within_8000_hessian_products(
        monkeypatch):
    # the 16 cells of perfbench's d1-net-grid slice that have no answer
    # made 36,822 Hessian products before the refusals, about 5,900 after
    calls = []
    hess_apply = jmf.objective.QuadSubproblem.hess_apply

    def counted(self, d):
        calls.append(1)
        return hess_apply(self, d)

    monkeypatch.setattr(jmf.objective.QuadSubproblem, "hess_apply", counted)
    base = d1_problem(0.0, 0.0, 0.0)
    for lambda1 in (1e-3, 1e-2, 0.1):
        for lambda2 in (1e-3, 1e-2, 0.1):
            if lambda1 == lambda2 == 1e-3:
                continue  # the two cells that answer
            for gamma2 in (0.01, 0.1):
                prob = new_problem(base.dataset, base.constraints,
                                   Hyperparameters(base.rank, lambda1,
                                                   lambda2, 1e-4, gamma2))
                with pytest.raises(DivergenceError) as err:
                    solve(prob, SolverConfig(), init_factors(prob, 0))
                assert err.value.unbounded, str(err.value)
    assert len(calls) <= 8000


def test_mur_is_not_extrapolated():
    prob = make_problem(seed=2, lambda1=0.001, lambda2=0.001, gamma1=0.01,
                        gamma2=0.01)
    cfg = SolverConfig(algorithm="MUR", max_outer_iters=20, **CFG)
    _, report = solve(prob, cfg, init_factors(prob, 0))
    assert report.iterations > 1
    assert report.extrapolated_steps == report.redone_steps == 0


@st.composite
def sparse_problems(draw):
    """A small problem with no networks and random gamma1, gamma2."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 8))
    n = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    r = draw(st.integers(1, min(3, m, min(n))))
    gammas = {k: draw(st.sampled_from([0.0, 1e-3, 0.1]))
              for k in ("gamma1", "gamma2")}
    rng = np.random.default_rng(seed)
    prob = new_problem(MultiViewDataset([rng.random((m, ni)) for ni in n]),
                       ConstraintSet.empty(),
                       Hyperparameters(rank=r, **gammas))
    return prob, draw(st.integers(0, 2**16))


@given(sparse_problems(), st.sampled_from(["PG", "Ne", "PANLS"]))
def test_extrapolated_solves_return_sound_factors(case, algorithm):
    prob, init_seed = case
    cfg = SolverConfig(algorithm=algorithm, max_outer_iters=40, **CFG)
    init = init_factors(prob, init_seed)
    try:
        fac, report = solve(prob, cfg, init)
    except DivergenceError as exc:
        # on tiny data the unit-column rescale can lift F above its start
        # when gamma > 0 (a 1 x 1 view at gamma1 = gamma2 = 0.1 does);
        # plain steps, which a zero weight gives, stop with the same verdict
        assert "above its start" in str(exc)
        with mock.patch.object(jmf.solvers, "_EXTRAP_BETA", 0.0):
            with pytest.raises(DivergenceError, match="above its start"):
                solve(prob, cfg, init)
        return
    for a in (fac.W, *fac.H):
        assert np.isfinite(a).all() and (a >= 0).all()
    assert np.isfinite(report.final_objective)


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
