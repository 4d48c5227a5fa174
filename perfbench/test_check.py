"""Self-test of the benchmark's output check.

Run from the repository root with ``python3 -m pytest perfbench``.
Each planted defect must be counted as failed; a divergence must be
counted as diverged, not failed.
"""
import numpy as np
import pytest

import jmf
from check import OBJECTIVE_RTOL, classify, paper_objective
from tracer import Tracer


@pytest.fixture
def problem():
    rng = np.random.default_rng(0)
    views = [rng.random((6, 4)), rng.random((6, 5))]
    theta = rng.random((4, 4))
    constraints = jmf.ConstraintSet(within={0: [theta + theta.T]},
                                    between={(0, 1): rng.random((4, 5))})
    params = jmf.Hyperparameters(rank=2, lambda1=0.01, lambda2=0.02,
                                 gamma1=0.1, gamma2=0.2)
    return jmf.new_problem(jmf.MultiViewDataset(views), constraints, params)


def _solve(problem):
    init = jmf.init_factors(problem, 0)
    return init, jmf.solve(problem, jmf.SolverConfig(max_outer_iters=30),
                           init)


def _report(report, **changes):
    fields = {**report.__dict__, **changes}
    return jmf.SolverReport(**fields)


def test_paper_objective_matches_library(problem):
    factors = jmf.init_factors(problem, 1)
    f, scale = paper_objective(problem, factors)
    assert f == pytest.approx(jmf.objective_value(problem, factors),
                              rel=1e-12)
    assert scale >= abs(f)


def test_honest_solve_passes(problem):
    init, result = _solve(problem)
    verdict = classify(problem, init, result)
    assert verdict.passed and not verdict.failed
    assert verdict.f_final < verdict.f_init


def test_tolerance_met_above_initial_objective_fails(problem):
    start, (factors, report) = _solve(problem)
    # planted: a solve that began at the converged factors, ended back at
    # the random start, reported that end point's F and claimed convergence
    f_end, _ = paper_objective(problem, start)
    lying = _report(report, termination=jmf.Termination.TOLERANCE_MET,
                    final_objective=f_end)
    verdict = classify(problem, factors, (start, lying))
    assert verdict.outcome == "no_progress" and verdict.failed


def test_negative_factor_fails(problem):
    init, (factors, report) = _solve(problem)
    factors.W[0, 0] = -1e-3
    verdict = classify(problem, init, (factors, report))
    assert verdict.outcome == "bad_factors" and verdict.failed


def test_non_finite_factor_fails(problem):
    init, (factors, report) = _solve(problem)
    factors.H[1][0, 0] = np.nan
    assert classify(problem, init, (factors, report)).failed


def test_wrong_final_objective_fails(problem):
    init, (factors, report) = _solve(problem)
    f_final, scale = paper_objective(problem, factors)
    off = _report(report,
                  final_objective=f_final + 10 * OBJECTIVE_RTOL * scale)
    verdict = classify(problem, init, (factors, off))
    assert verdict.outcome == "wrong_objective" and verdict.failed


def test_divergence_is_diverged_not_failed(problem):
    init = jmf.init_factors(problem, 0)
    exc = jmf.DivergenceError("non-finite objective at outer iteration 3",
                              trace=[None, None])
    verdict = classify(problem, init, exc)
    assert verdict.outcome == "diverged"
    assert not verdict.failed and not verdict.passed
    assert verdict.iterations == 3


def test_other_exception_fails(problem):
    init = jmf.init_factors(problem, 0)
    verdict = classify(problem, init, ValueError("boom"))
    assert verdict.outcome == "error" and verdict.failed


def test_tracer_restores_and_counts(problem):
    original = jmf.solvers.objective_value
    tracer = Tracer()
    with tracer.installed():
        assert jmf.solvers.objective_value is not original
        _solve(problem)
    assert jmf.solvers.objective_value is original
    assert tracer.calls["solvers.outer"] == 1
    assert tracer.calls["objective.objective_value"] >= 2
    assert all(t >= 0 for t in tracer.self_s.values())


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.delattr(jmf.solvers, "w_subproblem")
    with pytest.raises(RuntimeError, match="w_subproblem"):
        with Tracer().installed():
            pass
    # nothing wrapped before the failure stays wrapped
    assert not hasattr(jmf.generate, "__wrapped__")
