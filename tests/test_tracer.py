"""Solves run under the benchmark's per-layer tracer.

``perfbench/tracer.py`` replaces the library's layer functions with
wrappers of fixed call shapes: ``QuadSubproblem.hess_apply`` becomes
``wrapper(q, d)``, so a library call that passes it a keyword would fail
only in traced benchmark runs.  Each algorithm's solve, without and with
networks, must complete under the tracer and give the untraced result.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import jmf
from jmf import SolverConfig, init_factors
from oracles import make_problem

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.mark.parametrize("networks", [False, True],
                         ids=["uncoupled", "networked"])
@pytest.mark.parametrize("algorithm", ["MUR", "PG", "Ne", "PANLS"])
def test_a_traced_solve_completes(algorithm, networks):
    weights = dict(lambda1=0.01, lambda2=0.01) if networks else {}
    prob = make_problem(seed=3, m=12, n=(8, 9, 6), r=3, gamma1=0.1,
                        gamma2=0.1, with_constraints=networks, **weights)
    cfg = SolverConfig(algorithm=algorithm, max_outer_iters=5)
    tracer = load_tracer()
    # the tracer wraps ``solve`` where the benchmark calls it, as a
    # ``jmf`` attribute
    with tracer.installed():
        fac, report = jmf.solve(prob, cfg, init_factors(prob, 0))
    assert tracer.calls["solvers.outer"] == 1
    assert report.iterations == 5
    plain, plain_report = jmf.solve(prob, cfg, init_factors(prob, 0))
    assert repr(report.final_objective) == repr(plain_report.final_objective)
    for got, want in zip([fac.W, *fac.H], [plain.W, *plain.H]):
        assert np.array_equal(got, want)
