"""Output check and failure accounting for one solve.

The objective is recomputed here from the paper's formula,

    F = sum_I ||X_I - W H_I||_F^2
        - lambda1 sum_I sum_t Tr(H_I Theta_I^(t) H_I^T)
        - lambda2 sum_(I,J) Tr(H_I R_IJ H_J^T)
        + gamma1 ||W||_F^2 + gamma2 sum_I sum_j ||h_j^I||_1^2,

without calling the library's ``objective_value``, so that a solve whose
reported objective is wrong cannot confirm itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import jmf

OBJECTIVE_RTOL = 1e-9

# outcomes; the first two pass the check, "diverged" is a correct report
# on an unbounded cell, and the rest count as failed.  "no_progress" has
# correct numbers under a wrong label; the others return wrong numbers.
PASSED = ("ok", "capped")
DIVERGED = "diverged"
WRONG_NUMBERS = ("bad_factors", "wrong_objective", "error")
FAILED = ("no_progress", *WRONG_NUMBERS)


def paper_objective(problem: jmf.Problem,
                    factors: jmf.Factorization) -> tuple[float, float]:
    """Return F and the sum of the magnitudes of its terms.

    The second value is the scale against which F is compared, so that
    cancellation between the fit and the network terms does not make a
    rounding difference look like a wrong answer.
    """
    p = problem.params
    w, hs = factors.W, factors.H
    terms = [np.linalg.norm(x - w @ h, "fro") ** 2
             for x, h in zip(problem.dataset.views, hs)]
    for i, thetas in problem.constraints.within.items():
        gram = hs[i].T @ hs[i]
        terms += [-p.lambda1 * float(np.sum(t * gram)) for t in thetas]
    for (i, j), r in problem.constraints.between.items():
        terms.append(-p.lambda2 * float(np.sum(r * (hs[i].T @ hs[j]))))
    terms.append(p.gamma1 * np.linalg.norm(w, "fro") ** 2)
    terms += [p.gamma2 * float(np.sum(np.abs(h).sum(axis=0) ** 2))
              for h in hs]
    return float(sum(terms)), float(sum(abs(t) for t in terms))


@dataclass
class Verdict:
    outcome: str
    iterations: int
    f_init: float
    f_final: float | None = None  # the benchmark's recomputation
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.outcome in PASSED

    @property
    def failed(self) -> bool:
        return self.outcome in FAILED

    @property
    def objective_rel(self) -> float:
        return self.f_final / self.f_init


def _factors_sound(factors: jmf.Factorization) -> bool:
    return all(np.isfinite(a).all() and (a >= 0).all()
               for a in (factors.W, *factors.H))


def classify(problem: jmf.Problem, init: jmf.Factorization,
             result) -> Verdict:
    """Judge one solve; ``result`` is ``(factors, report)`` or the exception
    the solve raised."""
    f_init, _ = paper_objective(problem, init)
    if isinstance(result, jmf.DivergenceError):
        return Verdict(DIVERGED, len(result.trace) + 1, f_init,
                       detail=str(result))
    if isinstance(result, BaseException):
        return Verdict("error", 0, f_init,
                       detail=f"{type(result).__name__}: {result}")
    factors, report = result
    if not _factors_sound(factors):
        return Verdict("bad_factors", report.iterations, f_init,
                       detail="non-finite or negative factor entry")
    f_final, scale = paper_objective(problem, factors)
    if abs(report.final_objective - f_final) > OBJECTIVE_RTOL * scale:
        return Verdict("wrong_objective", report.iterations, f_init, f_final,
                       f"reported {report.final_objective!r}, "
                       f"recomputed {f_final!r}")
    claims_converged = report.termination in (
        jmf.Termination.TOLERANCE_MET, jmf.Termination.SLOW_GRADIENT_CHANGE)
    if claims_converged and not f_final < f_init:
        return Verdict("no_progress", report.iterations, f_init, f_final,
                       f"{report.termination.value} with F {f_final:.6g} "
                       f">= F_init {f_init:.6g}")
    outcome = ("capped" if report.termination is jmf.Termination.MAX_ITERS
               else "ok")
    return Verdict(outcome, report.iterations, f_init, f_final)
