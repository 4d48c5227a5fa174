"""Acceptance gate: one pass/fail line per criterion.

Each test prints ``ACCEPTANCE <n> (<what>): PASS|FAIL — <numbers>`` before
asserting, bypassing output capture so the verdicts always show in the
live pytest output.
"""
import time

import numpy as np
import pytest

from jmf import (ConstraintSet, Factorization, Hyperparameters,
                 MultiViewDataset, SolverConfig, SyntheticSpec, auc_score,
                 evaluate_factors, generate, init_factors, new_problem,
                 objective_value, solve)
from jmf.objective import h_subproblem, w_subproblem
from jmf.solvers import (StopState, _build_quad, _gradient_stop_reason,
                         check_stop_objective, mur_step_H, mur_step_W,
                         ne_subproblem, panls_subproblem, pg_subproblem)
from oracles import (brute_auc, dense_hessian_H, dense_hessian_W,
                     finite_diff_grad, make_problem, naive_objective,
                     quad_form, random_factors)

SEEDS_10 = list(range(10))


def verdict(capsys, num: int, what: str, ok: bool, detail: str):
    # bypass capture so the verdict line lands in the live pytest output
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({what}): {'PASS' if ok else 'FAIL'} — "
              f"{detail}")
    assert ok, f"criterion {num}: {detail}"


def run_d1(algorithm, seed, constrained=False, tolerance=1e-7, **weights):
    truth = generate(SyntheticSpec(dataset_id="D1", seed=seed))
    constraints = truth.constraints if constrained else ConstraintSet.empty()
    prob = new_problem(truth.to_dataset(), constraints,
                       Hyperparameters(rank=truth.rank, **weights))
    cfg = SolverConfig(algorithm=algorithm, stop_rule="ObjectiveRatio",
                       tolerance=tolerance)
    factors, report = solve(prob, cfg, init_factors(prob, seed))
    return evaluate_factors(factors, truth), report


def test_criterion_1_dataset1_quality(capsys):
    t0 = time.perf_counter()
    means = {}
    errors = {}
    for alg in ("MUR", "PG", "Ne", "PANLS"):
        results = [run_d1(alg, s) for s in SEEDS_10]
        means[alg] = float(np.mean([r.auc for r, _ in results]))
        errors[alg] = float(np.mean([rep.reconstruction_error
                                     for _, rep in results]))
    elapsed = time.perf_counter() - t0
    ok = (all(means[a] >= 0.75 for a in ("PG", "Ne", "PANLS"))
          and means["MUR"] >= 0.73
          and all(abs(errors[a] - 31014) / 31014 <= 0.03
                  for a in ("PG", "Ne", "PANLS"))
          and elapsed < 300)
    detail = (f"mean AUC {({a: round(m, 4) for a, m in means.items()})}, "
              f"mean err {({a: round(e, 1) for a, e in errors.items()})} "
              f"(target 31014 ±3%), {elapsed:.0f}s")
    verdict(capsys, 1, "dataset D1 solver quality, 10 seeds", ok, detail)


def test_criterion_2_constraint_benefit(capsys):
    tuned = dict(lambda1=0.001, lambda2=0.001, gamma1=1e-4, gamma2=0.01)
    plain = float(np.mean([run_d1("PANLS", s)[0].auc for s in SEEDS_10]))
    constrained = float(np.mean(
        [run_d1("PANLS", s, constrained=True, **tuned)[0].auc
         for s in SEEDS_10]))
    ok = constrained >= plain + 0.01
    verdict(capsys, 2, "constraints improve D1 PANLS AUC", ok,
            f"constrained {constrained:.4f} vs unconstrained {plain:.4f} "
            f"(need +0.01)")


def test_criterion_3_dataset2_scale(capsys):
    t0 = time.perf_counter()
    means = {}
    for alg in ("PG", "Ne", "PANLS"):
        aucs = []
        for seed in range(3):
            truth = generate(SyntheticSpec(dataset_id="D2", seed=seed))
            prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                               Hyperparameters(rank=truth.rank))
            cfg = SolverConfig(algorithm=alg, stop_rule="ObjectiveRatio",
                               tolerance=1e-6)
            factors, _ = solve(prob, cfg, init_factors(prob, seed))
            aucs.append(evaluate_factors(factors, truth).auc)
        means[alg] = float(np.mean(aucs))
    elapsed = time.perf_counter() - t0
    ok = all(m >= 0.90 for m in means.values()) and elapsed < 900
    verdict(capsys, 3, "dataset D2 quality at tol 1e-6", ok,
            f"mean AUC {({a: round(m, 4) for a, m in means.items()})}, "
            f"{elapsed:.0f}s")


def test_criterion_4_monotone_convergence_shape(capsys):
    caps = {"D1": 150, "D2": 60, "D3": 30, "D4": 30}
    worst = 0.0
    ne_ok = True
    for ds, cap in caps.items():
        truth = generate(SyntheticSpec(dataset_id=ds, seed=0))
        prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                           Hyperparameters(rank=truth.rank))
        for alg in ("MUR", "PG", "PANLS"):
            cfg = SolverConfig(algorithm=alg, stop_rule="ObjectiveRatio",
                               tolerance=1e-7, max_outer_iters=cap)
            _, report = solve(prob, cfg, init_factors(prob, 0))
            objs = [p.objective for p in report.trace]
            for prev, curr in zip(objs[1:], objs[2:]):
                rel = (curr - prev) / max(abs(prev), 1.0)
                worst = max(worst, rel)
        # Ne: its convex W-subproblem must still descend each iteration
        cfg = SolverConfig(algorithm="Ne", stop_rule="ObjectiveRatio",
                           tolerance=1e-7, max_outer_iters=5)
        fac = init_factors(prob, 0)
        w, hs = fac.W.copy(), [h.copy() for h in fac.H]
        for _ in range(5):
            factors = Factorization(w, hs)
            q = w_subproblem(prob, hs)  # on W's block W^T
            before = q.value(w.T)
            wt, _ = ne_subproblem(*_build_quad(prob, factors, "w"), cfg)
            if q.value(wt) > before + 1e-10:
                ne_ok = False
            w = wt.T
            factors = Factorization(w, hs)
            for i in range(prob.n_views):
                hs[i], _ = ne_subproblem(*_build_quad(prob, factors, i), cfg)
    ok = worst <= 1e-8 and ne_ok
    verdict(capsys, 4, "objective traces non-increasing after iteration 2", ok,
            f"worst relative increase {worst:.2e} (allow 1e-8), "
            f"Ne W-subproblem descent {'held' if ne_ok else 'violated'}")


def test_criterion_5_panls_faster_than_pg(capsys):
    times = {"PG": [], "PANLS": []}
    for alg in times:
        for seed in SEEDS_10:
            _, report = run_d1(alg, seed, tolerance=1e-6)
            times[alg].append(report.trace[-1].seconds)
    pg = float(np.mean(times["PG"]))
    pa = float(np.mean(times["PANLS"]))
    ok = pa < pg
    verdict(capsys, 5, "PANLS mean wall time below PG on D1, serial", ok,
            f"PANLS {pa:.2f}s vs PG {pg:.2f}s")


def test_criterion_6_gradient_finite_differences(capsys):
    worst = 0.0
    weight_sets = [
        dict(),
        dict(lambda1=0.3), dict(lambda2=0.4), dict(gamma1=0.5),
        dict(gamma2=0.6),
        dict(lambda1=0.2, lambda2=0.3, gamma1=0.1, gamma2=0.4),
    ]
    count = 0
    for seed in range(20):
        weights = weight_sets[seed % len(weight_sets)]
        prob = make_problem(seed=seed, m=4, n=(3, 4), r=2, **weights)
        fac = random_factors(prob, seed=seed + 500)
        f = lambda: objective_value(prob, fac)
        # the W quadratic is written in W^T
        grad_w = w_subproblem(prob, fac.H).grad(fac.W.T).T
        pairs = [(grad_w, finite_diff_grad(f, fac.W))]
        for i in range(prob.n_views):
            grad_h = h_subproblem(prob, fac.W, fac.H, i).grad(fac.H[i])
            pairs.append((grad_h, finite_diff_grad(f, fac.H[i])))
        for got, want in pairs:
            rel = (np.linalg.norm(got - want)
                   / max(np.linalg.norm(want), 1e-12))
            worst = max(worst, rel)
        count += 1
    ok = worst < 1e-5 and count == 20
    verdict(capsys, 6, "gradients match finite differences on 20 instances", ok,
            f"worst relative error {worst:.2e} (allow 1e-5)")


def test_criterion_7_lipschitz_bounds(capsys):
    worst_ratio = 0.0
    checked = 0
    rng = np.random.default_rng(2024)
    for seed in range(5):
        prob = make_problem(seed=seed, m=5, n=(4, 6), r=3, lambda1=0.4,
                            lambda2=0.3, gamma1=0.2, gamma2=0.5)
        fac = random_factors(prob, seed=seed)
        qw = w_subproblem(prob, fac.H)  # on W's block W^T
        lw = qw.lipschitz()
        for _ in range(10):
            a, b = rng.random(fac.W.shape), rng.random(fac.W.shape)
            diff = np.linalg.norm(qw.grad(a.T) - qw.grad(b.T))
            worst_ratio = max(worst_ratio,
                              diff / (lw * np.linalg.norm(a - b)))
            checked += 1
        for i in range(prob.n_views):
            lh = h_subproblem(prob, fac.W, fac.H, i).lipschitz()
            for _ in range(5):
                fa, fb = fac.copy(), fac.copy()
                fa.H[i] = rng.random(fac.H[i].shape)
                fb.H[i] = rng.random(fac.H[i].shape)
                diff = np.linalg.norm(
                    h_subproblem(prob, fa.W, fa.H, i).grad(fa.H[i])
                    - h_subproblem(prob, fb.W, fb.H, i).grad(fb.H[i]))
                denom = lh * np.linalg.norm(fa.H[i] - fb.H[i])
                worst_ratio = max(worst_ratio, diff / denom)
                checked += 1
    ok = worst_ratio <= 1.0 + 1e-12 and checked >= 100
    verdict(capsys, 7, "Lipschitz constants bound gradient differences", ok,
            f"worst ratio {worst_ratio:.6f} over {checked} pairs (allow 1)")


def test_criterion_8_oracle_equivalences(capsys):
    # objective vs naive loops
    prob = make_problem(seed=11, m=6, n=(4, 5, 3), r=2, lambda1=0.7,
                        lambda2=0.4, gamma1=0.2, gamma2=0.9)
    fac = random_factors(prob, seed=12)
    obj_rel = abs(objective_value(prob, fac) - naive_objective(prob, fac)) \
        / abs(naive_objective(prob, fac))
    # AUC vs brute force
    auc_ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        scores = np.round(rng.random(n), 2)
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if auc_score(scores, labels) != pytest.approx(
                brute_auc(scores, labels), abs=1e-14):
            auc_ok = False
    # Hessian quadratic forms vs dense Kronecker oracle at dims <= 4
    hess_rel = 0.0
    for seed in range(5):
        p2 = make_problem(seed=seed, m=3, n=(4, 2), r=2, lambda1=0.5,
                          lambda2=0.3, gamma1=0.2, gamma2=0.7)
        f2 = random_factors(p2, seed=seed + 9)
        rng = np.random.default_rng(seed + 77)
        d = rng.standard_normal(f2.W.shape)
        qw = dense_hessian_W(f2.H, p2.params.gamma1, 0.11, p2.m)
        want = quad_form(qw, d)
        # the W quadratic is written in W^T: its direction is d^T
        got = np.vdot(d.T, w_subproblem(p2, f2.H, tau1=0.11).hess_apply(d.T))
        hess_rel = max(hess_rel, abs(got - want) / abs(want))
        for i in range(p2.n_views):
            dh = rng.standard_normal(f2.H[i].shape)
            qh = dense_hessian_H(f2.W, p2.constraints.within_sym(i),
                                 p2.params.lambda1, p2.params.gamma2, 0.07,
                                 p2.n[i])
            want = quad_form(qh, dh)
            got = np.vdot(dh, h_subproblem(p2, f2.W, f2.H, i, tau2=0.07)
                          .hess_apply(dh))
            hess_rel = max(hess_rel, abs(got - want) / abs(want))
    ok = obj_rel <= 1e-10 and auc_ok and hess_rel <= 1e-10
    verdict(capsys, 8, "objective / AUC / Hessian oracle equivalences", ok,
            f"objective rel {obj_rel:.2e} (allow 1e-10), AUC exact "
            f"{auc_ok}, Hessian rel {hess_rel:.2e} (allow 1e-10)")


def test_criterion_9_subproblem_agreement(capsys):
    worst = 0.0
    for seed in range(20):
        prob = make_problem(seed=seed, m=5, n=(4, 3), r=3, gamma1=0.5,
                            with_constraints=False)
        fac = random_factors(prob, seed=seed + 300)
        cfg = lambda alg: SolverConfig(
            algorithm=alg, stop_rule="ObjectiveRatio", tolerance=1e-7,
            inner_tol=1e-10, inner_tol_rel=0.0)
        q = w_subproblem(prob, fac.H)
        w_pg, _ = pg_subproblem(*_build_quad(prob, fac, "w"), cfg("PG"))
        w_ne, _ = ne_subproblem(*_build_quad(prob, fac, "w"), cfg("Ne"))
        w_pa, _ = panls_subproblem(
            *_build_quad(prob, fac, "w", fac.W.copy()), cfg("PANLS"))
        vals = [q.value(w) for w in (w_pg, w_ne, w_pa)]
        spread = (max(vals) - min(vals)) / max(1.0, abs(min(vals)))
        worst = max(worst, spread)
    ok = worst <= 1e-4
    verdict(capsys, 9, "PG/Ne/PANLS agree on strictly convex W-subproblems", ok,
            f"worst relative objective spread {worst:.2e} over 20 "
            f"instances (allow 1e-4)")


def test_criterion_10_mur_fixed_point(capsys):
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(5):
        w0 = rng.random((6, 2))
        hs0 = [rng.random((2, n)) for n in (4, 5)]
        views = [w0 @ h for h in hs0]
        prob = new_problem(MultiViewDataset(views), ConstraintSet.empty(),
                           Hyperparameters(rank=2))
        fac = Factorization(w0, [h.copy() for h in hs0])
        worst = max(worst, float(np.max(np.abs(mur_step_W(prob, fac) - w0))))
        for i in range(2):
            worst = max(worst, float(np.max(np.abs(
                mur_step_H(prob, fac, i) - hs0[i]))))
    ok = worst <= 1e-12
    verdict(capsys, 10, "MUR is a fixed point at exact factorizations", ok,
            f"largest entry change {worst:.2e} (allow 1e-12)")


def test_criterion_11_stop_rule_truth_table(capsys):
    checks = [
        ("objective stall", check_stop_objective(49.0, 49.0, 100.0, 1e-9)),
        ("objective big step",
         not check_stop_objective(50.0, 49.0, 100.0, 1e-2)),
        ("objective small step",
         check_stop_objective(49.001, 49.0, 100.0, 1e-3)),
    ]
    s = StopState()
    checks.append(("gradient first iteration",
                   _gradient_stop_reason(s, 5.0, 0.5) is None))
    s2 = StopState(initial_gradient_norm=10.0)
    checks.append(("gradient exact zero",
                   _gradient_stop_reason(s2, 0.0, 1e-9) is not None))
    s3 = StopState(initial_gradient_norm=10.0)
    window_hits = [_gradient_stop_reason(s3, g, 1e-4) is not None
                   for g in [5.0] * 9 + [5.0000001]]
    checks.append(("gradient slow-change window",
                   not any(window_hits[:-1]) and window_hits[-1]))
    failed = [name for name, passed in checks if not passed]
    ok = not failed
    verdict(capsys, 11, "stop-rule worked examples", ok,
            "all 6 cases exact" if ok else f"failed: {failed}")
