"""The inner engines on one built block quadratic.

Each engine (``<alg>_subproblem``) takes a quadratic built by
``_build_quad``, its start and, in keywords, its inner stop, and returns
the block and the flag of an exhausted step-size search.  The projected
engines (PG, Ne, PANLS) must follow the reference copies in
``oracles.py`` (equal in exact arithmetic), the branch-free projection
and the doubled Hessian operator must agree with the forms they
replaced, the product counts per step are pinned, and an exhausted
step-size search is reported.  PANLS's exact solve of a block that
splits into small NNLS problems must reach the one KKT point that
enumerating the passive sets finds (``ref_nnls``), also when every H_I
block is stacked into one quadratic.  Its passive-set solves must match
one solve per column, keep the full set on ``np.linalg.solve``, raise on
a singular passive matrix, and make one batched solve per passive-set
size, at rank 5 and at rank 20.  Blocks that read one another, and the
other algorithms, keep the per-view loop, and ``solve`` reaches each
engine through its module name.  The MUR engine's first step is the
paper's single update, its repeated steps never raise the block
quadratic, and its inner stop keeps to Gillis and Glineur's rule.
"""
import inspect
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import jmf.solvers
import oracles
from jmf import (Hyperparameters, SolverConfig, SyntheticSpec, generate,
                 init_factors, new_problem, solve)
from jmf.objective import (QuadSubproblem, _projected, h_subproblem,
                           projected_norm, view_products, w_subproblem)
from jmf.solvers import (_MUR_ALPHA, _MUR_DELTA, _armijo_step, _block_step,
                         _build_quad, _mur_rho, _nnls_bpp, _outer_step,
                         _panls_minimize, _passive_solve, mur_step_H,
                         mur_step_W, mur_subproblem, ne_subproblem,
                         panls_subproblem, pg_subproblem)
from oracles import (make_problem, no_rescale, random_factors,
                     ref_armijo_step, ref_ne_minimize, ref_nnls,
                     ref_panls_minimize, ref_pg_minimize, ref_pgn,
                     ref_settings)

TAU = 1e-2


def weighted_quads(seed):
    """The W and every H_I quadratic of a small problem with all four
    weights and the proximal weight positive, each with its start."""
    prob = make_problem(seed=seed, m=12, n=(7, 9, 5), r=3, lambda1=1e-3,
                        lambda2=1e-3, gamma1=1e-2, gamma2=1e-2)
    fac = random_factors(prob, seed=seed + 100)
    wt = np.ascontiguousarray(fac.W.T)  # W's block
    quads = [(w_subproblem(prob, fac.H, tau1=TAU, anchor=wt), wt)]
    for i, h in enumerate(fac.H):
        quads.append((h_subproblem(prob, fac.W, fac.H, i, tau2=TAU,
                                   anchor=h), h))
    return quads


# the inner stop the reference comparisons run to
STOP = dict(cap=60, floor=1e-9, rel=0.0)


# ---------------------------------------------------------------------------
# agreement with the reference engines


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("engine", ["PG", "Ne", "PANLS"])
def test_engines_match_their_reference(engine, seed):
    for q, x0 in weighted_quads(seed):
        if engine == "PG":
            new, flag = pg_subproblem(q, x0, **STOP)
            ref, ref_flag = ref_pg_minimize(q, x0, ref_settings(**STOP))
            assert flag == ref_flag
        elif engine == "Ne":
            new, _ = ne_subproblem(q, x0, **STOP)
            ref = ref_ne_minimize(q, x0, ref_settings(**STOP))
        else:
            new, flag = _panls_minimize(q, x0, **STOP)
            ref, ref_flag = ref_panls_minimize(q, x0, ref_settings(**STOP))
            assert flag == ref_flag
        assert q.value(new) == pytest.approx(q.value(ref), rel=1e-10)
        np.testing.assert_allclose(new, ref, rtol=0, atol=1e-8)
        assert not np.shares_memory(new, x0)


def random_h_block(seed):
    """A hand-built H_I quadratic and start: r <= 4, n <= 8, a random M and
    network S, and lambda1 up to 50, so that some blocks are not convex."""
    rng = np.random.default_rng(seed)
    r, n = rng.integers(1, 5, size=2) * (1, 2)
    a = rng.random((r, r))
    m = a.T @ a + rng.random()
    s = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    s += s.T
    s_norm = float(np.linalg.norm(s, 2))
    q = QuadSubproblem((m, s, 50.0 * rng.random() ** 2, 1e-3),
                       rng.standard_normal((r, n)), s_norm=lambda: s_norm)
    return q, rng.random((r, n)) * (rng.random((r, n)) < 0.7)


def lines_run(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the line numbers that ran in fn's own
    frame.  A trace function already set (a debugger, or the line trace
    of ``tests/linetrace.py``) goes on seeing every frame."""
    ran, previous = set(), sys.gettrace()

    def chained(frame, event, arg):
        outer = previous and previous(frame, event, arg)
        mine = frame.f_code is fn.__code__

        def local(frame, event, arg):
            nonlocal outer
            if mine and event == "line":
                ran.add(frame.f_lineno)
            outer = outer and outer(frame, event, arg)
            return local
        return local if mine or outer else None

    sys.settrace(chained)
    try:
        return fn(*args, **kwargs), ran
    finally:
        sys.settrace(previous)


def first_statement_under(fn, marker: str) -> int:
    """The line number of the first statement after the line of ``fn``
    that holds ``marker``."""
    lines, first = inspect.getsourcelines(fn)
    i = next(i for i, line in enumerate(lines) if marker in line)
    return first + next(j for j in range(i + 1, len(lines))
                        if not lines[j].lstrip().startswith("#"))


def saddle_block():
    """An H block beside a saddle point x* = 4, with its start x* + U / 4
    on the direction U = [1 1; -1 -1] of the Hessian's one negative
    eigenvalue: 2 M - lambda1 S is indefinite (eigenvalues -0.8, 1.2,
    2.8, 4.8 over the block) on the whole block, which is inactive.  PG
    steps move further along U, so CG's first direction is U and breaks
    down.  The off-diagonal M_kl >= 0 and 2 M_kk >= lambda1 ||S||_2, so q
    is convex along every direction D >= 0 and bounded below on x >= 0:
    the engine goes on to the boundary, where U's second row reaches 0."""
    m = np.array([[1.0, 0.9], [0.9, 1.0]])
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    saddle = np.full((2, 2), 4.0)
    hess = QuadSubproblem((m, s, 1.0, 0.0), np.zeros((2, 2))).hess_apply
    q = QuadSubproblem((m, s, 1.0, 0.0), -hess(saddle), s_norm=lambda: 1.0)
    return q, saddle + 0.25 * np.array([[1.0, 1.0], [-1.0, -1.0]])


def zero_residual_block():
    """A one-column block of rows a, b, c, in binary fractions so that
    every step below is exact.  a = 1 is at its minimizer and stays
    there; b falls from 15.5 by PG steps to 1.5, and c stays at 0 while
    b > 1 holds its gradient 0.5 b - 0.5 >= 0.  The CG step on {a, b}
    is clipped where b reaches 0, leaving a, the one inactive entry,
    with gradient 0: the restarted residual is 0 while c's gradient,
    -0.5, keeps the projected norm up."""
    m = np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.25], [0.0, 0.25, 0.5]])
    q = QuadSubproblem((m, None, 0.0, 0.0), np.array([[-1.0], [0.25],
                                                      [-0.5]]))
    return q, np.array([[1.0], [15.5], [0.0]])


def uncertain_block():
    """A one-column block of two uncoupled rows, in binary fractions:
    after three PG steps a = 9 (minimizer 8) and b = 1.5 (minimizer
    below 0).  The CG step is clipped where b reaches 0, one entry more
    in the active set, and leaves a = 8.25 with gradient 0.125, the
    whole projected gradient: a is uncertain, so PANLS goes back to PG."""
    q = QuadSubproblem((0.25 * np.eye(2), None, 0.0, 0.0),
                       np.array([[-4.0], [0.25]]))
    return q, np.array([[16.0], [15.5]])


@pytest.mark.parametrize("block, branch", [
    (partial(random_h_block, 0), "if curv <= 0:"),
    (partial(random_h_block, 4440), "if rr == 0.0:"),
    (partial(random_h_block, 1274), "if uncertain and 0 < growth <= _N2:"),
    (saddle_block, "if curv <= 0:"),
    (zero_residual_block, "if rr == 0.0:"),
    (uncertain_block, "if uncertain and 0 < growth <= _N2:"),
], ids=["cg-breakdown-pg-step", "zero-residual", "clipped-cg-back-to-pg",
        "saddle-cg-breakdown", "built-zero-residual",
        "built-clipped-cg-back-to-pg"])
def test_panls_rare_branches_match_their_reference(block, branch):
    # the random blocks were found by a search over random_h_block's
    # seeds, the others are built to reach their branch
    q, x0 = block()
    (new, flag), ran = lines_run(_panls_minimize, q, x0, **STOP)
    assert first_statement_under(_panls_minimize, branch) in ran
    ref, ref_flag = ref_panls_minimize(q, x0, ref_settings(**STOP))
    assert flag == ref_flag
    assert q.value(new) == pytest.approx(q.value(ref), rel=1e-10)
    np.testing.assert_allclose(new, ref, rtol=0, atol=1e-8)
    assert q.value(new) <= q.value(x0)


def fourth_search_runs_out(search, ran_out):
    """A spy on an Armijo search: the search itself, except that its
    fourth call returns ``ran_out(x)``, an exhausted search at x; and the
    list of the iterates it was called at."""
    starts = []

    def spy(q, x, *rest):
        starts.append(x.copy())
        return ran_out(x) if len(starts) == 4 else search(q, x, *rest)
    return spy, starts


def test_an_exhausted_search_after_a_cg_breakdown_ends_panls(monkeypatch):
    # the saddle block's fourth Armijo search is the PG step after CG's
    # breakdown; when it runs out, the engine and its reference both
    # return the iterate it started from, with the flag set
    search, starts = fourth_search_runs_out(_armijo_step, lambda x: True)
    monkeypatch.setattr(jmf.solvers, "_armijo_step", search)
    monkeypatch.setattr(oracles, "ref_armijo_step", fourth_search_runs_out(
        ref_armijo_step, lambda x: (x, True))[0])
    q, x0 = saddle_block()
    (x, flag), ran = lines_run(_panls_minimize, q, x0, **STOP)
    assert first_statement_under(_panls_minimize, "if curv <= 0:") in ran
    assert flag and len(starts) == 4 and np.array_equal(x, starts[-1])
    ref, ref_flag = oracles.ref_panls_minimize(q, x0, ref_settings(**STOP))
    assert ref_flag and np.array_equal(ref, x)


def test_projected_norm_matches_the_reference_norm():
    for q, x0 in weighted_quads(7):
        x = x0 * (np.arange(x0.size).reshape(x0.shape) % 3 > 0)
        g = q.grad(x)
        assert projected_norm(x, g) == ref_pgn(x, g)


# ---------------------------------------------------------------------------
# exactness of the cheaper kernels


_entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5e-3, -7.0, 1e300,
                            -1e300, 5e-324])


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_branch_free_projection_squares_equal_np_where(rows, cols, data):
    shape = (rows, cols)
    x = np.array(data.draw(st.lists(_entries, min_size=rows * cols,
                                    max_size=rows * cols))).reshape(shape)
    g = np.array(data.draw(st.lists(_entries, min_size=rows * cols,
                                    max_size=rows * cols))).reshape(shape)
    old = np.where(x > 0, g, np.minimum(g, 0.0))
    with np.errstate(over="ignore"):
        assert np.array_equal(_projected(x, g) ** 2, old ** 2)
        buf = np.empty(shape)
        assert _projected(x, g, buf) is buf
        assert np.array_equal(buf ** 2, old ** 2)


@st.composite
def operator_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    r = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    lam1 = draw(st.sampled_from([0.0, 1e-3, 0.7]))
    tau = draw(st.sampled_from([0.0, 1e-3, 2.0]))
    networks = draw(st.booleans())
    rng = np.random.default_rng(seed)
    return rng, r, rows, cols, scale, lam1, tau, networks


@given(operator_cases())
def test_doubled_operator_is_bitwise_the_old_product(case):
    rng, r, rows, cols, scale, lam1, tau, networks = case
    # W's block W^T, r x m: a symmetric M and no S, lambda1 or tau
    a = scale * rng.random((r, r))
    a = a + a.T
    d = rng.standard_normal((r, rows))
    q = QuadSubproblem((a, None, 0.0, 0.0), np.zeros((r, rows)))
    assert np.array_equal(q.hess_apply(d), 2.0 * (a @ d))

    m = scale * rng.random((r, r))
    s = rng.random((cols, cols)) if networks else None
    d = rng.standard_normal((r, cols))
    q = QuadSubproblem((m, s, lam1, tau), np.zeros((r, cols)))
    old = 2.0 * (m @ d)
    if s is not None and lam1:
        old -= lam1 * (d @ s)
    if tau:
        old += 2.0 * tau * d
    assert np.array_equal(q.hess_apply(d), old)
    # the one layout that MUR, PANLS and the flop count read
    assert q.hess_mats[0] is m


# ---------------------------------------------------------------------------
# Hessian products per inner step


def count_products(monkeypatch) -> list:
    count = [0]
    original = QuadSubproblem.hess_apply

    def counted(self, d):
        count[0] += 1
        return original(self, d)

    monkeypatch.setattr(QuadSubproblem, "hess_apply", counted)
    return count


@pytest.mark.parametrize("steps", [1, 4, 9])
def test_ne_forms_one_product_per_step(monkeypatch, steps):
    count = count_products(monkeypatch)
    for q, x0 in weighted_quads(0):
        before = count[0]
        ne_subproblem(q, x0, cap=steps, floor=0.0, rel=0.0)
        assert count[0] - before == steps + 1


def test_ne_momentum_does_not_read_the_armijo_first_step(monkeypatch):
    quads = weighted_quads(1)
    before = [ne_subproblem(q, x0, **STOP)[0] for q, x0 in quads]
    monkeypatch.setattr(jmf.solvers, "_ALPHA0", 7.0)
    for (q, x0), x in zip(quads, before):
        assert np.array_equal(ne_subproblem(q, x0, **STOP)[0], x)


def interior_quad(r=6, rows=40):
    """A W quadratic, on W^T, whose minimizer and start lie far inside the
    nonnegative orthant, with r well-spread Hessian eigenvalues, so no
    CG step reaches the bound before r steps."""
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((r, r)))
    a = basis @ np.diag(np.geomspace(1.0, 30.0, r)) @ basis.T
    target = 10.0 + rng.random((rows, r))
    q = QuadSubproblem((a, None, 0.0, 0.0), -2.0 * a @ target.T)
    start = target + 0.5 * rng.standard_normal((rows, r))
    return q, np.ascontiguousarray(start.T)


def test_unclipped_cg_step_forms_one_product(monkeypatch):
    count = count_products(monkeypatch)
    q, x0 = interior_quad()
    # n1 = 0 hands over to CG after one PG step; the interior never
    # falls below eta times the projected gradient, so CG keeps going
    monkeypatch.setattr(jmf.solvers, "_N1", 0)
    products = {}
    for engine in (_panls_minimize, ref_panls_minimize):
        for k in (3, 4):
            before = count[0]
            stop = dict(cap=k, floor=0.0, rel=0.0)
            out = (_panls_minimize(q, x0, **stop) if engine is _panls_minimize
                   else engine(q, x0, ref_settings(**stop)))
            products[engine, k] = count[0] - before
            x = out[0] if isinstance(out, tuple) else out
            assert x.min() > 1.0  # every step stayed off the bound
    assert products[_panls_minimize, 4] - products[_panls_minimize, 3] == 1
    # the reference formed the gradient afresh as well
    assert (products[ref_panls_minimize, 4]
            - products[ref_panls_minimize, 3]) == 2


# ---------------------------------------------------------------------------
# exhausted step-size searches


def overshooting(monkeypatch):
    # one trial step, far too long for any block; no rescale, so the
    # factors are exactly what the engines returned
    monkeypatch.setattr(jmf.solvers, "_MAX_BACKTRACKS", 0)
    monkeypatch.setattr(jmf.solvers, "_ALPHA0", 1e12)
    no_rescale(monkeypatch)


def searched_problem(lambda1=1e-3):
    # lambda1 S_I couples each H_I block's columns, so PANLS searches for
    # a step there; its W blocks split by rows and solve exactly
    return make_problem(seed=3, m=10, n=(6, 8), r=2, lambda1=lambda1,
                        gamma1=0.1)


@pytest.mark.parametrize("algorithm", ["PG", "PANLS"])
def test_exhausted_searches_are_counted(monkeypatch, algorithm):
    prob = searched_problem()
    init = init_factors(prob, 0)
    overshooting(monkeypatch)
    final, report = solve(prob, SolverConfig(algorithm=algorithm,
                                             max_outer_iters=3,
                                             tolerance=1e-300), init)
    searched = prob.n_views + (algorithm == "PG")
    assert report.exhausted_searches == searched * report.iterations
    # an exhausted first search leaves every searched block where it was
    assert all(np.array_equal(a, b) for a, b in zip(final.H, init.H))
    assert np.array_equal(final.W, init.W) == (algorithm == "PG")


@pytest.mark.parametrize("algorithm", ["PG", "PANLS"])
def test_subproblem_returns_the_exhaustion_flag(monkeypatch, algorithm):
    prob = searched_problem()
    fac = random_factors(prob, seed=1)
    overshooting(monkeypatch)
    if algorithm == "PG":
        x, flag = pg_subproblem(*_build_quad(prob, fac, "w"))
        start = fac.W.T  # W's block
    else:
        x, flag = panls_subproblem(*_build_quad(prob, fac, 1, fac.H[1]))
        start = fac.H[1]
        # a block that splits has no search to exhaust
        separable = searched_problem(lambda1=0.0)
        for target, anchor in [("w", fac.W), (1, fac.H[1])]:
            q, x0 = _build_quad(separable, fac, target, anchor)
            moved, no_flag = panls_subproblem(q, x0)
            assert not no_flag and not np.array_equal(moved, x0)
    assert flag and np.array_equal(x, start)
    monkeypatch.undo()  # back to the default search
    _, flag = pg_subproblem(*_build_quad(prob, fac, "w"))
    assert not flag


@pytest.mark.parametrize("algorithm", ["MUR", "Ne", "PG", "PANLS"])
def test_default_solves_report_no_exhaustion(algorithm):
    prob = make_problem(seed=2, m=12, n=(6, 8), r=2)
    _, report = solve(prob, SolverConfig(algorithm=algorithm,
                                         max_outer_iters=20),
                      init_factors(prob, 0))
    assert report.exhausted_searches == 0


# ---------------------------------------------------------------------------
# exact solves of the blocks that split into small NNLS problems


def nnls_case(r, seed=0):
    """A random positive definite C and right-hand sides whose minimizers
    are mixed (columns 0-11), 0 (b = 0, then b <= 0), interior (b = C x,
    x > 0, columns 14-33: twenty columns that share one passive set) and
    degenerate (b = C x, x >= 0 with zeros, where the gradient is 0 as
    well)."""
    rng = np.random.default_rng([r, seed])
    basis, _ = np.linalg.qr(rng.standard_normal((r, r)))
    c = basis @ np.diag(np.geomspace(0.5, 50.0, r)) @ basis.T
    b = np.column_stack([rng.standard_normal((r, 12)),
                         np.zeros(r), -rng.random(r),
                         c @ (1.0 + rng.random((r, 20))),
                         c @ np.maximum(rng.standard_normal((r, 12)), 0.0)])
    return c, b


def warm_start(kind, c, b, rng):
    if kind == "zero":
        return np.zeros_like(b)
    if kind == "wrong":
        # positive exactly where each minimizer is 0, and the reverse
        exact = np.column_stack([ref_nnls(c, col) for col in b.T])
        return np.where(exact > 0, 0.0, 1.0)
    return rng.standard_normal(b.shape)


def assert_matches_enumeration(c, b, x):
    assert x.min() >= 0
    for col, got in zip(b.T, x.T):
        want = ref_nnls(c, col)
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("start", ["zero", "wrong", "random"])
@pytest.mark.parametrize("r", range(1, 7))
def test_bpp_matches_the_enumerated_kkt_point(r, start):
    for seed in range(3):
        c, b = nnls_case(r, seed)
        rng = np.random.default_rng(seed)
        x0 = warm_start(start, c, b, rng)
        x, solved = _nnls_bpp(c, b, x0)
        assert solved
        assert_matches_enumeration(c, b, x)
        assert np.all(x[:, 12:14] == 0.0)  # b = 0 and b <= 0
        assert np.all(x[:, 14:34] > 0)  # interior
        # one column alone reaches the same point
        for j in (0, 14):
            one, solved = _nnls_bpp(c, b[:, j:j + 1], x0[:, j:j + 1])
            assert solved
            assert_matches_enumeration(c, b[:, j:j + 1], one)


def test_bpp_accepts_a_block_without_columns():
    c, _ = nnls_case(3)
    x, solved = _nnls_bpp(c, np.zeros((3, 0)), np.zeros((3, 0)))
    assert solved and x.shape == (3, 0)


@pytest.mark.parametrize("seed", [14726, 19199, 19708])
def test_bpp_backup_rule_ends_a_full_exchange_cycle(monkeypatch, seed):
    # blocks found by search on which full exchanges alone cycle, also
    # with b moved by 1e-6: the cycle is not a rounding artefact
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 8))
    a = rng.standard_normal((r, r))
    c, b = a.T @ a + 1e-3 * np.eye(r), rng.standard_normal((r, 1))
    x, solved = _nnls_bpp(c, b, np.zeros_like(b))
    assert solved
    assert_matches_enumeration(c, b, x)
    monkeypatch.setattr(jmf.solvers, "_BPP_P_BAR", 10**9)
    assert not _nnls_bpp(c, b, np.zeros_like(b))[1]


def test_bpp_round_cap_hands_the_block_to_panls(monkeypatch):
    prob = make_problem(seed=4, m=12, n=(7, 9), r=3, lambda2=1e-3,
                        gamma1=1e-2, gamma2=1e-2)
    fac = random_factors(prob, seed=5)
    stop = dict(cap=5000, floor=0.0, rel=1e-12)
    blocks = [("w", fac.W), (0, fac.H[0]), (1, fac.H[1])]
    exact = [panls_subproblem(*_build_quad(prob, fac, t, a), **stop)[0]
             for t, a in blocks]

    monkeypatch.setattr(jmf.solvers, "_BPP_MAX_ROUNDS", 0)
    c, b = nnls_case(5)
    x, solved = _nnls_bpp(c, b, np.ones_like(b))
    # the unconstrained solve from the all-passive warm start, clipped
    assert not solved
    np.testing.assert_allclose(x, np.maximum(np.linalg.solve(c, b), 0.0),
                               rtol=1e-12, atol=0)
    starts = []
    original = jmf.solvers._panls_minimize

    def recorded(q, x0, **kwargs):
        starts.append(x0)
        return original(q, x0, **kwargs)

    monkeypatch.setattr(jmf.solvers, "_panls_minimize", recorded)
    for (target, anchor), want in zip(blocks, exact):
        q, x0 = _build_quad(prob, fac, target, anchor)
        x, flag = panls_subproblem(q, x0, **stop)
        assert not flag and x.shape == x0.shape
        assert starts[-1].min() >= 0
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-8)
    assert len(starts) == len(blocks)


def assert_kkt(q, x):
    """x >= 0, grad >= -eps and x^T grad = 0 up to eps, with eps a
    rounding error on the scale of the linear term."""
    g = q.grad(x)
    eps = 1e-12 * np.abs(q.g0).max()
    assert x.min() >= 0
    assert g.min() >= -eps
    assert abs(np.vdot(x, g)) <= eps * np.abs(x).sum()


def test_panls_solves_d4_shaped_blocks_to_kkt():
    truth = generate(SyntheticSpec("D4", seed=0))
    prob = new_problem(truth.to_dataset(), None,
                       Hyperparameters(rank=truth.rank))
    fac = init_factors(prob, 0)
    for target, anchor in [("w", fac.W), (2, fac.H[2])]:
        q, x0 = _build_quad(prob, fac, target, anchor=anchor)
        x, flag = panls_subproblem(q, x0)
        assert not flag and x.flags.c_contiguous
        assert_kkt(q, x)
        # the paper's engine stops at its inner tolerance, above the minimum
        inexact, _ = _panls_minimize(q, x0)
        assert q.value(x) < q.value(inexact)


# ---------------------------------------------------------------------------
# the passive-set solves inside block principal pivoting


def passive_case(r, shared, seed=0):
    """A well-conditioned C, right-hand sides and passive sets in shuffled
    column order: with ``shared``, two sets held by 30 and 20 columns and
    8 single-column sets, otherwise 60 single-column sets; then 5 columns
    with the empty set and 12 with the full set."""
    rng = np.random.default_rng([r, seed])
    basis, _ = np.linalg.qr(rng.standard_normal((r, r)))
    c = basis @ np.diag(np.geomspace(1.0, 10.0, r)) @ basis.T
    singles = rng.random((r, 8 if shared else 60)) < 0.5
    groups = [rng.random((r, 1)) < 0.5 for _ in range(2)] if shared else []
    passive = np.hstack([np.repeat(g, n, axis=1)
                         for g, n in zip(groups, (30, 20))]
                        + [singles, np.zeros((r, 5), bool),
                           np.ones((r, 12), bool)])
    order = rng.permutation(passive.shape[1])
    return c, rng.standard_normal(passive.shape), passive[:, order]


def count_linalg(monkeypatch) -> list:
    """Record each ``_passive_solve`` call's passive sets and the
    ``np.linalg.inv`` and ``np.linalg.solve`` calls made inside it."""
    per_call = []
    original = jmf.solvers._passive_solve

    def recorded(c, b, passive):
        per_call.append({"passive": passive.copy(), "inv": 0, "solve": 0})
        return original(c, b, passive)

    for name in ("inv", "solve"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name):
            if per_call:
                per_call[-1][_name] += 1
            return _fn(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setattr(jmf.solvers, "_passive_solve", recorded)
    return per_call


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
@pytest.mark.parametrize("r", range(1, 21))
def test_passive_solve_matches_per_column_solves(r, shared):
    c, b, passive = passive_case(r, shared)
    x = _passive_solve(c, b, passive)
    for got, col, p in zip(x.T, b.T, passive.T):
        want = np.zeros(r)
        if p.any():
            want[p] = np.linalg.solve(c[p][:, p], col[p])
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        assert np.all(got[~p] == 0.0)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
@pytest.mark.parametrize("r", [1, 5, 20])
def test_passive_solve_full_set_is_the_plain_solve(r, shared):
    c, b, passive = passive_case(r, shared)
    full = passive.all(axis=0)
    x = _passive_solve(c, b, passive)
    assert np.array_equal(x[:, full], np.linalg.solve(c, b[:, full]))


@pytest.mark.parametrize("layout", ["inverse", "stacked"])
@pytest.mark.parametrize("singular", ["proper", "full", "shared size"])
def test_singular_passive_matrix_raises(singular, layout):
    # C_PP is exactly singular on P = {0, 1}, and so is C itself; with
    # "shared size", P = {2, 3} is regular and solved in the same stack.
    # The layouts are the two kinds of input the solve must handle:
    # "inverse", one set shared by many columns; "stacked", distinct sets,
    # here the singular one beside three regular sets of its size
    c = np.diag([1.0, 1.0, 2.0, 3.0])
    c[0, 1] = c[1, 0] = 1.0
    passive = np.zeros((4, 6), bool)
    if layout == "inverse":
        passive[:2, :4] = True  # shared by four columns
    else:
        for j, p in enumerate([(0, 1), (0, 2), (1, 3), (0, 3)]):
            passive[p, j] = True
    passive[2, 4] = True
    passive[3, 4] = singular == "shared size"
    passive[:, 5] = singular == "full"
    with pytest.raises(np.linalg.LinAlgError):
        _passive_solve(c, np.ones((4, 6)), passive)


@pytest.mark.parametrize("dataset", ["D4", "D3"])
def test_joint_h_solve_makes_one_solve_per_passive_set_size(monkeypatch,
                                                           dataset):
    # every H block of the first outer step stacked into one, as
    # ``_outer_step`` does: the passive sets are shared at rank 5 (D4) and
    # nearly all distinct at rank 20 (D3)
    truth = generate(SyntheticSpec(dataset, seed=0))
    prob = new_problem(truth.to_dataset(), None,
                       Hyperparameters(rank=truth.rank))
    fac = init_factors(prob, 0)
    quads = [_build_quad(prob, fac, i, h)[0] for i, h in enumerate(fac.H)]
    m, _, _, tau = quads[0].hess_mats
    joint = QuadSubproblem((m, None, 0.0, tau),
                           np.hstack([q.g0 for q in quads]))
    per_call = count_linalg(monkeypatch)
    _, flag = panls_subproblem(joint, np.hstack(fac.H))
    assert not flag and len(per_call) > 1
    batched = False
    for call in per_call:
        p = call["passive"]
        sizes = p.sum(axis=0)
        assert call["inv"] == 0
        assert call["solve"] == len(np.unique(sizes[sizes > 0]))
        # columns with distinct sets of one size share that size's solve
        batched |= np.unique(p[:, sizes > 0], axis=1).shape[1] > call["solve"]
    assert batched


# ---------------------------------------------------------------------------
# one outer update: the H blocks solved together or one view at a time


def outer_update(monkeypatch, prob, fac, algorithm):
    """``_outer_step``'s block sweep on a copy of ``fac``, with the rescale
    off: the new factors."""
    no_rescale(monkeypatch)
    return _outer_step(prob, SolverConfig(algorithm=algorithm), fac.copy(),
                       view_products(prob.dataset.views, fac.H), 0.0).factors


def count_calls(monkeypatch, name) -> list:
    """Record the arguments of every call to ``jmf.solvers.<name>``."""
    calls = []
    original = getattr(jmf.solvers, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(jmf.solvers, name, recorded)
    return calls


@pytest.mark.parametrize("gamma2", [0.0, 0.3])
@pytest.mark.parametrize("seed", range(3))
def test_uncoupled_h_blocks_reach_each_views_minimizer(monkeypatch, seed,
                                                       gamma2):
    # networks stored but weighted 0, so no H_I block reads another
    prob = make_problem(seed=seed, m=15, n=(6, 9, 4), r=3, gamma1=1e-2,
                        gamma2=gamma2)
    fac = random_factors(prob, seed=seed + 7)
    calls = count_calls(monkeypatch, "_nnls_bpp")
    step = outer_update(monkeypatch, prob, fac, "PANLS")
    assert len(calls) == 2  # W, then every H_I in one solve
    assert calls[1][1].shape[1] == sum(prob.n)
    tau = jmf.solvers._TAU
    for i, (x, h) in enumerate(zip(prob.dataset.views, fac.H)):
        q = h_subproblem(prob, step.W, fac.H, i, tau2=tau, anchor=h,
                         wtx=step.W.T @ x)
        c = 2.0 * (q.hess_mats[0] + tau * np.eye(prob.rank))
        assert step.H[i].shape == h.shape and step.H[i].flags.c_contiguous
        assert_matches_enumeration(c, -q.g0, step.H[i])


def sequential_update(prob, fac, algorithm):
    """W's update, then each H_I's in view order, each build reading the
    H_J updated before it: the per-view loop."""
    cfg = SolverConfig(algorithm=algorithm)
    seq = fac.copy()
    seq.W = _block_step(prob, cfg, seq, "w",
                        view_products(prob.dataset.views, seq.H))[0]
    for i, x in enumerate(prob.dataset.views):
        seq.H[i] = _block_step(prob, cfg, seq, i, seq.W.T @ x)[0]
    return seq


@pytest.mark.parametrize("algorithm, weights", [
    ("PANLS", dict(lambda1=1e-3)),
    ("PANLS", dict(lambda2=1e-2, gamma2=0.1)),
    ("MUR", {}), ("PG", {}), ("Ne", dict(gamma2=0.1))])
def test_coupled_or_inexact_h_blocks_are_solved_view_by_view(
        monkeypatch, algorithm, weights):
    prob = make_problem(seed=3, m=15, n=(6, 9, 4), r=3, gamma1=1e-2,
                        **weights)
    fac = random_factors(prob, seed=11)
    step = outer_update(monkeypatch, prob, fac, algorithm)
    seq = sequential_update(prob, fac, algorithm)
    assert np.array_equal(step.W, seq.W)
    for got, want in zip(step.H, seq.H):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("algorithm, weights, per_update", [
    ("PG", {}, None), ("Ne", {}, None), ("PANLS", dict(lambda1=1e-3), None),
    ("PANLS", {}, 2)], ids=["PG", "Ne", "PANLS-coupled", "PANLS-uncoupled"])
def test_solve_reaches_the_engines_through_their_module_names(
        monkeypatch, algorithm, weights, per_update):
    # an outer update makes one engine call per block, or two when the
    # uncoupled H blocks are solved as one, and one gradient-norm call; a
    # profiler that replaces the module's names must see every call
    prob = make_problem(seed=3, m=15, n=(6, 9, 4), r=3, gamma1=1e-2,
                        **weights)
    engine = count_calls(monkeypatch, f"{algorithm.lower()}_subproblem")
    pgnorm = count_calls(monkeypatch, "projected_gradient_norm")
    updates = count_calls(monkeypatch, "_outer_step")
    solve(prob, SolverConfig(algorithm=algorithm, max_outer_iters=5),
          init_factors(prob, 0))
    assert updates
    assert len(engine) == len(updates) * (per_update or prob.n_views + 1)
    assert len(pgnorm) == len(updates)


def test_joint_solve_round_cap_hands_the_stacked_block_to_panls(
        monkeypatch):
    prob = make_problem(seed=5, m=15, n=(6, 9, 4), r=3, gamma1=1e-2,
                        gamma2=0.1)
    fac = random_factors(prob, seed=2)
    monkeypatch.setattr(jmf.solvers, "_BPP_MAX_ROUNDS", 0)
    fallbacks = count_calls(monkeypatch, "_panls_minimize")
    step = outer_update(monkeypatch, prob, fac, "PANLS")
    # W's block, then the clipped iterate of every view's columns at once
    assert [x0.shape for _, x0 in fallbacks[1:]] == [
        (prob.rank, sum(prob.n))]
    for h, want in zip(step.H, fac.H):
        assert h.shape == want.shape
        assert np.isfinite(h).all() and h.min() >= 0


def test_joint_solve_of_a_singular_matrix_runs_panls_on_the_stacked_block(
        monkeypatch):
    # a zero column of W and gamma2 = 0: without the proximal term the
    # matrix 2 W^T W is singular, and the stacked block runs PANLS from
    # its start
    prob = make_problem(seed=6, m=15, n=(6, 9, 4), r=3)
    fac = random_factors(prob, seed=4)
    fac.W[:, 1] = 0.0
    quads = [_build_quad(prob, fac, i)[0] for i in range(prob.n_views)]
    joint = QuadSubproblem((quads[0].hess_mats[0], None, 0.0, 0.0),
                           np.hstack([q.g0 for q in quads]))
    start = np.hstack(fac.H)
    want, _ = _panls_minimize(joint, start)
    fallbacks = count_calls(monkeypatch, "_panls_minimize")
    x, exhausted = panls_subproblem(joint, start)
    assert not exhausted and np.array_equal(x, want)
    assert len(fallbacks) == 1 and fallbacks[0][1] is start


# ---------------------------------------------------------------------------
# repeated multiplicative steps


def mur_quads(prob, fac):
    """The W and every H_I quadratic MUR builds (no proximal term), each
    with its start; W's block is W^T."""
    quads = [(w_subproblem(prob, fac.H), np.ascontiguousarray(fac.W.T))]
    for i, h in enumerate(fac.H):
        quads.append((h_subproblem(prob, fac.W, fac.H, i), h))
    return quads


def record_mur_steps(monkeypatch) -> list:
    """Make every ratio step append a copy of its result to the returned
    list; ``monkeypatch`` is the fixture or a ``MonkeyPatch.context()``."""
    steps = []
    original = jmf.solvers._mur_ratio

    def recorded(*args):
        out = original(*args)
        steps.append(out.copy())
        return out

    monkeypatch.setattr(jmf.solvers, "_mur_ratio", recorded)
    return steps


@pytest.mark.parametrize("seed", range(4))
def test_one_mur_step_is_the_paper_update(seed):
    prob = make_problem(seed=seed, m=12, n=(7, 9, 5), r=3, lambda1=1e-3,
                        lambda2=1e-3, gamma1=1e-2, gamma2=1e-2)
    fac = random_factors(prob, seed=seed + 100)
    paper = [mur_step_W(prob, fac).T] + [mur_step_H(prob, fac, i)
                                         for i in range(prob.n_views)]
    for (q, x0), step in zip(mur_quads(prob, fac), paper):
        # capped at one step by rho = 0 and by the cap
        assert np.array_equal(mur_subproblem(q, x0, 0.0)[0], step)
        assert np.array_equal(mur_subproblem(q, x0, 50.0, cap=1)[0], step)


@st.composite
def mur_cases(draw):
    seed = draw(st.integers(0, 2**16))
    r = draw(st.integers(1, 4))
    m = draw(st.integers(r, 15))
    n = tuple(draw(st.lists(st.integers(r, 12), min_size=1, max_size=3)))
    lam = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    gamma1 = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    gamma2 = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    prob = make_problem(seed=seed, m=m, n=n, r=r, lambda1=lam, lambda2=lam,
                        gamma1=gamma1, gamma2=gamma2)
    return prob, random_factors(prob, seed=seed + 1)


@given(mur_cases(), st.sampled_from([0.0, 0.4, 3.0, 40.0]))
def test_repeated_mur_steps_never_raise_the_block_quadratic(case, rho):
    prob, fac = case
    with pytest.MonkeyPatch.context() as mp:
        steps = record_mur_steps(mp)
        for q, x0 in mur_quads(prob, fac):
            steps.clear()
            x, _ = mur_subproblem(q, x0, rho)
            values = [q.value(x0)] + [q.value(s) for s in steps]
            for prev, curr in zip(values, values[1:]):
                assert curr <= prev + 1e-10 * max(1.0, abs(prev))
            assert np.array_equal(x, steps[-1])
            assert x.min() >= 0


@given(mur_cases(), st.sampled_from([0.0, 0.6, 1.0, 2.5, 7.0]),
       st.integers(1, 20))
def test_mur_inner_stop_follows_gillis_glineur(case, rho, inner_cap):
    prob, fac = case
    cap = min(int(1 + _MUR_ALPHA * rho), inner_cap)
    with pytest.MonkeyPatch.context() as mp:
        steps = record_mur_steps(mp)
        for q, x0 in mur_quads(prob, fac):
            steps.clear()
            mur_subproblem(q, x0, rho, cap=inner_cap)
            assert 1 <= len(steps) <= cap
            # each move in Frobenius norm, summed as the engine sums it
            moves = [math.sqrt(np.vdot(b - a, b - a))
                     for a, b in zip([x0] + steps, steps)]
            # every step but the last moved more than delta times the
            # first; the last did too only when the cap ended the steps
            assert all(mv > _MUR_DELTA * moves[0] for mv in moves[1:-1])
            if len(steps) < cap:
                assert moves[-1] <= _MUR_DELTA * moves[0]


def test_mur_subproblem_caps_its_steps_by_the_block_shapes(monkeypatch):
    steps = record_mur_steps(monkeypatch)
    prob = make_problem(seed=4, m=12, n=(7, 9), r=3, gamma1=1e-2,
                        gamma2=1e-2)
    fac = random_factors(prob, seed=5)
    assert _mur_rho(prob, None) == 1 + 16 * 15 / (12 * 4)
    assert _mur_rho(prob, 1) == 1 + 12 * 12 / (9 * 4)
    # lambda2 adds H_0 M_0 (7 x 9) to the H_1 build, lambda1 adds x S
    # (9 x 9) to its step; W's quadratic has no network term
    for l1, l2, build, step in [(1e-3, 0, 12 * 12, 9 * 4 + 81),
                                (0, 1e-3, 12 * 12 + 9 * 7, 9 * 4),
                                (1e-3, 1e-3, 12 * 12 + 9 * 7, 9 * 4 + 81)]:
        net = make_problem(seed=4, m=12, n=(7, 9), r=3, lambda1=l1,
                           lambda2=l2)
        assert _mur_rho(net, None) == _mur_rho(prob, None)
        assert _mur_rho(net, 1) == 1 + build / step
    unlinked = make_problem(seed=4, m=12, n=(7, 9), r=3, lambda1=1e-3,
                            lambda2=1e-3, with_constraints=False)
    assert _mur_rho(unlinked, 1) == _mur_rho(prob, 1)
    for target, rho in [("w", _mur_rho(prob, None)), (0, _mur_rho(prob, 0)),
                        (1, _mur_rho(prob, 1))]:
        steps.clear()
        _block_step(prob, SolverConfig(algorithm="MUR"), fac, target, None)
        assert 1 <= len(steps) <= int(1 + _MUR_ALPHA * rho)


def test_mur_zero_entries_stay_zero_over_repeated_steps():
    prob = make_problem(seed=6, m=10, n=(6, 8), r=3, lambda1=1e-3,
                        lambda2=1e-3, gamma1=1e-2, gamma2=1e-2)
    fac = random_factors(prob, seed=7)
    fac.W[[0, 3], [1, 2]] = 0.0
    fac.H[1][:, 4] = 0.0
    cfg = SolverConfig(algorithm="MUR")
    w, _ = _block_step(prob, cfg, fac, "w", None)
    h, _ = _block_step(prob, cfg, fac, 1, None)
    assert w[0, 1] == 0.0 and w[3, 2] == 0.0
    assert np.all(h[:, 4] == 0.0)
    assert w.min() >= 0 and h.min() >= 0
