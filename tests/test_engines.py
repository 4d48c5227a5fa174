"""The projected inner engines (PG, Ne, PANLS) after they were cut to one
Hessian product per inner step.

The engines must follow the reference copies in ``oracles.py`` (equal in
exact arithmetic), the branch-free projection and the doubled Hessian
operator must agree with the forms they replaced, the product counts per
step are pinned, and an exhausted step-size search is reported.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jmf import SolverConfig, init_factors, solve
from jmf.objective import (QuadSubproblem, _projected, h_subproblem,
                           projected_norm, w_subproblem)
from jmf.solvers import (_ne_minimize, _panls_minimize, _pg_minimize,
                         panls_subproblem, pg_subproblem)
from oracles import (make_problem, random_factors, ref_ne_minimize,
                     ref_panls_minimize, ref_pg_minimize, ref_pgn)

TAU = 1e-2


def weighted_quads(seed):
    """The W and every H_I quadratic of a small problem with all four
    weights and the proximal weight positive, each with its start."""
    prob = make_problem(seed=seed, m=12, n=(7, 9, 5), r=3, lambda1=1e-3,
                        lambda2=1e-3, gamma1=1e-2, gamma2=1e-2)
    fac = random_factors(prob, seed=seed + 100)
    quads = [(w_subproblem(prob, fac.H, tau1=TAU, anchor=fac.W), fac.W)]
    for i, h in enumerate(fac.H):
        quads.append((h_subproblem(prob, fac.W, fac.H, i, tau2=TAU,
                                   anchor=h), h))
    return quads


def engine_config(**kw):
    return SolverConfig(**{"inner_iters": 60, "inner_tol": 1e-9,
                           "inner_tol_rel": 0.0, **kw})


# ---------------------------------------------------------------------------
# agreement with the reference engines


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("engine", ["PG", "Ne", "PANLS"])
def test_engines_match_their_reference(engine, seed):
    cfg = engine_config(algorithm=engine)
    for q, x0 in weighted_quads(seed):
        if engine == "PG":
            new, flag = _pg_minimize(q, x0, cfg)
            ref, ref_flag = ref_pg_minimize(q, x0, cfg)
            assert flag == ref_flag
        elif engine == "Ne":
            new = _ne_minimize(q, x0, cfg)
            ref = ref_ne_minimize(q, x0, cfg)
        else:
            new, _ = _panls_minimize(q, x0, cfg)
            ref = ref_panls_minimize(q, x0, cfg)
        assert q.value(new) == pytest.approx(q.value(ref), rel=1e-10)
        np.testing.assert_allclose(new, ref, rtol=0, atol=1e-8)
        assert not np.shares_memory(new, x0)


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
    a = scale * rng.random((r, r))
    a = a + a.T
    d = rng.standard_normal((rows, r))
    q = QuadSubproblem((a,), np.zeros((rows, r)), "w")
    assert np.array_equal(q.hess_apply(d), 2.0 * (d @ a))

    m = scale * rng.random((r, r))
    s = rng.random((cols, cols)) if networks else None
    d = rng.standard_normal((r, cols))
    q = QuadSubproblem((m, s, lam1, tau), np.zeros((r, cols)), "h")
    old = 2.0 * (m @ d)
    if s is not None and lam1:
        old -= lam1 * (d @ s)
    if tau:
        old += 2.0 * tau * d
    assert np.array_equal(q.hess_apply(d), old)
    assert q.hess_mats[0] is m  # the layout MUR and the flop count read


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
    cfg = SolverConfig(algorithm="Ne", inner_iters=steps, inner_tol=0.0,
                       inner_tol_rel=0.0)
    for q, x0 in weighted_quads(0):
        before = count[0]
        _ne_minimize(q, x0, cfg)
        assert count[0] - before == steps + 1


def interior_quad(r=6, rows=40):
    """A W quadratic whose minimizer and start lie far inside the
    nonnegative orthant, with r well-spread Hessian eigenvalues, so no
    CG step reaches the bound before r steps."""
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((r, r)))
    a = basis @ np.diag(np.geomspace(1.0, 30.0, r)) @ basis.T
    target = 10.0 + rng.random((rows, r))
    q = QuadSubproblem((a,), -2.0 * target @ a, "w")
    return q, target + 0.5 * rng.standard_normal((rows, r))


def test_unclipped_cg_step_forms_one_product(monkeypatch):
    count = count_products(monkeypatch)
    q, x0 = interior_quad()
    # n1 = 0 hands over to CG after one PG step; the interior never
    # falls below eta times the projected gradient, so CG keeps going
    base = dict(algorithm="PANLS", inner_tol=0.0, inner_tol_rel=0.0, n1=0)
    products = {}
    for engine in (_panls_minimize, ref_panls_minimize):
        for k in (3, 4):
            before = count[0]
            out = engine(q, x0, SolverConfig(inner_iters=k, **base))
            products[engine, k] = count[0] - before
            x = out[0] if isinstance(out, tuple) else out
            assert x.min() > 1.0  # every step stayed off the bound
    assert products[_panls_minimize, 4] - products[_panls_minimize, 3] == 1
    # the reference formed the gradient afresh as well
    assert (products[ref_panls_minimize, 4]
            - products[ref_panls_minimize, 3]) == 2


# ---------------------------------------------------------------------------
# exhausted step-size searches


def overshooting(algorithm):
    # one trial step, far too long for any block; no rescale, so the
    # factors are exactly what the engines returned
    return SolverConfig(algorithm=algorithm, max_backtracks=0, alpha0=1e12,
                        max_outer_iters=3, tolerance=1e-300,
                        normalize_rows=False)


@pytest.mark.parametrize("algorithm", ["PG", "PANLS"])
def test_exhausted_searches_are_counted(algorithm):
    prob = make_problem(seed=3, m=10, n=(6, 8), r=2, gamma1=0.1)
    init = init_factors(prob, 0)
    final, report = solve(prob, overshooting(algorithm), init)
    blocks = 1 + prob.n_views
    assert report.exhausted_searches == blocks * report.iterations
    # an exhausted first search leaves every block where it was
    assert np.array_equal(final.W, init.W)
    assert all(np.array_equal(a, b) for a, b in zip(final.H, init.H))


@pytest.mark.parametrize("algorithm", ["PG", "PANLS"])
def test_subproblem_returns_the_exhaustion_flag(algorithm):
    prob = make_problem(seed=3, m=10, n=(6, 8), r=2, gamma1=0.1)
    fac = random_factors(prob, seed=1)
    cfg = overshooting(algorithm)
    if algorithm == "PG":
        w, flag = pg_subproblem(prob, fac, "w", cfg)
    else:
        w, flag = panls_subproblem(prob, fac, "w", cfg, fac.W)
    assert flag and np.array_equal(w, fac.W)
    _, flag = pg_subproblem(prob, fac, "w", SolverConfig(algorithm="PG"))
    assert not flag


@pytest.mark.parametrize("algorithm", ["MUR", "Ne", "PG", "PANLS"])
def test_default_solves_report_no_exhaustion(algorithm):
    prob = make_problem(seed=2, m=12, n=(6, 8), r=2)
    _, report = solve(prob, SolverConfig(algorithm=algorithm,
                                         max_outer_iters=20),
                      init_factors(prob, 0))
    assert report.exhausted_searches == 0
