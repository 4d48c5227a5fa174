import dataclasses

import numpy as np
import pytest

from jmf import (ConstraintSet, Factorization, Hyperparameters,
                 MultiViewDataset, SolverConfig, init_factors, new_problem,
                 solve)
from oracles import make_problem


def test_dataset_rejects_negative_entries():
    with pytest.raises(ValueError):
        MultiViewDataset([np.array([[1.0, -0.1], [0.0, 2.0]])])


def test_dataset_rejects_row_mismatch():
    with pytest.raises(ValueError):
        MultiViewDataset([np.ones((3, 2)), np.ones((4, 2))])


def test_dataset_is_immutable():
    d = MultiViewDataset([np.ones((2, 2))])
    with pytest.raises(ValueError):
        d.views[0][0, 0] = 5.0


# the layouts a caller's matrix arrives in: relabelled columns and pandas
# frames give column-major arrays
LAYOUTS = {
    "column-major": lambda a: np.asfortranarray(a),
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
    "fancy-indexed": lambda a: a[:, ::-1][:, np.arange(a.shape[1])[::-1]],
}


def stored_as_given(stored, given) -> None:
    assert stored.flags.c_contiguous and not stored.flags.writeable
    assert not np.shares_memory(stored, given)
    np.testing.assert_array_equal(stored, given)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_inputs_are_stored_row_major_and_read_only(layout):
    rng = np.random.default_rng(5)
    view = LAYOUTS[layout](rng.random((7, 4)))
    within = LAYOUTS[layout](rng.random((4, 4)))
    between = LAYOUTS[layout](rng.random((4, 3)))
    assert not view.flags.c_contiguous
    stored_as_given(MultiViewDataset([view]).views[0], view)
    cons = ConstraintSet(within={0: [within]}, between={(0, 1): between})
    stored_as_given(cons.within[0][0], within)
    stored_as_given(cons.between[(0, 1)], between)


def read_only(a):
    a.flags.writeable = False
    return a


def test_a_frozen_row_major_owned_input_is_stored_as_is():
    rng = np.random.default_rng(8)
    view, within, between = (read_only(rng.random(s))
                             for s in ((7, 4), (4, 4), (4, 3)))
    assert MultiViewDataset([view]).views[0] is view
    cons = ConstraintSet(within={0: [within]}, between={(0, 1): between})
    assert cons.within[0][0] is within
    assert cons.between[(0, 1)] is between


# each misses one condition of storing an input without a copy
NOT_FROZEN_OWNED = {
    "writeable": lambda a: a,
    "read-only-view": lambda a: read_only(a[:]),
    "column-major": lambda a: read_only(np.asfortranarray(a)),
    "float32": lambda a: read_only(a.astype(np.float32)),
}


@pytest.mark.parametrize("kind", NOT_FROZEN_OWNED)
def test_any_other_input_is_copied(kind):
    given = NOT_FROZEN_OWNED[kind](np.random.default_rng(9).random((5, 3)))
    stored = MultiViewDataset([given]).views[0]
    cons = ConstraintSet(between={(0, 1): given})
    for kept in (stored, cons.between[(0, 1)]):
        assert not np.shares_memory(kept, given)
        assert kept.flags.c_contiguous and not kept.flags.writeable
        assert kept.dtype == np.float64
        np.testing.assert_array_equal(kept, given)


@pytest.mark.parametrize("algorithm", ["PG", "PANLS"])
def test_column_major_data_solve_like_row_major_data(algorithm):
    prob = make_problem(seed=6, m=20, n=(9, 12), r=3, lambda1=1e-3,
                        lambda2=1e-3, gamma1=1e-2, gamma2=1e-2)
    reports = []
    for order in ("C", "F"):
        cons = prob.constraints
        data = MultiViewDataset([np.asarray(x, order=order)
                                 for x in prob.dataset.views])
        other = new_problem(data, ConstraintSet(
            within={i: [np.asarray(t, order=order) for t in ts]
                    for i, ts in cons.within.items()},
            between={k: np.asarray(r, order=order)
                     for k, r in cons.between.items()}), prob.params)
        cfg = SolverConfig(algorithm=algorithm, max_outer_iters=200)
        reports.append(solve(other, cfg, init_factors(other, 0))[1])
    assert reports[0].iterations == reports[1].iterations
    assert reports[1].final_objective == pytest.approx(
        reports[0].final_objective, rel=1e-9, abs=0)


def test_new_problem_identity_case():
    prob = new_problem(MultiViewDataset([np.eye(2)]), ConstraintSet.empty(),
                       Hyperparameters(rank=1))
    assert prob.m == 2 and prob.n == (2,) and prob.rank == 1


def test_new_problem_benchmark_shapes():
    rng = np.random.default_rng(0)
    views = [rng.random((45, n)) for n in (130, 170, 215)]
    prob = new_problem(MultiViewDataset(views), ConstraintSet.empty(),
                       Hyperparameters(rank=4))
    assert prob.n == (130, 170, 215)


def test_new_problem_rejects_constraint_shape_mismatch():
    views = [np.ones((3, 4))]
    bad = ConstraintSet(within={0: [np.ones((5, 5))]})
    with pytest.raises(ValueError):
        new_problem(MultiViewDataset(views), bad, Hyperparameters(rank=2))


def test_constraints_reject_negative_entries():
    with pytest.raises(ValueError):
        ConstraintSet(within={0: [-np.ones((2, 2))]})
    with pytest.raises(ValueError):
        ConstraintSet(between={(0, 1): -np.ones((2, 3))})


def test_large_rank_warns_but_is_accepted():
    views = [np.ones((3, 2))]
    with pytest.warns(UserWarning):
        prob = new_problem(MultiViewDataset(views), ConstraintSet.empty(),
                           Hyperparameters(rank=10))
    assert prob.rank == 10


def test_hyperparameters_reject_negative_weights():
    with pytest.raises(ValueError):
        Hyperparameters(rank=2, lambda1=-1.0)
    with pytest.raises(ValueError):
        Hyperparameters(rank=0)


@pytest.mark.parametrize("fields", [
    dict(rank=4.5), dict(rank="4"), dict(rank=np.float64(4)),
    dict(rank=2, gamma2="0.1"), dict(rank=2, lambda2=float("nan")),
    dict(rank=2, gamma1=float("inf")), dict(rank=2, lambda1=None),
    dict(rank=True), dict(rank=2, lambda1=True),
], ids=["fractional-rank", "string-rank", "float-rank", "string-weight",
        "nan-weight", "infinite-weight", "none-weight", "bool-rank",
        "bool-weight"])
def test_hyperparameters_reject_a_rank_or_weight_of_the_wrong_kind(fields):
    with pytest.raises(ValueError, match="must be a"):
        Hyperparameters(**fields)


def test_hyperparameters_take_numpy_numbers():
    params = Hyperparameters(rank=np.int64(4), lambda1=np.float32(0.5),
                             gamma2=np.int64(2))
    assert params.rank == 4 and type(params.rank) is int
    assert params.lambda1 == 0.5 and params.gamma2 == 2


@pytest.mark.parametrize("fields", [
    dict(tolerance="1e-7"), dict(tolerance=0.0), dict(tolerance=float("inf")),
    dict(max_outer_iters=2.5), dict(seed=-1), dict(seed="0"),
    dict(tolerance=True), dict(max_outer_iters=True), dict(seed=True),
], ids=["string-tolerance", "zero-tolerance", "infinite-tolerance",
        "fractional-cap", "negative-seed", "string-seed", "bool-tolerance",
        "bool-cap", "bool-seed"])
def test_solver_config_rejects_a_setting_of_the_wrong_kind(fields):
    with pytest.raises(ValueError, match="must be"):
        SolverConfig(**fields)


def test_solver_config_holds_only_what_a_caller_chooses():
    # the inner engines' stop and the unit-column rescale are solver
    # constants, not settings
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "algorithm", "stop_rule", "tolerance", "max_outer_iters", "seed"]


def test_solver_config_takes_numpy_numbers():
    cfg = SolverConfig(tolerance=np.float32(1e-5), max_outer_iters=np.int64(7),
                       seed=np.int64(3))
    assert cfg.max_outer_iters == 7 and type(cfg.max_outer_iters) is int
    assert type(cfg.seed) is int and cfg.tolerance == np.float32(1e-5)


@pytest.mark.parametrize("build, message", [
    (lambda: MultiViewDataset([np.ones(3)]), r"^view 0 must be a 2-D matrix"),
    (lambda: MultiViewDataset([np.array([[1.0, np.nan]])]),
     "^view 0 contains non-finite entries"),
    (lambda: MultiViewDataset([]), "at least one view"),
    (lambda: ConstraintSet(within={0: [np.ones((2, 3))]}),
     r"^within\[0\]\[0\] is not square"),
    (lambda: ConstraintSet(between={(1, 1): np.ones((2, 2))}),
     "two distinct views"),
    (lambda: Factorization(np.ones((3, 2)), [np.ones((3, 4))]),
     r"^H\[0\] row count 3 != rank 2"),
    (lambda: Factorization(np.ones((3, 2)), [-np.ones((2, 4))]),
     r"^H\[0\] has negative entries"),
], ids=["vector-view", "nan-view", "no-views", "non-square-within",
        "between-one-view", "h-rows", "negative-h"])
def test_model_inputs_reject_malformed_matrices(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_factorization_rejects_negative_entries():
    with pytest.raises(ValueError):
        Factorization(np.array([[1.0, -1.0]]), [np.ones((2, 3))])


def test_init_factors_deterministic():
    prob = make_problem(seed=3)
    a = init_factors(prob, 42)
    b = init_factors(prob, 42)
    assert np.array_equal(a.W, b.W)
    assert all(np.array_equal(x, y) for x, y in zip(a.H, b.H))


def test_init_factors_unit_h_columns():
    prob = make_problem(seed=1)
    fac = init_factors(prob, 7)
    for h in fac.H:
        norms = np.linalg.norm(h, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_init_factors_nonnegative_ranges():
    prob = make_problem(seed=2)
    fac = init_factors(prob, 11)
    assert fac.W.min() >= 0 and fac.W.max() <= 1
    for h in fac.H:
        assert h.min() >= 0
