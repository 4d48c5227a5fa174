import numpy as np
import pytest

from jmf import (ConstraintSet, Factorization, Hyperparameters,
                 SyntheticSpec, assign_modules, auc_score, evaluate_factors,
                 generate, match_components, new_problem, reconstruction_error)
from jmf.evaluate import _average_ranks, _column_correlations
from oracles import (best_matching_score, brute_auc, ref_greedy_matching,
                     ref_modules)


def test_auc_perfect_separation():
    assert auc_score([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0


def test_auc_perfect_inversion():
    assert auc_score([1, 1, 0, 0], [0, 0, 1, 1]) == 0.0


def test_auc_hand_example():
    assert auc_score([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_ties_get_half_credit():
    assert auc_score([0.5, 0.5], [0, 1]) == 0.5


def test_auc_degenerate_labels_rejected():
    with pytest.raises(ValueError):
        auc_score([1.0, 2.0], [1, 1])
    with pytest.raises(ValueError):
        auc_score([1.0, 2.0], [0, 0])


def test_auc_scores_and_labels_of_different_lengths_rejected():
    with pytest.raises(ValueError, match="scores and labels differ in length"):
        auc_score([0.1, 0.4, 0.35], [0, 1])


@pytest.mark.parametrize("seed", range(10))
def test_auc_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 200))
    scores = np.round(rng.random(n), 2)  # rounding forces ties
    labels = (rng.random(n) < 0.4).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert auc_score(scores, labels) == pytest.approx(
        brute_auc(scores, labels), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_average_ranks_match_a_tie_averaged_reference(seed):
    # each value's rank is (number below it) + (number equal to it + 1) / 2;
    # rounding forces ties, -0.0 ties with 0.0, and a run can be all ties
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    values = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))
    values[rng.random(n) < 0.1] = -0.0
    if seed == 0:
        values[:] = 1.5
    below = (values[None, :] < values[:, None]).sum(axis=1)
    equal = (values[None, :] == values[:, None]).sum(axis=1)
    ranks = _average_ranks(values)
    np.testing.assert_array_equal(ranks, below + 0.5 * (equal + 1))
    assert ranks.shape == values.shape and ranks.dtype == float


@pytest.mark.parametrize("transform", [lambda x: 2 * x + 1, lambda x: x ** 3])
def test_auc_invariant_under_increasing_transforms(transform):
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(150)
    labels = (rng.random(150) < 0.5).astype(int)
    assert auc_score(scores, labels) == pytest.approx(
        auc_score(transform(scores), labels), abs=1e-12)


def fake_truth(w0, h0_list):
    """Minimal stand-in exposing the fields evaluation reads."""
    class T:
        pass
    t = T()
    t.w0 = w0
    t.h0 = h0_list
    t.x0 = [w0 @ h for h in h0_list]
    return t


def test_match_identity():
    rng = np.random.default_rng(0)
    w = rng.random((8, 3))
    truth = fake_truth(w, [rng.random((3, 4))])
    fac = Factorization(w, [np.abs(truth.h0[0])])
    assert np.array_equal(match_components(fac, truth), np.arange(3))


def test_match_swapped_columns():
    rng = np.random.default_rng(1)
    w = rng.random((8, 3))
    truth = fake_truth(w, [rng.random((3, 4))])
    swapped = w[:, [1, 0, 2]]
    fac = Factorization(swapped, [truth.h0[0]])
    assert np.array_equal(match_components(fac, truth), [1, 0, 2])


def test_match_rank_mismatch_rejected():
    rng = np.random.default_rng(2)
    truth = fake_truth(rng.random((5, 3)), [rng.random((3, 4))])
    fac = Factorization(rng.random((5, 2)), [rng.random((2, 4))])
    with pytest.raises(ValueError):
        match_components(fac, truth)


def test_match_invariant_to_positive_column_rescaling():
    rng = np.random.default_rng(4)
    w = rng.random((10, 4))
    truth = fake_truth(w, [rng.random((4, 5))])
    fac_a = Factorization(w + 0.05 * rng.random(w.shape), [truth.h0[0]])
    scales = np.array([0.1, 3.0, 7.5, 0.4])
    fac_b = Factorization(fac_a.W * scales, [truth.h0[0]])
    assert np.array_equal(match_components(fac_a, truth),
                          match_components(fac_b, truth))


def test_greedy_matching_close_to_exhaustive():
    # random learned factors that actually correspond to the truth columns
    # (noisy, shuffled copies): greedy should find the exhaustive optimum
    # in at least 95 of 100 trials; discrepancies are reported
    hits = 0
    misses = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        w0 = rng.random((12, 4))
        shuffle = rng.permutation(4)
        learned = w0[:, shuffle] + 0.5 * rng.random((12, 4))
        truth = fake_truth(w0, [rng.random((4, 5))])
        fac = Factorization(learned, [truth.h0[0]])
        perm = match_components(fac, truth)
        corr = _column_correlations(learned, w0)
        greedy_total = sum(corr[i, perm[i]] for i in range(4))
        best_total = best_matching_score(corr)
        if greedy_total >= best_total - 1e-12:
            hits += 1
        else:
            misses.append((seed, best_total - greedy_total))
    if misses:
        print(f"greedy matching fell short on {len(misses)} trials: {misses}")
    assert hits >= 95


def test_evaluate_factors_perfect_recovery():
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=0))
    fac = Factorization(truth.w0, [h.astype(float) for h in truth.h0])
    result = evaluate_factors(fac, truth)
    assert result.auc == 1.0
    assert result.auc_w == 1.0
    prob = new_problem(truth.to_dataset(), None,
                       Hyperparameters(rank=truth.rank))
    assert reconstruction_error(prob, fac) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_factors_recovers_column_permutation():
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=1))
    order = [2, 0, 3, 1]
    fac = Factorization(truth.w0[:, order],
                        [h[order, :].astype(float) for h in truth.h0])
    result = evaluate_factors(fac, truth)
    assert result.auc == 1.0
    assert sorted(result.matching.tolist()) == [0, 1, 2, 3]


def test_evaluate_combined_auc_invariant_to_factor_scale_split():
    # moving scale between W and the H's must not change the pooled score
    truth = generate(SyntheticSpec(dataset_id="D1", seed=2))
    rng = np.random.default_rng(5)
    w = truth.w0 + 0.3 * rng.random(truth.w0.shape)
    hs = [h + 0.3 * rng.random(h.shape) for h in truth.h0]
    a = evaluate_factors(Factorization(w, hs), truth).auc
    b = evaluate_factors(Factorization(w * 100.0,
                                       [h / 100.0 for h in hs]), truth).auc
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_matching_and_modules_follow_their_loop_references(seed):
    # coarse rounding makes tied correlations, zero columns and constant
    # rows common
    rng = np.random.default_rng(seed)
    r, m = int(rng.integers(1, 6)), int(rng.integers(2, 9))
    w, w0 = (np.round(rng.random((m, r)) * 2, 1) for _ in range(2))
    w[:, int(rng.integers(r))] = 0.0
    if seed % 3 == 0:
        w = w[:, [0] * r]  # every column alike: all correlations tie
    hs = [np.round(rng.random((r, int(rng.integers(1, 7)))))
          for _ in range(2)]
    hs[0][0] = 1.0
    fac = Factorization(w, hs)
    corr = _column_correlations(w, w0)
    assert np.array_equal(match_components(fac, fake_truth(w0, hs)),
                          ref_greedy_matching(corr))
    got = assign_modules(fac, threshold=0.5).modules
    assert [[m.tolist() for m in view] for view in got] == ref_modules(hs,
                                                                       0.5)


def test_assign_modules_spike_row():
    h = np.array([[10.0] + [0.0] * 9])
    fac = Factorization(np.ones((2, 1)), [h])
    out = assign_modules(fac, threshold=1.5)
    assert out.modules[0][0].tolist() == [0]


def test_assign_modules_constant_row_empty():
    fac = Factorization(np.ones((2, 1)), [np.ones((1, 6))])
    out = assign_modules(fac, threshold=1.5)
    assert out.modules[0][0].size == 0


def test_assign_modules_infinite_threshold_empty():
    rng = np.random.default_rng(8)
    fac = Factorization(np.ones((2, 2)), [rng.random((2, 6))])
    out = assign_modules(fac, threshold=np.inf)
    assert all(m.size == 0 for view in out.modules for m in view)
