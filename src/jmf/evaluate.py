"""Scoring factorizations against ground truth and module extraction."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Factorization
from .synthgen import GroundTruth


@dataclass
class EvalResult:
    auc: float
    auc_w: float
    per_view_auc: list
    matching: np.ndarray


@dataclass
class ModuleAssignment:
    """Per view, per component: feature indices whose z-score exceeds T."""

    threshold: float
    modules: list  # list over views of list over components of index arrays


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the group mean (Mann-Whitney style).

    A group of tied values at sorted positions i..j (from 0) gets
    (i + j) / 2 + 1, with j + 1 the cumulative count up to the group.
    """
    _, group, counts = np.unique(values, return_inverse=True,
                                 return_counts=True)
    ends = np.cumsum(counts)
    return (0.5 * (2 * ends - counts - 1) + 1.0)[group]


def auc_score(scores, labels) -> float:
    """Rank-based AUC: P(random positive outranks random negative), ties 1/2."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValueError("scores and labels differ in length")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("labels are degenerate: need both classes")
    ranks = _average_ranks(s)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def _column_correlations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of every column pair; zero-variance columns get 0."""
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    an = np.linalg.norm(ac, axis=0)
    bn = np.linalg.norm(bc, axis=0)
    corr = ac.T @ bc
    denom = np.outer(an, bn)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, corr / np.where(denom > 0, denom, 1.0), 0.0)
    return corr


def match_components(learned: Factorization, truth: GroundTruth) -> np.ndarray:
    """Greedy correlation matching of learned W columns to W0 columns.

    Returns ``perm`` with ``perm[j]`` the ground-truth column assigned to
    learned column ``j``.
    """
    r = learned.W.shape[1]
    if truth.w0.shape[1] != r:
        raise ValueError("rank mismatch between learned factors and truth")
    corr = _column_correlations(learned.W, truth.w0)
    perm = np.full(r, -1, dtype=int)
    free_learned = set(range(r))
    free_truth = set(range(r))
    work = corr.copy()
    for _ in range(r):
        best = None
        for i in free_learned:
            for j in free_truth:
                if best is None or work[i, j] > work[best]:
                    best = (i, j)
        perm[best[0]] = best[1]
        free_learned.discard(best[0])
        free_truth.discard(best[1])
    return perm


def _rms_scaled(mat: np.ndarray) -> np.ndarray:
    """Scale a matrix to unit root-mean-square entry magnitude.

    The multiplicative split between W and the H's is arbitrary (any
    rescaling of W columns can be absorbed into H rows), so pooled scores
    are only comparable across matrices after per-matrix normalization.
    """
    rms = np.linalg.norm(mat) / np.sqrt(mat.size)
    return mat / rms if rms > 0 else mat


def evaluate_factors(factors: Factorization, truth: GroundTruth) -> EvalResult:
    """Combined AUC of matched W and H entries against binary ground truth."""
    perm = match_components(factors, truth)
    order = np.argsort(perm)  # learned column for each truth column
    w_scores = factors.W[:, order]
    auc_w = auc_score(w_scores, truth.w0)
    per_view = []
    all_scores = [_rms_scaled(w_scores).ravel()]
    all_labels = [truth.w0.ravel()]
    for h, h0 in zip(factors.H, truth.h0):
        h_scores = h[order, :]
        per_view.append(auc_score(h_scores, h0))
        all_scores.append(_rms_scaled(h_scores).ravel())
        all_labels.append(h0.ravel())
    combined = auc_score(np.concatenate(all_scores),
                         np.concatenate(all_labels))
    return EvalResult(auc=combined, auc_w=auc_w, per_view_auc=per_view,
                      matching=perm)


def assign_modules(factors: Factorization, threshold: float = 1.5
                   ) -> ModuleAssignment:
    """Select features whose within-row z-score exceeds the threshold.

    Rows with zero standard deviation yield empty modules.
    """
    modules = []
    for h in factors.H:
        view_modules = []
        means = h.mean(axis=1, keepdims=True)
        stds = h.std(axis=1, keepdims=True)
        for k in range(h.shape[0]):
            if stds[k, 0] == 0:
                view_modules.append(np.array([], dtype=int))
                continue
            z = (h[k] - means[k, 0]) / stds[k, 0]
            view_modules.append(np.flatnonzero(z > threshold))
        modules.append(view_modules)
    return ModuleAssignment(threshold=threshold, modules=modules)
