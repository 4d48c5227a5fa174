"""Synthetic benchmark generators: block/Bernoulli factors, noise, constraints."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .model import ConstraintSet, MultiViewDataset

_BERNOULLI_RETRIES = 100


@dataclass(frozen=True)
class SyntheticSpec:
    """Which benchmark to build, its noise level and seed."""

    dataset_id: str
    mu: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.dataset_id not in ("D1", "D2", "D3", "D4"):
            raise ValueError(f"unknown dataset id {self.dataset_id!r}")
        if self.mu is not None and self.mu < 0:
            raise ValueError("noise level must be nonnegative")

    @property
    def noise(self) -> float:
        if self.mu is not None:
            return self.mu
        return 3.0 if self.dataset_id == "D4" else 2.0


class GroundTruth:
    """Planted factors, the views made from them, and their networks.

    ``constraints`` is a ``ConstraintSet`` or a zero-argument callable that
    builds one; a callable runs on the first read of ``.constraints``, and
    later reads return the set it built.
    """

    def __init__(self, w0: np.ndarray, h0: list, x0: list,
                 constraints: ConstraintSet | Callable[[], ConstraintSet]
                 | None = None, metadata: dict | None = None):
        self.w0, self.h0, self.x0 = w0, h0, x0
        self._constraints = (ConstraintSet.empty() if constraints is None
                             else constraints)
        self.metadata = {} if metadata is None else metadata

    @property
    def constraints(self) -> ConstraintSet:
        if callable(self._constraints):
            self._constraints = self._constraints()
        return self._constraints

    @property
    def rank(self) -> int:
        return self.w0.shape[1]

    def to_dataset(self) -> MultiViewDataset:
        return MultiViewDataset(self.x0)


def _block_rows(r: int, n: int, block: int, coph: int, skip=()) -> np.ndarray:
    """Binary r x n matrix; row j carries ones on block j shifted by coph."""
    h = np.zeros((r, n))
    for j in range(1, r + 1):
        if j in skip:
            continue
        x = (j - 1) * (block - coph)
        h[j - 1, x:x + block] = 1.0
    return h


def _bernoulli(rng: np.random.Generator, shape: tuple[int, int],
               p: float) -> tuple[np.ndarray, int]:
    """i.i.d. Bernoulli(p) matrix; all-zero rows are redrawn a few times."""
    mat = (rng.random(shape) < p).astype(float)
    stuck = 0
    for i in range(shape[0]):
        tries = 0
        while mat[i].sum() == 0 and tries < _BERNOULLI_RETRIES:
            mat[i] = (rng.random(shape[1]) < p).astype(float)
            tries += 1
        if mat[i].sum() == 0:
            stuck += 1
    return mat, stuck


def build_within(h0: np.ndarray, noise_scale: float = 0.1,
                 rng: np.random.Generator | int = 0) -> np.ndarray:
    """Co-membership counts of column pairs, noised, symmetrized, clamped."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    a = h0.T @ h0  # sum_k outer(row_k, row_k)
    if noise_scale:
        a = a + noise_scale * rng.standard_normal(a.shape)
    theta = 0.5 * (a + a.T)
    return np.maximum(theta, 0.0)


def build_between(h0_i: np.ndarray, h0_j: np.ndarray,
                  noise_scale: float = 0.1,
                  rng: np.random.Generator | int = 0) -> np.ndarray:
    """Cross-view co-membership counts, noised and clamped at zero."""
    if h0_i.shape[0] != h0_j.shape[0]:
        raise ValueError("coefficient matrices must share the rank")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    r_ij = h0_i.T @ h0_j
    if noise_scale:
        r_ij = r_ij + noise_scale * rng.standard_normal(r_ij.shape)
    return np.maximum(r_ij, 0.0)


def generate(spec: SyntheticSpec) -> GroundTruth:
    """Build ground-truth factors, noisy views and constraint matrices.

    Draw order from the single seeded stream: W0, each H0, each view's data
    noise, each within-constraint noise, each between-constraint noise.
    The networks are built on the first read of ``constraints``, from the
    stream as the views left it.
    """
    rng = np.random.default_rng(spec.seed)
    meta = {"dataset": spec.dataset_id, "seed": spec.seed, "mu": spec.noise}
    did = spec.dataset_id
    if did == "D1":
        w0 = _block_rows(4, 45, 10, 0).T
        h0 = [_block_rows(4, 130, 30, 0),
              _block_rows(4, 170, 40, 0, skip={4}),
              _block_rows(4, 215, 50, 0, skip={3})]
    elif did == "D2":
        w0, stuck = _bernoulli(rng, (1000, 10), 1.0 / 10.0)
        meta["all_zero_rows"] = stuck
        h0 = [_block_rows(10, 200, 20, 0),
              _block_rows(10, 300, 30, 5),
              _block_rows(10, 500, 50, 10)]
    elif did == "D3":
        w0 = _block_rows(20, 2000, 100, 15).T
        h0 = []
        stuck_total = 0
        for n_i in (200, 150, 300):
            h, stuck = _bernoulli(rng, (20, n_i), 1.0 / 20.0)
            h0.append(h)
            stuck_total += stuck
        meta["all_zero_rows"] = stuck_total
    else:  # D4
        w0 = _block_rows(5, 500, 100, 0).T
        h0 = [_block_rows(5, 1200, 240, 0),
              _block_rows(5, 1300, 260, 0),
              _block_rows(5, 2000, 400, 0)]

    mu = spec.noise
    x0 = []
    for h in h0:
        x = w0 @ h
        if mu:
            x = x + mu * rng.standard_normal(x.shape)
        x0.append(np.maximum(x, 0.0))

    # the networks draw last, so building them on first read leaves every
    # draw where it was; a draw added after the views must leave the
    # networks a copy.deepcopy(rng) taken before it
    return GroundTruth(w0=w0, h0=h0, x0=x0,
                       constraints=partial(_networks, h0, rng), metadata=meta)


def _networks(h0: list, rng: np.random.Generator) -> ConstraintSet:
    """Each view's within network, then each pair's between network, drawn
    from ``rng`` in that order."""
    within = {i: [build_within(h, rng=rng)] for i, h in enumerate(h0)}
    between = {}
    for i in range(len(h0)):
        for j in range(i + 1, len(h0)):
            between[(i, j)] = build_between(h0[i], h0[j], rng=rng)
    return ConstraintSet(within=within, between=between)
