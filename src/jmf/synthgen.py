"""Synthetic benchmark generators: block/Bernoulli factors, noise, constraints."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .model import ConstraintSet, MultiViewDataset, _number

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
        if self.mu is not None:
            _number("noise level mu", self.mu)
        object.__setattr__(self, "seed", _number("seed", self.seed, 0))

    @property
    def noise(self) -> float:
        if self.mu is not None:
            return self.mu
        return 3.0 if self.dataset_id == "D4" else 2.0


class GroundTruth:
    """Planted factors, the views made from them, and their networks.

    ``constraints`` is a ``ConstraintSet`` or a zero-argument callable that
    builds one; a callable runs on the first read of ``.constraints``, and
    later reads return the set it built.  Once ``to_dataset`` has run,
    ``x0`` holds the dataset's read-only row-major views, so the instance
    keeps one copy of each view.
    """

    def __init__(self, w0: np.ndarray, h0: list, x0: list,
                 constraints: ConstraintSet | Callable[[], ConstraintSet]
                 | None = None, metadata: dict | None = None):
        self.w0, self.h0, self.x0 = w0, h0, x0
        self._constraints = (ConstraintSet.empty() if constraints is None
                             else constraints)
        self.metadata = {} if metadata is None else metadata
        self._dataset: MultiViewDataset | None = None

    @property
    def constraints(self) -> ConstraintSet:
        if callable(self._constraints):
            self._constraints = self._constraints()
        return self._constraints

    @property
    def rank(self) -> int:
        return self.w0.shape[1]

    def to_dataset(self) -> MultiViewDataset:
        """The views as a ``MultiViewDataset``, built on the first call and
        returned by every later one; ``x0`` then lists its views."""
        if self._dataset is None:
            self._dataset = MultiViewDataset(self.x0)
            self.x0 = list(self._dataset.views)
        return self._dataset


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


def _add_noise(a: np.ndarray, scale: float,
               rng: np.random.Generator) -> None:
    """``a += scale * N(0, 1)`` in place, the draws taken in ``a``'s shape:
    the same numbers as ``a + scale * rng.standard_normal(a.shape)``."""
    noise = rng.standard_normal(a.shape)
    noise *= scale
    a += noise


def _frozen_in_place(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only, so ``MultiViewDataset`` and ``ConstraintSet``
    store it without a copy."""
    a.flags.writeable = False
    return a


def build_within(h0: np.ndarray, noise_scale: float = 0.1,
                 rng: np.random.Generator | int = 0) -> np.ndarray:
    """Co-membership counts of column pairs, noised, symmetrized, clamped."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    # sum_k outer(row_k, row_k), as floats so integer factors take the
    # in-place steps below
    a = (h0.T @ h0).astype(float, copy=False)
    if noise_scale:
        _add_noise(a, noise_scale, rng)
    np.add(a, a.T, out=a)  # NumPy buffers the overlapping a.T
    a *= 0.5
    return np.maximum(a, 0.0, out=a)


def build_between(h0_i: np.ndarray, h0_j: np.ndarray,
                  noise_scale: float = 0.1,
                  rng: np.random.Generator | int = 0) -> np.ndarray:
    """Cross-view co-membership counts, noised and clamped at zero."""
    if h0_i.shape[0] != h0_j.shape[0]:
        raise ValueError("coefficient matrices must share the rank")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    r_ij = (h0_i.T @ h0_j).astype(float, copy=False)
    if noise_scale:
        _add_noise(r_ij, noise_scale, rng)
    return np.maximum(r_ij, 0.0, out=r_ij)


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
            _add_noise(x, mu, rng)
        x0.append(_frozen_in_place(np.maximum(x, 0.0, out=x)))

    # the networks draw last, so building them on first read leaves every
    # draw where it was; a draw added after the views must leave the
    # networks a copy.deepcopy(rng) taken before it
    return GroundTruth(w0=w0, h0=h0, x0=x0,
                       constraints=partial(_networks, h0, rng), metadata=meta)


def _networks(h0: list, rng: np.random.Generator) -> ConstraintSet:
    """Each view's within network, then each pair's between network, drawn
    from ``rng`` in that order."""
    within = {i: [_frozen_in_place(build_within(h, rng=rng))]
              for i, h in enumerate(h0)}
    between = {}
    for i in range(len(h0)):
        for j in range(i + 1, len(h0)):
            between[(i, j)] = _frozen_in_place(
                build_between(h0[i], h0[j], rng=rng))
    return ConstraintSet(within=within, between=between)
