import hashlib
import json

import numpy as np
import pytest

from jmf import ConstraintSet, GroundTruth, SyntheticSpec, generate, synthgen
from jmf.cli import main
from jmf.synthgen import build_between, build_within


def test_invalid_dataset_id_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec(dataset_id="D9")


@pytest.mark.parametrize("key, value, message", [
    ("seed", 2.7, "seed must be a nonnegative integer, got 2.7"),
    ("seed", True, "seed must be a nonnegative integer, got True"),
    ("seed", -1, "seed must be a nonnegative integer, got -1"),
    ("seed", "0", "seed must be a nonnegative integer, got '0'"),
    ("mu", float("nan"), "mu must be a nonnegative finite number, got nan"),
    ("mu", float("inf"), "mu must be a nonnegative finite number, got inf"),
    ("mu", "2", "mu must be a nonnegative finite number, got '2'"),
    ("mu", True, "mu must be a nonnegative finite number, got True"),
], ids=["fractional-seed", "true-seed", "negative-seed", "string-seed",
        "nan-mu", "inf-mu", "string-mu", "true-mu"])
def test_a_malformed_seed_or_noise_level_is_refused(key, value, message):
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(dataset_id="D1", **{key: value})


@pytest.mark.parametrize("mu", ["nan", "inf"])
def test_cli_generate_refuses_a_non_finite_noise_level_exit_2(tmp_path,
                                                              capsys, mu):
    # NaN noise wrote all-NaN views and exited 0
    out = tmp_path / "d1"
    assert main(["generate", "--dataset", "D1", "--mu", mu,
                 "--out", str(out)]) == 2
    assert (f"error: noise level mu must be a nonnegative finite number, "
            f"got {mu}" in capsys.readouterr().err)
    assert not out.exists()


def test_d1_shapes():
    truth = generate(SyntheticSpec(dataset_id="D1", seed=0))
    assert truth.w0.shape == (45, 4)
    assert [x.shape for x in truth.x0] == [(45, 130), (45, 170), (45, 215)]
    assert [h.shape for h in truth.h0] == [(4, 130), (4, 170), (4, 215)]


def test_d2_d3_d4_shapes():
    truth = generate(SyntheticSpec(dataset_id="D2", seed=0))
    assert truth.w0.shape == (1000, 10)
    assert [x.shape for x in truth.x0] == [(1000, 200), (1000, 300),
                                           (1000, 500)]
    truth = generate(SyntheticSpec(dataset_id="D3", seed=0))
    assert truth.w0.shape == (2000, 20)
    truth = generate(SyntheticSpec(dataset_id="D4", seed=0))
    assert truth.w0.shape == (500, 5)
    assert [x.shape for x in truth.x0] == [(500, 1200), (500, 1300),
                                           (500, 2000)]


def test_factors_are_binary_and_data_nonnegative():
    for ds in ("D1", "D2", "D3", "D4"):
        truth = generate(SyntheticSpec(dataset_id=ds, seed=1))
        assert set(np.unique(truth.w0)) <= {0.0, 1.0}
        for h in truth.h0:
            assert set(np.unique(h)) <= {0.0, 1.0}
        for x in truth.x0:
            assert x.min() >= 0


def test_zero_noise_gives_exact_products():
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=3))
    for x, h in zip(truth.x0, truth.h0):
        assert np.array_equal(x, truth.w0 @ h)


def test_determinism_bit_identical():
    a = generate(SyntheticSpec(dataset_id="D1", seed=9))
    b = generate(SyntheticSpec(dataset_id="D1", seed=9))
    assert np.array_equal(a.w0, b.w0)
    assert all(np.array_equal(x, y) for x, y in zip(a.x0, b.x0))
    for key in a.constraints.between:
        assert np.array_equal(a.constraints.between[key],
                              b.constraints.between[key])


def test_d2_first_view_blocks_tile_disjointly():
    truth = generate(SyntheticSpec(dataset_id="D2", seed=0))
    h01 = truth.h0[0]
    for j in range(10):
        row = h01[j]
        lo, hi = j * 20, (j + 1) * 20
        assert np.array_equal(np.flatnonzero(row), np.arange(lo, hi))


def test_d1_and_d4_w0_supports_disjoint():
    for ds in ("D1", "D4"):
        truth = generate(SyntheticSpec(dataset_id=ds, seed=2))
        assert truth.w0.sum(axis=1).max() <= 1


def test_d3_w0_consecutive_columns_share_15_rows():
    truth = generate(SyntheticSpec(dataset_id="D3", seed=0))
    w0 = truth.w0
    for k in range(w0.shape[1] - 1):
        shared = np.sum((w0[:, k] > 0) & (w0[:, k + 1] > 0))
        assert shared == 15


def test_rows_left_all_zero_after_the_redraws_are_counted(monkeypatch):
    # with no redraws, D2's Bernoulli(0.1) W0 keeps every row that came
    # out all zero (0.9^10, about a third of them), and the metadata
    # counts each
    monkeypatch.setattr(synthgen, "_BERNOULLI_RETRIES", 0)
    truth = generate(SyntheticSpec("D2", seed=0))
    zero_rows = int(np.sum(~truth.w0.any(axis=1)))
    assert zero_rows > 0
    assert truth.metadata["all_zero_rows"] == zero_rows


def test_build_within_noise_free_counts():
    h0 = np.array([[1.0, 1.0], [0.0, 0.0]])
    theta = build_within(h0, noise_scale=0.0)
    assert np.array_equal(theta, np.ones((2, 2)))


def test_build_within_counts_co_membership():
    h0 = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    theta = build_within(h0, noise_scale=0.0)
    # column 1 co-occurs with itself in two components
    assert theta[1, 1] == 2.0
    assert theta[0, 2] == 0.0 and theta[0, 1] == 1.0


def test_build_within_symmetric_and_nonnegative():
    rng = np.random.default_rng(5)
    h0 = (rng.random((3, 8)) < 0.4).astype(float)
    theta = build_within(h0, noise_scale=0.1, rng=7)
    assert theta.min() >= 0
    assert np.allclose(theta, theta.T, atol=1e-15)


def test_build_between_disjoint_supports_zero():
    h_i = np.array([[1.0, 0.0], [0.0, 0.0]])
    h_j = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(build_between(h_i, h_j, noise_scale=0.0),
                          np.zeros((2, 2)))


def test_build_between_counts_and_shape():
    h_i = np.eye(2)
    r = build_between(h_i, h_i, noise_scale=0.0)
    assert np.array_equal(r, np.eye(2))
    rng_out = build_between(np.ones((2, 3)), np.ones((2, 4)),
                            noise_scale=0.1, rng=3)
    assert rng_out.shape == (3, 4) and rng_out.min() >= 0


def test_build_between_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        build_between(np.ones((2, 3)), np.ones((3, 4)), noise_scale=0.0)


def test_constraints_stored_for_ordered_pairs():
    truth = generate(SyntheticSpec(dataset_id="D1", seed=0))
    assert set(truth.constraints.between) == {(0, 1), (0, 2), (1, 2)}
    assert set(truth.constraints.within) == {0, 1, 2}
    for (i, j), mat in truth.constraints.between.items():
        assert mat.shape == (truth.x0[i].shape[1], truth.x0[j].shape[1])


def test_d1_views_missing_components_as_constructed():
    truth = generate(SyntheticSpec(dataset_id="D1", seed=0))
    # the second and third views each lack one pattern entirely
    zero_rows = [int(np.sum(h.sum(axis=1) == 0)) for h in truth.h0]
    assert zero_rows == [0, 1, 1]


# ---------------------------------------------------------------------------
# networks on first read

def count_network_builds(monkeypatch) -> dict:
    """Make ``generate``'s network builders count their calls."""
    calls = {"within": 0, "between": 0}
    for name, build in (("within", synthgen.build_within),
                        ("between", synthgen.build_between)):
        def counted(*args, _name=name, _build=build, **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(synthgen, f"build_{name}", counted)
    return calls


def test_networks_are_built_on_first_read_and_kept(monkeypatch):
    calls = count_network_builds(monkeypatch)
    truth = generate(SyntheticSpec(dataset_id="D4", seed=0))
    assert calls == {"within": 0, "between": 0}
    first = truth.constraints
    assert calls == {"within": 3, "between": 3}
    assert truth.constraints is first
    assert calls == {"within": 3, "between": 3}


def test_a_given_constraint_set_is_returned_as_is():
    truth = generate(SyntheticSpec(dataset_id="D1", seed=0))
    given = ConstraintSet(within={0: [np.eye(130)]})
    made = GroundTruth(w0=truth.w0, h0=truth.h0, x0=truth.x0,
                       constraints=given, metadata={"k": 1})
    assert made.constraints is given and made.metadata == {"k": 1}
    bare = GroundTruth(truth.w0, truth.h0, truth.x0)
    assert bare.constraints.within == {} and bare.constraints.between == {}
    assert bare.metadata == {} and bare.rank == 4


@pytest.mark.parametrize("use_constraints, builds", [
    (False, {"within": 0, "between": 0}),
    (True, {"within": 3, "between": 3}),
])
def test_cli_solve_builds_networks_only_when_it_uses_them(
        tmp_path, monkeypatch, use_constraints, builds):
    calls = count_network_builds(monkeypatch)
    monkeypatch.setenv("JMF_THREADS", "1")  # counted in this process
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "source": {"synthetic": {"dataset": "D1", "seed": 0}},
        "use_constraints": use_constraints,
        "hyperparameters": {"rank": 4},
        "solvers": [{"algorithm": "PG", "max_outer_iters": 1}],
        "seeds": [0],
    }))
    assert main(["solve", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    assert calls == builds


# ---------------------------------------------------------------------------
# the generator's bytes

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# sha256 prefixes of the little-endian float64 bytes of generate(D, seed=0);
# a change here means a draw moved or a construction changed
GENERATED = {
    "D1": {
        "W0": "04cbd3f9803669fa",
        "H0_0": "fa08a0307d35508c",
        "H0_1": "cc79e6cc0b51ad24",
        "H0_2": "7add7fc679980ae6",
        "X_0": "022bde322bd6661c",
        "X_1": "f395e3aac6852ad2",
        "X_2": "7082af84f8628778",
        "theta_0": "3e85a3d674f6cd2a",
        "theta_1": "885039dd15cadd1b",
        "theta_2": "6ce4cb0d891f62b8",
        "R_0_1": "c6c21c156d34ecaa",
        "R_0_2": "e26c2215b937e4df",
        "R_1_2": "87376655cf44bf03",
    },
    "D2": {
        "W0": "64dc7236d2c5dfd7",
        "H0_0": "c11ef9ee80f79a89",
        "H0_1": "96641f7dac0705e5",
        "H0_2": "0be2375709c200d4",
        "X_0": "b228657829bc0f6c",
        "X_1": "750615e9169845b4",
        "X_2": "6e435dbb6073aabf",
        "theta_0": "1799bd04b2c74041",
        "theta_1": "7dd8dd9566666694",
        "theta_2": "0eb7063652abb568",
        "R_0_1": "d6bc33b480b80437",
        "R_0_2": "c88976102b7ed785",
        "R_1_2": "91ff7a1bf8265881",
    },
    "D3": {
        "W0": "beb67f1cf817ecf1",
        "H0_0": "493f665fdeb03bbf",
        "H0_1": "78102c4e294a3f22",
        "H0_2": "96496a50891fbc17",
        "X_0": "cac8a9ffbac275b1",
        "X_1": "d195a2abce64b2b5",
        "X_2": "92b3a183b91363e8",
        "theta_0": "baf54648944550fd",
        "theta_1": "c9bd33e7e649e2b3",
        "theta_2": "55922ca38408279e",
        "R_0_1": "ed8354ed040fd4e3",
        "R_0_2": "6cc146ab320d813c",
        "R_1_2": "20c3468eb64fc2c7",
    },
    "D4": {
        "W0": "4423ea5e4be996f9",
        "H0_0": "0c4e39ba805caa64",
        "H0_1": "264e2ac6b54d9a2f",
        "H0_2": "459058149f9edd1f",
        "X_0": "9ebf4a324423d1d4",
        "X_1": "1bb5ecb6203da996",
        "X_2": "089fe9613c51e5f4",
        "theta_0": "bd3c9be9b4cfe8a9",
        "theta_1": "a4be16da494c2438",
        "theta_2": "b02ad47932c36575",
        "R_0_1": "ac1cd625e6005fba",
        "R_0_2": "d7d86854d7232206",
        "R_1_2": "309172bc0fa9df04",
    },
}


@pytest.mark.parametrize("dataset_id", sorted(GENERATED))
def test_generated_arrays_keep_their_bytes(dataset_id):
    truth = generate(SyntheticSpec(dataset_id=dataset_id, seed=0))
    c = truth.constraints
    arrays = {"W0": truth.w0,
              **{f"H0_{k}": h for k, h in enumerate(truth.h0)},
              **{f"X_{k}": x for k, x in enumerate(truth.x0)},
              **{f"theta_{i}": mats[0] for i, mats in c.within.items()},
              **{f"R_{i}_{j}": r for (i, j), r in c.between.items()}}
    got = {name: _digest(np.ascontiguousarray(a, dtype="<f8").tobytes())
           for name, a in arrays.items()}
    assert got == GENERATED[dataset_id]


# sha256 prefixes of the files `jmf generate --dataset D1 --seed 0` writes
GENERATED_D1_FILES = {
    "H0_1.csv": "c29b84b772cdaac7",
    "H0_2.csv": "973c25f0a1036b8d",
    "H0_3.csv": "9633d5e08b27320c",
    "W0.csv": "24899154e5e3c2ee",
    "X_1.csv": "36db1b3870c9209d",
    "X_2.csv": "f09ed4c140a8f2d3",
    "X_3.csv": "1fdbfd6c184c92aa",
    "manifest.json": "2ba09a086b99eac6",
    "model_R_0_1.csv": "65a6befd29316e47",
    "model_R_0_2.csv": "24ebc34506a9acde",
    "model_R_1_2.csv": "ddb9a47a64dd05f4",
    "model_theta_0_0.csv": "afde707db57ba9dc",
    "model_theta_1_0.csv": "572f647324c05c55",
    "model_theta_2_0.csv": "09b3f8a09c662754",
}


def test_cli_generate_keeps_its_bytes(tmp_path):
    out = tmp_path / "d1"
    assert main(["generate", "--dataset", "D1", "--seed", "0",
                 "--out", str(out)]) == 0
    got = {p.name: _digest(p.read_bytes()) for p in out.iterdir()}
    assert got == GENERATED_D1_FILES
