import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import jmf.cli
import jmf.objective
from jmf import (ConstraintSet, Factorization, Hyperparameters, SolverConfig,
                 SyntheticSpec, TracePoint, generate, init_factors,
                 new_problem, objective_value, solve)
from jmf.cli import (_save_model, load_model, main, read_matrix, run_all,
                     select_best, write_matrix)
from jmf.evaluate import auc_score
from jmf.solvers import _stop_reason
from oracles import make_problem


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# file format

def test_matrix_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.random((7, 5)) * 1e3
    path = tmp_path / "m.csv"
    write_matrix(path, mat)
    assert np.array_equal(read_matrix(path), mat)


def test_row_vector_roundtrip(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix(path, np.array([1.0, 2.0, 3.0]))
    assert read_matrix(path).shape == (1, 3)


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_manifest_and_shapes(tmp_path):
    out = tmp_path / "d1"
    assert run(["generate", "--dataset", "D1", "--seed", 7,
                "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["files"]["views"]) == 3
    shapes = [tuple(s) for s in manifest["shapes"]["views"]]
    assert shapes == [(45, 130), (45, 170), (45, 215)]
    x1 = read_matrix(out / "X_1.csv")
    assert x1.shape == (45, 130)


def test_generate_rerun_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["generate", "--dataset", "D2", "--seed", 3,
                    "--out", out]) == 0
    for name in ("X_1.csv", "W0.csv", "model_theta_1_0.csv",
                 "model_R_0_2.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def files_config(tmp_path, files):
    cfg = {
        "source": {"files": files},
        "hyperparameters": {"rank": 4, "lambda1": 1e-3, "lambda2": 1e-3},
        "solvers": [{"algorithm": "Ne", "max_outer_iters": 5}],
        "seeds": [0],
    }
    path = tmp_path / "files.json"
    path.write_text(json.dumps(cfg))
    return path


def test_generate_manifest_files_are_a_files_source(tmp_path):
    data = tmp_path / "d1"
    assert run(["generate", "--dataset", "D1", "--out", data]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    cfg = files_config(tmp_path, {"base": str(data), **manifest["files"]})
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    # the networks went into the solve and into its saved model
    (run_dir,) = (out / "runs").iterdir()
    model = load_model(run_dir)
    truth = generate(SyntheticSpec(dataset_id="D1", seed=0)).constraints
    assert model.constraints.within.keys() == truth.within.keys()
    assert model.constraints.between.keys() == truth.between.keys()
    for i, mats in truth.within.items():
        assert np.array_equal(model.constraints.within[i][0], mats[0])


def test_a_files_source_without_constraints_reads_no_network(tmp_path):
    # the networks were read and used whatever use_constraints said
    data = tmp_path / "d1"
    assert run(["generate", "--dataset", "D1", "--out", data]) == 0
    files = json.loads((data / "manifest.json").read_text())["files"]
    for name in data.glob("model_*.csv"):
        name.unlink()
    cfg = files_config(tmp_path, {"base": str(data), **files})
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                               "use_constraints": False}))
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    (run_dir,) = (out / "runs").iterdir()
    meta = json.loads((run_dir / "model.json").read_text())
    assert meta["within"] == {} and meta["between"] == {}


def test_solve_rejects_a_list_shaped_network_map_exit_2(tmp_path, capsys):
    data = tmp_path / "d1"
    assert run(["generate", "--dataset", "D1", "--out", data]) == 0
    files = json.loads((data / "manifest.json").read_text())["files"]
    # the manifest's earlier layout listed each within network as an entry
    files["within"] = [{"view": int(i), "file": names[0]}
                       for i, names in files["within"].items()]
    cfg = files_config(tmp_path, {"base": str(data), **files})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert 'error: networks must be maps: "within" {"view": [file' in err


def test_generate_invalid_dataset_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--dataset", "D9", "--out", tmp_path / "x"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# solve

def solve_config(tmp_path, solvers, seeds, constraints=False, **hyper):
    cfg = {
        "source": {"synthetic": {"dataset": "D1", "seed": 0}},
        "use_constraints": constraints,
        "hyperparameters": {"rank": 4, **hyper},
        "solvers": solvers,
        "seeds": seeds,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def grid_config(tmp_path, solver, seeds, **grid):
    cfg = {
        "source": {"synthetic": {"dataset": "D1", "seed": 0}},
        "hyperparameters": {"rank": 4},
        "grid": {"lambda1": [0.001], "lambda2": [0.001],
                 "gamma1": [1e-4], "gamma2": [0.01], **grid},
        "grid_seeds": seeds,
        "solver": solver,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    return path


def test_solve_summary_and_traces(tmp_path, monkeypatch):
    monkeypatch.setenv("JMF_THREADS", "1")
    cfg = solve_config(
        tmp_path,
        [{"algorithm": "Ne", "stop_rule": "ObjectiveRatio",
          "tolerance": 1e-4, "max_outer_iters": 150},
         {"algorithm": "MUR", "stop_rule": "ObjectiveRatio",
          "tolerance": 1e-4, "max_outer_iters": 150}],
        seeds=[0, 1])
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary) == 2
    assert all(entry["runs"] == 2 for entry in summary)
    # summary means equal recomputation from per-run trace files
    for entry in summary:
        finals = []
        for seed in (0, 1):
            trace = (out / "runs" / f"{entry['tag']}_seed{seed}" /
                     "trace.csv").read_text().strip().splitlines()
            assert trace[0] == "iter,objective,grad_norm,seconds"
            finals.append(float(trace[-1].split(",")[1]))
        assert entry["mean_final_objective"] == pytest.approx(
            np.mean(finals), abs=1e-12)
    csv_lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3  # header + 2 rows


def test_trace_csv_replays_the_stop(tmp_path, monkeypatch):
    # trace.csv holds the reported trace bit for bit, and the stop rule
    # replayed on its rows and F at the start stops at its last row
    monkeypatch.setenv("JMF_THREADS", "1")
    solver = {"algorithm": "Ne", "stop_rule": "GradientRatio",
              "tolerance": 1e-3, "max_outer_iters": 150}
    out = tmp_path / "out"
    assert run(["solve", "--config", solve_config(tmp_path, [solver], [0]),
                "--out", out]) == 0
    (run_dir,) = (out / "runs").iterdir()
    rows = [line.split(",") for line in
            (run_dir / "trace.csv").read_text().splitlines()[1:]]
    truth = generate(SyntheticSpec(dataset_id="D1", seed=0))
    prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                       Hyperparameters(rank=4))
    cfg = SolverConfig(**solver)
    init = init_factors(prob, 0)
    _, report = solve(prob, cfg, init)
    assert [row[1:3] for row in rows] == [
        [f"{p.objective:.17g}", f"{p.grad_norm:.17g}"] for p in report.trace]
    trace = [TracePoint(int(it), float(f), float(g), float(t))
             for it, f, g, t in rows]
    f_init = objective_value(prob, init)
    reasons = [_stop_reason(trace[:k], f_init, cfg)
               for k in range(1, len(trace) + 1)]
    assert reasons[:-1] == [None] * (len(trace) - 1)
    assert reasons[-1] is report.termination


def test_solve_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = solve_config(
        tmp_path,
        [{"algorithm": "PG", "stop_rule": "ObjectiveRatio",
          "tolerance": 1e-3, "max_outer_iters": 60}],
        seeds=[0, 1, 2])
    serial_out, par_out = tmp_path / "s", tmp_path / "p"
    monkeypatch.setenv("JMF_THREADS", "1")
    assert run(["solve", "--config", cfg, "--out", serial_out]) == 0
    monkeypatch.setenv("JMF_THREADS", "2")
    assert run(["solve", "--config", cfg, "--out", par_out]) == 0
    a = json.loads((serial_out / "summary.json").read_text())[0]
    b = json.loads((par_out / "summary.json").read_text())[0]
    assert a["mean_final_objective"] == pytest.approx(
        b["mean_final_objective"], abs=1e-12)
    # gridsearch runs through the same pool, capped by JMF_THREADS
    grid = grid_config(
        tmp_path, {"algorithm": "PG", "tolerance": 1e-3,
                   "max_outer_iters": 60},
        seeds=[0, 1], lambda2=[0.001, 10.0])
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("JMF_THREADS", threads)
        outs.append(tmp_path / f"grid{threads}")
        assert run(["gridsearch", "--config", grid, "--out", outs[-1]]) == 0
    for name in ("grid.csv", "best.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()



@pytest.mark.parametrize("command", ["solve", "gridsearch"])
@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
def test_a_malformed_jmf_threads_exits_2_before_solving(
        tmp_path, capsys, monkeypatch, value, command):
    calls = refuse_to_solve(monkeypatch)
    monkeypatch.setenv("JMF_THREADS", value)
    out = tmp_path / "out"
    entry = {"algorithm": "PG", "max_outer_iters": 1}
    cfg = (solve_config(tmp_path, [entry], seeds=[0, 1]) if command == "solve"
           else grid_config(tmp_path, entry, seeds=[0, 1]))
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert (f"error: JMF_THREADS must be a positive integer, got "
            f"{value!r}") in capsys.readouterr().err
    assert not calls and not out.exists()


@pytest.mark.parametrize("solvers, seeds, message", [
    ([{"algorithm": "PG", "max_outer_iters": 3},
      {"algorithm": "PG", "max_outer_iters": 50}], [0],
     "run tag PG_stop1_tol1e-07 occurs twice"),
    ([{"algorithm": "PG", "max_outer_iters": 3}], [1, 1],
     "seed 1 occurs twice")], ids=["shared-tag", "repeated-seed"])
def test_runs_that_would_share_a_directory_exit_2_before_solving(
        tmp_path, capsys, monkeypatch, solvers, seeds, message):
    # each run writes runs/<tag>_seed<s>, and the tag reads only the
    # algorithm, the stop rule and the tolerance
    calls = refuse_to_solve(monkeypatch)
    monkeypatch.setenv("JMF_THREADS", "1")
    out = tmp_path / "out"
    cfg = solve_config(tmp_path, solvers, seeds=seeds)
    assert run(["solve", "--config", cfg, "--out", out]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not calls and not out.exists()

@pytest.mark.parametrize("command", ["solve", "gridsearch"])
@pytest.mark.parametrize("seed", [2.7, True], ids=["fraction", "true"])
def test_a_json_seed_that_is_not_an_integer_exits_2_before_solving(
        tmp_path, capsys, monkeypatch, seed, command):
    # int() made 2.7 seed 2 and true seed 1
    calls = refuse_to_solve(monkeypatch)
    monkeypatch.setenv("JMF_THREADS", "1")
    out = tmp_path / "out"
    entry = {"algorithm": "PG", "max_outer_iters": 1}
    cfg = (solve_config(tmp_path, [entry], seeds=[0, seed])
           if command == "solve"
           else grid_config(tmp_path, entry, seeds=[0, seed]))
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert (f"error: seed must be a nonnegative integer, got {seed!r}"
            in capsys.readouterr().err)
    assert not calls and not out.exists()


def test_run_all_keeps_the_weight_free_caches(monkeypatch):
    # S_I and ||S_I||_2 do not depend on the weights, so the serial runs
    # of two cells x two seeds run each view's power iteration once; the
    # network curvature, on B over all 11 columns, runs once per solve
    calls = []
    power = jmf.objective._top_eigenpair

    def counted(times, n, tol):
        calls.append(n)
        return power(times, n, tol)

    monkeypatch.setattr(jmf.objective, "_top_eigenpair", counted)
    monkeypatch.setenv("JMF_THREADS", "1")
    problem = make_problem(seed=3, m=8, n=(5, 6), r=2)
    tasks = [(Hyperparameters(rank=2, lambda1=l1, lambda2=1e-3),
              SolverConfig(algorithm="Ne", max_outer_iters=3, seed=s))
             for l1 in (1e-3, 1e-2) for s in (0, 1)]
    results = list(run_all(problem, None, tasks))
    assert [r.config.seed for r in results] == [0, 1, 0, 1]
    assert sorted(calls) == [5, 6, 11, 11, 11, 11]


@pytest.mark.parametrize("command", ["solve", "gridsearch"])
def test_solve_rejects_mur_gradient_rule(tmp_path, capsys, command):
    entry = {"algorithm": "MUR", "stop_rule": "GradientRatio",
             "tolerance": 1e-4}
    cfg = (solve_config(tmp_path, [entry], seeds=[0]) if command == "solve"
           else grid_config(tmp_path, entry, seeds=[0]))
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "objective-ratio" in capsys.readouterr().err


def test_solve_all_diverged_exit_1(tmp_path, monkeypatch):
    monkeypatch.setenv("JMF_THREADS", "1")
    cfg = solve_config(
        tmp_path,
        [{"algorithm": "Ne", "stop_rule": "ObjectiveRatio",
          "tolerance": 1e-4, "max_outer_iters": 300}],
        seeds=[0, 1], constraints=True, lambda1=100.0, lambda2=100.0)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 1
    runs = sorted(p.name for p in (out / "runs").iterdir())
    # each marker holds its solve's DivergenceError message
    for r in runs:
        assert re.match(r"F has no minimum: the objective -\S+ is below 0 "
                        r"at the start, .*\)\n$",
                        (out / "runs" / r / "DIVERGED").read_text())
    summary = json.loads((out / "summary.json").read_text())
    assert summary[0]["diverged"] == summary[0]["unbounded"] == 2


def test_readme_experiment_config_solves(tmp_path, monkeypatch):
    monkeypatch.setenv("JMF_THREADS", "1")
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (block,) = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
    path = tmp_path / "experiment.json"
    path.write_text(block)
    out = tmp_path / "out"
    assert run(["solve", "--config", path, "--out", out]) == 0
    (entry,) = json.loads((out / "summary.json").read_text())
    assert entry["diverged"] == 0 and "mean_auc" in entry


def refuse_to_solve(monkeypatch) -> list:
    """Make ``solve`` in the CLI record its calls and fail."""
    calls = []

    def refused(*args):
        calls.append(args)
        raise AssertionError("solve must not run")

    monkeypatch.setattr(jmf.cli, "solve", refused)
    return calls


@pytest.mark.parametrize("command", ["solve", "gridsearch"])
def test_a_rank_other_than_the_planted_one_exits_2_before_solving(
        tmp_path, capsys, monkeypatch, command):
    calls = refuse_to_solve(monkeypatch)
    monkeypatch.setenv("JMF_THREADS", "1")
    entry = {"algorithm": "PG", "max_outer_iters": 1}
    path = (solve_config(tmp_path, [entry], seeds=[0]) if command == "solve"
            else grid_config(tmp_path, entry, seeds=[0]))
    cfg = json.loads(path.read_text())
    cfg["hyperparameters"]["rank"] = 10
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out]) == 2
    assert ("error: rank 10 does not match the synthetic source's planted "
            "rank 4") in capsys.readouterr().err
    assert not calls and not out.exists()


@pytest.mark.parametrize("command", ["solve", "gridsearch"])
@pytest.mark.parametrize("key, value, message", [
    ("rank", 4.5, "rank must be a positive integer, got 4.5"),
    ("rank", "4", "rank must be a positive integer, got '4'"),
    ("gamma1", "1e-4", "gamma1 must be a nonnegative finite number, got "
                       "'1e-4'"),
], ids=["fractional-rank", "string-rank", "string-weight"])
def test_a_malformed_hyperparameter_exits_2(tmp_path, capsys, monkeypatch,
                                            command, key, value, message):
    calls = refuse_to_solve(monkeypatch)
    entry = {"algorithm": "PG", "max_outer_iters": 1}
    path = (solve_config(tmp_path, [entry], seeds=[0]) if command == "solve"
            else grid_config(tmp_path, entry, seeds=[0]))
    cfg = json.loads(path.read_text())
    cfg["hyperparameters"][key] = value
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not calls


@pytest.mark.parametrize("key, value, message", [
    ("tolerance", "1e-7", "tolerance must be a nonnegative finite number, "
                          "got '1e-7'"),
    ("max_outer_iters", 2.5, "max_outer_iters must be a positive integer, "
                             "got 2.5"),
], ids=["string-tolerance", "fractional-iteration-cap"])
def test_a_malformed_solver_entry_exits_2(tmp_path, capsys, monkeypatch,
                                          key, value, message):
    calls = refuse_to_solve(monkeypatch)
    path = solve_config(tmp_path, [{"algorithm": "PG", key: value}],
                        seeds=[0])
    assert run(["solve", "--config", path, "--out", tmp_path / "out"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not calls


@pytest.mark.parametrize("command, edit, message", [
    ("solve", lambda cfg: cfg.pop("source"),
     "config needs a 'source' with 'synthetic' or 'files'"),
    ("solve", lambda cfg: cfg.update(solvers=[]),
     "config needs at least one solver and one seed"),
    ("solve", lambda cfg: cfg.update(seeds=[]),
     "config needs at least one solver and one seed"),
    ("gridsearch", lambda cfg: cfg["grid"].update(lambda2=[]),
     "empty parameter grid"),
], ids=["no-source", "no-solvers", "no-seeds", "empty-grid-axis"])
def test_a_config_with_nothing_to_run_exits_2(tmp_path, capsys, monkeypatch,
                                              command, edit, message):
    calls = refuse_to_solve(monkeypatch)
    path = (solve_config(tmp_path, [{"algorithm": "PG"}], seeds=[0])
            if command == "solve"
            else grid_config(tmp_path, {"algorithm": "PG"}, seeds=[0]))
    cfg = json.loads(path.read_text())
    edit(cfg)
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not calls and not out.exists()


@pytest.mark.parametrize("command, edit, message", [
    ("solve", lambda cfg: [cfg], "the config must be a JSON object, got ["),
    ("gridsearch", lambda cfg: [cfg],
     "the config must be a JSON object, got ["),
    ("solve", lambda cfg: {**cfg, "seeds": 3},
     "seeds must be a JSON list, got 3"),
    ("gridsearch", lambda cfg: {**cfg, "grid_seeds": 3},
     "grid_seeds must be a JSON list, got 3"),
    ("gridsearch", lambda cfg: {**cfg, "grid": {"lambda1": 0.1}},
     "grid axis 'lambda1' must be a JSON list, got 0.1"),
    ("solve", lambda cfg: {**cfg, "solvers": {"algorithm": "PG"}},
     "solvers must be a JSON list, got {'algorithm': 'PG'}"),
    ("solve", lambda cfg: {**cfg, "source": {"synthetic": "D1"}},
     "synthetic must be a JSON object, got 'D1'"),
    ("solve", lambda cfg: {**cfg, "source": {"synthetic": {
        "dataset": "D1", "mu": "2"}}},
     "noise level mu must be a nonnegative finite number, got '2'"),
    ("solve", lambda cfg: {**cfg, "source": {"synthetic": {
        "dataset": "D1", "seed": 2.7}}},
     "seed must be a nonnegative integer, got 2.7"),
    ("gridsearch", lambda cfg: {**cfg, "source": {"synthetic": {
        "dataset": "D1", "seed": True}}},
     "seed must be a nonnegative integer, got True"),
    ("solve", lambda cfg: {**cfg, "source": {"files": {"views": "X_1.csv"}}},
     "views must be a JSON list of file names, got 'X_1.csv'"),
    ("solve", lambda cfg: {**cfg, "source": {"files": {
        "views": ["X_1.csv"], "within": {"0": "t.csv"}}}},
     "within entry '0' must be a JSON list of file names, got 't.csv'"),
    ("solve", lambda cfg: {**cfg, "source": {"files": {
        "views": ["X_1.csv"], "between": {"0,1": ["R.csv"]}}}},
     'between entry \'0,1\' must map "i,j" to a file name, got [\'R.csv\']'),
    ("solve", lambda cfg: {**cfg, "source": {"files": {
        "views": ["X_1.csv"], "between": {"01": "R.csv"}}}},
     'between entry \'01\' must map "i,j" to a file name, got \'R.csv\''),
    ("solve", lambda cfg: {k: v for k, v in cfg.items()
                           if k != "hyperparameters"},
     "the config: missing key 'hyperparameters'"),
    ("solve", lambda cfg: {**cfg, "source": {"synthetic": {"seed": 1}}},
     "synthetic: missing key 'dataset'"),
    ("gridsearch", lambda cfg: {**cfg, "source": {"synthetic": {}}},
     "synthetic: missing key 'dataset'"),
    ("solve", lambda cfg: {**cfg, "source": {"files": {"base": "."}}},
     "files: missing key 'views'"),
    ("solve", lambda cfg: {**cfg, "source": {"files": {
        "views": ["X_1.csv"], "within": {"first": ["t.csv"]}}}},
     "within entry 'first' must be keyed by a view index"),
    ("solve", lambda cfg: {**cfg, "seed": [5, 6]},
     "the config: unknown key 'seed'"),
    ("solve", lambda cfg: {**cfg, "use_constraint": False},
     "the config: unknown key 'use_constraint'"),
    ("gridsearch", lambda cfg: {**cfg, "seeds": [5, 6]},
     "the config: unknown key 'seeds'"),
    ("solve", lambda cfg: {**cfg, "source": {
        **cfg["source"], "files": {"views": ["X_1.csv"]}}},
     "config needs a 'source' with 'synthetic' or 'files', not both"),
    ("gridsearch", lambda cfg: {**cfg, "source": {
        **cfg["source"], "file": {"views": ["X_1.csv"]}}},
     "source: unknown key 'file'"),
    ("solve", lambda cfg: {**cfg, "source": {"synthetic": {
        "dataset": "D1", "noise": 2.0}}},
     "synthetic: unknown key 'noise'"),
    ("solve", lambda cfg: {**cfg, "use_constraints": "no"},
     "use_constraints must be true or false, got 'no'"),
    ("gridsearch", lambda cfg: {**cfg, "hyperparameters": [4]},
     "hyperparameters must be a JSON object, got [4]"),
    ("solve", lambda cfg: {**cfg, "source": {"files": {
        "views": ["X_1.csv"], "betwen": {"0,1": "R.csv"}}}},
     "files: unknown key 'betwen'"),
    ("solve", lambda cfg: {**cfg, "source": {"files": {
        "base": 5, "views": ["X_1.csv"]}}},
     "base must be a JSON string, got 5"),
    ("solve", lambda cfg: {**cfg, "source": {"files": {
        "views": ["X_1.csv"], "within": []}}},
     'networks must be maps: "within" {"view": [file'),
    ("gridsearch", lambda cfg: {**cfg, "grid": []},
     "grid must be a JSON object, got []"),
    ("gridsearch", lambda cfg: {**cfg, "solver": []},
     "SolverConfig must be a JSON object, got []"),
], ids=["solve-list-config", "grid-list-config", "scalar-seeds",
        "scalar-grid-seeds", "scalar-grid-axis", "object-solvers",
        "string-synthetic-source", "string-noise-level",
        "fractional-source-seed", "true-source-seed", "string-views",
        "string-within-entry", "list-between-entry",
        "unsplit-between-key", "no-hyperparameters", "no-synthetic-dataset",
        "grid-no-synthetic-dataset", "no-files-views", "named-within-key",
        "unknown-solve-key", "misspelled-use-constraints",
        "unknown-grid-key", "two-sources", "unknown-source-key",
        "unknown-synthetic-key", "string-use-constraints",
        "list-grid-hyperparameters", "misspelled-files-key", "integer-base",
        "empty-list-within", "empty-list-grid", "empty-list-solver"])
def test_a_config_of_the_wrong_shape_exits_2_before_solving(
        tmp_path, capsys, monkeypatch, command, edit, message):
    # each of these ended in a traceback, named the wrong key, or ran
    # a truncated seed
    calls = refuse_to_solve(monkeypatch)
    path = (solve_config(tmp_path, [{"algorithm": "PG"}], seeds=[0])
            if command == "solve"
            else grid_config(tmp_path, {"algorithm": "PG"}, seeds=[0]))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not calls and not out.exists()


@pytest.mark.parametrize("command, option", [
    (["solve", "--config", "c.json", "--out", "o"], ["--seeds", "1,x"]),
    (["predict", "--model", "m", "--mode", "r", "--test", "t.csv",
      "--out", "o"], ["--views", "a"]),
], ids=["seeds", "views"])
def test_a_malformed_comma_list_names_its_option_exit_2(capsys, command,
                                                        option):
    # int()'s message named neither the option nor the list
    with pytest.raises(SystemExit) as exc:
        run(command + option)
    assert exc.value.code == 2
    assert (f"argument {option[0]}: must be a comma list of integers, got "
            f"{option[1]!r}") in capsys.readouterr().err


def test_readme_tables_list_the_keys_of_the_config_tables():
    def required(table):
        return {key for key, (_, default) in table.items() if default is ...}

    def dataclass_table(cls):
        return {f.name: (None, ... if f.default is MISSING else f.default)
                for f in fields(cls)}

    code = {"`solve` config": jmf.cli._SOLVE_KEYS,
            "`gridsearch` config": jmf.cli._GRIDSEARCH_KEYS,
            "`source`": jmf.cli._SOURCE_KEYS,
            "`synthetic` source": jmf.cli._SYNTHETIC_KEYS,
            "`files` source": jmf.cli._FILES_KEYS,
            "`grid`": jmf.cli._GRID_KEYS,
            "solver entry": dataclass_table(SolverConfig),
            "`hyperparameters`": dataclass_table(Hyperparameters),
            "`model.json`": jmf.cli._MODEL_KEYS}
    readme = Path(__file__).resolve().parent.parent / "README.md"
    tables = dict(re.findall(r"^\*\*(.+?)\*\*.*\n\n\| key \|.*\n\|---.*\n"
                             r"((?:\|.*\n)+)", readme.read_text(), re.M))
    assert tables.keys() == code.keys()
    for caption, table in code.items():
        rows = [[cell.strip() for cell in row.split("|")[1:-1]]
                for row in tables[caption].splitlines()]
        assert [row[0] for row in rows] == [f"`{key}`" for key in table]
        assert ({row[0].strip("`") for row in rows if row[2] == "required"}
                == required(table))


def test_solve_missing_config_exit_2(tmp_path):
    assert run(["solve", "--config", tmp_path / "nope.json",
                "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("solver, weights, message", [
    ({"algoritm": "PG"}, {}, "SolverConfig: unknown key 'algoritm'"),
    ({"algorithm": "PANLS", "eta": 0.2, "max_outer_iters": 1}, {},
     "SolverConfig: unknown key 'eta'"),
    ({"algorithm": "PG", "max_outer_iters": 1}, {"lamda1": 0.1},
     "Hyperparameters: unknown key 'lamda1'"),
    ({"algorithm": "PG", "inner_iters": 10, "max_outer_iters": 1}, {},
     "SolverConfig: unknown key 'inner_iters'"),
    ({"algorithm": "PG", "normalize_rows": False, "max_outer_iters": 1}, {},
     "SolverConfig: unknown key 'normalize_rows'"),
], ids=["misspelled-solver-key", "removed-solver-key", "misspelled-weight",
        "removed-inner-iters", "removed-normalize-rows"])
def test_solve_bad_config_key_exit_2(tmp_path, capsys, solver, weights,
                                     message):
    cfg = solve_config(tmp_path, [solver], seeds=[0], **weights)
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grid search selection rule

def test_select_best_single_cell():
    rows = [{"mean_auc": 0.7, "mean_reconstruction_error": 5.0}]
    assert select_best(rows) is rows[0]


def test_select_best_auc_is_primary():
    rows = [{"mean_auc": 0.80, "mean_reconstruction_error": 100.0},
            {"mean_auc": 0.78, "mean_reconstruction_error": 1.0}]
    assert select_best(rows) is rows[0]


def test_select_best_error_breaks_near_ties():
    rows = [{"mean_auc": 0.800000
             , "mean_reconstruction_error": 100.0},
            {"mean_auc": 0.8000001, "mean_reconstruction_error": 90.0}]
    assert select_best(rows) is rows[1]


def test_gridsearch_end_to_end(tmp_path):
    path = grid_config(
        tmp_path, {"algorithm": "Ne", "stop_rule": "ObjectiveRatio",
                   "tolerance": 1e-4, "max_outer_iters": 150}, seeds=[0])
    out = tmp_path / "out"
    assert run(["gridsearch", "--config", path, "--out", out]) == 0
    best = json.loads((out / "best.json").read_text())
    assert best["lambda1"] == 0.001 and best["completed"] == 1
    grid_lines = (out / "grid.csv").read_text().strip().splitlines()
    assert len(grid_lines) == 2


def test_gridsearch_counts_refused_diverged_and_capped_runs(tmp_path,
                                                            capsys):
    # (1e-3, 1e-3, gamma2 = 0.01) is capped at 5 outer iterations; at
    # gamma2 = 1 F is bounded below, and the rescale lifts it above its
    # start; at lambda1 = 0.1 F has no minimum and the first H sweep is
    # not certified convex
    path = grid_config(
        tmp_path, {"algorithm": "Ne", "tolerance": 1e-4,
                   "max_outer_iters": 5}, seeds=[0], lambda1=[1e-3, 0.1],
        gamma2=[0.01, 1])
    out = tmp_path / "out"
    assert run(["gridsearch", "--config", path, "--out", out]) == 0
    assert ("4 runs (4 cells x 1 seeds): 2 refused as unbounded (F has no "
            "minimum), 1 diverged otherwise, 1 capped at 5 outer "
            "iterations") in capsys.readouterr().out
    header = (out / "grid.csv").read_text().splitlines()[0]
    assert header == ("lambda1,lambda2,gamma1,gamma2,mean_auc,"
                      "mean_reconstruction_error,completed")


def test_gridsearch_every_cell_diverged_exit_1(tmp_path, capsys):
    # F is below 0 at the start of every run: each is refused at once
    path = grid_config(tmp_path, {"algorithm": "Ne", "tolerance": 1e-4},
                       seeds=[0, 1], lambda1=[100.0], lambda2=[100.0])
    out = tmp_path / "out"
    assert run(["gridsearch", "--config", path, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("2 runs (1 cells x 2 seeds): 2 refused "
                                   "as unbounded")
    assert "every grid cell diverged" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("section, key, message", [
    ("grid", "lamda1", "grid: unknown key 'lamda1'"),
    ("hyperparameters", "rnak", "Hyperparameters: unknown key 'rnak'"),
], ids=["misspelled-grid-key", "misspelled-rank"])
def test_gridsearch_bad_config_key_exit_2(tmp_path, capsys, section, key,
                                          message):
    path = grid_config(tmp_path, {"algorithm": "PG", "max_outer_iters": 1},
                       seeds=[0])
    cfg = json.loads(path.read_text())
    cfg[section][key] = [0.001] if section == "grid" else 2
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["gridsearch", "--config", path, "--out", out]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "grid.csv").exists()


def test_gridsearch_refuses_a_weight_it_would_ignore(tmp_path, capsys,
                                                     monkeypatch):
    calls = refuse_to_solve(monkeypatch)
    path = grid_config(tmp_path, {"algorithm": "PG", "max_outer_iters": 1},
                       seeds=[0])
    cfg = json.loads(path.read_text())
    cfg["hyperparameters"]["lambda1"] = 0.5
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["gridsearch", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error: hyperparameters: 'lambda1' would be ignored" in err
    assert "one-value 'grid' axis" in err
    assert not calls and not out.exists()


def test_gridsearch_without_grid_seeds_exit_2(tmp_path, capsys,
                                             monkeypatch):
    calls = refuse_to_solve(monkeypatch)
    path = grid_config(tmp_path, {"algorithm": "PG"}, seeds=[])
    out = tmp_path / "out"
    assert run(["gridsearch", "--config", path, "--out", out]) == 2
    assert ("error: grid search needs at least one grid seed"
            in capsys.readouterr().err)
    assert not calls and not out.exists()


def test_gridsearch_requires_synthetic_source(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"source": {"files": {"views": []}},
                                "hyperparameters": {"rank": 2}}))
    assert run(["gridsearch", "--config", path, "--out", tmp_path / "o"]) == 2


# ---------------------------------------------------------------------------
# predict

def ground_truth_model_dir(tmp_path):
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=0))
    prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                       Hyperparameters(rank=truth.rank))
    factors = Factorization(truth.w0, [h.astype(float) for h in truth.h0])
    config = SolverConfig(algorithm="Ne", stop_rule="ObjectiveRatio",
                          tolerance=1e-7)
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    _save_model(model_dir, prob, factors, config)
    return model_dir, truth


def test_model_roundtrip(tmp_path):
    model_dir, truth = ground_truth_model_dir(tmp_path)
    model = load_model(model_dir)
    assert np.array_equal(model.factors.W, truth.w0)
    assert model.params.rank == truth.rank


@pytest.mark.parametrize("stale", ["rank", "n", "top-rank"])
def test_load_model_names_a_stale_model_json(tmp_path, capsys, stale):
    model_dir, truth = ground_truth_model_dir(tmp_path)
    meta = json.loads((model_dir / "model.json").read_text())
    if stale == "rank":
        meta["hyperparameters"]["rank"] = truth.rank + 1
        message = f"rank {truth.rank + 1} does not match the {truth.rank} "
    elif stale == "top-rank":
        meta["rank"] = truth.rank + 3
        message = (f"model.json's rank {truth.rank + 3} does not match its "
                   f"hyperparameters' rank {truth.rank}")
    else:
        meta["n"][-1] += 1
        message = f"model.json's n {meta['n']} does not match"
    (model_dir / "model.json").write_text(json.dumps(meta))
    write_matrix(tmp_path / "X_1.csv", truth.x0[0])
    assert run(["predict", "--model", model_dir, "--mode", "l-class",
                "--test", tmp_path / "X_1.csv", "--views", "0",
                "--out", tmp_path / "pred"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["W", "H", "n", "rank", "hyperparameters"])
def test_load_model_names_a_missing_key(tmp_path, capsys, key):
    # a missing W ended in "error: 'W'"
    model_dir, truth = ground_truth_model_dir(tmp_path)
    meta = json.loads((model_dir / "model.json").read_text())
    del meta[key]
    (model_dir / "model.json").write_text(json.dumps(meta))
    write_matrix(tmp_path / "X_1.csv", truth.x0[0])
    assert run(["predict", "--model", model_dir, "--mode", "l-class",
                "--test", tmp_path / "X_1.csv", "--views", "0",
                "--out", tmp_path / "pred"]) == 2
    assert (f"error: model.json: missing key {key!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("seed", [2.7, True], ids=["fraction", "true"])
def test_load_model_refuses_a_seed_that_is_not_an_integer(tmp_path, seed):
    # int() loaded 2.7 as seed 2 and true as seed 1
    model_dir, _ = ground_truth_model_dir(tmp_path)
    meta = json.loads((model_dir / "model.json").read_text())
    meta["seed"] = seed
    (model_dir / "model.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be a nonnegative integer, got {seed!r}")):
        load_model(model_dir)


def test_predict_rejects_a_repeated_view_exit_2(tmp_path, capsys):
    model_dir, truth = ground_truth_model_dir(tmp_path)
    write_matrix(tmp_path / "A.csv", truth.x0[0][:5])
    write_matrix(tmp_path / "B.csv", truth.x0[0][5:11])
    out = tmp_path / "pred"
    assert run(["predict", "--model", model_dir, "--mode", "l-class",
                "--test", tmp_path / "A.csv", tmp_path / "B.csv",
                "--views", "0,0", "--out", out]) == 2
    assert "one distinct index per test file" in capsys.readouterr().err
    assert not (out / "classes.csv").exists()


def test_predict_lview_zero_noise(tmp_path, capsys):
    model_dir, truth = ground_truth_model_dir(tmp_path)
    for i in (1, 2):
        write_matrix(tmp_path / f"X_{i + 1}.csv", truth.x0[i])
    write_matrix(tmp_path / "X_1_true.csv", truth.x0[0])
    out = tmp_path / "pred"
    assert run(["predict", "--model", model_dir, "--mode", "l-view",
                "--test", tmp_path / "X_2.csv", tmp_path / "X_3.csv",
                "--views", "1,2", "--target-view", "0",
                "--labels", tmp_path / "X_1_true.csv", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["relative_error"] < 1e-6


def test_predict_missing_test_file_exit_2(tmp_path):
    model_dir, _ = ground_truth_model_dir(tmp_path)
    assert run(["predict", "--model", model_dir, "--mode", "l-class",
                "--test", tmp_path / "missing.csv",
                "--out", tmp_path / "pred"]) == 2


def test_predict_r_mode_unknown_view_exit_2(tmp_path, capsys):
    model_dir, truth = ground_truth_model_dir(tmp_path)
    write_matrix(tmp_path / "X_1.csv", truth.x0[0])
    assert run(["predict", "--model", model_dir, "--mode", "r",
                "--test", tmp_path / "X_1.csv", "--views", "5",
                "--out", tmp_path / "pred"]) == 2
    assert "error: unknown view index 5" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["-1", "3"])
def test_predict_lview_unknown_target_view_exit_2(tmp_path, capsys, target):
    model_dir, truth = ground_truth_model_dir(tmp_path)
    write_matrix(tmp_path / "X_1.csv", truth.x0[0])
    out = tmp_path / "pred"
    assert run(["predict", "--model", model_dir, "--mode", "l-view",
                "--test", tmp_path / "X_1.csv", "--target-view", target,
                "--out", out]) == 2
    assert f"error: unknown view index {target}" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_predict_r_mode_reproduces_training_error(tmp_path, capsys):
    truth = generate(SyntheticSpec(dataset_id="D1", seed=0))
    prob = new_problem(truth.to_dataset(), ConstraintSet.empty(),
                       Hyperparameters(rank=truth.rank))
    config = SolverConfig(algorithm="Ne", stop_rule="ObjectiveRatio",
                          tolerance=1e-7)
    factors, report = solve(prob, config, init_factors(prob, 0))
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    _save_model(model_dir, prob, factors, config)
    for i, x in enumerate(truth.x0):
        write_matrix(tmp_path / f"X_{i + 1}.csv", x)
    out = tmp_path / "pred"
    assert run(["predict", "--model", model_dir, "--mode", "r",
                "--test", tmp_path / "X_1.csv", tmp_path / "X_2.csv",
                tmp_path / "X_3.csv", "--views", "0,1,2", "--out", out]) == 0
    err = 0.0
    for i, x in enumerate(truth.x0):
        h_hat = read_matrix(out / f"H_hat_{i + 1}.csv")
        err += float(np.sum((x - factors.W @ h_hat) ** 2))
    assert err <= report.reconstruction_error * (1 + 1e-6)


def test_predict_reports_an_unbounded_block_exit_1(tmp_path, capsys):
    truth = generate(SyntheticSpec(dataset_id="D1", mu=0.0, seed=0))
    prob = new_problem(truth.to_dataset(), truth.constraints,
                       Hyperparameters(rank=truth.rank))
    factors = Factorization(truth.w0, [h.astype(float) for h in truth.h0])
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    _save_model(model_dir, prob, factors, SolverConfig())
    meta = json.loads((model_dir / "model.json").read_text())
    # a within-network weight that outweighs every view's H curvature
    meta["hyperparameters"]["lambda1"] = 100.0
    (model_dir / "model.json").write_text(json.dumps(meta))
    tests = []
    for i, x in enumerate(truth.x0):
        tests.append(tmp_path / f"X_{i + 1}.csv")
        write_matrix(tests[-1], x)
    out = tmp_path / "pred"
    assert run(["predict", "--model", model_dir, "--mode", "r",
                "--test", *tests, "--views", "0,1,2", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: view 0's H block is unbounded below")
    assert "Traceback" not in err
    assert not list(out.iterdir())


def test_predict_lclass_writes_classes(tmp_path):
    model_dir, truth = ground_truth_model_dir(tmp_path)
    rows = slice(0, 10)
    for i, x in enumerate(truth.x0):
        write_matrix(tmp_path / f"T_{i}.csv", x[rows, :])
    out = tmp_path / "pred"
    assert run(["predict", "--model", model_dir, "--mode", "l-class",
                "--test", tmp_path / "T_0.csv", tmp_path / "T_1.csv",
                tmp_path / "T_2.csv", "--views", "0,1,2", "--out", out]) == 0
    classes = np.loadtxt(out / "classes.csv", delimiter=",", ndmin=1)
    assert classes.shape == (10,)
    # the first ten objects belong to the first ground-truth block
    assert np.array_equal(np.unique(classes), [np.argmax(truth.w0[0])])


def test_predict_lclass_labels_report_the_accuracy(tmp_path, capsys):
    model_dir, truth = ground_truth_model_dir(tmp_path)
    rows = slice(0, 10)
    tests = []
    for i, x in enumerate(truth.x0):
        tests.append(tmp_path / f"T_{i}.csv")
        write_matrix(tests[-1], x[rows, :])
    # the planted classes, with the last 4 of the 10 made wrong
    labels = np.argmax(truth.w0[rows], axis=1)
    labels[6:] = (labels[6:] + 1) % truth.rank
    write_matrix(tmp_path / "labels.csv", labels.astype(float))
    out = tmp_path / "pred"
    assert run(["predict", "--model", model_dir, "--mode", "l-class",
                "--test", *tests, "--views", "0,1,2",
                "--labels", tmp_path / "labels.csv", "--out", out]) == 0
    assert json.loads((out / "report.json").read_text()) == {"accuracy": 0.6}
    assert "accuracy=0.6000" in capsys.readouterr().out


def test_predict_r_labels_report_the_auc(tmp_path, capsys):
    model_dir, truth = ground_truth_model_dir(tmp_path)
    tests = []
    for i, x in enumerate(truth.x0):
        tests.append(tmp_path / f"X_{i + 1}.csv")
        write_matrix(tests[-1], x)
    labels = np.concatenate([h.ravel() for h in truth.h0]).astype(float)
    write_matrix(tmp_path / "labels.csv", labels)
    out = tmp_path / "pred"
    assert run(["predict", "--model", model_dir, "--mode", "r",
                "--test", *tests, "--views", "0,1,2",
                "--labels", tmp_path / "labels.csv", "--out", out]) == 0
    scores = np.concatenate([read_matrix(out / f"H_hat_{i + 1}.csv").ravel()
                             for i in range(len(truth.x0))])
    auc = json.loads((out / "report.json").read_text())["auc"]
    assert auc == auc_score(scores, labels) and auc > 0.99
    assert f"auc={auc:.4f}" in capsys.readouterr().out
