"""Command-line front end: file I/O, benchmark runs, grid search, prediction."""
from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import reprlib
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .evaluate import auc_score, evaluate_factors
from .model import (Algorithm, ConstraintSet, DivergenceError, Factorization,
                    Hyperparameters, MultiViewDataset, Problem, SolverConfig,
                    SolverReport, StopRule, Termination, init_factors,
                    new_problem)
from .predict import (TrainedModel, predict_class, predict_left,
                      predict_right, predict_view)
from .solvers import solve
from .synthgen import SyntheticSpec, generate

DEFAULT_GRID = {
    "lambda1": [0.001, 0.01, 0.1, 1, 10, 100, 1000],
    "lambda2": [0.001, 0.01, 0.1, 1, 10, 100, 1000],
    "gamma1": [1e-6, 1e-5, 1e-4, 1e-3, 1e-2],
    "gamma2": [0.001, 0.01, 0.1, 1, 10, 100, 1000],
}


def write_matrix(path: Path, mat: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(mat), delimiter=",", fmt="%.17g")


def read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _write_csv(path: Path, cols: list[str], rows: list[dict]) -> None:
    """A header line, then one line per row; a missing field is empty."""
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")


class UsageError(Exception):
    pass


def _write_matrices(out: Path, stem: str, mats, first: int = 1) -> list[str]:
    """Write ``mats`` to ``out`` as <stem>_<k>.csv, k counting from
    ``first``, and return the file names."""
    names = [f"{stem}_{k}.csv" for k in range(first, first + len(mats))]
    for name, mat in zip(names, mats):
        write_matrix(out / name, mat)
    return names


def _write_constraints(out: Path, constraints: ConstraintSet) -> dict:
    """Write each network of ``constraints`` to ``out`` and return the
    ``within`` map (view -> list of files) and the ``between`` map ("i,j"
    -> file) under those keys, as ``_read_constraints`` reads them."""
    within = {str(i): _write_matrices(out, f"model_theta_{i}", mats, 0)
              for i, mats in constraints.within.items()}
    between = {}
    for (i, j), mat in constraints.between.items():
        between[f"{i},{j}"] = name = f"model_R_{i}_{j}.csv"
        write_matrix(out / name, mat)
    return {"within": within, "between": between}


def _check_networks(maps: dict) -> None:
    """Refuse network maps in ``maps`` of another shape than ``within``
    (view -> list of files) and ``between`` ("i,j" -> file)."""
    within, between = maps["within"], maps["between"]
    if not (isinstance(within, dict) and isinstance(between, dict)):
        raise UsageError('networks must be maps: "within" {"view": [file, '
                         '...]} and "between" {"i,j": file}')
    for i, paths in within.items():
        if not re.fullmatch(r"\d+", i):
            raise UsageError(f"within entry {i!r} must be keyed by a view "
                             "index")
        _typed(f"within entry {i!r}", paths, "files")
    for key, p in between.items():
        if not (re.fullmatch(r"\d+,\d+", key) and isinstance(p, str)):
            raise UsageError(f'between entry {key!r} must map "i,j" to a '
                             f'file name, got {reprlib.repr(p)}')


def _read_constraints(base: Path, maps: dict) -> ConstraintSet:
    """Read the files of the checked network maps in ``maps`` from ``base``."""
    return ConstraintSet(
        within={int(i): [read_matrix(base / p) for p in paths]
                for i, paths in maps["within"].items()},
        between={tuple(int(t) for t in key.split(",")): read_matrix(base / p)
                 for key, p in maps["between"].items()})


def _max_workers(n_tasks: int) -> int:
    """Worker processes: ``JMF_THREADS`` if set, else the CPU count."""
    cap = os.environ.get("JMF_THREADS")
    if cap and not (cap.isdecimal() and int(cap) > 0):
        raise UsageError(f"JMF_THREADS must be a positive integer, got "
                         f"{cap!r}")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(limit, n_tasks))


@dataclass
class RunResult:
    """One solve and its score; ``report is None`` means it diverged, with
    the ``DivergenceError``'s message in ``error`` and its proof that F
    has no minimum, if it came with one, in ``unbounded``."""

    config: SolverConfig
    factors: Factorization | None = None
    report: SolverReport | None = None
    auc: float | None = None  # set when the run has a ground truth
    error: str = ""
    unbounded: bool = False


def _run_one(problem: Problem, truth, params: Hyperparameters,
             config: SolverConfig) -> RunResult:
    """Solve ``problem``'s data under ``params`` from the config's seed and
    score it against ``truth`` (None when there is no ground truth)."""
    problem = replace(problem, params=params)
    try:
        factors, report = solve(problem, config,
                                init_factors(problem, config.seed))
    except DivergenceError as err:
        return RunResult(config, error=str(err), unbounded=err.unbounded)
    auc = evaluate_factors(factors, truth).auc if truth is not None else None
    return RunResult(config, factors, report, auc)


# the (problem, ground truth) every task of a worker process shares, sent
# once per process by the pool initializer rather than once per task
_shared: tuple = ()


def _share(problem: Problem, truth) -> None:
    global _shared
    _shared = (problem, truth)


def _run_shared(task: tuple[Hyperparameters, SolverConfig]) -> RunResult:
    return _run_one(*_shared, *task)


def run_all(problem: Problem, truth, tasks: list) -> Iterator[RunResult]:
    """Run the (hyperparameters, config) tasks on the shared problem's
    data and ground truth, in the process pool (capped by
    ``JMF_THREADS``; in this process at 1), yielding results in task
    order.  Each task is solved on the shared problem's data and
    constraints (already checked by ``new_problem``) under its own
    weights, and the tasks of one process share the caches that do not
    depend on the weights."""
    workers = _max_workers(len(tasks))
    if workers == 1:
        yield from (_run_one(problem, truth, *task) for task in tasks)
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_share,
                             initargs=(problem, truth)) as pool:
        yield from pool.map(_run_shared, tasks)


def _summarize(runs: list[RunResult]) -> dict:
    """The counts of a group of runs, and the means over its finished
    runs when there is one (the AUC's when they were scored)."""
    ok = [r for r in runs if r.report is not None]
    out = {"runs": len(runs), "diverged": len(runs) - len(ok),
           "unbounded": sum(r.unbounded for r in runs),
           "cap_exceeded": sum(r.report.termination is Termination.MAX_ITERS
                               for r in ok)}
    for key, values in (
            ("final_objective", [r.report.final_objective for r in ok]),
            ("seconds", [r.report.trace[-1].seconds for r in ok]),
            ("iterations", [r.report.iterations for r in ok]),
            ("reconstruction_error",
             [r.report.reconstruction_error for r in ok]),
            ("auc", [r.auc for r in ok if r.auc is not None])):
        if values:
            out[f"mean_{key}"] = float(np.mean(values))
    return out


# ---------------------------------------------------------------------------
# config tables: each JSON object the CLI reads maps a key to (its type, its
# default or ... when it is required).  An "any" value is checked where it
# is used: by _from_json, SyntheticSpec or _check_networks.

_TYPES = {"object": (dict, "a JSON object"), "list": (list, "a JSON list"),
          "files": (list, "a JSON list of file names"),
          "string": (str, "a JSON string"), "bool": (bool, "true or false"),
          "any": (object, "")}  # name -> (Python type, words for a message)
_COMMON_KEYS = {"source": ("object", {}), "use_constraints": ("bool", True)}
_SOLVE_KEYS = {**_COMMON_KEYS, "hyperparameters": ("any", ...),
               "solvers": ("list", []), "seeds": ("list", [0])}
# the grid sets the weights, so "hyperparameters" may name only the rank
_GRIDSEARCH_KEYS = {**_COMMON_KEYS, "hyperparameters": ("object", {}),
                    "grid": ("object", {}), "grid_seeds": ("list", [0, 1, 2]),
                    "solver": ("any", {})}
_SOURCE_KEYS = {"synthetic": ("object", None), "files": ("object", None)}
_SYNTHETIC_KEYS = {"dataset": ("any", ...), "mu": ("any", None),
                   "seed": ("any", 0)}
_NETWORK_KEYS = {"within": ("any", {}), "between": ("any", {})}
# a manifest's files block is a source: its W0 and H0 are accepted, not read
_FILES_KEYS = {"base": ("string", "."), "views": ("files", ...),
               **_NETWORK_KEYS, "W0": ("string", None), "H0": ("files", None)}
_GRID_KEYS = {axis: ("list", values) for axis, values in DEFAULT_GRID.items()}
_MODEL_KEYS = {"rank": ("any", ...), "n": ("list", ...), "W": ("string", ...),
               "H": ("files", ...), "hyperparameters": ("any", ...),
               **_NETWORK_KEYS, "algorithm": ("any", "PANLS"),
               "stop_rule": ("any", "ObjectiveRatio"), "seed": ("any", 0)}


def _typed(name: str, value, kind: str) -> None:
    """Refuse ``value``, naming it, when it is not of type ``kind``."""
    cls, words = _TYPES[kind]
    if not isinstance(value, cls) or kind == "files" and not all(
            isinstance(p, str) for p in value):
        raise UsageError(f"{name} must be {words}, got {reprlib.repr(value)}")


def _read(what: str, value, table: dict, name: str = "{}") -> dict:
    """Each key of ``table`` with its value in the JSON object ``value``, or
    its default, once ``value`` has no unknown key, every required key and
    each value of its type; messages name ``what`` and ``name.format(key)``."""
    _typed(what, value, "object")
    bad = [f"unknown key {k!r}" for k in sorted(set(value) - set(table))]
    bad += [f"missing key {k!r}" for k, (_, default) in table.items()
            if default is ... and k not in value]
    if bad:
        raise UsageError(f"{what}: {', '.join(bad)}")
    for key in value:
        _typed(name.format(key), value[key], table[key][0])
    return {k: value.get(k, default) for k, (_, default) in table.items()}


def _from_json(cls, entry):
    """``cls`` from a JSON object whose keys are its field names."""
    return cls(**_read(cls.__name__, entry, {
        f.name: ("any", ... if f.default is MISSING else f.default)
        for f in fields(cls)}))


def _refuse_mur_gradient(configs: list[SolverConfig]) -> None:
    if any(c.algorithm is Algorithm.MUR
           and c.stop_rule is StopRule.GRADIENT_RATIO for c in configs):
        raise UsageError("MUR runs only under the objective-ratio stop rule")


def _int_list(text: str) -> list[int]:
    """The comma list of integers an option such as ``--seeds`` takes."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma list of integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    spec = SyntheticSpec(dataset_id=args.dataset, mu=args.mu, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = generate(spec)
    write_matrix(out / "W0.csv", truth.w0)
    manifest = {
        "dataset": args.dataset,
        "seed": args.seed,
        "mu": spec.noise,
        "rank": truth.rank,
        "shapes": {"W0": list(truth.w0.shape),
                   "views": [list(x.shape) for x in truth.x0]},
        "files": {"W0": "W0.csv",
                  "views": _write_matrices(out, "X", truth.x0),
                  "H0": _write_matrices(out, "H0", truth.h0),
                  **_write_constraints(out, truth.constraints)},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {args.dataset} instance to {out}")
    return 0


# ---------------------------------------------------------------------------
# solve

def _load_source(cfg: dict):
    """Returns (dataset, constraints, ground_truth_or_None) from the source,
    checked in full; a files source reads its networks only when used."""
    source = _read("source", cfg["source"], _SOURCE_KEYS)
    if (source["synthetic"] is None) == (source["files"] is None):
        raise UsageError("config needs a 'source' with 'synthetic' or 'files'"
                         f"{'' if source['files'] is None else ', not both'}")
    use = cfg["use_constraints"]
    if source["files"] is None:
        syn = _read("synthetic", source["synthetic"], _SYNTHETIC_KEYS)
        truth = generate(SyntheticSpec(syn["dataset"], syn["mu"], syn["seed"]))
        constraints = truth.constraints if use else ConstraintSet.empty()
        return truth.to_dataset(), constraints, truth
    files = _read("files", source["files"], _FILES_KEYS)
    _check_networks(files)
    base = Path(files["base"])
    constraints = (_read_constraints(base, files) if use
                   else ConstraintSet.empty())
    views = [read_matrix(base / p) for p in files["views"]]
    return MultiViewDataset(views), constraints, None


def _check_rank(truth, rank: int) -> None:
    """The AUC pairs learned with planted components: ranks must agree."""
    if truth is not None and truth.rank != rank:
        raise UsageError(f"rank {rank} does not match the synthetic "
                         f"source's planted rank {truth.rank}")


def _run_tag(cfg: SolverConfig) -> str:
    rule = "stop1" if cfg.stop_rule is StopRule.OBJECTIVE_RATIO else "stop2"
    return f"{cfg.algorithm.value}_{rule}_tol{cfg.tolerance:g}"


def _save_model(run_dir: Path, problem, factors, config) -> None:
    write_matrix(run_dir / "W.csv", factors.W)
    meta = {
        "rank": problem.rank,
        "n": list(problem.n),
        "hyperparameters": asdict(problem.params),
        "W": "W.csv",
        "H": _write_matrices(run_dir, "H", factors.H),
        **_write_constraints(run_dir, problem.constraints),
        "algorithm": config.algorithm.value,
        "stop_rule": config.stop_rule.value,
        "seed": config.seed,
    }
    (run_dir / "model.json").write_text(json.dumps(meta, indent=2))


def load_model(model_dir: Path) -> TrainedModel:
    model_dir = Path(model_dir)
    meta = _read("model.json", json.loads(
        (model_dir / "model.json").read_text()), _MODEL_KEYS)
    _check_networks(meta)
    config = SolverConfig(algorithm=meta["algorithm"],
                          stop_rule=meta["stop_rule"], seed=meta["seed"])
    w = read_matrix(model_dir / meta["W"])
    hs = [read_matrix(model_dir / p) for p in meta["H"]]
    if meta["n"] != [h.shape[1] for h in hs]:
        raise ValueError(f"model.json's n {meta['n']} does not match the "
                         f"H files' columns {[h.shape[1] for h in hs]}")
    model = TrainedModel(Factorization(w, hs),
                         _from_json(Hyperparameters, meta["hyperparameters"]),
                         _read_constraints(model_dir, meta), config)
    if meta["rank"] != model.params.rank:
        raise ValueError(f"model.json's rank {meta['rank']} does not match "
                         f"its hyperparameters' rank {model.params.rank}")
    return model


def cmd_solve(args) -> int:
    cfg = _read("the config", json.loads(Path(args.config).read_text()),
                _SOLVE_KEYS)
    params = _from_json(Hyperparameters, cfg["hyperparameters"])
    seeds = [SolverConfig(seed=s).seed for s in args.seeds or cfg["seeds"]]
    if not cfg["solvers"] or not seeds:
        raise UsageError("config needs at least one solver and one seed")
    configs = [_from_json(SolverConfig, entry) for entry in cfg["solvers"]]
    _refuse_mur_gradient(configs)
    tags = [_run_tag(config) for config in configs]
    for what, keys in (("run tag", tags), ("seed", seeds)):
        twice = next((k for k in keys if keys.count(k) > 1), None)
        if twice is not None:
            raise UsageError(f"{what} {twice} occurs twice, and each run "
                             f"writes into runs/<run tag>_seed<seed>")
    dataset, constraints, truth = _load_source(cfg)
    _check_rank(truth, params.rank)
    problem = new_problem(dataset, constraints, params)

    out = Path(args.out)  # made with the first run's directory
    results = run_all(problem, truth,
                      [(params, replace(config, seed=s))
                       for config in configs for s in seeds])

    summary = []
    for config, tag in zip(configs, tags):
        runs = list(itertools.islice(results, len(seeds)))
        for r in runs:
            run_dir = out / "runs" / f"{tag}_seed{r.config.seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            if r.report is None:
                (run_dir / "DIVERGED").write_text(r.error + "\n")
                continue
            with open(run_dir / "trace.csv", "w") as fh:
                fh.write("iter,objective,grad_norm,seconds\n")
                for p in r.report.trace:
                    fh.write(f"{p.iteration},{p.objective:.17g},"
                             f"{p.grad_norm:.17g},{p.seconds:.17g}\n")
            _save_model(run_dir, problem, r.factors, r.config)
        summary.append({"tag": tag, "algorithm": config.algorithm.value,
                        "stop_rule": config.stop_rule.value,
                        "tolerance": config.tolerance, **_summarize(runs)})

    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    _write_csv(out / "summary.csv",
               ["tag", "algorithm", "stop_rule", "tolerance", "runs",
                "diverged", "cap_exceeded", "mean_final_objective",
                "mean_seconds", "mean_iterations",
                "mean_reconstruction_error", "mean_auc"], summary)
    for entry in summary:
        print(f"{entry['tag']}: "
              f"err={entry.get('mean_reconstruction_error', 'n/a')} "
              f"auc={entry.get('mean_auc', 'n/a')} "
              f"iters={entry.get('mean_iterations', 'n/a')}")
    return 0 if any(e["diverged"] < e["runs"] for e in summary) else 1


# ---------------------------------------------------------------------------
# grid search

def select_best(rows: list[dict], auc_tie: float = 1e-6) -> dict:
    """Highest mean AUC wins; AUCs within ``auc_tie`` are broken by the
    smaller mean reconstruction error."""
    top_auc = max(r["mean_auc"] for r in rows)
    contenders = [r for r in rows if r["mean_auc"] >= top_auc - auc_tie]
    return min(contenders, key=lambda r: r["mean_reconstruction_error"])


def cmd_gridsearch(args) -> int:
    cfg = _read("the config", json.loads(Path(args.config).read_text()),
                _GRIDSEARCH_KEYS)
    if "synthetic" not in cfg["source"]:
        raise UsageError("grid search needs a synthetic source (AUC oracle)")
    grid = _read("grid", cfg["grid"], _GRID_KEYS, "grid axis {!r}")
    seeds = [SolverConfig(seed=s).seed for s in cfg["grid_seeds"]]
    if not seeds:
        raise UsageError("grid search needs at least one grid seed")
    config = _from_json(SolverConfig, cfg["solver"])
    _refuse_mur_gradient([config])
    cells = list(itertools.product(*grid.values()))  # l1, l2, g1, g2
    if not cells:
        raise UsageError("empty parameter grid")
    dataset, constraints, truth = _load_source(cfg)
    base = {"rank": truth.rank, **cfg["hyperparameters"]}
    rank = _from_json(Hyperparameters, base).rank
    weights = sorted(set(base) - {"rank"})
    if weights:
        raise UsageError(
            f"hyperparameters: {', '.join(map(repr, weights))} would be "
            "ignored: the grid sets the weights, so give a fixed weight as "
            "a one-value 'grid' axis")
    _check_rank(truth, rank)

    problem = new_problem(dataset, constraints, Hyperparameters(rank=rank))
    tasks = [(Hyperparameters(rank=rank, lambda1=l1, lambda2=l2, gamma1=g1,
                              gamma2=g2), replace(config, seed=s))
             for l1, l2, g1, g2 in cells for s in seeds]
    # each cell's runs are reduced as they arrive, so no factors pile up
    results = run_all(problem, truth, tasks)
    rows = []
    counts = dict.fromkeys(("unbounded", "diverged", "cap_exceeded"), 0)
    for l1, l2, g1, g2 in cells:
        cell = _summarize(list(itertools.islice(results, len(seeds))))
        for key in counts:
            counts[key] += cell[key]
        rows.append({
            "lambda1": l1, "lambda2": l2, "gamma1": g1, "gamma2": g2,
            "mean_auc": cell.get("mean_auc", float("nan")),
            "mean_reconstruction_error":
                cell.get("mean_reconstruction_error", float("nan")),
            "completed": cell["runs"] - cell["diverged"],
        })

    print(f"{len(tasks)} runs ({len(cells)} cells x {len(seeds)} seeds): "
          f"{counts['unbounded']} refused as unbounded (F has no minimum), "
          f"{counts['diverged'] - counts['unbounded']} diverged otherwise, "
          f"{counts['cap_exceeded']} capped at {config.max_outer_iters} "
          "outer iterations")
    finished = [r for r in rows if r["completed"]]
    if not finished:
        print("every grid cell diverged", file=sys.stderr)
        return 1
    best = select_best(finished)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "grid.csv",
               ["lambda1", "lambda2", "gamma1", "gamma2", "mean_auc",
                "mean_reconstruction_error", "completed"], rows)
    (out / "best.json").write_text(json.dumps(best, indent=2))
    print("best cell:", json.dumps(best))
    return 0


# ---------------------------------------------------------------------------
# predict

def cmd_predict(args) -> int:
    model = load_model(Path(args.model))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    view_ids = args.views or list(range(len(args.test)))
    if len(view_ids) != len(args.test) or len(set(view_ids)) != len(view_ids):
        raise UsageError("--views must list one distinct index per test file")
    test = {i: read_matrix(Path(p)) for i, p in zip(view_ids, args.test)}

    mode = args.mode
    if mode == "l-class":
        w_hat = predict_left(model, test)
        classes = predict_class(w_hat)
        write_matrix(out / "W_hat.csv", w_hat)
        np.savetxt(out / "classes.csv", classes[None, :], delimiter=",",
                   fmt="%d")
        if args.labels:
            labels = read_matrix(Path(args.labels)).ravel().astype(int)
            acc = float(np.mean(labels == classes))
            (out / "report.json").write_text(json.dumps({"accuracy": acc}))
            print(f"accuracy={acc:.4f}")
    elif mode == "l-view":
        x_hat = predict_view(model, test, target_view=args.target_view)
        write_matrix(out / f"X_hat_{args.target_view + 1}.csv", x_hat)
        if args.labels:
            truth_x = read_matrix(Path(args.labels))
            rel = float(np.linalg.norm(x_hat - truth_x)
                        / max(np.linalg.norm(truth_x), 1e-300))
            (out / "report.json").write_text(
                json.dumps({"relative_error": rel}))
            print(f"relative_error={rel:.6g}")
    else:  # "r"; argparse restricts the choices
        hs = predict_right(model, test)
        for i, h in zip(sorted(test), hs):
            write_matrix(out / f"H_hat_{i + 1}.csv", h)
        if args.labels:
            labels = read_matrix(Path(args.labels)).ravel()
            scores = np.concatenate([h.ravel() for h in hs])
            auc = auc_score(scores, labels)
            (out / "report.json").write_text(json.dumps({"auc": auc}))
            print(f"auc={auc:.4f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jmf",
        description="Multi-view network-regularized NMF benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic benchmark instance")
    g.add_argument("--dataset", required=True,
                   choices=["D1", "D2", "D3", "D4"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mu", type=float, default=None,
                   help="noise level (dataset default when omitted)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run solver/seed benchmark sweeps")
    s.add_argument("--config", required=True, help="JSON experiment config")
    s.add_argument("--out", required=True)
    s.add_argument("--seeds", type=_int_list, default=None,
                   help="comma list overriding the config seeds")
    s.set_defaults(func=cmd_solve)

    gs = sub.add_parser("gridsearch", help="grid-search regularization weights")
    gs.add_argument("--config", required=True)
    gs.add_argument("--out", required=True)
    gs.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("predict", help="apply a trained model to test data")
    p.add_argument("--model", required=True, help="run directory with model.json")
    p.add_argument("--mode", required=True, choices=["l-class", "l-view", "r"])
    p.add_argument("--test", nargs="+", required=True,
                   help="test matrix CSV files")
    p.add_argument("--views", type=_int_list, default=None,
                   help="comma list of view indices for the test files")
    p.add_argument("--target-view", type=int, default=0)
    p.add_argument("--labels", default=None,
                   help="ground truth for the report (classes / matrix)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, FileNotFoundError, KeyError,
            DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a usage error exits 2, an unbounded prediction block 1
        return 1 if isinstance(exc, DivergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
