#!/usr/bin/env python3
"""Time to solution of the jmf solvers on four layer-targeted workloads.

Run from the repository root:

    python3 perfbench/run.py --workload d4-wide-panls --seed 3 \
        --seconds 25 --trace 0

Each run builds its workload's data set several times (``setup_s``), then
repeats the workload's solves (``new_problem`` -> ``init_factors`` ->
``solve``) until the next pass would end after ``--seconds``, checks
every solve's output and reports medians.  ``--trace 1`` instead alternates plain and traced
passes and reports per-layer self time and counts.  The last line of
standard output is one JSON object with the result.

One BLAS thread is forced before NumPy loads, so the figures measure the
solver rather than the scheduler.  A (workload, instance, seed) whose
outer iteration counts or final objectives differ from an earlier run of
the same library code and BLAS set-up stops the benchmark with an error.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench_state"
MIN_SETUPS, SETUP_SECONDS = 3, 0.5
MIN_PASSES, MIN_TRACED_PAIRS = 2, 1


class BenchError(RuntimeError):
    """The benchmark cannot give a trustworthy result."""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="relabelling of the instance; 0 is the identity")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance", type=int, default=0,
                    help="generator and init seed of the problem instance; "
                         "1 is the held-out instance")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpus": os.cpu_count(),
    }


def fingerprint(env: dict) -> str:
    """Identify the library code and BLAS set-up whose runs must agree."""
    h = hashlib.sha256(json.dumps(env, sort_keys=True).encode())
    for path in sorted((SRC / "jmf").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def guard_determinism(fp: str, key: str, signature: list) -> None:
    """Compare a pass's (iterations, final F) list with earlier runs."""
    path = STATE_DIR / f"{fp}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen:
        if seen[key] != signature:
            raise BenchError(
                f"{key}: outer iterations or final objective differ from an "
                f"earlier run of the same code: {seen[key]} != {signature}")
        return
    seen[key] = signature
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)


def setup(wl, instance: int, seed: int):
    """Build the first pass's instance repeatedly; return it and the build
    times."""
    from workloads import build_instance
    times = []
    start = perf_counter()
    while len(times) < MIN_SETUPS or perf_counter() - start < SETUP_SECONDS:
        t = perf_counter()
        inst = build_instance(wl, instance, seed, 0)
        times.append(perf_counter() - t)
    return inst, times


def run_pass(wl, inst, instance: int) -> dict:
    """Solve every cell of the workload once and check each answer."""
    import jmf
    from check import classify
    from workloads import hyperparameters, solver_config

    config = solver_config(wl, instance)
    solve_s = 0.0
    verdicts, aucs, signature = [], [], []
    for cell in wl.cells:
        t = perf_counter()
        problem = jmf.new_problem(inst.dataset, inst.constraints,
                                  hyperparameters(inst, cell))
        init = inst.relabel_init(jmf.init_factors(problem, instance))
        try:
            result = jmf.solve(problem, config, init)
        except Exception as exc:  # judged below; the run goes on
            result = exc
        solve_s += perf_counter() - t
        verdict = classify(problem, init, result)
        if verdict.outcome == "error":
            traceback.print_exception(result, file=sys.stderr)
        if verdict.passed:
            aucs.append(jmf.evaluate_factors(result[0], inst.truth).auc)
        verdicts.append(verdict)
        signature.append([verdict.iterations,
                          None if isinstance(result, BaseException)
                          else repr(result[1].final_objective)])
    return {"solve_s": solve_s, "verdicts": verdicts, "aucs": aucs,
            "signature": signature}


def layer_metrics(tr, p: dict) -> dict:
    s, c = tr.self_s, tr.calls
    counts = Counter(v.outcome for v in p["verdicts"])
    return {
        "objective.objective_value_s": s["objective.objective_value"],
        "objective.objective_value_calls": c["objective.objective_value"],
        "objective.pgnorm_s": s["objective.pgnorm"],
        "objective.pgnorm_calls": c["objective.pgnorm"],
        "objective.build_s": s["objective.build"],
        "objective.build_calls": c["objective.build"],
        "objective.spectral_norm_s": s["objective.spectral_norm"],
        "objective.spectral_norm_calls": c["objective.spectral_norm"],
        "objective.hess_apply_s": s["objective.hess_apply"],
        "objective.hess_apply_calls": c["objective.hess_apply"],
        "objective.hess_apply_gflop": tr.hess_flops / 1e9,
        "objective.grad_calls": c["objective.grad"],
        "solvers.engine_s": s["solvers.engine"],
        "solvers.engine_calls": c["solvers.engine"],
        "solvers.outer_self_s": s["solvers.outer"],
        "solvers.outer_iters": sum(v.iterations for v in p["verdicts"]),
        "solvers.diverged": counts.get("diverged", 0),
        "solvers.capped": counts.get("capped", 0),
        "solvers.no_progress": counts.get("no_progress", 0),
        "model.new_problem_s": s["model.new_problem"],
        "model.init_factors_s": s["model.init_factors"],
        "evaluate.evaluate_s": s["evaluate.evaluate"],
    }


UNITS = {"auc": "ratio", "objective_rel": "ratio", "sound_frac": "ratio",
         "peak_rss_mb": "MB"}
SUFFIX_UNITS = {"_s": "s", "_gflop": "GFLOP", "_frac": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run(args) -> dict:
    # the benchmark's modules import jmf, so they load after main() has
    # put src/ on the path
    from check import WRONG_NUMBERS
    from tracer import Tracer
    from workloads import WORKLOADS, build_instance

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment()
    fp = fingerprint(env)
    print(f"workload {wl.name}: {wl.dataset}, networks={wl.networks}, "
          f"solver={wl.solver or 'SolverConfig defaults'}, "
          f"{len(wl.cells)} solve(s), instance {args.instance}, "
          f"relabel seed {args.seed}, trace={args.trace}")
    print("environment:", json.dumps(env, sort_keys=True))

    tracer = Tracer()
    start = perf_counter()
    if args.trace:
        with tracer.installed():
            inst, setup_times = setup(wl, args.instance, args.seed)
        generate_s = (tracer.self_s["synthgen.generate"]
                      / tracer.calls["synthgen.generate"])
    else:
        inst, setup_times = setup(wl, args.instance, args.seed)

    # plain passes, each followed in a traced run by a traced pass on the
    # same labels; stop before a pass would end past the deadline
    plain, traced = [], []
    min_passes = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    while True:
        pass_start = perf_counter()
        if plain:
            inst = build_instance(wl, args.instance, args.seed, len(plain))
        key = (f"{wl.name}/instance{args.instance}/seed{args.seed}"
               f"/pass{0 if args.seed == 0 else len(plain)}")
        plain.append(run_pass(wl, inst, args.instance))
        guard_determinism(fp, key, plain[-1]["signature"])
        if args.trace:
            tracer.reset()
            with tracer.installed():
                traced.append(run_pass(wl, inst, args.instance))
            traced[-1]["layers"] = layer_metrics(tracer, traced[-1])
            guard_determinism(fp, key, traced[-1]["signature"])
        now = perf_counter()
        if (len(plain) >= min_passes
                and 2 * now - pass_start - start > args.seconds):
            break

    verdicts = [v for p in plain + traced for v in p["verdicts"]]
    attempted = len(verdicts)
    failed = sum(v.failed for v in verdicts)
    first = plain[0]
    counts = Counter(v.outcome for v in first["verdicts"])
    print(f"first pass: outcomes {json.dumps(counts, sort_keys=True)}, "
          f"{sum(v.iterations for v in first['verdicts'])} outer iterations")
    for v in first["verdicts"]:
        if v.detail:
            print(f"  {v.outcome}: {v.detail}")
    print("passes (solve s, outer iterations):", [
        (round(p["solve_s"], 3), sum(v.iterations for v in p["verdicts"]))
        for p in plain])
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    bad_answer = any(v.outcome in WRONG_NUMBERS for v in verdicts)
    # a pass without one passing solve leaves nothing to score
    correct = not bad_answer and all(p["aucs"] for p in plain + traced)

    if args.trace:
        values = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in traced[0]["layers"]}
        values["synthgen.generate_s"] = generate_s
        values["trace.overhead_frac"] = (
            statistics.median(t["solve_s"] for t in traced)
            / statistics.median(p["solve_s"] for p in plain) - 1.0)
        samples = dict.fromkeys(values, f"median of {len(traced)} passes")
        samples["synthgen.generate_s"] = f"mean of {len(setup_times)}"
        samples["objective.hess_apply_gflop"] += ", computed from shapes"
    else:
        values = {
            "solve_s": statistics.median(p["solve_s"] for p in plain),
            "setup_s": statistics.median(setup_times),
            "auc": statistics.median(max(p["aucs"], default=0.0)
                                     for p in plain),
            "objective_rel": statistics.median(
                min((v.objective_rel for v in p["verdicts"] if v.passed),
                    default=1.0) for p in plain),
            "sound_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        per_pass = f"best passing solve, median of {len(plain)} passes"
        samples = {"solve_s": f"median of {len(plain)} passes",
                   "setup_s": f"median of {len(setup_times)}",
                   "auc": per_pass, "objective_rel": per_pass,
                   "sound_frac": f"{attempted} solves",
                   "peak_rss_mb": "1 process"}
    metrics = {}
    for name, value in values.items():
        unit = unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit} ({samples[name]})")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jmf" / "__init__.py").is_file():
        print(f"the jmf sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
