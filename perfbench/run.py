#!/usr/bin/env python3
"""dphmm benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload golden-reduced --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each run writes the workload's inputs from --seed, then starts fresh
single-process instances (perfbench/instance.py) one after another for
about --seconds. An instance times its set-up (importing dphmm.cli and
parsing the config), then repeats the workload's timed operations for
REP_SECONDS. Every repetition's outputs are checked and digested, and all
repetitions of a run must give the same digest. Each end-to-end metric is
printed as the median, the highest percentile with ten samples beyond it
(when there are that many), the best value and the sample count; the last
line reports the statistic named in E2E. With --trace 1 the first half of
the time runs untraced instances and the second half traced ones, which
wrap dphmm's layer functions and run the operations once; they give
per-layer counts and self times, and their outputs must match the untraced
digest. The last line of standard output is one JSON object: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. The full record,
untraced and traced, goes to --out (default
.perfbench_work/results/<workload>-seed<seed>-trace<t>.json).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

MIN_UNTRACED = 3          # instances per --trace 0 run
REP_SECONDS = 4.0         # repeat the timed operations this long per untraced instance
MIN_PHASE = 2             # untraced and traced instances per --trace 1 run
INSTANCE_TIMEOUT_S = 120       # keeps a hung run within three minutes
THREADS = str(min(2, os.cpu_count() or 1))

# by-name import sites that the traced call counts prove are wrapped
REQUIRED_SITES = {
    "golden-reduced": ("experiments.run_chain", "experiments.simulate"),
    "fit-long": ("cli.run_chain", "cli.simulate_paths", "gibbs.sample_transition_row"),
    "dpm-gaussian": ("cli.run_chain", "metrics.simulate", "gibbs.sample_transition_row"),
}

# metric -> (unit, better, statistic the last line reports). On a shared
# host the speed of each CPU drifts by up to 1.6x over spans of a fraction
# of a second to minutes, and CPU time tracks wall time, so the drift is
# contention rather than scheduling. Interference only ever adds time, so
# timings report the run's best repetition, which stays steady across runs
# where the median does not. Set-up time and memory report the median.
E2E = {
    "wall_s": ("s", "lower", "best"),
    "setup_s": ("s", "lower", "median"),
    "sweep_obs_per_s": ("1/s", "higher", "best"),
    "scored_samples_per_s": ("1/s", "higher", "best"),
    "peak_rss_mb": ("MB", "lower", "median"),
}


def digest_tree(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def highest_tail(values: list) -> dict:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return {"percentile": None, "value": None}
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    return {"percentile": q, "value": layers.percentile(values, q)}


# ---------------------------------------------------------------------------
# one instance


def run_instance(plan_path: Path, inst_dir: Path, root: Path, trace: bool, probe: bool) -> dict:
    cmd = [sys.executable, str(HERE / "instance.py"), "--root", str(root),
           "--plan", str(plan_path), "--out", str(inst_dir),
           "--rep-seconds", str(0.0 if trace else REP_SECONDS)]
    cmd += ["--trace"] * trace + ["--probe"] * probe
    env = dict(os.environ, OMP_NUM_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=root,
                              timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"instance exceeded {INSTANCE_TIMEOUT_S} s",
                "elapsed_s": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-600:]}",
                "elapsed_s": time.perf_counter() - t0}
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def check_rep(plan: dict, rep: dict, out: Path) -> None:
    """Attach the output check errors to each operation of one repetition."""
    chains = [out / f"samples_chain{c}.jsonl" for c in range(plan["chains"])]
    for op in rep["ops"]:
        errors = [] if op["rc"] == 0 else [f"exit code {op['rc']}"]
        if op["rc"] == 0:
            if op["op"] == "experiment":
                errors += workloads.check_experiment(out, plan)
            elif op["op"] == "simulate":
                errors += workloads.check_observations(out / "states.txt", plan, True)
                errors += workloads.check_observations(out / "observations.txt", plan,
                                                       False)
            elif op["op"] == "fit":
                for path in chains:
                    errors += workloads.check_sample_file(path, plan)
            elif op["op"] == "report":
                errors += workloads.check_report(out / "metric_records.jsonl", plan)
            elif op["op"] == "score":
                errors += workloads.check_scores(rep.get("scores", []), plan)
        op["errors"] = errors


def rep_values(plan: dict, rep: dict) -> dict:
    """Timing figures of one repetition of the workload's operations."""
    ops = {op["op"]: op for op in rep["ops"]}
    chain = plan["chain"]
    spc = (chain["n_iter"] - chain["burn_in"]) // chain["thin"]
    if plan["workload"] == "golden-reduced":
        chain_op = score_op = ops["experiment"]
        sweep_obs = plan["replications"] * chain["n_iter"] * sum(plan["n_grid"])
        scored = len(plan["n_grid"]) * plan["replications"] * spc
    else:
        chain_op = ops["fit"]
        score_op = ops["report" if plan["workload"] == "fit-long" else "score"]
        sweep_obs = plan["chains"] * chain["n_iter"] * plan["n"]
        scored = plan["chains"] * spc
    return {
        "wall_s": sum(op["wall_s"] for op in rep["ops"]),
        "sweep_obs_per_s": sweep_obs / chain_op["wall_s"],
        "scored_samples_per_s": scored / score_op["wall_s"],
    }


def _clean(inst: dict) -> bool:
    return "crashed" not in inst and not any(
        op["errors"] for rep in inst["reps"] for op in rep["ops"])


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    workdir = root / ".perfbench_work" / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.make_inputs(name, seed, root, workdir)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1) + "\n")

    phases = [(False, seconds / 2, MIN_PHASE), (True, seconds / 2, MIN_PHASE)] if trace \
        else [(False, seconds, MIN_UNTRACED)]
    instances = []
    for traced, budget, minimum in phases:
        start = time.perf_counter()
        elapsed = []
        while len(elapsed) < minimum or (
                time.perf_counter() - start + statistics.median(elapsed) <= budget):
            inst_dir = workdir / f"instance{len(instances)}"
            inst = run_instance(plan_path, inst_dir, root, traced, probe=not instances)
            inst["traced"] = traced
            for r, rep in enumerate(inst.get("reps", [])):
                check_rep(plan, rep, inst_dir / "out" / f"rep{r}")
                rep["digest"] = digest_tree(inst_dir / "out" / f"rep{r}")
            instances.append(inst)
            elapsed.append(inst["elapsed_s"])
            shutil.rmtree(inst_dir, ignore_errors=True)
    return summarise(plan, instances)


def summarise(plan: dict, instances: list) -> dict:
    problems = [f"instance {i}: {inst['crashed']}" for i, inst in enumerate(instances)
                if "crashed" in inst]
    ok = [inst for inst in instances if "crashed" not in inst]
    reps = [rep for inst in ok for rep in inst["reps"]]
    attempted = sum(len(rep["ops"]) for rep in reps) + len(problems)
    failed = sum(1 for rep in reps for op in rep["ops"] if op["errors"]) + len(problems)
    for i, inst in enumerate(instances):
        for r, rep in enumerate(inst.get("reps", [])):
            problems += [f"instance {i} rep {r} {op['op']}: {e}"
                         for op in rep["ops"] for e in op["errors"]]
    digests = sorted({rep["digest"] for rep in reps})
    if len(digests) > 1:
        problems.append(f"repetitions of one run disagree on the output digest: {digests}")

    # timings count every repetition; set-up and memory count every instance
    untraced = [inst for inst in instances if _clean(inst) and not inst["traced"]]
    values = {metric: [] for metric in E2E}
    for inst in untraced:
        values["setup_s"].append(inst["setup_s"])
        values["peak_rss_mb"].append(inst["peak_rss_mb"])
        for rep in inst["reps"]:
            for metric, value in rep_values(plan, rep).items():
                values[metric].append(value)
    e2e = {}
    for metric, (unit, better, reported) in E2E.items():
        vals = values[metric]
        best = (min if better == "lower" else max)(vals) if vals else None
        median = statistics.median(vals) if vals else None
        e2e[metric] = {"unit": unit, "reported": reported,
                       "value": best if reported == "best" else median,
                       "median": median, "best": best, "tail": highest_tail(vals),
                       "count": len(vals), "values": vals}

    probes = [inst["probe"] for inst in ok if "probe" in inst]
    probe_failed = sum(1 for p in probes if p["rc"] != 0)
    summary = {
        "workload": plan["workload"], "seed": plan["seed"], "plan": plan,
        "why": workloads.WORKLOADS[plan["workload"]],
        "attempted": attempted, "failed": failed,
        "ops_failed_frac": (failed + probe_failed) / (attempted + len(probes)),
        "probes": probes,
        "digest": digests[0] if len(digests) == 1 else None,
        "host_reference_s": [inst["ref_s"] for inst in ok],
        "instances": [{k: v for k, v in inst.items() if k != "trace"} for inst in instances],
        "end_to_end": e2e,
    }

    traced = [inst for inst in instances if _clean(inst) and inst["traced"]]
    if traced:
        per_instance = [layers.layer_metrics(inst["trace"]) for inst in traced]
        merged, errors = layers.merge(per_instance)
        problems += errors
        walls = [rep_values(plan, inst["reps"][0])["wall_s"] for inst in traced]
        base = e2e["wall_s"]["median"]
        if base:
            merged["trace.overhead_frac"] = (statistics.median(walls) / base - 1.0,
                                             "frac", "lower")
        problems += cross_check(plan, merged, traced[0]["trace"]["sites"])
        summary["per_layer"] = {name: {"value": v, "unit": u, "better": b,
                                       "computed": layers.computed(name),
                                       "target": layers.target(name)}
                                for name, (v, u, b) in merged.items()}
        summary["traced_instances"] = len(traced)
        summary["traced_sites"] = traced[0]["trace"]["sites"]
    elif any(inst["traced"] for inst in instances):
        problems.append("no traced instance finished cleanly")
    summary["problems"] = problems
    summary["correct"] = not problems
    return summary


def cross_check(plan: dict, merged: dict, sites: list) -> list:
    problems = []
    for name, want in workloads.expected_counts(plan).items():
        got = merged.get(name, (None,))[0]
        if got != want:
            problems.append(f"traced {name} = {got}, config implies {want}")
    for site in REQUIRED_SITES[plan["workload"]]:
        if site not in sites:
            problems.append(f"import site {site} was not wrapped")
    return problems


# ---------------------------------------------------------------------------
# output


def print_summary(s: dict) -> None:
    print(f"== {s['workload']} (seed {s['seed']}): {s['why']}")
    for metric, r in s["end_to_end"].items():
        tail = r["tail"]
        tail_txt = (f"p{tail['percentile']}={tail['value']:.6g}" if tail["percentile"] is not None
                    else "no percentile with 10 beyond")
        if r["count"]:
            print(f"  {metric:<22} median={r['median']:.6g} {r['unit']}  {tail_txt}  "
                  f"best={r['best']:.6g}  runs={r['count']}  reported={r['reported']}")
        else:
            print(f"  {metric:<22} no clean instance")
    print(f"  {'ops_failed_frac':<22} {s['ops_failed_frac']:.4g} frac  "
          f"(attempted {s['attempted']} timed ops + {len(s['probes'])} probes)")
    for p in s["probes"]:
        print(f"  probe {p['op']}: exit {p['rc']} {p['stderr']}")
    refs = s["host_reference_s"]
    if refs:
        print(f"  host reference: median {statistics.median(refs):.4g} s over {len(refs)} "
              f"(not a metric)")
    print(f"  output digest: {s['digest']}")
    if "per_layer" in s:
        print(f"  per-layer metrics over {s['traced_instances']} traced instances "
              f"(times are medians, counts must agree):")
    for name, r in s.get("per_layer", {}).items():
        label = " (computed)" if r["computed"] else ""
        print(f"  {name:<44} {r['value']:.6g} {r['unit']}{label}  -> {r['target']}")
    for p in s["problems"]:
        print(f"  PROBLEM: {p}")


def main() -> int:
    parser = argparse.ArgumentParser(description="dphmm benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="results file (JSON)")
    args = parser.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    needed = [spec_path, root / "src" / "dphmm" / "cli.py", root / "configs" / "golden.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"run from the root of a dphmm checkout; missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace), root)
                 for w in names]
    for s in summaries:
        print_summary(s)

    out = Path(args.out) if args.out else (
        root / ".perfbench_work" / "results"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "confirm_seed": args.seed + 1000,
                               "seconds": args.seconds, "trace": args.trace,
                               "workloads": summaries}, indent=1) + "\n")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}/"
        for m in wanted:
            if args.trace:
                r = s.get("per_layer", {}).get(m["name"])
                value = None if r is None else r["value"]
            else:
                value = s["end_to_end"][m["name"]]["value"]
            if value is not None:
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    correct = all(s["correct"] for s in summaries) and len(metrics) == len(wanted) * len(summaries)
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
