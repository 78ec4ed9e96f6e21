"""One benchmark instance: a fresh process that runs a workload's commands.

Run by run.py as

    python3 perfbench/instance.py --root <checkout> --plan <plan.json> \
        --out <instance dir> [--rep-seconds S] [--trace] [--probe]

It imports dphmm from <checkout>/src and times that set-up, then repeats
the workload's timed operations, timing each repetition, until S seconds
have passed (once when S is 0), and prints one JSON object as its last
line of standard output. Repetition r writes to
<instance dir>/out/rep<r>, the working directory of its commands, so that
the relative paths recorded in manifests do not depend on where the
checkout lives.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def pin_to_fastest_cpu() -> dict:
    """Pin this process to the allowed CPU that runs a short spin loop fastest.

    On a shared host each CPU runs at times about 1.6 times slower while
    another tenant shares its core, independently of the other CPUs and for
    spans of a fraction of a second to minutes. Starting each repetition on
    the currently faster CPU makes it less likely to run slow.
    """
    speed = {}
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            sum(i * i for i in range(20_000))
            best = min(best, time.perf_counter() - t0)
        speed[cpu] = best
    cpu = min(speed, key=speed.get)
    os.sched_setaffinity(0, {cpu})
    return {"cpu": cpu, "probe_s": speed}


CPU = pin_to_fastest_cpu()
T_START = time.perf_counter()


def reference_seconds() -> float:
    """Time a fixed single-threaded computation that does not use dphmm,
    to record host drift beside each instance."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.default_rng(0).random((2000, 4))
    q = np.full((4, 4), 0.25)
    for t in range(1, a.shape[0]):
        row = (a[t - 1] @ q) * a[t]
        a[t] = row / row.sum()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--rep-seconds", type=float, default=0.0)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    plan = json.loads(Path(args.plan).read_text())
    plan["config"] = str(root / plan["config"])

    # set-up: import the CLI from the checkout and parse the workload config
    sys.path.insert(0, str(root / "src"))
    import dphmm.cli as cli
    from dphmm import metrics, modelio

    if Path(cli.__file__).resolve().parent != root / "src" / "dphmm":
        raise SystemExit(f"dphmm imported from {cli.__file__}, not from {root / 'src'}")
    modelio.read_config(plan["config"])
    setup_s = time.perf_counter() - T_START

    ref_s = reference_seconds()

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.span
    else:
        span = lambda name: contextlib.nullcontext()  # noqa: E731

    config = plan["config"]
    workload = plan["workload"]
    samples = [f"samples_chain{c}.jsonl" for c in range(plan["chains"])]

    def run_once(outdir: Path) -> dict:
        outdir.mkdir(parents=True, exist_ok=True)
        os.chdir(outdir)
        rep = {"ops": [], "cpu": pin_to_fastest_cpu()}
        ops = rep["ops"]

        def command(name, *argv):
            with span(f"cli.{name}"):
                t0 = time.perf_counter()
                rc = cli.main(["--quiet", name, "--config", config, *argv])
                ops.append({"op": name, "rc": rc, "wall_s": time.perf_counter() - t0})
            return rc == 0

        if workload == "golden-reduced":
            command("experiment", "--out", ".")
        elif command("simulate", "--out", ".") and command(
                "fit", "--data", "observations.txt", "--out", ".",
                "--chains", str(plan["chains"])):
            if workload == "fit-long":
                command("report", "--samples", *samples, "--out", ".")
            else:
                rep["scores"] = score_samples(plan, modelio, metrics, samples, span, ops)
        return rep

    result = {"setup_s": setup_s, "ref_s": ref_s, "cpu": CPU, "reps": []}
    t0 = time.perf_counter()
    while not result["reps"] or time.perf_counter() - t0 < args.rep_seconds:
        result["reps"].append(run_once(Path(args.out, "out", f"rep{len(result['reps'])}")))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.probe and workload == "dpm-gaussian" and "scores" in result["reps"][-1]:
        result["probe"] = report_probe(cli, config, samples, Path(args.out, "probe"))
    if tracer is not None:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_time),
            "total_s": dict(tracer.total),
            "self_by_caller": {f"{n}|{c}": v for (n, c), v in tracer.self_by_caller.items()},
            "calls_by_caller": {f"{n}|{c}": v for (n, c), v in tracer.calls_by_caller.items()},
            "counters": dict(tracer.counters),
            "sweep_s": tracer.sweep_s,
            "sites": tracer.sites,
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def score_samples(plan, modelio, metrics, samples, span, ops):
    """Monte Carlo block-L1 and label alignment of every retained sample,
    called through the public metrics functions, timed as one operation."""
    truth = modelio.read_config(plan["config"]).truth
    scores = []
    with span("score"):
        t0 = time.perf_counter()
        posterior = [s for path in samples for s in modelio.read_samples(path)]
        for i, s in enumerate(posterior):
            seed = [plan["score_seed"], i]
            est = metrics.block_l1_distance(s.params, truth, plan["block_len"],
                                            mode="montecarlo",
                                            n_samples=plan["block_samples"], seed=seed)
            align = metrics.align_labels(s.params, truth,
                                         n_samples=plan["align_samples"], seed=seed)
            scores.append({"iteration": s.iteration, "block_l1": est.value,
                           "block_l1_stderr": est.stderr, "sigma": list(align.sigma),
                           "q_distance": align.q_distance,
                           "emission_distances": align.emission_distances.tolist()})
        wall = time.perf_counter() - t0
    ops.append({"op": "score", "rc": 0, "wall_s": wall, "count": len(scores)})
    Path("scores.json").write_text(json.dumps(scores, sort_keys=True) + "\n")
    return scores


def report_probe(cli, config, samples, outdir):
    """Untimed `dphmm report` on the mixture samples, outside the digested set."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["--quiet", "report", "--config", config, "--samples",
                       *samples, "--out", str(outdir)])
    return {"op": "report", "rc": rc, "stderr": err.getvalue().strip()}


if __name__ == "__main__":
    sys.exit(main())
