"""Per-layer metrics of a traced instance, with the end-to-end metric and
workload each one is expected to move.

The layers are dphmm's modules. Counts repeat exactly between runs of one
commit; self times do not. Operation counts and bytes of the kernels are
computed from array shapes (see tracer.KERNEL_COST), not measured.
"""
from __future__ import annotations

import statistics

from tracer import KERNEL_COST, TRACED

KERNEL_TARGET = ("sweep_obs_per_s and wall_s on fit-long and golden-reduced; "
                 "no change on dpm-gaussian scoring")
SWEEP_TARGET = "sweep_obs_per_s on all three workloads"
SCORE_TARGET = "scored_samples_per_s on dpm-gaussian; no change on fit-long"
HEALTH = "health count; no end-to-end target"

# name prefix -> target; the longest matching prefix wins
TARGETS = {
    "kernels.": KERNEL_TARGET,
    "hmm.emission_matrix": SWEEP_TARGET,
    "hmm.smoothing_exact": "wall_s on golden-reduced",
    "hmm.simulate": "scored_samples_per_s on dpm-gaussian",
    "gibbs.": SWEEP_TARGET,
    "gibbs.update_mixture_emissions": "sweep_obs_per_s on dpm-gaussian only",
    "gibbs.update_discrete_emissions": "sweep_obs_per_s on golden-reduced and fit-long",
    "gibbs.run_chain": "sweep_obs_per_s on all three workloads",
    "priors.": HEALTH,
    "priors.sample_dp_discrete": "sweep_obs_per_s on golden-reduced and fit-long",
    "emissions.": SCORE_TARGET,
    "metrics.": SCORE_TARGET,
    "experiments.": "wall_s on golden-reduced (per-sample scoring glue)",
    "cli.": "wall_s on every workload",
    "modelio.": "wall_s on fit-long",
    "trace.": "none: tracing cost, not program cost",
}

ROW_METHODS = ("degenerate", "affine_exact", "rejection", "affine_fallback")
EXACT_METHODS = ("degenerate", "affine_exact", "rejection")
CLI_COMMANDS = ("simulate", "fit", "report", "experiment")


def target(name: str) -> str:
    best = max((p for p in TARGETS if name.startswith(p)), key=len, default=None)
    return TARGETS[best] if best else HEALTH


def computed(name: str) -> bool:
    """Kernel operation counts and bytes are computed from shapes, not measured."""
    return name.startswith("kernels.") and name.endswith((".flops", ".bytes"))


def _caller_layer(caller: str) -> str:
    if caller.startswith("gibbs."):
        return "gibbs"
    if caller == "hmm.smoothing_exact":
        return "smoothing"
    return "other"


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of a nonempty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(trace: dict) -> dict:
    """Every per-layer metric of one traced instance: name -> (value, unit, better)."""
    calls, self_s, counters = trace["calls"], trace["self_s"], trace["counters"]
    out = {}
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        out[f"{name}.calls"] = (calls.get(name, 0), "count", "lower")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s", "lower")
    for name in KERNEL_COST:
        steps = counters.get(f"{name}.steps", 0)
        out[f"{name}.steps"] = (int(steps), "count", "lower")
        out[f"{name}.flops"] = (int(counters.get(f"{name}.flops", 0)), "flop", "lower")
        out[f"{name}.bytes"] = (int(counters.get(f"{name}.bytes", 0)), "B", "lower")
        out[f"{name}.ns_per_step"] = (self_s.get(name, 0.0) / steps * 1e9 if steps else 0.0,
                                      "ns", "lower")
        split = {"gibbs": 0.0, "smoothing": 0.0, "other": 0.0}
        for key, value in trace["self_by_caller"].items():
            callee, caller = key.split("|", 1)
            if callee == name:
                split[_caller_layer(caller)] += value
        for layer, value in split.items():
            out[f"{name}.self_s.{layer}"] = (value, "s", "lower")
    sweeps_ms = [s * 1e3 for s in trace["sweep_s"]] or [0.0]
    out["gibbs.gibbs_sweep.p50_ms"] = (percentile(sweeps_ms, 50), "ms", "lower")
    out["gibbs.gibbs_sweep.p99_ms"] = (percentile(sweeps_ms, 99), "ms", "lower")
    out["gibbs.emission_update.self_s"] = (
        self_s.get("gibbs.update_discrete_emissions", 0.0)
        + self_s.get("gibbs.update_mixture_emissions", 0.0), "s", "lower")
    draws = {m: int(counters.get(f"priors.row_draws.{m}", 0)) for m in ROW_METHODS}
    for method, count in draws.items():
        out[f"priors.row_draws.{method}"] = (
            count, "count", "higher" if method in EXACT_METHODS else "lower")
    total = sum(draws.values())
    out["priors.row_draws.exact_frac"] = (
        sum(draws[m] for m in EXACT_METHODS) / total if total else 1.0, "frac", "higher")
    blocks = counters.get("metrics.mc_blocks", 0)
    out["metrics.mc_blocks"] = (int(blocks), "count", "lower")
    out["metrics.us_per_mc_block"] = (
        counters.get("metrics.mc_s", 0.0) / blocks * 1e6 if blocks else 0.0, "us", "lower")
    out["experiments.cells"] = (
        trace["calls_by_caller"].get("gibbs.run_chain|experiments.golden_experiment", 0),
        "count", "lower")
    for command in CLI_COMMANDS:
        name = f"cli.{command}"
        out[f"{name}.wall_s"] = (trace["total_s"].get(name, 0.0), "s", "lower")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s", "lower")
    out["cli.wall_s"] = (sum(trace["total_s"].get(f"cli.{c}", 0.0) for c in CLI_COMMANDS),
                         "s", "lower")
    out["cli.self_s"] = (sum(self_s.get(f"cli.{c}", 0.0) for c in CLI_COMMANDS), "s", "lower")
    for name in ("modelio.write_samples", "modelio.read_samples"):
        out[f"{name}.bytes"] = (int(counters.get(f"{name}.bytes", 0)), "B", "lower")
    return out


def merge(per_instance: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time over traced instances; counts must agree exactly."""
    merged, errors = {}, []
    for name, (value, unit, better) in per_instance[0].items():
        values = [m[name][0] for m in per_instance]
        if isinstance(value, int):
            if len(set(values)) != 1:
                errors.append(f"count {name} differs between traced instances: {values}")
            merged[name] = (value, unit, better)
        else:
            merged[name] = (statistics.median(values), unit, better)
    return merged, errors
