"""The three workloads: their inputs, the counts their configs imply, and
the checks their outputs must pass.

Every input is generated from the benchmark seed; the program only sees the
files written here. Sizes are chosen so that one repetition of a workload's
timed operations takes about half a second to a second on a 2-core
machine: short repetitions often run through a stretch in which the host
gives the CPU at full speed, so a run's best repetition is steady.
"""
from __future__ import annotations

import json
import math
from itertools import permutations
from pathlib import Path

import numpy as np

WORKLOADS = {
    "golden-reduced": "the paper's headline k=2 experiment on the golden grid, "
                      "cut to a short chain: kernels, lockstep cells and "
                      "per-sample scoring with exact smoothing",
    "fit-long": "one long k=4 discrete sequence fitted by two chains, then "
                "reported: kernels dominate, sample files are large, metrics "
                "do almost nothing",
    "dpm-gaussian": "the nonparametric DP Gaussian mixture family: the only "
                    "mixture emission update and the only Monte Carlo scoring",
}

# golden-reduced: truth, prior, radii and grid come from configs/golden.json.
GOLDEN_CHAIN = {"n_iter": 8, "burn_in": 4, "thin": 2}
GOLDEN_REPLICATIONS = 2

# fit-long
LONG_K, LONG_SUPPORT, LONG_FLOOR, LONG_SYMBOL_FLOOR = 4, 6, 0.05, 0.02
LONG_N, LONG_CHAINS = 20000, 2
LONG_CHAIN = {"n_iter": 2, "burn_in": 0, "thin": 1}

# dpm-gaussian
DPM_FLOOR, DPM_N, DPM_TRUNCATION = 0.15, 1000, 20
DPM_CHAIN = {"n_iter": 20, "burn_in": 10, "thin": 5}
DPM_BLOCK_SAMPLES = 2000      # Monte Carlo blocks per block-L1 estimate
DPM_ALIGN_SAMPLES = 20000     # Monte Carlo draws per emission L1 estimate
BLOCK_LEN = 3

CHECK_TOL = 1e-12


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, 0x5EED]).integers(0, 2 ** 31, count)]


def _samples_per_chain(chain: dict) -> int:
    return (chain["n_iter"] - chain["burn_in"]) // chain["thin"]


def make_inputs(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the workload's config to workdir; return the plan the instances run.
    Paths in the plan are relative to the checkout root."""
    rng = np.random.default_rng([seed, 1])
    s_sim, s_chain, s_exp, s_score = _seeds(seed, 4)
    if workload == "golden-reduced":
        cfg = json.loads((root / "configs" / "golden.json").read_text())
        cfg["gibbs"] = {**GOLDEN_CHAIN, "seed": s_chain}
        cfg["experiment"] = {**cfg["experiment"], "replications": GOLDEN_REPLICATIONS,
                             "seed": s_exp}
        plan = {"chain": GOLDEN_CHAIN, "chains": 1,
                "n_grid": cfg["experiment"]["n_grid"],
                "replications": GOLDEN_REPLICATIONS, "k": cfg["truth"]["k"]}
    elif workload == "fit-long":
        k, S, q = LONG_K, LONG_SUPPORT, LONG_FLOOR
        rows = q + (1.0 - k * q) * rng.dirichlet(np.full(k, 2.0), size=k)
        pmfs = LONG_SYMBOL_FLOOR + (1.0 - S * LONG_SYMBOL_FLOOR) * rng.dirichlet(np.ones(S), size=k)
        cfg = {
            "truth": {"k": k, "q_floor": q, "Q": rows.ravel().tolist(), "mu": "stationary",
                      "emissions": [{"family": "discrete", "pmf": p.tolist()} for p in pmfs]},
            "prior": {"transitions": {"alpha": [1.0] * k, "q_floor": q},
                      "emissions": {"family": "discrete", "alpha": 2.0, "base": [1.0 / S] * S}},
            "gibbs": {**LONG_CHAIN, "seed": s_chain},
            "metrics": {"l": BLOCK_LEN},
            "simulate": {"n": LONG_N, "seed": s_sim},
        }
        plan = {"chain": LONG_CHAIN, "chains": LONG_CHAINS, "n": LONG_N, "k": k}
    elif workload == "dpm-gaussian":
        k, q = 2, DPM_FLOOR
        # Q is fixed: the per-block cost of Monte Carlo scoring grows with the
        # number of state switches, so a seeded Q would make cost vary by seed.
        rows = np.array([[0.7, 0.3], [0.3, 0.7]])
        emissions = []
        for centre in (-2.0, 1.5):
            w = rng.uniform(0.3, 0.7)
            loc = centre + rng.uniform(-0.5, 0.5)
            emissions.append({"family": "gaussian_mixture", "weights": [w, 1.0 - w],
                              "locations": [loc, loc + rng.uniform(1.0, 1.5)],
                              "scales": rng.uniform(0.5, 0.9, size=2).tolist()})
        cfg = {
            "truth": {"k": k, "q_floor": q, "Q": rows.ravel().tolist(), "mu": "stationary",
                      "emissions": emissions},
            "prior": {"transitions": {"alpha": [1.0] * k, "q_floor": q},
                      "emissions": {"family": "dpm_gaussian", "alpha": 1.0,
                                    "truncation": DPM_TRUNCATION,
                                    "base": {"loc": 0.0, "loc_count": 0.1,
                                             "shape": 2.0, "scale": 1.0}}},
            "gibbs": {**DPM_CHAIN, "seed": s_chain},
            "metrics": {"l": BLOCK_LEN},
            "simulate": {"n": DPM_N, "seed": s_sim},
        }
        plan = {"chain": DPM_CHAIN, "chains": 1, "n": DPM_N, "k": k,
                "block_samples": DPM_BLOCK_SAMPLES, "align_samples": DPM_ALIGN_SAMPLES,
                "block_len": BLOCK_LEN, "score_seed": s_score}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    config = workdir / "config.json"
    config.write_text(json.dumps(cfg, indent=1) + "\n")
    return {"workload": workload, "seed": seed, "config": str(config.relative_to(root)),
            **plan}


# ---------------------------------------------------------------------------
# counts a traced instance must reproduce exactly


def expected_counts(plan: dict) -> dict:
    chain = plan["chain"]
    spc = _samples_per_chain(chain)
    k = plan["k"]
    if plan["workload"] == "golden-reduced":
        cells = len(plan["n_grid"]) * plan["replications"]
        sweeps = cells * chain["n_iter"]
        smoothing = cells * (spc + 1)          # each sample plus the truth
        steps_sweep = plan["replications"] * chain["n_iter"] * sum(plan["n_grid"])
        steps_smooth = plan["replications"] * (spc + 1) * sum(plan["n_grid"])
        return {
            "experiments.cells": cells,
            "gibbs.run_chain.calls": cells,
            "gibbs.gibbs_sweep.calls": sweeps,
            "gibbs.update_discrete_emissions.calls": sweeps + cells,
            "priors.sample_transition_row.calls": k * (sweeps + cells),
            "hmm.simulate.calls": cells,
            "hmm.smoothing_exact.calls": smoothing,
            "kernels.ffbs.calls": sweeps,
            "kernels.forward_filter.calls": sweeps + smoothing,
            "kernels.backward_messages.calls": smoothing,
            "kernels.forward_filter.steps": steps_sweep + steps_smooth,
            "kernels.backward_messages.steps": steps_smooth,
            "metrics.align_labels.calls": cells * spc,
            "metrics.block_l1_distance.calls": cells * spc,
            "emissions.l1_distance.calls": cells * spc * math.factorial(k) * k,
        }
    chains = plan["chains"]
    sweeps = chains * chain["n_iter"]
    samples = chains * spc
    counts = {
        "gibbs.run_chain.calls": chains,
        "gibbs.gibbs_sweep.calls": sweeps,
        "priors.sample_transition_row.calls": k * (sweeps + chains),
        "kernels.ffbs.calls": sweeps,
        "kernels.forward_filter.calls": sweeps,
        "kernels.forward_filter.steps": sweeps * plan["n"],
        "kernels.backward_messages.calls": 0,
        "hmm.smoothing_exact.calls": 0,
        "modelio.write_samples.calls": chains,
        "modelio.read_samples.calls": chains,
        "metrics.align_labels.calls": samples,
        "metrics.block_l1_distance.calls": samples,
        "emissions.l1_distance.calls": samples * math.factorial(k) * k,
        "experiments.cells": 0,
    }
    if plan["workload"] == "fit-long":
        counts["hmm.simulate.calls"] = 1
        counts["gibbs.update_discrete_emissions.calls"] = sweeps + chains
    else:
        counts["hmm.simulate.calls"] = 1 + samples * plan["block_samples"]
        counts["metrics.mc_blocks"] = samples * plan["block_samples"]
        counts["gibbs.update_mixture_emissions.calls"] = sweeps + chains
    return counts


# ---------------------------------------------------------------------------
# output checks


def _check_params(doc: dict, k: int, where: str) -> list[str]:
    errors = []
    Q = np.asarray(doc["Q"], dtype=np.float64).reshape(k, k)
    floor = float(doc["q_floor"])
    if np.any(Q < floor - CHECK_TOL):
        errors.append(f"{where}: a Q entry falls below q_floor {floor}")
    if np.any(np.abs(Q.sum(axis=1) - 1.0) > CHECK_TOL):
        errors.append(f"{where}: a Q row does not sum to 1 within {CHECK_TOL}")
    if doc["k"] != k or len(doc["emissions"]) != k:
        errors.append(f"{where}: k disagrees with the truth")
    return errors


def check_sample_file(path: Path, plan: dict) -> list[str]:
    """Sample count per chain, Q rows and state range of one samples file."""
    if not path.exists():
        return [f"{path.name}: missing"]
    records = [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]
    errors = []
    want = _samples_per_chain(plan["chain"])
    if len(records) != want:
        errors.append(f"{path.name}: {len(records)} samples, expected {want}")
    k = plan["k"]
    for rec in records:
        where = f"{path.name}@{rec['iteration']}"
        errors += _check_params(rec["params"], k, where)
        states = np.asarray(rec["states"])
        if states.size != plan["n"] or states.min() < 0 or states.max() >= k:
            errors.append(f"{where}: states outside [0, {k}) or of the wrong length")
    return errors


def check_observations(path: Path, plan: dict, states: bool) -> list[str]:
    """Length of a simulated observation or state file; states lie in [0, k)."""
    if not path.exists():
        return [f"{path.name}: missing"]
    values = [ln for ln in path.read_text().splitlines() if ln.strip()]
    errors = []
    if len(values) != plan["n"]:
        errors.append(f"{path.name}: {len(values)} lines, expected {plan['n']}")
    if states and not all(0 <= int(v) < plan["k"] for v in values):
        errors.append(f"{path.name}: a state outside [0, {plan['k']})")
    return errors


def check_report(path: Path, plan: dict) -> list[str]:
    """Every posterior sample has finite, nonnegative metric records."""
    if not path.exists():
        return [f"{path.name}: missing"]
    records = [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]
    samples = {r["sample"] for r in records}
    want = plan["chains"] * _samples_per_chain(plan["chain"])
    errors = []
    if len(samples) != want:
        errors.append(f"{path.name}: {len(samples)} samples, expected {want}")
    if not all(math.isfinite(r["value"]) and r["value"] >= 0.0 for r in records):
        errors.append(f"{path.name}: a metric value is negative or not finite")
    return errors


def check_experiment(outdir: Path, plan: dict) -> list[str]:
    """Masses in [0, 1]; every grid cell present with the expected sample count."""
    path = outdir / "experiment_records.jsonl"
    if not path.exists():
        return ["experiment_records.jsonl: missing"]
    want = _samples_per_chain(plan["chain"])
    cells = set()
    errors = []
    for ln in path.read_text().splitlines():
        rec = json.loads(ln)
        if not 0.0 <= rec["mass"] <= 1.0:
            errors.append(f"mass {rec['mass']} of {rec['metric']} outside [0, 1]")
        if rec.get("aggregate"):
            continue
        cells.add((rec["n"], rec["replication"]))
        if rec["n_samples"] != want:
            errors.append(f"cell n={rec['n']}: n_samples {rec['n_samples']}, expected {want}")
    expected = {(n, r) for n in plan["n_grid"] for r in range(plan["replications"])}
    if cells != expected:
        errors.append(f"experiment cells {sorted(cells)} differ from {sorted(expected)}")
    return errors


def check_scores(scores: list, plan: dict) -> list[str]:
    """Monte Carlo block-L1 estimates and alignments of the dpm workload."""
    errors = []
    want = plan["chains"] * _samples_per_chain(plan["chain"])
    if len(scores) != want:
        errors.append(f"{len(scores)} samples scored, expected {want}")
    perms = {tuple(p) for p in permutations(range(plan["k"]))}
    for s in scores:
        if not (math.isfinite(s["block_l1"]) and 0.0 <= s["block_l1"] <= 2.0):
            errors.append(f"sample {s['iteration']}: block-L1 {s['block_l1']} not in [0, 2]")
        if not (math.isfinite(s["block_l1_stderr"]) and s["block_l1_stderr"] > 0.0):
            errors.append(f"sample {s['iteration']}: block-L1 stderr "
                          f"{s['block_l1_stderr']} not > 0")
        if tuple(s["sigma"]) not in perms or not all(
                math.isfinite(d) for d in s["emission_distances"] + [s["q_distance"]]):
            errors.append(f"sample {s['iteration']}: alignment not a finite permutation result")
    return errors
