"""Batch command-line interface.

One JSON config (sections: truth, prior, gibbs, metrics, experiment,
simulate) drives every subcommand. Outputs are line-delimited records plus
a JSON manifest carrying the seeds and input digests needed to reproduce
them bit for bit; nothing in an output file depends on the clock.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Any other exception is a bug and ends in a traceback.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, metrics, modelio
from .errors import ConfigError, DataError, DphmmError, NumericalError
from .gibbs import run_chain
from .hmm import simulate as simulate_paths
from .priors import (check_entropy_finite, check_inverse_scale_integrable,
                     check_ratio_summable, DiscreteDpSpec)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError("a seed must be >= 0")
    return int(text)


def _chains(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError("need at least one chain")
    return int(text)


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out: Path, name: str, payload: dict) -> None:
    (out / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_simulate(args, cfg: modelio.RunConfig) -> int:
    n = cfg.simulate.n
    seed = cfg.simulate.seed if args.seed is None else args.seed
    truth = cfg.truth
    states, obs = simulate_paths(truth, n, seed)
    out = _outdir(args)
    modelio.write_observations(out / "observations.txt", obs)
    modelio.write_observations(out / "states.txt", states)
    _manifest(out, "simulate_manifest.json", {
        "command": "simulate", "n": n, "seed": seed,
        "truth_digest": modelio.digest(modelio.params_to_payload(truth)),
        "config_digest": cfg.config_digest(),
    })
    _say(args, f"wrote {n} observations to {out / 'observations.txt'}")
    return EXIT_OK


def cmd_fit(args, cfg: modelio.RunConfig) -> int:
    y = modelio.read_observations(args.data)
    gibbs_cfg = cfg.gibbs_config(seed=args.seed)
    out = _outdir(args)
    written = []
    for chain_id in range(args.chains):
        try:
            samples = run_chain(y, gibbs_cfg, chain_id=chain_id)
        except NumericalError:
            for path in written:
                _say(args, f"kept partial output {path}")
            raise
        path = out / f"samples_chain{chain_id}.jsonl"
        modelio.write_samples(path, samples)
        written.append(path)
        _say(args, f"chain {chain_id}: {len(samples)} samples -> {path}")
    _manifest(out, "fit_manifest.json", {
        "command": "fit", "chains": args.chains, "seed": gibbs_cfg.seed,
        "n_iter": gibbs_cfg.n_iter, "burn_in": gibbs_cfg.burn_in,
        "thin": gibbs_cfg.thin,
        "data_digest": modelio.data_digest(y),
        "config_digest": cfg.config_digest(),
    })
    return EXIT_OK


def _scored_names(cfg: modelio.RunConfig) -> list[str]:   # smoothing needs a chain's data
    return [name for name in cfg.metrics.names if name not in metrics.SMOOTHING_METRICS]


def _metric_records(sample_id, theta, truth, names, block_len):
    estimates = metrics.parameter_metrics(theta, truth, names, block_len)
    return [{"sample": sample_id, "metric": name, "l": block_len,
             "mode": "exact", "value": est.value, "stderr": est.stderr}
            for name, est in zip(names, estimates)]


def cmd_metric(args, cfg: modelio.RunConfig) -> int:
    theta = modelio.read_params(args.params)
    if theta.k != cfg.truth.k:
        raise DataError("parameter file and truth disagree on k")
    records = _metric_records(Path(args.params).stem, theta, cfg.truth,
                              _scored_names(cfg), cfg.metrics.l)
    out = _outdir(args)
    modelio.write_records(out / "metric_records.jsonl", records)
    for rec in records:
        _say(args, f"{rec['metric']}: {rec['value']:.6g}")
    _manifest(out, "metric_manifest.json", {
        "command": "metric", "params": str(args.params),
        "config_digest": cfg.config_digest(),
    })
    return EXIT_OK


def cmd_report(args, cfg: modelio.RunConfig) -> int:
    truth = cfg.truth
    names = _scored_names(cfg)
    records = []
    values = {n: [] for n in names}
    for path in args.samples:
        samples = modelio.read_samples(path)
        for s in samples:
            if s.params.k != truth.k:
                raise DataError(f"sample in {path} disagrees with truth on k")
            recs = _metric_records(f"{Path(path).stem}:{s.chain_id}:{s.iteration}",
                                   s.params, truth, names, cfg.metrics.l)
            records.extend(recs)
            for rec in recs:
                values[rec["metric"]].append(rec["value"])
    out = _outdir(args)
    modelio.write_records(out / "metric_records.jsonl", records)
    lines = []
    for name in names:
        vals = np.asarray(values[name])
        eps = cfg.metrics.epsilon.get(name)
        mass = float(np.mean(vals < eps)) if eps is not None and vals.size else None
        line = f"{name}: mean={vals.mean():.6g}" if vals.size else f"{name}: no samples"
        if mass is not None:
            line += f"  mass(<{eps})={mass:.3f}"
        lines.append(line)
        _say(args, line)
    (out / "report_summary.txt").write_text("\n".join(lines) + "\n")
    _manifest(out, "report_manifest.json", {
        "command": "report", "samples": [str(p) for p in args.samples],
        "metrics": list(names), "config_digest": cfg.config_digest(),
    })
    return EXIT_OK


def cmd_check_prior(args, cfg: modelio.RunConfig) -> int:
    if cfg.trans_prior is None:
        raise ConfigError("config needs a 'prior' section to check the prior")
    truth = cfg.truth
    feasible = bool(np.all(truth.trans.rows >= cfg.trans_prior.q_floor - 1e-12))
    rows = [("floor_feasible", "-", "holds" if feasible else "fails",
             f"q_floor={cfg.trans_prior.q_floor}")]
    if isinstance(cfg.emission_prior, DiscreteDpSpec):
        if not truth.discrete:
            raise DataError("a discrete emission prior needs a discrete truth")
        for i, emission in enumerate(truth.emissions):
            r = check_ratio_summable(emission, cfg.emission_prior.base)
            rows.append(("ratio_summable", str(i), r.verdict, r.detail))
            t = check_entropy_finite(emission)
            rows.append(("entropy_finite", str(i), t.verdict, t.detail))
    elif truth.discrete:
        raise DataError("a dpm_gaussian emission prior needs a continuous truth")
    else:
        r = check_inverse_scale_integrable(cfg.emission_prior.base)
        rows.append(("inverse_scale_integrable", "-", r.verdict, r.detail))
    out_lines = [f"{cond:<26} state={state:<3} {verdict:<13} {detail}"
                 for cond, state, verdict, detail in rows]
    for line in out_lines:
        print(line)
    if args.out:
        out = _outdir(args)
        modelio.write_records(out / "check_prior.jsonl",
                              [{"condition": c, "state": s, "verdict": v, "detail": d}
                               for c, s, v, d in rows])
    return EXIT_OK


def cmd_experiment(args, cfg: modelio.RunConfig) -> int:
    exp = cfg.experiment
    seed = exp.seed if args.seed is None else args.seed
    if exp.kind == "golden":
        report = experiments.golden_experiment(experiments.ExperimentConfig(
            truth=cfg.truth, gibbs=cfg.gibbs_config(), n_grid=exp.n_grid,
            replications=exp.replications, seed=seed, epsilons=cfg.metrics.epsilon,
            metrics=cfg.metrics.names, block_len=cfg.metrics.l,
            smoothing_block_len=exp.smoothing_block_len))
        records = report.to_records()
        lines = [f"verdict: {report.verdict}"]
        for name, curve in report.curves.items():
            pts = "  ".join(f"n={n}:{mass:.3f}" for n, mass in curve.items())
            lines.append(f"{name:<20} {pts}")
    else:
        report = experiments.kl_lemma_experiment(
            theta_star=cfg.truth, epsilon=exp.epsilon, n_grid=exp.n_grid,
            n_draws=exp.n_draws, trans_prior=cfg.trans_prior,
            emission_prior=cfg.emission_prior, seed=seed)
        records = list(report.rows)
        lines = [f"bound violations: {report.bound_violations}",
                 f"conclusion violations: {report.conclusion_violations}",
                 f"threshold 3*eps/q: {report.conclusion_threshold:.4f}"]
    out = _outdir(args)
    modelio.write_records(out / "experiment_records.jsonl", records)
    (out / "experiment_summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        _say(args, line)
    _manifest(out, "experiment_manifest.json", {
        "command": "experiment", "kind": exp.kind, "seed": seed,
        "config_digest": cfg.config_digest(),
    })
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; each ``parse_args`` call
    returns a fresh namespace."""
    parser = argparse.ArgumentParser(prog="dphmm",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, data=False, params=False, samples=False):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=_seed, default=None, help="seed override")
        if data:
            p.add_argument("--data", required=True, help="observation file")
        if params:
            p.add_argument("--params", required=True, help="parameter document")
        if samples:
            p.add_argument("--samples", nargs="+", required=True,
                           help="posterior sample files")

    common(sub.add_parser("simulate", help="draw states and observations from the truth"))
    fit = sub.add_parser("fit", help="run the Gibbs sampler on observations")
    common(fit, data=True)
    fit.add_argument("--chains", type=_chains, default=1, help="independent chains")
    common(sub.add_parser("metric", help="compare one parameter document to the truth"),
           params=True)
    common(sub.add_parser("report", help="evaluate metrics over posterior samples"),
           samples=True)
    common(sub.add_parser("check-prior", help="prior adequacy verdict table"))
    common(sub.add_parser("experiment", help="run the configured experiment"))
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "metric": cmd_metric,
    "report": cmd_report,
    "check-prior": cmd_check_prior,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args, modelio.read_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DphmmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
