"""The command-line interface end to end on a tiny golden-truth config:
records equal direct library calls, and each failure exits with its code."""
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from dphmm import (DiscreteEmission, HmmParams, TransitionMatrix, cli, experiments,
                   metrics, modelio, stationary_distribution)
from tests.conftest import brute_force_path_probs

NAMES = ["block_l1", "aligned_q", "aligned_emission", "weak_gap:ind_0_1"]

GOLDEN = {
    "truth": {"k": 2, "q_floor": 0.15, "Q": [0.7, 0.3, 0.4, 0.6], "mu": "stationary",
              "emissions": [{"family": "discrete", "pmf": [0.9, 0.1]},
                            {"family": "discrete", "pmf": [0.2, 0.8]}]},
    "prior": {"transitions": {"alpha": [1.0, 1.0], "q_floor": 0.15},
              "emissions": {"family": "discrete", "alpha": 2.0, "base": [0.5, 0.5]}},
    "gibbs": {"n_iter": 30, "burn_in": 10, "thin": 5, "seed": 1},
    "metrics": {"l": 3, "names": NAMES},
    "simulate": {"n": 60, "seed": 3},
}

GAUSSIAN = {
    **GOLDEN,
    "truth": {"k": 2, "q_floor": 0.15, "Q": [0.7, 0.3, 0.4, 0.6], "mu": "stationary",
              "emissions": [{"family": "gaussian_mixture", "weights": [1.0],
                             "locations": [-1.0], "scales": [1.0]},
                            {"family": "gaussian_mixture", "weights": [1.0],
                             "locations": [1.0], "scales": [1.0]}]},
    "prior": {"transitions": {"alpha": [1.0, 1.0], "q_floor": 0.15},
              "emissions": {"family": "dpm_gaussian", "alpha": 1.0, "truncation": 5,
                            "base": {"loc": 0.0, "loc_count": 0.1, "shape": 2.0,
                                     "scale": 1.0}}},
    "gibbs": {"n_iter": 6, "burn_in": 2, "thin": 2, "seed": 1},
    "metrics": {"l": 3},
}


def _config(tmp_path, payload, **metrics_section):
    payload = {**payload, "metrics": {**payload["metrics"], **metrics_section}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _run(*argv):
    return cli.main(["--quiet", *map(str, argv)])


def _fit(tmp_path, config, chains=2):
    assert _run("simulate", "--config", config, "--out", tmp_path) == 0
    assert _run("fit", "--config", config, "--data", tmp_path / "observations.txt",
                "--chains", chains, "--out", tmp_path) == 0
    return sorted(tmp_path.glob("samples_chain*.jsonl"))


def _records(out):
    return [json.loads(ln) for ln in (out / "metric_records.jsonl").read_text().splitlines()]


def test_report_records_equal_direct_metric_calls(tmp_path):
    config = _config(tmp_path, GOLDEN)
    samples = _fit(tmp_path, config)
    out = tmp_path / "report"
    assert _run("report", "--config", config, "--samples", *samples, "--out", out) == 0
    truth = modelio.read_config(config).truth
    expect = []
    for path in samples:
        for s in modelio.read_samples(path):
            align = metrics.align_labels(s.params, truth)
            direct = {
                "block_l1": metrics.block_l1_distance(s.params, truth, 3).value,
                "aligned_q": align.q_distance,
                "aligned_emission": float(align.emission_distances.max()),
                "weak_gap:ind_0_1": metrics.weak_functional_gap(s.params, truth, 3,
                                                                "ind_0_1").value,
            }
            expect += [{"sample": f"{path.stem}:{s.chain_id}:{s.iteration}",
                        "metric": name, "l": 3, "mode": "exact",
                        "value": direct[name], "stderr": 0.0} for name in NAMES]
    assert len(expect) == 2 * 4 * len(NAMES)
    assert _records(out) == expect
    summary = (out / "report_summary.txt").read_text().splitlines()
    assert [ln.split(":")[0] for ln in summary] == ["block_l1", "aligned_q",
                                                    "aligned_emission", "weak_gap"]


def test_report_on_the_golden_config_scores_its_parameter_names(tmp_path):
    # the golden config lists the smoothing metrics too; report skips them
    samples = _fit(tmp_path, _config(tmp_path, GOLDEN), chains=1)
    payload = json.loads(GOLDEN_CONFIG.read_text())
    three = tmp_path / "three.json"
    three.write_text(json.dumps({**payload, "metrics": {
        **payload["metrics"], "names": ["block_l1", "aligned_q", "aligned_emission"]}}))
    outs = []
    for config in (GOLDEN_CONFIG, three):
        out = tmp_path / config.stem
        assert _run("report", "--config", config, "--samples", *samples, "--out", out) == 0
        manifest = json.loads((out / "report_manifest.json").read_text())
        assert manifest["metrics"] == ["block_l1", "aligned_q", "aligned_emission"]
        outs.append([(out / name).read_text()
                     for name in ("metric_records.jsonl", "report_summary.txt")])
    assert outs[0] == outs[1]
    assert len(outs[0][0].splitlines()) == 4 * 3


def test_metric_on_the_truth_is_zero(tmp_path):
    config = _config(tmp_path, GOLDEN)
    params = tmp_path / "truth.json"
    modelio.write_params(params, modelio.read_config(config).truth)
    assert _run("metric", "--config", config, "--params", params, "--out", tmp_path) == 0
    records = _records(tmp_path)
    assert [r["metric"] for r in records] == NAMES
    assert all(r["value"] == 0.0 and r["stderr"] == 0.0 and r["mode"] == "exact"
               for r in records)


# the continuous test functions, each written out, on the symbol they read
SMOOTH_TESTS = {"weak_gap:sigmoid_0_0.5": lambda block: 1.0 / (1.0 + np.exp(0.5 - block[0])),
                "weak_gap:gauss_1_1.0": lambda block: np.exp(-0.5 * (block[1] - 1.0) ** 2)}


def _block_expectation(params, h, block_len=3, support=2):
    """E h over the stationary law of ``block_len`` observations: a sum over
    every symbol block of h times the block's probability, itself a sum over
    every hidden path."""
    start = params.with_mu(stationary_distribution(params.trans))
    return sum(h(block) * brute_force_path_probs(start, block)[1].sum()
               for block in itertools.product(range(support), repeat=block_len))


def test_smooth_test_functions_score_exactly_in_metric_and_report(tmp_path):
    names = list(SMOOTH_TESTS)
    config = _config(tmp_path, GOLDEN, names=names)
    truth = modelio.read_config(config).truth
    theta = HmmParams(TransitionMatrix(np.array([[0.6, 0.4], [0.25, 0.75]]), 0.15),
                      np.array([0.5, 0.5]), (DiscreteEmission(np.array([0.7, 0.3])),
                                             DiscreteEmission(np.array([0.35, 0.65]))))
    params = tmp_path / "theta.json"
    modelio.write_params(params, theta)
    assert _run("metric", "--config", config, "--params", params, "--out", tmp_path) == 0
    out = tmp_path / "report"
    samples = _fit(tmp_path, config, chains=1)
    assert _run("report", "--config", config, "--samples", *samples, "--out", out) == 0
    report, m = _records(out), len(names)
    scored = [(theta, _records(tmp_path))]
    scored += [(s.params, report[m * i:m * (i + 1)])
               for i, s in enumerate(modelio.read_samples(samples[0]))]
    assert len(scored) == 5
    for params, records in scored:
        assert [r["metric"] for r in records] == names
        for name, record in zip(names, records):
            h = SMOOTH_TESTS[name]
            brute = abs(_block_expectation(params, h) - _block_expectation(truth, h))
            assert record["value"] == pytest.approx(brute, rel=0.0, abs=1e-12)
    for name, record in zip(names, scored[0][1]):
        assert record["value"] > 0.01
        mc = metrics.weak_functional_gap(theta, truth, 3, name.split(":", 1)[1],
                                         mode="montecarlo", n_samples=10_000, seed=0)
        assert abs(mc.value - record["value"]) <= 4 * mc.stderr


def test_unknown_metric_name_exits_2(tmp_path, capsys):
    config = _config(tmp_path, GOLDEN, names=["block_l1", "mystery"])
    params = tmp_path / "truth.json"
    modelio.write_params(params, modelio.params_from_payload(GOLDEN["truth"]))
    assert _run("metric", "--config", config, "--params", params, "--out", tmp_path) == 2
    assert "unknown metric 'mystery'" in capsys.readouterr().err


def test_repeated_metric_name_exits_2_without_records(tmp_path, capsys):
    samples = _fit(tmp_path, _config(tmp_path, GOLDEN), chains=1)
    config = _config(tmp_path, GOLDEN, names=["aligned_q", "block_l1", "aligned_q"])
    out = tmp_path / "report"
    assert _run("report", "--config", config, "--samples", *samples, "--out", out) == 2
    assert "unique" in capsys.readouterr().err
    assert not (out / "metric_records.jsonl").exists()


def test_parameter_file_with_other_k_exits_3(tmp_path):
    config = _config(tmp_path, GOLDEN)
    three = HmmParams(TransitionMatrix(np.full((3, 3), 1.0 / 3.0), 0.1),
                      np.full(3, 1.0 / 3.0),
                      tuple(DiscreteEmission(np.array([0.5, 0.5])) for _ in range(3)))
    params = tmp_path / "three.json"
    modelio.write_params(params, three)
    assert _run("metric", "--config", config, "--params", params, "--out", tmp_path) == 3


def test_report_on_gaussian_mixture_samples_exits_3(tmp_path, capsys):
    # Metrics are exact only; Monte Carlo scoring is not wired into the CLI.
    config = _config(tmp_path, GAUSSIAN)
    samples = _fit(tmp_path, config, chains=1)
    assert _run("report", "--config", config, "--samples", *samples,
                "--out", tmp_path / "report") == 3
    assert "discrete emissions" in capsys.readouterr().err


def test_aligned_metrics_on_gaussian_mixtures_exit_3(tmp_path, capsys):
    # exact mode only: the alignment of continuous emissions is not scored
    config = _config(tmp_path, GAUSSIAN, names=["aligned_q", "aligned_emission"])
    params = tmp_path / "truth.json"
    modelio.write_params(params, modelio.read_config(config).truth)
    assert _run("metric", "--config", config, "--params", params, "--out", tmp_path) == 3
    assert "discrete emissions" in capsys.readouterr().err
    assert not (tmp_path / "metric_records.jsonl").exists()


# (command, config keys changed by section): each change makes the config bad
BAD_CONFIGS = [
    ("simulate", {"simulate": {"n": 0}}),
    ("simulate", {"simulate": {"n": "abc"}}),
    ("experiment", {"gibbs": {"n_iter": 30, "burn_in": 30}}),
    ("experiment", {"gibbs": {"mu": [0.9, 0.9]}}),
    ("experiment", {"experiment": {"replications": "x"}}),
    ("experiment", {"metrics": {"l": 0}}),
    ("experiment", {"metrics": {"l": 40}}),
    ("experiment", {"experiment": {"n_grid": [2, 5], "smoothing_block_len": 3}}),
    ("experiment", {"experiment": {"kind": "kl", "n_draws": 0}}),
    ("experiment", {"experiment": {"kind": "kl", "n_grid": [0]}}),
    ("experiment", {"experiment": {"kind": "nope"}}),
    ("metric", {"metrics": {"names": ["weak_gap:foo"]}}),
    ("simulate", {"metrics": {"names": ["bogus", "weak_gap:ind_7_1"]}}),
    ("simulate", {"metrics": {"names": ["weak_gap:ind_3_1"]}}),
    ("check-prior", {"metrics": {"names": ["weak_gap:ind_7_1"]}}),
    ("check-prior", {"metrics": {"names": ["weak_gap:gauss_0_x"]}}),
    ("report", {"metrics": {"names": ["bogus"]}}),
    ("report", {"metrics": {"names": ["block_l1", "weak_gap:const", "block_l1"]}}),
    ("simulate", {"truth": {"q_floor": 0.0, "Q": [1.0, 0.0, 0.0, 1.0]}}),
    ("report", {"metrics": {"epsilon": {"blockl1": 0.2}}}),
]


def _bad_config(tmp_path, changes):
    payload = {**GOLDEN, **{section: {**GOLDEN.get(section, {}), **values}
                            for section, values in changes.items()}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("command, changes", BAD_CONFIGS)
def test_bad_config_value_exits_2_before_any_output(tmp_path, capsys, command, changes):
    config = _bad_config(tmp_path, changes)
    params = tmp_path / "truth.json"
    modelio.write_params(params, modelio.params_from_payload(GOLDEN["truth"]))
    empty = tmp_path / "samples_chain0.jsonl"
    empty.write_text("")
    extra = {"metric": ["--params", params], "report": ["--samples", empty]}.get(command, [])
    out = tmp_path / "out"
    assert _run(command, "--config", config, *extra, "--out", out) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""
    assert not [path for path in out.rglob("*") if path.is_file()]


def test_bad_block_length_fails_before_any_chain(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "run_chain", lambda *a, **kw: calls.append(a))
    config = _bad_config(tmp_path, {"metrics": {"l": 0}})
    assert _run("experiment", "--config", config, "--out", tmp_path) == 2
    assert calls == []


def test_missing_radius_fails_before_any_chain(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "run_chain", lambda *a, **kw: calls.append(a) or [])
    payload = json.loads(GOLDEN_CONFIG.read_text())
    del payload["metrics"]["epsilon"]["smoothing_aligned"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    assert _run("experiment", "--config", config, "--out", tmp_path / "out") == 2
    assert "no radius configured for metric 'smoothing_aligned'" in capsys.readouterr().err
    assert calls == []


# the replacement of each former kind, as the kind's error names it
RETIRED = ('(former kinds: consistency is kind golden with metrics.names '
           '["block_l1", "aligned_q", "aligned_emission"]; smoothing is kind golden '
           'with metrics.names ["smoothing_aligned", "smoothing_unaligned"]; ldir is the '
           'test oracle tests/dp_oracles.py, run by the '
           'tests/test_experiments.py::test_dp_moment_check_* tests), got ')

# a k = 9 truth and its prior: one state more than the alignment search takes
K9 = {"truth": {"k": 9, "q_floor": 0.05, "Q": [1 / 9] * 81, "mu": "stationary",
                "emissions": [{"family": "discrete", "pmf": [0.9, 0.1]}] * 9},
      "prior": {"transitions": {"alpha": [1.0] * 9, "q_floor": 0.05},
                "emissions": {"family": "discrete", "alpha": 2.0, "base": [0.5, 0.5]}}}

# (changes, message): each change of sections, made to configs/golden.json,
# is an error in the metric list of the chain experiment
METRIC_LIST_ERRORS = {
    # no fallback to the smoothing_aligned radius
    "no-unaligned-radius": ({"metrics": {"epsilon": {"block_l1": 0.2, "aligned_q": 0.15,
                                                     "aligned_emission": 0.15,
                                                     "smoothing_aligned": 0.15}}},
                            "no radius configured for metric 'smoothing_unaligned'"),
    "kind-consistency": ({"experiment": {"kind": "consistency"}}, RETIRED + "'consistency'"),
    "kind-smoothing": ({"experiment": {"kind": "smoothing"}}, RETIRED + "'smoothing'"),
    "kind-ldir": ({"experiment": {"kind": "ldir"}}, RETIRED + "'ldir'"),
    # no vacuous PASS: the verdict would read no curve
    "no-names": ({"metrics": {"names": []}}, "tracks no metric"),
    "untracked-only": ({"metrics": {"names": ["smoothing_unaligned"]}}, "tracks no metric"),
    "aligned-beyond-k-8": (K9, "alignment search is capped at k = 8"),
}


@pytest.mark.parametrize("case", list(METRIC_LIST_ERRORS))
def test_metric_list_error_exits_2_before_any_chain(tmp_path, capsys, monkeypatch, case):
    changes, message = METRIC_LIST_ERRORS[case]
    calls = []   # chains run and prior pmfs drawn
    for name in ("run_chain", "sample_dp_discrete"):
        monkeypatch.setattr(experiments, name, lambda *a, **kw: calls.append(a) or [])
    payload = json.loads(GOLDEN_CONFIG.read_text())
    for section, values in changes.items():
        payload[section].update(values)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert _run("experiment", "--config", config, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and message in captured.err
    assert captured.out == "" and not out.exists()
    assert calls == []


def test_simulate_and_fit_take_a_truth_beyond_the_alignment_cap(tmp_path):
    payload = {**json.loads(GOLDEN_CONFIG.read_text()), **K9,
               "gibbs": {"n_iter": 3, "burn_in": 1, "thin": 1, "seed": 1},
               "simulate": {"n": 40, "seed": 3}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    assert _run("simulate", "--config", config, "--out", tmp_path) == 0
    assert _run("fit", "--config", config, "--data", tmp_path / "observations.txt",
                "--out", tmp_path) == 0
    assert len(modelio.read_samples(tmp_path / "samples_chain0.jsonl")) == 2


# kl configs that exit 2 before any draw: (config changes, message)
KL_ERRORS = {
    "grid": ({"experiment": {"kind": "kl", "n_grid": [100, 300]}}, "experiment.n_grid"),
    "floor": ({"experiment": {"kind": "kl"},
               "prior": {"transitions": {"alpha": [1.0, 1.0], "q_floor": 0.1}}},
              "prior.transitions.q_floor 0.1 to equal the truth's q_floor 0.15"),
    "base_hole": ({"experiment": {"kind": "kl"},
                   "prior": {"emissions": {"family": "discrete", "alpha": 2.0,
                                           "base": [1.0, 0.0]}}},
                  "ratio_summable for truth state 0: base has zero mass at supported symbol 1"),
    "base_short": ({"experiment": {"kind": "kl"},
                    "prior": {"emissions": {"family": "discrete", "alpha": 2.0,
                                            "base": [1.0]}}},
                   "ratio_summable for truth state 0: base has zero mass at supported symbol 1"),
}


@pytest.mark.parametrize("case", list(KL_ERRORS))
def test_kl_grid_over_block_budget_fails_before_any_draw(tmp_path, capsys, monkeypatch, case):
    changes, message = KL_ERRORS[case]
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return draw_near_truth(*args, **kwargs)

    draw_near_truth = experiments.draw_near_truth
    monkeypatch.setattr(experiments, "draw_near_truth", spy)
    config = _bad_config(tmp_path, changes)
    assert _run("experiment", "--config", config, "--out", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert calls == []


def test_program_bug_is_not_a_config_error(tmp_path, monkeypatch):
    config = _config(tmp_path, GOLDEN)
    assert _run("simulate", "--config", config, "--out", tmp_path) == 0

    def bug(*args, **kwargs):
        raise ValueError("a bug, not a bad config")

    monkeypatch.setattr(cli, "run_chain", bug)
    with pytest.raises(ValueError, match="a bug"):
        _run("fit", "--config", config, "--data", tmp_path / "observations.txt",
             "--out", tmp_path)


# observations a discrete emission prior cannot read: (command, data file, config changes)
BAD_OBSERVATIONS = [
    ("fit", "0.0\n1.5\n0.0\n1.0\n", {}),
    ("fit", "-3\n", {}),
    # integral, but beyond the int64 range the symbols are counted in
    ("fit", "0\n1\n1e20\n0\n", {}),
    # the smoothing metrics alone, so that the chain, not the config, meets the data
    ("experiment", None, {"truth": GAUSSIAN["truth"],
                          "metrics": {"names": ["smoothing_aligned", "smoothing_unaligned"],
                                      "epsilon": {"smoothing_aligned": 0.15,
                                                  "smoothing_unaligned": 0.15}},
                          "experiment": {"n_grid": [20], "replications": 1}}),
]


@pytest.mark.parametrize("command, data, changes", BAD_OBSERVATIONS,
                         ids=["real-valued", "negative", "beyond-int64", "gaussian-truth"])
def test_observations_unfit_for_a_discrete_prior_exit_3(tmp_path, capsys, command,
                                                         data, changes):
    config = _bad_config(tmp_path, changes)
    out = tmp_path / "out"
    extra = []
    if data is not None:
        (tmp_path / "observations.txt").write_text(data)
        extra = ["--data", tmp_path / "observations.txt"]
    assert _run(command, "--config", config, *extra, "--out", out) == 3
    assert "data error" in capsys.readouterr().err
    assert not list(out.glob("samples_chain*.jsonl"))
    assert not (out / "experiment_records.jsonl").exists()


def test_observation_beyond_int64_exits_3(tmp_path, capsys):
    config = _config(tmp_path, GOLDEN)
    data = tmp_path / "observations.txt"
    data.write_text("0\n1\n99999999999999999999\n")
    assert _run("fit", "--config", config, "--data", data, "--out", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(data) in err
    assert not list((tmp_path / "out").glob("samples_chain*.jsonl"))


DPM = {
    "truth": {"k": 2, "q_floor": 0.15, "Q": [0.7, 0.3, 0.3, 0.7], "mu": "stationary",
              "emissions": [{"family": "gaussian_mixture", "weights": [0.4, 0.6],
                             "locations": [-2.2, -0.9], "scales": [0.6, 0.8]},
                            {"family": "gaussian_mixture", "weights": [0.55, 0.45],
                             "locations": [1.3, 2.6], "scales": [0.7, 0.5]}]},
    "prior": {"transitions": {"alpha": [1.0, 1.0], "q_floor": 0.15},
              "emissions": {"family": "dpm_gaussian", "alpha": 1.0, "truncation": 20,
                            "base": {"loc": 0.0, "loc_count": 0.1, "shape": 2.0,
                                     "scale": 1.0}}},
    "gibbs": {"n_iter": 12, "burn_in": 4, "thin": 2, "seed": 7},
    "simulate": {"n": 300, "seed": 5},
}


def _dpm_experiment(tmp_path, names):
    payload = {**DPM, "metrics": {"l": 3, "names": names,
                                  "epsilon": {name: 0.15 for name in names}},
               "experiment": {"n_grid": [20, 40], "replications": 1, "seed": 3}}
    config = tmp_path / "dpm.json"
    config.write_text(json.dumps(payload))
    return config


def test_exact_metrics_on_a_continuous_model_exit_3_before_any_work(tmp_path, capsys,
                                                                    monkeypatch):
    calls = []
    for name in ("simulate", "run_chain"):
        monkeypatch.setattr(experiments, name, lambda *a, **kw: calls.append(a))
    config = _dpm_experiment(tmp_path, ["smoothing_aligned", "block_l1"])
    out = tmp_path / "out"
    assert _run("experiment", "--config", config, "--out", out) == 3
    assert "exact metrics need discrete emissions" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_smoothing_metrics_run_on_a_dp_gaussian_mixture(tmp_path):
    names = ["smoothing_aligned", "smoothing_unaligned"]
    config = _dpm_experiment(tmp_path, names)
    assert _run("experiment", "--config", config, "--out", tmp_path / "out") == 0
    records = [json.loads(ln) for ln in
               (tmp_path / "out" / "experiment_records.jsonl").read_text().splitlines()]
    assert [r["metric"] for r in records if not r.get("aggregate")] == names * 2
    assert all(0.0 <= r["mass"] <= 1.0 for r in records)


@pytest.mark.parametrize("outlier", ["200.0", "1e5"])
def test_far_outlier_fits_a_dp_gaussian_mixture(tmp_path, outlier):
    # about 40 scale units from every atom a density underflows to 0 under
    # every component and every state; the sampler then works in log space
    config = tmp_path / "dpm.json"
    config.write_text(json.dumps(DPM))
    assert _run("simulate", "--config", config, "--out", tmp_path) == 0
    data = tmp_path / "observations.txt"
    lines = data.read_text().splitlines()
    lines[150] = outlier
    data.write_text("\n".join(lines) + "\n")
    assert _run("fit", "--config", config, "--data", data, "--out", tmp_path / "fit") == 0
    records = [json.loads(ln) for ln in
               (tmp_path / "fit" / "samples_chain0.jsonl").read_text().splitlines()]
    assert len(records) == 4
    for record in records:
        emissions = [[e["weights"], e["locations"], e["scales"]]
                     for e in record["params"]["emissions"]]
        assert np.all(np.isfinite(np.array(emissions, dtype=float)))
        assert np.all(np.isfinite(np.array(record["params"]["Q"], dtype=float)))


@pytest.mark.parametrize("states", [[0, "x"], [0, 1.5], [0, 7], ["1", "0", "1"],
                                    [True, False, True], [[0, 1], [1, 0]], [0, None]],
                         ids=["string", "fraction", "out-of-range", "numeric-strings",
                              "booleans", "nested-path", "null"])
def test_sample_record_with_bad_state_exits_3(tmp_path, capsys, states):
    config = _config(tmp_path, GOLDEN)
    samples = tmp_path / "samples_chain0.jsonl"
    samples.write_text(json.dumps({"iteration": 1, "chain": 0, "params": GOLDEN["truth"],
                                   "states": states}) + "\n")
    assert _run("report", "--config", config, "--samples", samples,
                "--out", tmp_path / "report") == 3
    assert "bad sample record" in capsys.readouterr().err


@pytest.mark.parametrize("top, code", [(1, 0), (2, 3)], ids=["largest-k-1", "state-k"])
def test_tokenised_states_are_checked_against_k(tmp_path, capsys, top, code):
    # json.dumps writes the states in the integer parser's form, so this
    # record's states skip the general parser; k = 2 here
    config = _config(tmp_path, GOLDEN)
    samples = tmp_path / "samples_chain0.jsonl"
    line = json.dumps({"iteration": 1, "chain": 0, "params": GOLDEN["truth"],
                       "states": [0, top, 1, 0]})
    assert modelio._sample_line(line)[1].tolist() == [0, top, 1, 0]
    samples.write_text(line + "\n")
    assert _run("report", "--config", config, "--samples", samples,
                "--out", tmp_path / "report") == code
    assert ("bad sample record" in capsys.readouterr().err) == (code == 3)


def test_negative_seed_option_is_a_usage_error(tmp_path):
    config = _config(tmp_path, GOLDEN)
    with pytest.raises(SystemExit) as exit_info:
        _run("simulate", "--config", config, "--seed", -1, "--out", tmp_path)
    assert exit_info.value.code == 2
    assert not (tmp_path / "observations.txt").exists()


@pytest.mark.parametrize("chains", [0, -1])
def test_fewer_than_one_chain_is_a_usage_error(tmp_path, chains):
    config = _config(tmp_path, GOLDEN)
    assert _run("simulate", "--config", config, "--out", tmp_path) == 0
    out = tmp_path / "fit"
    with pytest.raises(SystemExit) as exit_info:
        _run("fit", "--config", config, "--data", tmp_path / "observations.txt",
             "--chains", chains, "--out", out)
    assert exit_info.value.code == 2
    assert not out.exists()


GOLDEN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "golden.json"
FLOOR_ROW = "floor_feasible             state=-   holds         q_floor=0.15"
EXACT_ROWS = ["ratio_summable             state={i}   holds         finite support: exact sum",
              "entropy_finite             state={i}   holds         finite support: exact entropy sum"]
NIG_ROW = ("inverse_scale_integrable   state=-   holds         "
           "inverse-gamma variance: closed-form moment")

# (config changes, exit code, stdout lines), where a change of None removes
# the section; state 0's pmf in "wider" has a symbol the base [0.5, 0.5]
# does not carry
CHECK_PRIOR_CASES = {
    "golden": ({}, 0, [FLOOR_ROW] + [r.format(i=i) for i in (0, 1) for r in EXACT_ROWS]),
    "truth-wider-than-base": (
        {"truth": {"emissions": [{"family": "discrete", "pmf": [0.5, 0.3, 0.2]},
                                 {"family": "discrete", "pmf": [0.2, 0.8]}]}}, 0,
        [FLOOR_ROW,
         "ratio_summable             state=0   fails         "
         "base has zero mass at supported symbol 2",
         EXACT_ROWS[1].format(i=0)] + [r.format(i=1) for r in EXACT_ROWS]),
    "dpm-gaussian-truth": ({"truth": GAUSSIAN["truth"], "prior": GAUSSIAN["prior"]}, 0,
                           [FLOOR_ROW, NIG_ROW]),
    "dpm-discrete-truth": ({"prior": GAUSSIAN["prior"]}, 0, [FLOOR_ROW, NIG_ROW]),
    "discrete-prior-gaussian-truth": ({"truth": GAUSSIAN["truth"]}, 3, []),
    "no-prior": ({"prior": None}, 2, []),
}


@pytest.mark.parametrize("case", list(CHECK_PRIOR_CASES))
def test_check_prior_table(tmp_path, capsys, case):
    changes, code, lines = CHECK_PRIOR_CASES[case]
    payload = json.loads(GOLDEN_CONFIG.read_text())
    for section, values in changes.items():
        if values is None:
            del payload[section]
        else:
            payload[section] = {**payload[section], **values}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert _run("check-prior", "--config", config, "--out", out) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    if code:
        assert captured.err.startswith({2: "config error: ", 3: "data error: "}[code])
        assert not (out / "check_prior.jsonl").exists()
        return
    records = []
    for line in lines:
        condition, state, verdict, detail = line.split(None, 3)
        records.append({"condition": condition, "state": state.removeprefix("state="),
                        "verdict": verdict, "detail": detail})
    rows = (out / "check_prior.jsonl").read_text().splitlines()
    assert [json.loads(row) for row in rows] == records
