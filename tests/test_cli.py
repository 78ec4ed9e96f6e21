"""The command-line interface end to end on a tiny golden-truth config:
records equal direct library calls, and each failure exits with its code."""
import json
from pathlib import Path

import numpy as np
import pytest

from dphmm import (DiscreteEmission, HmmParams, TransitionMatrix, cli, experiments,
                   metrics, modelio)

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


def test_metric_on_the_truth_is_zero(tmp_path):
    config = _config(tmp_path, GOLDEN)
    params = tmp_path / "truth.json"
    modelio.write_params(params, modelio.read_config(config).truth)
    assert _run("metric", "--config", config, "--params", params, "--out", tmp_path) == 0
    records = _records(tmp_path)
    assert [r["metric"] for r in records] == NAMES
    assert all(r["value"] == 0.0 and r["stderr"] == 0.0 and r["mode"] == "exact"
               for r in records)


def test_unknown_metric_name_exits_2(tmp_path, capsys):
    config = _config(tmp_path, GOLDEN, names=["block_l1", "mystery"])
    params = tmp_path / "truth.json"
    modelio.write_params(params, modelio.read_config(config).truth)
    assert _run("metric", "--config", config, "--params", params, "--out", tmp_path) == 2
    assert "unknown metric 'mystery'" in capsys.readouterr().err


def test_repeated_metric_name_exits_2_without_records(tmp_path, capsys):
    config = _config(tmp_path, GOLDEN, names=["aligned_q", "block_l1", "aligned_q"])
    samples = _fit(tmp_path, config, chains=1)
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
    ("experiment", {"experiment": {"kind": "ldir", "significance": 2.0}}),
    ("experiment", {"experiment": {"kind": "kl", "n_grid": [0]}}),
    ("experiment", {"experiment": {"kind": "nope"}}),
    ("metric", {"metrics": {"names": ["weak_gap:foo"]}}),
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
    extra = ["--params", params] if command == "metric" else []
    out = tmp_path / "out"
    assert _run(command, "--config", config, *extra, "--out", out) == 2
    assert "config error" in capsys.readouterr().err
    assert not [path for path in out.rglob("*") if path.is_file()]


def test_bad_block_length_fails_before_any_chain(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "run_chain", lambda *a, **kw: calls.append(a))
    config = _bad_config(tmp_path, {"metrics": {"l": 0}})
    assert _run("experiment", "--config", config, "--out", tmp_path) == 2
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
    ("experiment", None, {"truth": GAUSSIAN["truth"],
                          "experiment": {"n_grid": [20], "replications": 1}}),
]


@pytest.mark.parametrize("command, data, changes", BAD_OBSERVATIONS,
                         ids=["real-valued", "negative", "gaussian-truth"])
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


@pytest.mark.parametrize("states", [[0, "x"], [0, 1.5], [0, 7]],
                         ids=["string", "fraction", "out-of-range"])
def test_sample_record_with_bad_state_exits_3(tmp_path, capsys, states):
    config = _config(tmp_path, GOLDEN)
    samples = tmp_path / "samples_chain0.jsonl"
    samples.write_text(json.dumps({"iteration": 1, "chain": 0, "params": GOLDEN["truth"],
                                   "states": states}) + "\n")
    assert _run("report", "--config", config, "--samples", samples,
                "--out", tmp_path / "report") == 3
    assert "bad sample record" in capsys.readouterr().err


def test_negative_seed_option_is_a_usage_error(tmp_path):
    config = _config(tmp_path, GOLDEN)
    with pytest.raises(SystemExit) as exit_info:
        _run("simulate", "--config", config, "--seed", -1, "--out", tmp_path)
    assert exit_info.value.code == 2
    assert not (tmp_path / "observations.txt").exists()


GOLDEN_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "golden.json"
FLOOR_ROW = "floor_feasible             state=-   holds         q_floor=0.15"
EXACT_ROWS = ["ratio_summable             state={i}   holds         finite support: exact sum",
              "entropy_finite             state={i}   holds         finite support: exact entropy sum"]
NIG_ROW = ("inverse_scale_integrable   state=-   holds         "
           "inverse-gamma variance: closed-form moment")

# (config changes, exit code, stdout lines); state 0's pmf in "wider" has a
# symbol the base [0.5, 0.5] does not carry
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
}


@pytest.mark.parametrize("case", list(CHECK_PRIOR_CASES))
def test_check_prior_table(tmp_path, capsys, case):
    changes, code, lines = CHECK_PRIOR_CASES[case]
    payload = json.loads(GOLDEN_CONFIG.read_text())
    for section, values in changes.items():
        payload[section] = {**payload[section], **values}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert _run("check-prior", "--config", config, "--out", out) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    if code:
        assert captured.err.startswith("data error: ")
        assert not (out / "check_prior.jsonl").exists()
        return
    records = []
    for line in lines:
        condition, state, verdict, detail = line.split(None, 3)
        records.append({"condition": condition, "state": state.removeprefix("state="),
                        "verdict": verdict, "detail": detail})
    rows = (out / "check_prior.jsonl").read_text().splitlines()
    assert [json.loads(row) for row in rows] == records
