"""File formats: roundtrips and schema pinning."""
import json

import numpy as np
import pytest

from dphmm import (ConfigError, DataError, DiscreteEmission,
                   GaussianMixtureEmission, HmmParams, TransitionMatrix,
                   TranslatedEmission, simulate)
from dphmm.gibbs import PosteriorSample
from dphmm import modelio


def test_params_roundtrip(tmp_path, golden_truth):
    path = tmp_path / "params.json"
    modelio.write_params(path, golden_truth)
    back = modelio.read_params(path)
    assert np.array_equal(back.trans.rows, golden_truth.trans.rows)
    assert np.array_equal(back.mu, golden_truth.mu)
    assert back.emissions == golden_truth.emissions
    payload = json.loads(path.read_text())
    assert set(payload) == {"k", "q_floor", "Q", "mu", "emissions"}
    assert payload["Q"] == [0.7, 0.3, 0.4, 0.6]  # row-major flat


def test_params_stationary_keyword(golden_truth):
    payload = modelio.params_to_payload(golden_truth)
    payload["mu"] = "stationary"
    back = modelio.params_from_payload(payload)
    assert np.allclose(back.mu, [4 / 7, 3 / 7], atol=1e-12)


def test_emission_payload_roundtrips():
    gm = GaussianMixtureEmission(np.array([0.4, 0.6]), np.array([-1.0, 2.0]),
                                 np.array([0.5, 1.5]))
    for e in (DiscreteEmission(np.array([0.3, 0.7])), gm,
              TranslatedEmission(gm, 1.25)):
        back = modelio.emission_from_payload(modelio.emission_to_payload(e))
        assert back == e


def test_bad_payloads_raise_config_error():
    with pytest.raises(ConfigError):
        modelio.emission_from_payload({"family": "mystery"})
    with pytest.raises(ConfigError):
        modelio.params_from_payload({"k": 2, "Q": [1, 0, 0]})


def test_shared_base_shift_order_checked_by_value():
    def payload(shifts):
        base = {"family": "gaussian_mixture", "weights": [1.0],
                "locations": [0.0], "scales": [1.0]}
        return {"k": 2, "q_floor": 0.1, "Q": [0.6, 0.4, 0.4, 0.6], "mu": [0.5, 0.5],
                "emissions": [{"family": "translated", "shift": m, "base": base}
                              for m in shifts]}

    with pytest.raises(ConfigError):
        modelio.params_from_payload(payload([1.0, 0.0]))
    params = modelio.params_from_payload(payload([0.0, 1.0]))
    first, second = (e.base for e in params.emissions)
    assert first is not second and first == second


def test_observation_roundtrip_discrete(tmp_path):
    path = tmp_path / "obs.txt"
    modelio.write_observations(path, np.array([0, 1, 1, 0], dtype=np.int64))
    back = modelio.read_observations(path)
    assert back.dtype.kind == "i"
    assert np.array_equal(back, [0, 1, 1, 0])


def test_observation_roundtrip_continuous(tmp_path):
    path = tmp_path / "obs.txt"
    values = np.array([0.25, -1.5, 3.0000001])
    modelio.write_observations(path, values)
    back = modelio.read_observations(path)
    assert back.dtype.kind == "f"
    assert np.array_equal(back, values)  # repr() roundtrips doubles exactly


@pytest.mark.parametrize("values", [
    np.array([0, 3, -7, 2 ** 62], dtype=np.int64),
    np.array([0, 5, 2 ** 64 - 1], dtype=np.uint64),
    np.array([True, False, True]),
    np.array([0.1, -2.5e-30, 3.0], dtype=np.float32),
    np.array([0.1, -2.5e-300, 1e300, 3.0]),
], ids=["int64", "uint64", "bool", "float32", "float64"])
def test_observation_file_bytes_per_dtype(tmp_path, values):
    # integers as ``str`` of the integer, everything else as ``repr`` of the
    # value as a double, so a bool array writes 1.0 / 0.0
    path = tmp_path / "obs.txt"
    modelio.write_observations(path, values)
    expected = [str(int(v)) if values.dtype.kind in "iu" else repr(float(v)) for v in values]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_observation_errors(tmp_path):
    with pytest.raises(DataError):
        modelio.read_observations(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("1\ntwo\n")
    with pytest.raises(DataError):
        modelio.read_observations(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(DataError):
        modelio.read_observations(empty)


def test_sample_records_roundtrip(tmp_path, golden_truth):
    _, y = simulate(golden_truth, 10, 0)
    samples = [PosteriorSample(golden_truth, np.zeros(10, dtype=np.int64), 5, 0),
               PosteriorSample(golden_truth, np.ones(10, dtype=np.int64), 10, 0)]
    path = tmp_path / "samples.jsonl"
    modelio.write_samples(path, samples)
    back = modelio.read_samples(path)
    assert len(back) == 2
    assert back[0].iteration == 5 and back[1].iteration == 10
    assert np.array_equal(back[1].states, np.ones(10))
    assert back[0].params.emissions == golden_truth.emissions


def test_digest_is_canonical():
    a = modelio.digest({"b": 1, "a": [1, 2]})
    b = modelio.digest({"a": [1, 2], "b": 1})
    assert a == b and len(a) == 64


def test_config_parsing(tmp_path, golden_truth):
    payload = {
        "truth": modelio.params_to_payload(golden_truth),
        "prior": {"transitions": {"alpha": [1.0, 1.0], "q_floor": 0.15},
                  "emissions": {"family": "discrete", "alpha": 2.0,
                                "base": [0.5, 0.5]}},
        "gibbs": {"n_iter": 50, "burn_in": 10, "thin": 2, "seed": 4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    cfg = modelio.read_config(path)
    assert cfg.truth.k == 2
    gibbs = cfg.gibbs_config()
    assert gibbs.n_iter == 50 and gibbs.thin == 2
    assert gibbs.seed == 4
    assert cfg.gibbs_config(seed=99).seed == 99


def test_config_requires_truth(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gibbs": {}}))
    with pytest.raises(ConfigError):
        modelio.read_config(path)


def test_config_gaussian_prior(tmp_path, golden_truth):
    payload = {
        "truth": modelio.params_to_payload(golden_truth),
        "prior": {"transitions": {"alpha": [1.0, 1.0], "q_floor": 0.15},
                  "emissions": {"family": "dpm_gaussian", "alpha": 1.0,
                                "truncation": 7,
                                "base": {"loc": 0.0, "loc_count": 1.0,
                                         "shape": 3.0, "scale": 2.0}}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    cfg = modelio.read_config(path)
    assert cfg.emission_prior.truncation == 7
