"""File formats: roundtrips and schema pinning."""
import json

import numpy as np
import pytest

from dphmm import (ConfigError, DataError, DiscreteEmission,
                   GaussianMixtureEmission, HmmParams, TransitionMatrix,
                   TranslatedEmission, simulate)
from dphmm.gibbs import PosteriorSample
from dphmm import modelio
from tests.conftest import random_discrete_params, random_gaussian_params


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


# ---------------------------------------------------------------------------
# the integer codec, pinned to the standard library


def _extremes(dtype):
    info = np.iinfo(dtype)
    return np.array([info.min, info.max, 0, 1, 9, 10, info.max // 7, info.min // 3],
                    dtype=dtype)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
@pytest.mark.parametrize("sep", ["\n", ", ", ","])
def test_int_text_equals_str_join(dtype, sep):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(17)
    cases = [_extremes(dtype), np.array([], dtype=dtype), np.array([0], dtype=dtype),
             np.array([info.min], dtype=dtype), np.array([info.max], dtype=dtype),
             rng.integers(0, 4, 20000).astype(dtype),
             rng.integers(info.min, info.max, 20000, dtype=dtype, endpoint=True)]
    if info.min < 0:
        cases.append(np.array([-1], dtype=dtype))
    for values in cases:
        assert modelio._int_text(values, sep) == sep.join(map(str, values.tolist()))


def _samples(params, n, rng):
    return [PosteriorSample(params, rng.integers(0, params.k, n), it, chain)
            for it, chain in ((3, 0), (5, 1))]


def _sample_cases(golden_truth):
    rng = np.random.default_rng(4)
    return {"discrete": _samples(golden_truth, 20000, rng),
            "mixture": _samples(random_gaussian_params(rng, k=3), 300, rng),
            "two-digit-states": _samples(random_discrete_params(rng, k=12), 500, rng),
            "one-state": _samples(golden_truth, 1, rng)}


def test_sample_lines_equal_json_dumps(tmp_path, golden_truth):
    for name, samples in _sample_cases(golden_truth).items():
        path = tmp_path / f"{name}.jsonl"
        modelio.write_samples(path, samples)
        expected = "".join(json.dumps(modelio.sample_to_record(s), sort_keys=True) + "\n"
                           for s in samples)
        assert path.read_text() == expected, name
        assert modelio.read_samples(path) == samples, name


@pytest.mark.parametrize("y", [np.array([0, 1, 3, 2, 0]), np.arange(20000) % 7,
                               np.array([-5, 2 ** 63 - 1, -2 ** 63]),
                               np.array([0.5, -1.25, 3.0, 1e300])],
                         ids=["small", "long", "int64-extremes", "float"])
def test_data_digest_equals_digest_of_the_list(y):
    assert modelio.data_digest(y) == modelio.digest(y.tolist())


def _outcome(read, path):
    try:
        value = read(path)
    except DataError as exc:
        return "error", str(exc)
    if isinstance(value, np.ndarray):
        return "value", value.dtype.str, value.tolist()
    return "value", value


def _fast_and_general(read, path, monkeypatch):
    """``read(path)`` with the integer parser, whether it took the text, and
    ``read(path)`` with every text left to the general parser."""
    took = []
    parse = modelio._int_tokens

    def spy(text, sep):
        out = parse(text, sep)
        took.append(out is not None)
        return out

    monkeypatch.setattr(modelio, "_int_tokens", spy)
    fast = _outcome(read, path)
    monkeypatch.setattr(modelio, "_int_tokens", lambda text, sep: None)
    general = _outcome(read, path)
    monkeypatch.setattr(modelio, "_int_tokens", parse)
    return fast, any(took), general


OBSERVATION_TEXTS = {
    "canonical": ("0\n1\n12\n3\n", True),
    "one-line": ("7\n", True),
    "largest-18-digit": (f"{10 ** 18 - 1}\n0\n", True),
    "no-final-newline": ("0\n1\n2", False),
    "plus-sign": ("+5\n1\n", False),
    "leading-zeros": ("007\n1\n", False),
    "underscore": ("1_0\n1\n", False),
    "spaces": (" 7 \n1\n", False),
    "crlf": ("1\r\n2\r\n", True),      # read_text turns \r\n into \n
    "blank-lines": ("1\n\n2\n\n", False),
    "negative": ("-3\n4\n", False),
    "19-digit": (f"{10 ** 18}\n", False),
    "int64-max": (f"{2 ** 63 - 1}\n", False),
    "beyond-int64": (f"{2 ** 63}\n1\n", False),
    "empty": ("", False),
    "newline-only": ("\n", False),
    "word": ("1\ntwo\n", False),
    "unicode-digit": ("٣\n", False),
}


@pytest.mark.parametrize("name", OBSERVATION_TEXTS)
def test_observation_reader_agrees_with_the_general_parser(tmp_path, monkeypatch, name):
    text, canonical = OBSERVATION_TEXTS[name]
    path = tmp_path / "obs.txt"
    path.write_bytes(text.encode())
    fast, took, general = _fast_and_general(modelio.read_observations, path, monkeypatch)
    assert fast == general
    assert took == canonical
    if name == "beyond-int64":
        assert fast[0] == "error" and "int64" in fast[1]


def test_float_observation_file_skips_the_integer_parser(tmp_path, monkeypatch):
    path = tmp_path / "obs.txt"
    modelio.write_observations(path, np.array([0.5, 1.0, -2.0]))
    monkeypatch.setattr(modelio, "_int_tokens", None)   # any call fails
    assert modelio.read_observations(path).tolist() == [0.5, 1.0, -2.0]


def _record(golden_truth, states, **extra):
    rec = {"iteration": 4, "chain": 1, "params": modelio.params_to_payload(golden_truth)}
    rec.update(extra)
    if states is not None:
        rec["states"] = states
    return rec


def _sample_texts(golden_truth):
    """(line, whether the integer parser takes its tail) per case."""
    def line(rec, **kw):
        return json.dumps(rec, **kw)
    rec = _record(golden_truth, [0, 1, 1, 0])
    canonical = line(rec, sort_keys=True)
    params = modelio.params_to_payload(golden_truth)
    head = canonical[:canonical.rindex(', "states"')]
    return {
        "canonical": (canonical, True),
        "compact-spacing": (line(rec, sort_keys=True, separators=(",", ":")), False),
        "indented": (line(rec, sort_keys=True, indent=1).replace("\n", " "), False),
        "float-states": (line(_record(golden_truth, [0.0, 1.0]), sort_keys=True), False),
        "states-not-last": (line({"states": [0, 1], **_record(golden_truth, None)}), False),
        "duplicate-states": (head + ', "states": [1, 1, 1], "states": [0, 1]}', True),
        "duplicate-bad-last": (head + ', "states": [0, 1], "states": [0, 7]}', True),
        "states-in-params": (line(_record(golden_truth, None,
                                          params={**params, "states": [0, 1]}),
                                  sort_keys=True), False),
        "states-in-params-and-top": (line(_record(golden_truth, [1, 0],
                                                  params={**params, "states": [0, 1]}),
                                          sort_keys=True), True),
        "escaped-quote-key": (head + ', "x\\"states": [0, 1]}', False),
        "leading-zero": (head + ', "states": [0, 01]}', False),
        "negative": (head + ', "states": [0, -1]}', False),
        "trailing-space": (canonical + " ", False),
        "not-an-object": ("[" + canonical[1:-1] + "]", False),
        # the tail parses, the rest does not: json.loads of the line decides
        "unclosed-array": ("[" + canonical, True),
        "huge-state": (head + f', "states": [0, {10 ** 400}]}}', False),
        "empty-states": (head + ', "states": []}', False),
        "out-of-range": (line(_record(golden_truth, [0, 2]), sort_keys=True), True),
        "missing-params": ('{"chain": 0, "iteration": 1, "states": [0, 1]}', True),
        "infinite-iteration": (canonical.replace('"iteration": 4', '"iteration": Infinity'),
                               True),
    }


def test_sample_reader_agrees_with_the_general_parser(tmp_path, monkeypatch, golden_truth):
    for name, (line, canonical) in _sample_texts(golden_truth).items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text(line + "\n")
        fast, took, general = _fast_and_general(modelio.read_samples, path, monkeypatch)
        assert fast == general, name
        assert took == canonical, name


def test_sample_reader_keeps_the_last_states_key(tmp_path, golden_truth):
    path = tmp_path / "s.jsonl"
    path.write_text(_sample_texts(golden_truth)["duplicate-states"][0] + "\n")
    assert modelio.read_samples(path)[0].states.tolist() == [0, 1]


@pytest.mark.parametrize("states", [[0.0, 1.0, 1.0], [0, 1.0, 1]],
                         ids=["integral-floats", "mixed"])
def test_integral_float_states_are_accepted(tmp_path, golden_truth, states):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(_record(golden_truth, states)) + "\n")
    (sample,) = modelio.read_samples(path)
    assert sample.states.dtype == np.int64 and sample.states.tolist() == [0, 1, 1]


@pytest.mark.parametrize("states", [["1", "0", "1"], [True, False, True], [[0, 1], [1, 0]],
                                    [0, None], 1, {"0": 1}],
                         ids=["numeric-strings", "booleans", "nested", "null", "scalar",
                              "object"])
def test_malformed_states_are_data_errors(tmp_path, golden_truth, states):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(_record(golden_truth, states)) + "\n")
    with pytest.raises(DataError, match="bad sample record"):
        modelio.read_samples(path)


def test_tokenised_states_are_kept_uncopied(tmp_path, monkeypatch, golden_truth):
    parsed = []
    parse = modelio._int_tokens

    def spy(text, sep):
        parsed.append(parse(text, sep))
        return parsed[-1]

    monkeypatch.setattr(modelio, "_int_tokens", spy)
    path = tmp_path / "s.jsonl"
    path.write_text(_sample_texts(golden_truth)["canonical"][0] + "\n")
    (sample,) = modelio.read_samples(path)
    (tokens,) = parsed
    assert tokens.dtype == np.int64
    assert np.shares_memory(sample.states, tokens)
    assert sample.states.tolist() == [0, 1, 1, 0] and not sample.states.flags.writeable
