"""File formats: parameter documents, observation files, sample and metric
records, and the single experiment config that drives every CLI subcommand.

Field names are pinned in SCHEMA.md at the repository root. All structured
documents are JSON; record streams are JSON lines; observation and state
files hold one value per line.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .emissions import (DiscreteEmission, EmissionModel, GaussianMixtureEmission,
                        TranslatedEmission)
from .errors import ConfigError, DataError, StationarySolveError
from .gibbs import GibbsConfig, PosteriorSample
from .hmm import HmmParams, TransitionMatrix, stationary_distribution
from .metrics import (BLOCK_BUDGET, CONSISTENCY_METRICS, SMOOTHING_METRICS,
                      check_metric_names)
from .priors import (DiscreteDpSpec, GaussianDpSpec, NormalInvGammaBase,
                     TruncatedDirichletSpec, check_ratio_summable)


# ---------------------------------------------------------------------------
# emission payloads


def emission_to_payload(e: EmissionModel) -> dict:
    if isinstance(e, DiscreteEmission):
        return {"family": "discrete", "pmf": e.pmf.tolist()}
    if isinstance(e, GaussianMixtureEmission):
        return {"family": "gaussian_mixture", "weights": e.weights.tolist(),
                "locations": e.locations.tolist(), "scales": e.scales.tolist()}
    if isinstance(e, TranslatedEmission):
        return {"family": "translated", "shift": e.shift,
                "base": emission_to_payload(e.base)}
    raise ConfigError(f"unknown emission type {type(e).__name__}")


def emission_from_payload(payload: dict) -> EmissionModel:
    try:
        family = payload["family"]
        if family == "discrete":
            return DiscreteEmission(np.asarray(payload["pmf"], dtype=np.float64))
        if family == "gaussian_mixture":
            return GaussianMixtureEmission(np.asarray(payload["weights"], dtype=np.float64),
                                           np.asarray(payload["locations"], dtype=np.float64),
                                           np.asarray(payload["scales"], dtype=np.float64))
        if family == "translated":
            base = emission_from_payload(payload["base"])
            return TranslatedEmission(base, float(payload["shift"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad emission payload: {exc}") from exc
    raise ConfigError(f"unknown emission family {family!r}")


# ---------------------------------------------------------------------------
# parameter documents: k, q_floor, Q (row-major), mu, emissions


def params_to_payload(params: HmmParams) -> dict:
    return {
        "k": params.k,
        "q_floor": params.q_floor,
        "Q": params.trans.rows.ravel().tolist(),
        "mu": params.mu.tolist(),
        "emissions": [emission_to_payload(e) for e in params.emissions],
    }


def params_from_payload(payload: dict) -> HmmParams:
    try:
        k = int(payload["k"])
        q_floor = float(payload.get("q_floor", 0.0))
        rows = np.asarray(payload["Q"], dtype=np.float64).reshape(k, k)
        emissions = tuple(emission_from_payload(p) for p in payload["emissions"])
        trans = TransitionMatrix(rows, q_floor)
        mu = payload.get("mu", "stationary")
        if isinstance(mu, str):
            if mu != "stationary":
                raise ConfigError(f"unknown initial-law keyword {mu!r}")
            mu_vec = stationary_distribution(trans)
        else:
            mu_vec = np.asarray(mu, dtype=np.float64)
        return HmmParams(trans, mu_vec, emissions)
    except (KeyError, TypeError, ValueError, StationarySolveError) as exc:
        raise ConfigError(f"bad parameter document: {exc}") from exc


def write_params(path, params: HmmParams) -> None:
    Path(path).write_text(json.dumps(params_to_payload(params), indent=2) + "\n")


def read_params(path) -> HmmParams:
    return params_from_payload(_read_json(path))


def _read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"missing file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: {path}: {exc}") from exc


def digest(payload) -> str:
    """Hex digest of the canonical JSON encoding."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# integer text: the writer's form of an integer array, built and parsed in
# whole-array passes


_MAX_DIGITS = 18    # 10**18 - 1 < 2**63, so every token the parser takes fits int64


def _int_text(values, sep: str) -> str:
    """``sep.join(map(str, values.tolist()))`` of a 1-D integer array.

    The text is laid out in an (n, width) byte table, one row per value: a
    sign column, the digits right-aligned, then ``sep``. Each decimal digit
    of the largest magnitude is one pass over the whole array, and a keep
    mask drops the unused sign and leading digit positions. Magnitudes are
    taken in uint64 with uint64 operands only, so -2**63 and 2**64 - 1 stay
    exact.
    """
    values = np.asarray(values)
    if not values.size:
        return ""
    negative = values < 0
    mag = values.astype(np.uint64)
    np.subtract(np.uint64(0), mag, out=mag, where=negative)
    digits = len(str(int(mag.max())))
    sign = int(negative.any())
    table = np.empty((values.size, sign + digits + len(sep)), dtype=np.uint8)
    for col, byte in enumerate(sep.encode(), start=sign + digits):
        table[:, col] = byte
    keep = np.ones(table.shape, dtype=bool) if sign or digits > 1 else None
    if sign:
        table[:, 0] = ord("-")
        keep[:, 0] = negative
    for col in range(sign + digits - 1, sign - 1, -1):    # units first
        if col < sign + digits - 1:
            keep[:, col] = mag > 0
        digit = mag
        if col > sign:
            mag, digit = np.divmod(mag, np.uint64(10))
        np.add(digit, np.uint64(ord("0")), out=table[:, col], casting="unsafe")
    text = table.tobytes() if keep is None else table[keep].tobytes()
    return text[:len(text) - len(sep)].decode("ascii")


def _int_tokens(text: str, sep: str):
    """The int64 array that ``text`` holds when it is exactly ``_int_text``'s
    form of nonnegative values: decimal tokens of 1 to ``_MAX_DIGITS`` digits,
    none with a leading zero, joined by ``sep``. Anything else, an empty text
    too, gives None, and the caller's general parser decides. ``sep`` holds
    no digit, and its first byte occurs nowhere else in it. Each digit
    position is one pass over the whole array."""
    code = sep.encode()
    m = len(code)
    data = np.frombuffer((sep + text + sep).encode(), dtype=np.uint8)
    digit = data - np.uint8(ord("0"))          # wraps to >= 10 below '0'
    # a separator starts at each occurrence of its first byte; these runs of
    # m bytes cannot overlap, so they hold every non-digit when the counts agree
    bounds = np.flatnonzero(data == code[0])
    if np.count_nonzero(digit >= 10) != m * bounds.size or not all(
            (data[bounds + i] == byte).all() for i, byte in enumerate(code[1:], 1)):
        return None
    spans = np.diff(bounds)                    # token lengths plus m
    shortest, longest = int(spans.min()) - m, int(spans.max()) - m
    if shortest < 1 or longest > _MAX_DIGITS:
        return None
    ends = bounds[1:]
    if longest > 1:
        starts = bounds[:-1] + m
        if ((digit[starts] == 0) & (spans > m + 1)).any():
            return None
    out = np.zeros(ends.size, dtype=np.int64)
    for j in range(longest, 0, -1):
        at = ends - j
        out *= np.int64(10)
        # positions before a shorter token's start count as leading zeros
        out += digit[at] if j <= shortest else np.where(at >= starts, digit[at], np.uint8(0))
    return out


# ---------------------------------------------------------------------------
# observation / state files: one value per line


def write_observations(path, values) -> None:
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        text = _int_text(values, "\n")
    else:
        text = "\n".join(map(repr, values.astype(np.float64).tolist()))
    Path(path).write_text(text + "\n")


def read_observations(path):
    file = Path(path)
    if not file.exists():
        raise DataError(f"missing file: {path}")
    text = file.read_text()
    real = "." in text or "e" in text or "E" in text
    if not real and text.endswith("\n"):
        values = _int_tokens(text[:-1], "\n")
        if values is not None:
            return values
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"empty observation file: {path}")
    try:
        if real:
            return np.array([float(ln) for ln in lines])
        return np.array([int(ln) for ln in lines], dtype=np.int64)
    except ValueError as exc:
        raise DataError(f"bad observation line in {path}: {exc}") from exc
    except OverflowError as exc:
        raise DataError(f"observation outside the int64 range in {path}: {exc}") from exc


def data_digest(values) -> str:
    """``digest(values.tolist())`` of a 1-D observation array."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return hashlib.sha256(f"[{_int_text(values, ',')}]".encode()).hexdigest()
    return digest(values.tolist())


# ---------------------------------------------------------------------------
# posterior sample records: one JSON object per line


def _record_head(sample: PosteriorSample) -> dict:
    """A sample's record without its states."""
    return {"iteration": sample.iteration, "chain": sample.chain_id,
            "params": params_to_payload(sample.params)}


def sample_to_record(sample: PosteriorSample) -> dict:
    return {**_record_head(sample), "states": sample.states.tolist()}


_STATES = '"states": ['


def write_samples(path, samples) -> None:
    # "states" sorts last, so each line is the record without it, reopened
    # before its closing brace for the states in _int_text's form
    with open(path, "w") as fh:
        for s in samples:
            head = json.dumps(_record_head(s), sort_keys=True)
            fh.write(f"{head[:-1]}, {_STATES}{_int_text(s.states, ', ')}]}}\n")


def _sample_line(line: str):
    """A sample line's record and, when the line ends in ``_int_text``'s form
    of its states, those states as an int64 array (else None).

    That form is the text after the line's last ``"states": [``, up to a
    closing ``]}`` at the end of the line. An unescaped ``"states": [`` is a
    key, never part of a string, and a tail of only tokens and ``]}`` closes
    the top-level object, so it is the last top-level "states" key, the one
    ``json.loads`` keeps among duplicates. The rest of the line with
    ``"states": []}`` appended is then valid JSON exactly when the line is;
    on any failure the whole line goes to ``json.loads``, for its message."""
    at = line.rfind(_STATES)
    if at > 0 and line[at - 1] != "\\" and line.endswith("]}"):
        states = _int_tokens(line[at + len(_STATES):-2], ", ")
        if states is not None:
            try:
                return json.loads(line[:at] + '"states": []}'), states
            except json.JSONDecodeError:
                pass
    return json.loads(line), None


def _state_values(states) -> np.ndarray:
    """A record's states as floats; anything but a flat list of JSON numbers
    (strings, booleans, nulls, nested lists) is rejected."""
    if not isinstance(states, list) or not set(map(type, states)) <= {int, float}:
        raise DataError("states must be a flat list of numbers")
    return np.asarray(states, dtype=np.float64)


def read_samples(path) -> list[PosteriorSample]:
    out = []
    p = Path(path)
    if not p.exists():
        raise DataError(f"missing file: {path}")
    for ln in p.read_text().splitlines():
        if not ln.strip():
            continue
        try:
            rec, states = _sample_line(ln)
            params = params_from_payload(rec["params"])
            if states is None:
                states = _state_values(rec["states"])
                in_range = np.isin(states, np.arange(params.k)).all()
                states = states.astype(np.int64)
            else:
                # _int_tokens yields a nonempty array of nonnegative int64
                in_range = states.max() < params.k
            if not in_range:
                raise DataError(f"states must be integers in [0, {params.k})")
            out.append(PosteriorSample(params=params, states=states,
                                       iteration=int(rec["iteration"]),
                                       chain_id=int(rec["chain"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"bad sample record in {path}: {exc}") from exc
    return out


def write_records(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# experiment config


def _prior_from_payload(payload: dict, k: int):
    try:
        trans = payload["transitions"]
        trans_spec = TruncatedDirichletSpec(np.asarray(trans["alpha"], dtype=np.float64),
                                            float(trans["q_floor"]))
        if trans_spec.k != k:
            raise ConfigError("transition prior size disagrees with k")
        emis = payload["emissions"]
        family = emis["family"]
        if family == "discrete":
            spec = DiscreteDpSpec(float(emis["alpha"]),
                                  np.asarray(emis["base"], dtype=np.float64))
        elif family == "dpm_gaussian":
            b = emis["base"]
            spec = GaussianDpSpec(float(emis["alpha"]),
                                  NormalInvGammaBase(float(b["loc"]), float(b["loc_count"]),
                                                     float(b["shape"]), float(b["scale"])),
                                  int(emis.get("truncation", 50)))
        else:
            raise ConfigError(f"unknown emission prior family {family!r}")
        return trans_spec, spec
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad prior section: {exc}") from exc


EXPERIMENT_KINDS = ("golden", "kl")


class RunConfig:
    """Parsed experiment config: sections truth, prior, gibbs, metrics,
    experiment, simulate. Every value is read, cast and range-checked here,
    with the defaults of SCHEMA.md, and the ``GibbsConfig`` built here checks
    the gibbs values against each other, so every command rejects a bad value
    with ``ConfigError`` before any work. The metrics, experiment and
    simulate sections become namespaces whose attributes are their keys."""

    def __init__(self, payload: dict):
        if not isinstance(payload, dict) or "truth" not in payload:
            raise ConfigError("config needs a 'truth' section")
        self.payload = payload
        self.truth = params_from_payload(payload["truth"])
        self.trans_prior = self.emission_prior = None
        if "prior" in payload:
            self.trans_prior, self.emission_prior = _prior_from_payload(
                payload["prior"], self.truth.k)
        read, count = self._read, self._count
        gibbs = dict(n_iter=count("gibbs", "n_iter", 3000),
                     burn_in=count("gibbs", "burn_in", 2000, low=0),
                     thin=count("gibbs", "thin", 5), seed=count("gibbs", "seed", 0, low=0),
                     mu=read("gibbs", "mu", None,
                             lambda v: None if v is None else np.asarray(v, dtype=np.float64)))
        self.gibbs = None
        if self.trans_prior is not None:
            self.gibbs = GibbsConfig(transition_prior=self.trans_prior,
                                     emission_prior=self.emission_prior, **gibbs)
        self.metrics = SimpleNamespace(
            l=read("metrics", "l", 3, int, self._blocks_fit,
                   f"an integer >= 1 giving at most {BLOCK_BUDGET} symbol blocks"),
            names=read("metrics", "names", CONSISTENCY_METRICS, lambda v: [str(n) for n in v]),
            epsilon=read("metrics", "epsilon", {},
                         lambda v: {name: float(e) for name, e in dict(v).items()},
                         lambda eps: all(e > 0.0 for e in eps.values()), "positive radii"))
        check_metric_names(self.metrics.names)
        try:
            check_metric_names(list(self.metrics.epsilon))
        except ConfigError as exc:
            raise ConfigError(f"metrics.epsilon: {exc}") from exc

        retired = "; ".join(f"{old} is kind golden with metrics.names {json.dumps(names)}"
                            for old, names in (("consistency", CONSISTENCY_METRICS),
                                               ("smoothing", SMOOTHING_METRICS)))
        retired += ("; ldir is the test oracle tests/dp_oracles.py, run by the "
                    "tests/test_experiments.py::test_dp_moment_check_* tests")
        kind = read("experiment", "kind", "golden", str, lambda v: v in EXPERIMENT_KINDS,
                    f"one of {', '.join(EXPERIMENT_KINDS)} (former kinds: {retired})")
        if kind == "kl":
            if not isinstance(self.emission_prior, DiscreteDpSpec):
                raise ConfigError("the kl experiment needs a discrete emission prior")
            if not (self.truth.discrete and self.truth.q_floor > 0.0):
                raise ConfigError("the kl experiment needs a discrete truth with q_floor > 0")
            # the KL bound shares one floor, and a base with no mass at a truth
            # symbol gives no draw a finite emission log-ratio
            if self.trans_prior.q_floor != self.truth.q_floor:
                raise ConfigError(f"the kl experiment needs prior.transitions.q_floor "
                                  f"{self.trans_prior.q_floor} to equal the truth's "
                                  f"q_floor {self.truth.q_floor}")
            for i, emission in enumerate(self.truth.emissions):
                ratio = check_ratio_summable(emission, self.emission_prior.base)
                if not ratio.holds:
                    raise ConfigError(f"the kl experiment needs prior.emissions.base to pass "
                                      f"ratio_summable for truth state {i}: {ratio.detail}")
        # the kl kind's exact KL rate enumerates the symbol blocks of each grid length
        kl = kind == "kl"
        point_ok = self._blocks_fit if kl else (lambda n: n >= 1)
        self.experiment = SimpleNamespace(
            kind=kind, seed=count("experiment", "seed", 0, low=0),
            n_grid=read("experiment", "n_grid", range(4, 11) if kl else (100, 500, 2000),
                        lambda v: tuple(int(n) for n in v),
                        lambda grid: bool(grid) and all(map(point_ok, grid)),
                        "a nonempty list of integers >= 1" + (
                            f", each giving at most {BLOCK_BUDGET} symbol blocks" if kl else "")),
            replications=count("experiment", "replications", 5),
            smoothing_block_len=count("experiment", "smoothing_block_len", 1),
            epsilon=read("experiment", "epsilon", 0.01, float, lambda v: v > 0.0, "positive"),
            n_draws=count("experiment", "n_draws", 25))
        self.simulate = SimpleNamespace(n=count("simulate", "n", 100),
                                        seed=count("simulate", "seed", 0, low=0))

    def _read(self, section: str, key: str, default, cast, ok=None, need: str = ""):
        """A key's value, or its default when absent, cast and range-checked."""
        try:
            value = cast(self.payload.get(section, {}).get(key, default))
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc
        if ok is not None and not ok(value):
            raise ConfigError(f"{section}.{key} must be {need}, got {value!r}")
        return value

    def _count(self, section: str, key: str, default: int, low: int = 1) -> int:
        return self._read(section, key, default, int, lambda v: v >= low,
                          f"an integer >= {low}")

    def _blocks_fit(self, block_len: int) -> bool:
        """Whether block_len >= 1 and, for discrete emissions, the symbol blocks
        of that length on the largest support of the truth and the emission
        prior fit the enumeration budget."""
        sizes = [getattr(e, "support_size", 1) for e in self.truth.emissions]
        if isinstance(self.emission_prior, DiscreteDpSpec):
            sizes.append(self.emission_prior.truncation)
        # any support of 2 or more is over budget long before 64 symbols
        return block_len >= 1 and max(sizes) ** min(block_len, 64) <= BLOCK_BUDGET

    def gibbs_config(self, seed: int | None = None) -> GibbsConfig:
        if self.gibbs is None:
            raise ConfigError("config needs a 'prior' section to run the sampler")
        return self.gibbs if seed is None else replace(self.gibbs, seed=seed)

    def config_digest(self) -> str:
        return digest(self.payload)


def read_config(path) -> RunConfig:
    return RunConfig(_read_json(path))
