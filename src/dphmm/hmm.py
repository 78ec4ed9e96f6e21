"""Core finite-state HMM objects and algorithms.

The parameterization is a row-stochastic transition matrix with an
entrywise floor ``q_floor`` (which forces geometric ergodicity when
positive), an initial law, and one emission density per state. On top of
it sit the stationary law, exact smoothing and path simulation.

Construction tolerances and the stationarity residual are 1e-12; the
other algorithmic checks (stationary law, smoothing normalization) use
1e-10. All values are immutable after construction and safe to share
across threads (the sampling tables memoised on first use are derived from
them, and a rebuild is identical); every random operation takes an
explicit seed or generator.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import kernels
from .emissions import EmissionModel, TranslatedEmission
from .errors import DataError, NumericalError, StationarySolveError, ZeroLikelihoodError
from .util import ValueEquality, as_generator, readonly

CONSTRUCTION_TOL = 1e-12
ALGORITHM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TransitionMatrix(ValueEquality):
    """k x k row-stochastic matrix whose entries all sit at or above q_floor.

    The floor implies the entrywise upper bound 1 - (k-1) * q_floor, which is
    validated too. q_floor is carried as data so downstream bounds (the KL
    denominators) can read it off the matrix.
    """

    rows: np.ndarray
    q_floor: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rows", readonly(self.rows))
        object.__setattr__(self, "q_floor", float(self.q_floor))
        Q, q = self.rows, self.q_floor
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] == 0:
            raise ValueError("transition matrix must be square and nonempty")
        k = Q.shape[0]
        if not 0.0 <= q <= 1.0 / k + CONSTRUCTION_TOL:
            raise ValueError(f"q_floor must lie in [0, 1/k] (k={k}, got {q})")
        if np.any(np.abs(Q.sum(axis=1) - 1.0) > CONSTRUCTION_TOL):
            raise ValueError(f"rows must sum to 1 within {CONSTRUCTION_TOL}")
        if np.any(Q < q - CONSTRUCTION_TOL):
            raise ValueError("transition entries must not fall below q_floor")
        upper = 1.0 - (k - 1) * q
        if np.any(Q > upper + CONSTRUCTION_TOL):
            raise ValueError("an entry exceeds the implied bound 1 - (k-1) q_floor")

    @property
    def k(self) -> int:
        return int(self.rows.shape[0])


@dataclass(frozen=True, eq=False)
class HmmParams(ValueEquality):
    """Transition matrix, initial law and per-state emissions.

    The initial law must respect the transition floor entrywise; emissions
    must all live on the same observation domain. When every emission is a
    shifted copy of one shared base density (bases equal by value), the
    shifts must be strictly increasing with the first at 0 (the canonical
    translated model).
    """

    trans: TransitionMatrix
    mu: np.ndarray
    emissions: tuple[EmissionModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", readonly(self.mu))
        object.__setattr__(self, "emissions", tuple(self.emissions))
        k = self.trans.k
        if self.mu.ndim != 1 or self.mu.size != k:
            raise ValueError("initial law must be a length-k vector")
        if abs(float(self.mu.sum()) - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"initial law must sum to 1 within {CONSTRUCTION_TOL}")
        if np.any(self.mu < self.trans.q_floor - CONSTRUCTION_TOL):
            raise ValueError("every initial-law entry must be >= q_floor")
        if len(self.emissions) != k:
            raise ValueError("need exactly one emission per state")
        flags = {e.discrete for e in self.emissions}
        if len(flags) != 1:
            raise ValueError("emissions must share one observation domain")
        if k > 1 and all(isinstance(e, TranslatedEmission) for e in self.emissions):
            base = self.emissions[0].base
            if all(e.base == base for e in self.emissions):
                shifts = np.array([e.shift for e in self.emissions])
                if shifts[0] != 0.0 or np.any(np.diff(shifts) <= 0.0):
                    raise ValueError("shared-base shifts must satisfy 0 = m_1 < m_2 < ...")

    @property
    def k(self) -> int:
        return self.trans.k

    @property
    def q_floor(self) -> float:
        return self.trans.q_floor

    @property
    def discrete(self) -> bool:
        return bool(self.emissions[0].discrete)

    def with_mu(self, mu) -> "HmmParams":
        return HmmParams(self.trans, np.asarray(mu, dtype=np.float64), self.emissions)


def stationary_distribution(trans: TransitionMatrix) -> np.ndarray:
    """Unique left eigenvector of the transition matrix for eigenvalue 1, as a
    read-only float64 vector.

    One direct solve, with the last equation replaced by the sum-to-one
    row. A singular system, a non-finite solution, a residual above 1e-12
    or an entry below -1e-12 raises StationarySolveError: the chain has no
    unique stationary law (a reducible matrix, say). So does a normalized
    law outside the floor bounds [q_floor, 1 - (k-1) q_floor] by more than
    1e-10, which every stationary law of a floored matrix meets.
    """
    Q = trans.rows
    k = trans.k
    A = Q.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        cand = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise StationarySolveError(f"stationary solve failed: {exc}") from exc
    if not (np.all(np.isfinite(cand)) and np.all(cand >= -CONSTRUCTION_TOL)
            and np.max(np.abs(cand @ Q - cand)) <= CONSTRUCTION_TOL):
        raise StationarySolveError(
            "stationary solve missed its residual or sign check; "
            "the matrix has no unique stationary law")
    probs = np.clip(cand, 0.0, None)
    probs /= probs.sum()
    q = trans.q_floor
    if np.any(probs < q - ALGORITHM_TOL) or np.any(probs > 1.0 - (k - 1) * q + ALGORITHM_TOL):
        raise StationarySolveError(
            "stationary law violates the [q_floor, 1-(k-1)q_floor] bounds")
    probs.flags.writeable = False
    return probs


def emission_matrix(params: HmmParams, y) -> np.ndarray:
    """Per-step likelihoods B[t, i] = density of state i at observation t."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise DataError("observations must form a one-dimensional sequence")
    B = np.empty((y.size, params.k))
    for i, e in enumerate(params.emissions):
        B[:, i] = e.density(y)
    return B


def smoothing_exact(params: HmmParams, y, block_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Forward-backward conditional laws of the hidden states given y.

    Returns ``(marginals, blocks)`` as read-only float64 arrays: row j of
    ``marginals`` is the law of the state at position j, and ``blocks`` is
    the joint law of the first ``block_len`` states, shaped
    (k,) * block_len. Zero-likelihood inputs are rejected, and so are
    overflowing backward messages (zero transition entries allow them). A
    marginal entry outside [0, 1] or a marginal or block table whose sum
    misses 1, each by more than 1e-10, raises NumericalError.
    """
    y = np.asarray(y)
    if not 1 <= block_len <= y.size:
        raise ValueError("block_len must lie in [1, n]")
    B = emission_matrix(params, y)
    Q = params.trans.rows
    alpha, c = kernels.forward_filter(params.mu, Q, B)
    if np.any(c <= 0.0):
        raise ZeroLikelihoodError("observations have zero probability under these parameters")
    beta = kernels.backward_messages(Q, B, c, alpha)
    if not np.isfinite(beta).all():
        raise NumericalError("backward messages overflowed")
    marginals = alpha * beta
    blocks = params.mu * B[0] / c[0]
    for t in range(1, block_len):
        step = Q * (B[t] / c[t])
        blocks = blocks[..., :, None] * step
    blocks = blocks * beta[block_len - 1]
    if (np.any(marginals < -ALGORITHM_TOL) or np.any(marginals > 1.0 + ALGORITHM_TOL)
            or np.any(np.abs(marginals.sum(axis=1) - 1.0) > ALGORITHM_TOL)
            or abs(float(blocks.sum()) - 1.0) > ALGORITHM_TOL):
        raise NumericalError("smoothing laws missed their normalization check")
    marginals.flags.writeable = False
    blocks.flags.writeable = False
    return marginals, blocks


def _walk_table(params) -> tuple[tuple[float, ...], ...]:
    """The cumulative sums of each transition row, with mu's as row k, as
    Python floats. Built on the first ``simulate`` of ``params`` and kept in
    its ``__dict__``, the store ``functools.cached_property`` uses, so it is
    not a dataclass field and equality, hashing and payloads ignore it; it is
    sound because the rows and mu it comes from are read-only."""
    table = params.__dict__.get("_walk_table")
    if table is None:
        table = (*map(tuple, params.trans.rows.cumsum(axis=1).tolist()),
                 tuple(params.mu.cumsum().tolist()))
        params.__dict__["_walk_table"] = table
    return table


def simulate(params: HmmParams, n: int, seed):
    """Draw a hidden path and observations: x_1 ~ mu, transitions by Q rows,
    y_t from the emission of x_t. Deterministic under a fixed seed.

    Draw rule: first one uniform per step, ``u = rng.random(n)``. State x_t
    is the first index whose cumulative probability in its row (``mu`` for
    t = 1) is >= u_t, as ``searchsorted(side="left")`` finds it, capped at
    k - 1 for a row whose sum rounds below u_t. Then the emissions are drawn
    state by state in label order, each state's draws filling its visits in
    time order.

    The tables of these draws (the cumulative rows here, each emission's
    CDF) are built once per object, on its first use, so simulating many
    short blocks from one parameter pays for them once.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = as_generator(seed)
    k = params.k
    u = rng.random(n).tolist()
    # row k of the table starts the walk from mu; hi = k - 1 leaves the last
    # entry uncompared, which is the cap at k - 1
    cums = _walk_table(params)
    x, last = k, k - 1
    states = np.array([x := bisect_left(cums[x], v, 0, last) for v in u], dtype=np.int64)
    obs = np.empty(n, dtype=np.int64 if params.discrete else np.float64)
    for i in range(k):
        idx = (states == i).nonzero()[0]
        if idx.size:
            obs[idx] = params.emissions[i].sample(rng, size=idx.size)
    return states, obs
