"""Small shared helpers."""
from __future__ import annotations

from dataclasses import fields
from typing import NamedTuple

import numpy as np


class Estimate(NamedTuple):
    """A numeric result with its Monte Carlo standard error (0 when exact)."""

    value: float
    stderr: float


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence or a Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def colsum(a, out):
    """The sums over the leading axis of a 2-D (m, C) array ``a`` into
    ``out``, bit for bit the 1-D ``sum`` of each column: row adds below 8
    rows, the one-at-a-time order numpy keeps there, and numpy's pairwise
    sums of contiguous rows of the transpose from 8 on."""
    if a.shape[0] >= 8:
        return np.ascontiguousarray(a.T).sum(axis=1, out=out)
    return np.add.reduce(a, axis=0, out=out)


def readonly(a) -> np.ndarray:
    """Copy to a contiguous float64 array and lock it against writes."""
    out = np.array(a, dtype=np.float64, copy=True, order="C")
    out.flags.writeable = False
    return out


class ValueEquality:
    """Equality and hashing by value for frozen dataclasses with array fields.

    Use with ``@dataclass(frozen=True, eq=False)``. Two objects are equal when
    they have the same type and every field is equal: array fields by shape
    and elementwise, other fields by ``==`` (nested parameter objects compare
    by value in turn). The hash agrees with that equality; it hashes array
    values, not bytes, so ``0.0`` and ``-0.0`` hash alike. It is sound because
    the arrays are locked against writes: copied by ``readonly``, or, for a
    sampled path, a locked view of an array no one else writes.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same_value(a, b) for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash((type(self), *map(_hash_key, self._values())))


def _same_value(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _hash_key(v):
    if isinstance(v, np.ndarray):
        return v.shape, tuple(v.ravel().tolist())
    return v
