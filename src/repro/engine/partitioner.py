"""Partitioners: deterministic key -> reduce-partition assignment.

Determinism matters here: lineage-based recovery re-runs a map task and must
reproduce the same buckets, so partitioners hash with a stable function
rather than Python's salted ``hash``.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Callable, Sequence


def stable_hash(key: Any) -> int:
    """A deterministic, process-independent hash for common key types.

    Python's built-in ``hash`` is salted per process for strings, which
    would make recomputed map tasks shuffle records to different reducers
    than the original run.  This hash is stable across runs.
    """
    # Exact-type dispatch for the common key types first (subclasses
    # such as ``bool`` or ``IntEnum`` fall through to the chain below).
    kind = type(key)
    if kind is int:
        return key & 0x7FFFFFFF
    if kind is str:
        return zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF
    if isinstance(key, tuple):
        value = 0x345678
        for item in key:
            value = (value * 1000003) ^ stable_hash(item)
        return value & 0x7FFFFFFF
    if key is None:
        return 0
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, float):
        return zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF
    if isinstance(key, bytes):
        return zlib.crc32(key) & 0x7FFFFFFF
    return zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF


class Partitioner:
    """Maps a record key to a partition index in [0, num_partitions)."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Shuffle-join / group-by partitioner: stable hash modulo N."""

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions

    def __repr__(self) -> str:
        return f"HashPartitioner({self.num_partitions})"


class RangePartitioner(Partitioner):
    """Orders keys into contiguous ranges; used by sortBy.

    Bounds are computed by sampling the input (the engine context does the
    sampling); keys <= bounds[i] land in partition i.
    """

    def __init__(self, bounds: Sequence[Any], ascending: bool = True):
        super().__init__(len(bounds) + 1)
        self._bounds = list(bounds)
        self._ascending = ascending

    def partition(self, key: Any) -> int:
        index = bisect.bisect_left(self._bounds, key)
        if self._ascending:
            return index
        return self.num_partitions - 1 - index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RangePartitioner)
            and self._bounds == other._bounds
            and self._ascending == other._ascending
        )

    def __hash__(self) -> int:
        return hash(("RangePartitioner", tuple(self._bounds), self._ascending))

    def __repr__(self) -> str:
        return f"RangePartitioner({len(self._bounds) + 1} partitions)"


class FunctionPartitioner(Partitioner):
    """Partitions with an arbitrary user function (used by co-partitioning).

    Equality contract: two FunctionPartitioners are equal when they have
    the same ``num_partitions`` and the same ``label``.  The label is the
    caller's promise that the functions partition identically — labelled
    partitioners built in different sessions (or from distinct-but-equal
    lambdas) compare equal, so co-partitioned join detection works across
    plan rebuilds.  Unlabelled partitioners fall back to function identity
    (``fn is fn``): safe, but never equal across sessions.
    """

    def __init__(
        self,
        num_partitions: int,
        fn: Callable[[Any], int],
        name: str = "",
        label: str | None = None,
    ):
        super().__init__(num_partitions)
        self._fn = fn
        self._name = name or getattr(fn, "__name__", "fn")
        self.label = label

    def _key(self) -> Any:
        """Identity key: the caller's label, or function identity."""
        return self.label if self.label is not None else id(self._fn)

    def partition(self, key: Any) -> int:
        return self._fn(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionPartitioner)
            and self.num_partitions == other.num_partitions
            and self._key() == other._key()
        )

    def __hash__(self) -> int:
        return hash(
            ("FunctionPartitioner", self.num_partitions, self._key())
        )

    def __repr__(self) -> str:
        return f"FunctionPartitioner({self.num_partitions}, {self._name})"
