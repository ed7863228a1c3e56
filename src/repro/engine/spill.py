"""Spillable execution consumers: external hash aggregation and sort.

The enforcement half of memory arbitration (DESIGN §12).  When
:meth:`repro.engine.memory.MemoryAccountant.reserve` crosses a worker's
cap and evicting unpinned storage blocks is not enough, it asks the
worker's registered consumers to spill.  Two consumers live here:

:class:`SpillableGroups`
    Shared hash-aggregation state for the vectorized
    ``BatchAggregator`` and the row-mode partial aggregation.  Spilling
    is *bucket-grained* (Grace-style): every group key maps to one of
    :data:`NUM_SPILL_BUCKETS` fixed buckets via a deterministic CRC32
    of its repr; a spill serializes whole buckets of ``(key, accs)``
    items to an accumulator run and marks them spilled, after which
    rows for those buckets are appended *raw* — ``(key, arg values)``
    in arrival order — to raw runs.  ``finish()`` reloads the
    accumulator runs and replays the raw rows through ``fn.update`` in
    the same order the in-memory path would have applied them, then
    restores the global first-seen output order from per-key sequence
    numbers.  Results are therefore repr-identical to the uncapped run
    no matter where (or whether) spills fire — crucial because chaos
    retries shift spill points between runs.

:class:`ExternalSorter`
    Classic run generation + k-way merge.  Each spill sorts the buffer
    into a run; ``finish()`` merges the runs (chronological order) and
    the sorted tail with :func:`heapq.merge`, whose stability over
    in-order iterables makes the merged output equal a single stable
    sort of the full input — so ``RDD.sort_by`` partitions (ORDER BY,
    and any future sort/merge-join build) spill transparently.

"Disk" is simulated: spilled runs are serialized bytes held off-ledger
(their memory charge is released), with the write/read volume recorded
in :class:`~repro.engine.metrics.TaskMetrics` so
:mod:`repro.costmodel` charges real disk seconds for the round trip.
Bucketing uses CRC32, never ``hash()`` (randomized per process), so
spill decisions are deterministic run to run.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Any, Callable, Optional

from repro.cluster.worker import approximate_size_bytes
from repro.columnar.serde import SpillSerde
from repro.engine.task import current_task_context

#: Fixed spill-bucket fanout for hash-aggregate state.  Small enough
#: that bucket bookkeeping is negligible, large enough that one spill
#: sheds ~1/8 of the live groups at a time.
NUM_SPILL_BUCKETS = 8

#: Raw rows buffered per spilled bucket before flushing a raw run.
RAW_FLUSH_ROWS = 256

#: Sorter items added between incremental ledger charges.
_SORT_CHARGE_EVERY = 64

_SERDE = SpillSerde()


def spill_bucket(key: Any) -> int:
    """Deterministic bucket for a group key.

    ``repr`` + CRC32 instead of ``hash()``: Python string hashing is
    randomized per process, and spill decisions must be identical
    across the baseline and chaos runs for byte-identical event logs.
    """
    return zlib.crc32(repr(key).encode("utf-8")) % NUM_SPILL_BUCKETS


class _SpilledBucket:
    """Runs belonging to one spilled bucket."""

    __slots__ = ("acc_payloads", "raw_payloads", "raw_buffer")

    def __init__(self) -> None:
        #: Serialized ``(key, accs)`` items cut at spill time (at most
        #: one per bucket: a spilled bucket holds no live groups, so it
        #: can never be picked again).
        self.acc_payloads: list[bytes] = []
        #: Serialized ``(key, values)`` rows that arrived after the
        #: bucket spilled, flushed in arrival-order chunks.
        self.raw_payloads: list[bytes] = []
        self.raw_buffer: list[tuple] = []


class SpillableGroups:
    """Hash-aggregation state that can shed buckets to simulated disk.

    ``functions`` are the aggregate function objects (``initial`` /
    ``update`` / per-slot accumulators); both the vectorized and the
    row-mode pipelines own one instance and register it with the
    accountant's arbitration path via the running task's context.
    """

    def __init__(self, functions: list, owner: str) -> None:
        self.functions = functions
        self.owner = owner
        #: key -> accumulator list, live (unspilled-bucket) groups only.
        self.groups: dict[tuple, list] = {}
        #: key -> first-seen sequence number of every key observed —
        #: the uncapped run's dict insertion order, restored at finish.
        #: Built at the first spill from ``groups`` (whose insertion
        #: order is exactly first-seen order until a key leaves it) and
        #: kept up only while something is spilled.
        self._order: dict[tuple, int] = {}
        self._spilled: dict[int, _SpilledBucket] = {}
        self._bytes_per_group = 0
        self._charged_groups = 0
        self._finishing = False
        self._registered = False
        self._register()

    # -- wiring ---------------------------------------------------------
    def _register(self) -> None:
        task_ctx = current_task_context()
        if task_ctx is not None and not self._registered:
            task_ctx.register_spillable(self)
            self._registered = True

    @staticmethod
    def _accountant():
        task_ctx = current_task_context()
        return task_ctx.accountant if task_ctx is not None else None

    @property
    def spilled(self) -> bool:
        return bool(self._spilled)

    # -- building state -------------------------------------------------
    def live_accs(self, key: tuple) -> Optional[list]:
        """Accumulators for ``key``, creating the group if new; None
        when the key's bucket is spilled (route those rows raw)."""
        accs = self.groups.get(key)
        if accs is not None:
            return accs
        if self._spilled:
            self._order.setdefault(key, len(self._order))
            if spill_bucket(key) in self._spilled:
                return None
        accs = [fn.initial() for fn in self.functions]
        self.groups[key] = accs
        return accs

    def update_row(self, key: tuple, values: list) -> None:
        """One row, row-mode: update live accumulators or append raw."""
        accs = self.live_accs(key)
        if accs is None:
            self.append_raw(key, values)
            return
        for j, fn in enumerate(self.functions):
            accs[j] = fn.update(accs[j], values[j])
        self.charge_pending()

    def append_raw(self, key: tuple, values: list) -> None:
        """Queue one row for a spilled bucket, flushing full chunks."""
        state = self._spilled[spill_bucket(key)]
        state.raw_buffer.append((key, list(values)))
        if len(state.raw_buffer) >= RAW_FLUSH_ROWS:
            self._flush_raw(state)

    def _flush_raw(self, state: _SpilledBucket) -> None:
        if not state.raw_buffer:
            return
        payload = _SERDE.encode(state.raw_buffer)
        state.raw_payloads.append(payload)
        state.raw_buffer = []
        self._record_write(len(payload))

    def _record_write(self, nbytes: int) -> None:
        task_ctx = current_task_context()
        if task_ctx is not None:
            task_ctx.metrics.spill_bytes_written += nbytes
            if task_ctx.accountant is not None:
                task_ctx.accountant.note_spill_write(
                    self.owner, nbytes, runs=1
                )

    def charge_pending(self) -> None:
        """Charge uncharged group growth to the task's execution pool."""
        new = len(self.groups) - self._charged_groups
        if new <= 0:
            return
        task_ctx = current_task_context()
        if task_ctx is None:
            return
        if not self._bytes_per_group:
            self._bytes_per_group = max(
                approximate_size_bytes(next(iter(self.groups.items()))), 1
            )
        task_ctx.reserve_memory(self.owner, new * self._bytes_per_group)
        self._charged_groups = len(self.groups)

    # -- the consumer contract ------------------------------------------
    def spillable_bytes(self) -> int:
        return self._charged_groups * self._bytes_per_group

    def spill(self, nbytes: int) -> tuple[int, int, int]:
        """Shed whole buckets until ``nbytes`` of ledger charge is
        released (or no live groups remain); returns
        ``(released, written, runs)``."""
        if self._finishing or not self.groups:
            return (0, 0, 0)
        task_ctx = current_task_context()
        if not self._bytes_per_group:
            self._bytes_per_group = max(
                approximate_size_bytes(next(iter(self.groups.items()))), 1
            )
        if not self._spilled:
            self._order = dict(zip(self.groups, range(len(self.groups))))
        released = written = runs = 0
        while self.groups and released < nbytes:
            counts: dict[int, int] = {}
            for key in self.groups:
                bucket = spill_bucket(key)
                counts[bucket] = counts.get(bucket, 0) + 1
            # Largest bucket first (ties: lowest id) — fewest spills to
            # cover the shortfall, deterministically.
            bucket = min(counts, key=lambda b: (-counts[b], b))
            items = [
                (key, accs)
                for key, accs in self.groups.items()
                if spill_bucket(key) == bucket
            ]
            payload = _SERDE.encode(items)
            self._spilled.setdefault(
                bucket, _SpilledBucket()
            ).acc_payloads.append(payload)
            for key, __ in items:
                del self.groups[key]
            freed_groups = min(len(items), self._charged_groups)
            self._charged_groups -= freed_groups
            if task_ctx is not None:
                released += task_ctx.release_memory(
                    self.owner, freed_groups * self._bytes_per_group
                )
            self._record_write(len(payload))
            written += len(payload)
            runs += 1
        return (released, written, runs)

    # -- merge ----------------------------------------------------------
    def finish_groups(self) -> list:
        """All ``(key, accs)`` pairs in the uncapped run's exact order,
        merging spilled accumulator runs and replaying raw rows."""
        self._finishing = True
        if not self._spilled:
            return list(self.groups.items())
        merged = dict(self.groups)
        live_before = len(self.groups)
        read_bytes = 0
        for bucket in sorted(self._spilled):
            state = self._spilled[bucket]
            for payload in state.acc_payloads:
                read_bytes += len(payload)
                for key, accs in _SERDE.decode(payload):
                    merged[key] = accs
            self._flush_raw(state)
            for payload in state.raw_payloads:
                read_bytes += len(payload)
                for key, values in _SERDE.decode(payload):
                    accs = merged.get(key)
                    if accs is None:
                        accs = [fn.initial() for fn in self.functions]
                        merged[key] = accs
                    # Arrival-order fn.update replay: the exact update
                    # sequence the in-memory path would have applied.
                    for j, fn in enumerate(self.functions):
                        accs[j] = fn.update(accs[j], values[j])
        task_ctx = current_task_context()
        if task_ctx is not None:
            task_ctx.metrics.spill_bytes_read += read_bytes
            reloaded = len(merged) - live_before
            if reloaded > 0 and self._bytes_per_group:
                # The merged state lives on the task's heap again until
                # the attempt ends: put it back on the ledger.
                task_ctx.reserve_memory(
                    self.owner, reloaded * self._bytes_per_group
                )
        self._spilled.clear()
        order = self._order
        return sorted(merged.items(), key=lambda item: order[item[0]])


class ExternalSorter:
    """Buffered sort that sheds sorted runs under memory pressure.

    ``finish()`` k-way-merges the runs in chronological order plus the
    sorted in-memory tail; :func:`heapq.merge` keeps equal keys in
    iterable order, so the result equals one stable sort of everything
    ever added — ``sort_by`` output is byte-identical with or without
    spills.
    """

    def __init__(
        self,
        key: Optional[Callable] = None,
        reverse: bool = False,
        owner: str = "sort",
    ) -> None:
        self._key = key
        self._reverse = reverse
        self.owner = owner
        self._buffer: list = []
        self._runs: list[bytes] = []
        self._bytes_per_item = 0
        self._charged_items = 0
        self._finishing = False
        self._registered = False
        task_ctx = current_task_context()
        if task_ctx is not None:
            task_ctx.register_spillable(self)
            self._registered = True

    def add(self, item: Any) -> None:
        self._buffer.append(item)
        pending = len(self._buffer) - self._charged_items
        if pending >= _SORT_CHARGE_EVERY:
            self._charge_pending()

    def _charge_pending(self) -> None:
        pending = len(self._buffer) - self._charged_items
        if pending <= 0:
            return
        task_ctx = current_task_context()
        if task_ctx is None:
            return
        if not self._bytes_per_item:
            self._bytes_per_item = max(
                approximate_size_bytes(self._buffer[0]), 1
            )
        task_ctx.reserve_memory(
            self.owner, pending * self._bytes_per_item
        )
        self._charged_items = len(self._buffer)

    def spillable_bytes(self) -> int:
        return self._charged_items * self._bytes_per_item

    def spill(self, nbytes: int) -> tuple[int, int, int]:
        """Sort the buffer into one run and release its charge."""
        if self._finishing or not self._buffer:
            return (0, 0, 0)
        run = sorted(self._buffer, key=self._key, reverse=self._reverse)
        payload = _SERDE.encode(run)
        self._runs.append(payload)
        self._buffer = []
        released = 0
        task_ctx = current_task_context()
        if task_ctx is not None:
            released = task_ctx.release_memory(
                self.owner, self._charged_items * self._bytes_per_item
            )
            task_ctx.metrics.spill_bytes_written += len(payload)
            if task_ctx.accountant is not None:
                task_ctx.accountant.note_spill_write(
                    self.owner, len(payload), runs=1
                )
        self._charged_items = 0
        return (released, len(payload), 1)

    def finish(self) -> list:
        """The fully sorted sequence (merging any spilled runs)."""
        self._finishing = True
        tail = sorted(self._buffer, key=self._key, reverse=self._reverse)
        if not self._runs:
            return tail
        read_bytes = sum(len(payload) for payload in self._runs)
        iterables = [_SERDE.decode(payload) for payload in self._runs]
        iterables.append(tail)
        merged = list(
            heapq.merge(*iterables, key=self._key, reverse=self._reverse)
        )
        task_ctx = current_task_context()
        if task_ctx is not None:
            task_ctx.metrics.spill_bytes_read += read_bytes
            reloaded = len(merged) - len(tail)
            if reloaded > 0 and self._bytes_per_item:
                task_ctx.reserve_memory(
                    self.owner, reloaded * self._bytes_per_item
                )
        return merged
