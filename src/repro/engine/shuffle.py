"""Shuffle: map-output bucketing, fetching, and PDE statistics.

Map tasks partition their output records into one bucket per reduce
partition and store the buckets in their worker's block store (the paper's
memory-based shuffle, Section 5).  Reduce tasks fetch bucket ``i`` from
every map output; if a map output's worker has died, the fetch raises
:class:`~repro.errors.FetchFailedError` and the scheduler re-runs only the
lost map tasks (lineage recovery within the query).

While buckets are materialized, the shuffle runs PDE's statistics
collectors and log-encodes bucket sizes, giving the master a ~1-byte-per-
partition view of the data (Section 3.1) before the reduce stage is planned.
"""

from __future__ import annotations

import heapq
import pickle
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from repro.cluster.worker import approximate_size_bytes
from repro.engine.accumulator import log_decode_size, log_encode_size
from repro.engine.task import current_task_context
from repro.errors import FetchFailedError
from repro.obs import Tracer


def serialized_size_bytes(records: list) -> int:
    """Wire size of shuffle records.

    Shuffle volumes feed the cost model and PDE's size-based decisions, so
    they must reflect what would cross the network (serialized bytes), not
    Python object overhead.  Falls back to the heap estimate for
    unpicklable records.
    """
    try:
        return len(pickle.dumps(records, protocol=4))
    except Exception:
        return approximate_size_bytes(records)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import VirtualCluster
    from repro.engine.dependencies import ShuffleDependency
    from repro.engine.metrics import TaskMetrics


def _shuffle_block_id(shuffle_id: int, map_partition: int) -> str:
    return f"shuffle_{shuffle_id}_{map_partition}"


#: Heavy-hitter keys each map task keeps in its skew partial (a little
#: wider than the merged top-N so near-ties survive the merge).
_HEAVY_KEYS_PER_MAP = 8

#: Heavy reduce keys reported per shuffle after merging map partials.
HEAVY_KEYS_TOP_N = 5


#: Exact key types that label as their ``repr`` (subclasses such as
#: ``IntEnum`` do too, via the slower ``isinstance`` check).
_REPR_TYPES = frozenset({type(None), bool, int, float, str})

#: Numeric key types that compare equal across types (``1 == 1.0 ==
#: True``) while labelling differently.
_NUMERIC_TYPES = frozenset({bool, int, float})

#: Exact leaf types of keys whose equal values always share a label:
#: the repr types (numerics checked apart) plus SQL DATE and TIMESTAMP
#: values, which equal only their own type and label as a placeholder.
_PLAIN_LEAF_TYPES = _REPR_TYPES | {date, datetime}


def _key_label(key: Any) -> str:
    """Deterministic string label for a reduce key.

    Plain values (and tuples of them) repr stably; anything else — e.g.
    sort-shuffle composite key objects — would repr with a memory
    address, so it collapses to a type placeholder instead (event logs
    must stay byte-identical across reruns)."""
    kind = type(key)
    if kind in _REPR_TYPES:
        return repr(key)
    if isinstance(key, tuple):
        return "(" + ", ".join([
            repr(item) if type(item) in _REPR_TYPES else _key_label(item)
            for item in key
        ]) + ")"
    if isinstance(key, (bool, int, float, str)):
        return repr(key)
    return f"<{kind.__name__}>"


def _equal_keys_label_alike(keys: list) -> bool:
    """True when keys that compare equal always share a label, so
    counting raw keys (a dict merges equal keys) then labelling each
    distinct key counts labels exactly.

    Holds when every leaf (through tuples, nested alike at each level)
    is a plain scalar, date or timestamp, at most one numeric type
    occurs (``1``, ``1.0`` and ``True`` are equal keys with three
    labels), and no float leaf is zero (``0.0 == -0.0``).  A few
    C-speed passes over the leaves; any other stream is labelled record
    by record.
    """
    leaves = keys
    kinds = set(map(type, leaves))
    while tuple in kinds:
        if len(kinds) > 1:
            return False
        leaves = list(chain.from_iterable(leaves))
        kinds = set(map(type, leaves))
    if not kinds <= _PLAIN_LEAF_TYPES:
        return False
    numeric = kinds & _NUMERIC_TYPES
    if len(numeric) > 1:
        return False
    return float not in numeric or 0.0 not in leaves


def _heavy_order(item: tuple[str, int]) -> tuple[int, str]:
    """Sort key for ``(label, records)`` pairs: most records first,
    ties by label."""
    return (-item[1], item[0])


def _heavy_key_labels(keys: list, top_n: int) -> list[tuple[str, int]]:
    """The ``top_n`` ``(label, records)`` pairs of a map output's keys,
    ordered by ``(-records, label)``.

    Labels each distinct key once (per record only for streams where
    equal keys may label differently, or keys are unhashable), then
    selects the top ``top_n`` without sorting every label: ``nlargest``
    finds the cut-off count and ``nsmallest`` breaks the tie among
    labels at the cut-off (labels are unique, so the order is total).
    """
    if _equal_keys_label_alike(keys):
        label_counts: dict[str, int] = {}
        for key, count in Counter(keys).items():
            label = _key_label(key)
            label_counts[label] = label_counts.get(label, 0) + count
    else:
        label_counts = Counter(map(_key_label, keys))
    if len(label_counts) <= top_n:
        return sorted(label_counts.items(), key=_heavy_order)
    cutoff = heapq.nlargest(top_n, label_counts.values())[-1]
    above = sorted(
        (item for item in label_counts.items() if item[1] > cutoff),
        key=_heavy_order,
    )
    tied = heapq.nsmallest(
        top_n - len(above),
        (label for label, count in label_counts.items() if count == cutoff),
    )
    return above + [(label, cutoff) for label in tied]


@dataclass
class MapOutputStats:
    """Master-side view of a shuffle's map outputs.

    Sizes are stored log-encoded (one byte per entry, <= ~10% error) as in
    the paper; accessors decode on demand.
    """

    num_maps: int
    num_reduces: int
    #: encoded_bucket_sizes[map][reduce] -> one-byte size code.
    encoded_bucket_sizes: list[list[int]] = field(default_factory=list)
    record_counts: list[int] = field(default_factory=list)
    #: Per-map-partition collector partials, keyed by collector name then
    #: map partition.  Kept per partition (not merged eagerly) so a re-run
    #: of a map task — retry, speculation, or lineage recovery — simply
    #: overwrites its own partial instead of double-merging (exactly-once
    #: PDE statistics).
    custom_partials: dict[str, dict[int, Any]] = field(default_factory=dict)
    #: collector name -> merge function, recorded at first observe.
    mergers: dict[str, Any] = field(default_factory=dict)
    #: Per-map-partition skew partials ({"rows": [..], "bytes": [..],
    #: "keys": [(key, count), ..]}), kept per partition like
    #: ``custom_partials`` so task re-runs overwrite instead of
    #: double-merging (exactly-once skew profiling).
    skew_partials: dict[int, dict] = field(default_factory=dict)

    @property
    def custom(self) -> dict[str, Any]:
        """Merged collector results, keyed by collector name.

        Computed on demand from the per-partition partials; the merge
        order is map-partition order, so results are deterministic and
        independent of task scheduling or re-execution.
        """
        merged: dict[str, Any] = {}
        for name, partials in self.custom_partials.items():
            merge = self.mergers[name]
            result = None
            for map_partition in sorted(partials):
                partial = partials[map_partition]
                result = (
                    partial if result is None else merge(result, partial)
                )
            if result is not None:
                merged[name] = result
        return merged

    def skew_record(self, shuffle_id: int) -> dict:
        """Merged per-partition row/byte histogram plus heavy keys.

        Partials merge in map-partition order; sums and the sorted
        top-N are order-independent, so the record is deterministic
        across task scheduling and re-execution.
        """
        rows = [0] * self.num_reduces
        bucket_bytes = [0] * self.num_reduces
        key_counts: dict[str, int] = {}
        for map_partition in sorted(self.skew_partials):
            partial = self.skew_partials[map_partition]
            for index, count in enumerate(partial["rows"]):
                rows[index] += count
            for index, size in enumerate(partial["bytes"]):
                bucket_bytes[index] += size
            for key, count in partial["keys"]:
                key_counts[key] = key_counts.get(key, 0) + count
        heavy = sorted(key_counts.items(), key=_heavy_order)[
            :HEAVY_KEYS_TOP_N
        ]
        total_rows = sum(rows)
        total_bytes = sum(bucket_bytes)
        mean_rows = total_rows / self.num_reduces if self.num_reduces else 0.0
        mean_bytes = (
            total_bytes / self.num_reduces if self.num_reduces else 0.0
        )
        return {
            "shuffle_id": shuffle_id,
            "num_maps": self.num_maps,
            "num_reduces": self.num_reduces,
            "rows": rows,
            "bytes": bucket_bytes,
            "total_rows": total_rows,
            "total_bytes": total_bytes,
            "row_skew": (max(rows) / mean_rows) if mean_rows else 0.0,
            "byte_skew": (
                (max(bucket_bytes) / mean_bytes) if mean_bytes else 0.0
            ),
            # The reduce partition expected to straggle: the one with
            # the most rows to process (task-time-vs-rows attribution —
            # simulated task time is row-proportional, so the heaviest
            # partition is the straggler candidate).
            "straggler_partition": (
                rows.index(max(rows)) if total_rows else 0
            ),
            "heavy_keys": [[key, count] for key, count in heavy],
        }

    @property
    def maps_reported(self) -> int:
        return len(self.encoded_bucket_sizes)

    def map_output_bytes(self, map_partition: int) -> int:
        return sum(
            log_decode_size(code)
            for code in self.encoded_bucket_sizes[map_partition]
        )

    def total_output_bytes(self) -> int:
        return sum(
            self.map_output_bytes(i) for i in range(self.maps_reported)
        )

    def reduce_input_bytes(self, reduce_partition: int) -> int:
        """Approximate bytes reduce task ``reduce_partition`` will fetch."""
        return sum(
            log_decode_size(row[reduce_partition])
            for row in self.encoded_bucket_sizes
        )

    def reduce_input_sizes(self) -> list[int]:
        return [self.reduce_input_bytes(i) for i in range(self.num_reduces)]

    def total_records(self) -> int:
        return sum(self.record_counts)


class ShuffleManager:
    """Tracks every shuffle's map outputs, their locations, and statistics."""

    def __init__(
        self,
        cluster: "VirtualCluster",
        tracer: Tracer = None,
        fault_injector=None,
    ):
        self._cluster = cluster
        self._tracer = tracer if tracer is not None else cluster.tracer
        self._fault_injector = fault_injector
        #: shuffle_id -> {map_partition: worker_id}
        self._locations: dict[int, dict[int, int]] = {}
        self._stats: dict[int, MapOutputStats] = {}
        self._deps: dict[int, "ShuffleDependency"] = {}
        cluster.on_worker_killed(self._handle_worker_killed)

    # ------------------------------------------------------------------
    # Registration and map-side writes
    # ------------------------------------------------------------------
    def register(self, dep: "ShuffleDependency", num_maps: int) -> bool:
        """Register a shuffle's map side; returns False when it already
        was registered (True means this call created the registration)."""
        shuffle_id = dep.shuffle_id
        if shuffle_id in self._locations:
            return False
        self._locations[shuffle_id] = {}
        self._stats[shuffle_id] = MapOutputStats(
            num_maps=num_maps,
            num_reduces=dep.partitioner.num_partitions,
            encoded_bucket_sizes=[[0] * dep.partitioner.num_partitions
                                  for _ in range(num_maps)],
            record_counts=[0] * num_maps,
        )
        self._deps[shuffle_id] = dep
        return True

    def is_registered(self, shuffle_id: int) -> bool:
        return shuffle_id in self._locations

    def write_map_output(
        self,
        dep: "ShuffleDependency",
        map_partition: int,
        worker_id: int,
        records: list,
        metrics: "TaskMetrics" = None,
    ) -> None:
        """Bucket one map task's records and store them on its worker.

        ``records`` must be (key, value) pairs.  Applies map-side combining
        when the dependency requests it, then runs the PDE statistics
        collectors over the bucketed output.
        """
        partitioner = dep.partitioner
        num_reduces = partitioner.num_partitions
        if dep.map_side_combine:
            aggregator = dep.aggregator
            combined: dict[Any, Any] = {}
            for key, value in records:
                if key in combined:
                    combined[key] = aggregator.merge_value(combined[key], value)
                else:
                    combined[key] = aggregator.create_combiner(value)
            output: list = list(combined.items())
        else:
            output = records

        buckets: list[list] = [[] for _ in range(num_reduces)]
        for pair in output:
            buckets[partitioner.partition(pair[0])].append(pair)

        if not self.has_map_output(dep.shuffle_id, map_partition):
            # Pinned: shuffle output only vanishes with the worker or its
            # query (the spill story of Section 5), never to silent cache
            # eviction.  A second attempt of an available map output — a
            # speculative copy, or a query sharing the shuffle — wrote
            # identical buckets, so the stored copy stays the only one.
            worker = self._cluster.worker(worker_id)
            block_id = _shuffle_block_id(dep.shuffle_id, map_partition)
            worker.blocks.put(block_id, buckets, pinned=True)
            self._locations[dep.shuffle_id][map_partition] = worker_id

        stats = self._stats[dep.shuffle_id]
        bucket_bytes = [serialized_size_bytes(bucket) for bucket in buckets]
        stats.encoded_bucket_sizes[map_partition] = [
            log_encode_size(size) for size in bucket_bytes
        ]
        stats.record_counts[map_partition] = len(output)
        stats.skew_partials[map_partition] = {
            "rows": [len(bucket) for bucket in buckets],
            "bytes": bucket_bytes,
            "keys": _heavy_key_labels(
                list(map(itemgetter(0), output)), _HEAVY_KEYS_PER_MAP
            ),
        }
        for collector in dep.stats_collectors:
            partial = collector.observe(output)
            stats.mergers[collector.name] = collector.merge
            stats.custom_partials.setdefault(collector.name, {})[
                map_partition
            ] = partial

        total_bytes = sum(bucket_bytes)
        task_ctx = current_task_context()
        if task_ctx is not None:
            # Transient bucketing buffer: charged to the map task's
            # execution pool for the rest of the attempt (the pinned
            # block above already rides the storage pool).
            task_ctx.reserve_memory("shuffle_write", total_bytes)
        if metrics is not None:
            metrics.shuffle_write_bytes += total_bytes
            metrics.shuffle_write_records += len(output)
        self._tracer.metrics.inc("shuffle.write.bytes", total_bytes)
        self._tracer.metrics.inc("shuffle.write.records", len(output))
        self._tracer.instant(
            "shuffle.write",
            "shuffle",
            lane=worker_id,
            shuffle_id=dep.shuffle_id,
            map_partition=map_partition,
            bytes=total_bytes,
            records=len(output),
        )

    # ------------------------------------------------------------------
    # Reduce-side fetches
    # ------------------------------------------------------------------
    def fetch(
        self,
        shuffle_id: int,
        reduce_partition: int,
        metrics: "TaskMetrics" = None,
    ) -> list:
        """Fetch bucket ``reduce_partition`` from every map output.

        Raises :class:`FetchFailedError` naming the first lost map
        partition when any map output is unavailable.
        """
        reader_lane = metrics.worker_id if metrics is not None else "driver"
        locations = self._locations.get(shuffle_id)
        if locations is None:
            # Freed when the query that ran it ended: a reader reaching
            # it through lineage (e.g. recomputing an evicted cached
            # partition) reports the loss, and the scheduler re-runs the
            # map stage from the dependency.
            self._record_fetch_failure(shuffle_id, 0, -1, reader_lane)
            raise FetchFailedError(shuffle_id, 0, -1)
        stats = self._stats[shuffle_id]
        injector = self._fault_injector
        if injector is not None and injector.corrupt_fetch(
            shuffle_id, reduce_partition
        ):
            # A corrupted map output is indistinguishable from a lost one:
            # drop the block so lineage recovery recomputes it.  Only a
            # map output that is actually still present can be the victim
            # — picking a partition whose block already vanished (or
            # fabricating partition 0 when none are registered) would
            # report a loss lineage recovery cannot act on.
            victim = owner = None
            for candidate in sorted(locations):
                holder = self._cluster.worker(locations[candidate])
                block_id = _shuffle_block_id(shuffle_id, candidate)
                if holder.alive and block_id in holder.blocks:
                    victim, owner = candidate, locations.pop(candidate)
                    holder.blocks.remove(block_id)
                    break
            if victim is None:
                # Nothing left to corrupt: report the first map output
                # that is genuinely missing instead of inventing one.
                missing = self.missing_maps(shuffle_id)
                victim = missing[0] if missing else 0
                owner = locations.get(victim)
            self._tracer.metrics.inc("shuffle.corrupt_fetches")
            self._record_fetch_failure(
                shuffle_id, victim, owner if owner is not None else -1,
                reader_lane,
            )
            raise FetchFailedError(
                shuffle_id, victim, owner if owner is not None else -1
            )
        fetched: list = []
        for map_partition in range(stats.num_maps):
            worker_id = locations.get(map_partition)
            if worker_id is None:
                self._record_fetch_failure(
                    shuffle_id, map_partition, -1, reader_lane
                )
                raise FetchFailedError(shuffle_id, map_partition, -1)
            worker = self._cluster.worker(worker_id)
            block_id = _shuffle_block_id(shuffle_id, map_partition)
            if not worker.alive or block_id not in worker.blocks:
                self._record_fetch_failure(
                    shuffle_id, map_partition, worker_id, reader_lane
                )
                raise FetchFailedError(shuffle_id, map_partition, worker_id)
            buckets = worker.blocks.get(block_id)
            fetched.extend(buckets[reduce_partition])
        if metrics is not None:
            read_bytes = serialized_size_bytes(fetched)
            task_ctx = current_task_context()
            if task_ctx is not None:
                # The fetched rows live in the reduce task until its
                # attempt ends; charge its worker's execution pool.
                task_ctx.reserve_memory("shuffle_fetch", read_bytes)
            metrics.shuffle_read_bytes += read_bytes
            self._tracer.metrics.inc("shuffle.read.bytes", read_bytes)
            self._tracer.instant(
                "shuffle.fetch",
                "shuffle",
                lane=reader_lane,
                shuffle_id=shuffle_id,
                reduce_partition=reduce_partition,
                bytes=read_bytes,
                records=len(fetched),
            )
        self._tracer.metrics.inc("shuffle.fetches")
        return fetched

    def _record_fetch_failure(
        self, shuffle_id: int, map_partition: int, worker_id: int, lane
    ) -> None:
        """One lost-map-output fetch: the trigger for lineage recovery."""
        self._tracer.metrics.inc("shuffle.fetch_failures")
        self._tracer.instant(
            "shuffle.fetch_failed",
            "shuffle",
            lane=lane,
            shuffle_id=shuffle_id,
            map_partition=map_partition,
            lost_worker=worker_id,
        )

    def has_map_output(self, shuffle_id: int, map_partition: int) -> bool:
        """True when a registered shuffle's map output is available."""
        worker_id = self._locations[shuffle_id].get(map_partition)
        if worker_id is None:
            return False
        worker = self._cluster.worker(worker_id)
        return (
            worker.alive
            and _shuffle_block_id(shuffle_id, map_partition) in worker.blocks
        )

    def missing_maps(self, shuffle_id: int) -> list[int]:
        """Map partitions whose output is registered but no longer available."""
        return [
            map_partition
            for map_partition in range(self._stats[shuffle_id].num_maps)
            if not self.has_map_output(shuffle_id, map_partition)
        ]

    def stats(self, shuffle_id: int) -> MapOutputStats:
        return self._stats[shuffle_id]

    def skew_records(self, since_shuffle_id: int = 0) -> list[dict]:
        """Skew records for every still-registered shuffle whose id is
        >= ``since_shuffle_id`` (the caller's watermark), sorted by
        shuffle id.  Shuffles with no map output yet are skipped.

        Reported ids are rebased to the watermark (the query's first
        shuffle is 0): the global counter keeps growing across queries
        in one process, and logs must be byte-identical across reruns.
        """
        out = []
        for shuffle_id in sorted(self._stats):
            if shuffle_id < since_shuffle_id:
                continue
            stats = self._stats[shuffle_id]
            if not stats.skew_partials:
                continue
            out.append(
                stats.skew_record(shuffle_id - since_shuffle_id)
            )
        return out

    def map_location(self, shuffle_id: int, map_partition: int) -> int | None:
        return self._locations.get(shuffle_id, {}).get(map_partition)

    # ------------------------------------------------------------------
    # Release (end of the owning query)
    # ------------------------------------------------------------------
    def release_shuffle(self, shuffle_id: int) -> int:
        """Drop one shuffle's registration and its pinned map-output
        blocks; returns the number of blocks removed.

        The scheduler calls this when the last query claiming the
        shuffle ends, whatever its outcome: the map outputs are pinned,
        so nothing else would ever reclaim them (the "no pinned shuffle
        blocks after the drain" invariant).
        """
        locations = self._locations.pop(shuffle_id, None)
        if locations is None:
            return 0
        stats = self._stats.pop(shuffle_id, None)
        self._deps.pop(shuffle_id, None)
        released = 0
        for map_partition, worker_id in locations.items():
            worker = self._cluster.worker(worker_id)
            block_id = _shuffle_block_id(shuffle_id, map_partition)
            if worker.alive and block_id in worker.blocks:
                worker.blocks.remove(block_id)
                released += 1
        if released or stats is not None:
            self._tracer.metrics.inc("shuffle.released")
            self._tracer.metrics.inc("shuffle.released.blocks", released)
        return released

    def registered_block_ids(self) -> set[str]:
        """Block ids of every registered map output (test/debug helper:
        cross-check against the workers' pinned blocks to prove no
        query leaked shuffle storage)."""
        return {
            _shuffle_block_id(shuffle_id, map_partition)
            for shuffle_id, locations in self._locations.items()
            for map_partition in locations
        }

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _handle_worker_killed(self, worker_id: int) -> None:
        """Forget locations pointing at a dead worker.

        The blocks themselves were dropped by the worker's ``kill``; the
        next fetch raises FetchFailedError and the scheduler recomputes.
        """
        for locations in self._locations.values():
            lost = [
                map_partition
                for map_partition, owner in locations.items()
                if owner == worker_id
            ]
            for map_partition in lost:
                del locations[map_partition]
