"""Task-side runtime: the task context and the cached-partition tracker."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cluster.worker import approximate_size_bytes
from repro.costmodel.models import SOURCE_MEMORY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import VirtualCluster, Worker
    from repro.engine.metrics import TaskMetrics
    from repro.engine.shuffle import ShuffleManager


def _rdd_block_id(rdd_id: int, partition: int) -> str:
    return f"rdd_{rdd_id}_{partition}"


#: Stack of task contexts currently executing on this driver process.
#: Tasks run inline, so "the current task" is whatever the scheduler most
#: recently pushed; accumulators consult it to buffer task-side updates
#: per attempt instead of mutating driver state mid-task (which would
#: double count on retries, speculation, and lineage recovery).
_ACTIVE_TASKS: list["TaskContext"] = []


def current_task_context() -> "TaskContext | None":
    """The innermost running task's context, or None on the driver."""
    return _ACTIVE_TASKS[-1] if _ACTIVE_TASKS else None


def push_task_context(task_ctx: "TaskContext") -> None:
    _ACTIVE_TASKS.append(task_ctx)


def pop_task_context(task_ctx: "TaskContext") -> None:
    """Pop ``task_ctx`` (and anything an exception left above it)."""
    while _ACTIVE_TASKS:
        if _ACTIVE_TASKS.pop() is task_ctx:
            return


class CacheTracker:
    """Master-side registry of which worker holds each cached RDD partition.

    A cached partition lives on exactly one worker (RDDs need no
    replication: lineage recomputes lost blocks, Section 2.2).  When a
    worker dies its entries are dropped and the next read recomputes.
    """

    def __init__(self, cluster: "VirtualCluster"):
        self._cluster = cluster
        self._tracer = cluster.tracer
        #: (rdd_id, partition) -> worker_id
        self._locations: dict[tuple[int, int], int] = {}
        #: rdd_id -> [hits, misses] (per-table ratio gauges).
        self._rdd_stats: dict[int, list[int]] = {}
        cluster.on_worker_killed(self._handle_worker_killed)

    def get(self, rdd_id: int, partition: int) -> tuple[int, Any] | None:
        """Return (worker_id, value) for a cached partition, or None."""
        worker_id = self._locations.get((rdd_id, partition))
        if worker_id is None:
            self._tracer.metrics.inc("cache.misses")
            self._note_access(rdd_id, hit=False)
            return None
        worker = self._cluster.worker(worker_id)
        block_id = _rdd_block_id(rdd_id, partition)
        if not worker.alive or block_id not in worker.blocks:
            self._locations.pop((rdd_id, partition), None)
            self._tracer.metrics.inc("cache.misses")
            self._note_access(rdd_id, hit=False)
            return None
        self._tracer.metrics.inc("cache.hits")
        self._note_access(rdd_id, hit=True)
        self._tracer.instant(
            "cache.hit",
            "cache",
            lane=worker_id,
            rdd_id=rdd_id,
            partition=partition,
        )
        return worker_id, worker.blocks.get(block_id)

    def _note_access(self, rdd_id: int, hit: bool) -> None:
        """Maintain the derived cache-ratio gauges: one overall pair
        from the ``cache.*``/``blocks.*`` counters, plus a per-RDD
        hit-ratio gauge so eviction pressure on one table is readable
        straight from ``.metrics``."""
        stats = self._rdd_stats.setdefault(rdd_id, [0, 0])
        stats[0 if hit else 1] += 1
        metrics = self._tracer.metrics
        hits = metrics.value("cache.hits")
        misses = metrics.value("cache.misses")
        if hits + misses:
            metrics.set_gauge(
                "cache.hit_ratio", hits / (hits + misses)
            )
        puts = metrics.value("blocks.put")
        if puts:
            metrics.set_gauge(
                "blocks.eviction_ratio",
                metrics.value("blocks.evicted") / puts,
            )
        total = stats[0] + stats[1]
        metrics.set_gauge(  # dynamic name: per-table breakdown
            f"cache.rdd_{rdd_id}.hit_ratio", stats[0] / total
        )

    def location(self, rdd_id: int, partition: int) -> int | None:
        return self._locations.get((rdd_id, partition))

    def holds_all(self, rdd_id: int, num_partitions: int) -> bool:
        """True when every partition of an RDD is cached on a live worker
        (no metrics: a planning check, not a read)."""
        for partition in range(num_partitions):
            worker_id = self._locations.get((rdd_id, partition))
            if worker_id is None:
                return False
            worker = self._cluster.worker(worker_id)
            if (
                not worker.alive
                or _rdd_block_id(rdd_id, partition) not in worker.blocks
            ):
                return False
        return True

    def put(
        self,
        rdd_id: int,
        partition: int,
        worker_id: int,
        value: Any,
        size_bytes: int | None = None,
    ) -> None:
        worker = self._cluster.worker(worker_id)
        worker.blocks.put(_rdd_block_id(rdd_id, partition), value, size_bytes)
        self._locations[(rdd_id, partition)] = worker_id

    def unpersist(self, rdd_id: int) -> None:
        stale = [key for key in self._locations if key[0] == rdd_id]
        for key in stale:
            worker_id = self._locations.pop(key)
            worker = self._cluster.worker(worker_id)
            worker.blocks.remove(_rdd_block_id(key[0], key[1]))

    def cached_partitions(self, rdd_id: int) -> dict[int, int]:
        """partition -> worker_id for every cached partition of an RDD."""
        return {
            partition: worker_id
            for (cached_rdd, partition), worker_id in self._locations.items()
            if cached_rdd == rdd_id
        }

    def cached_bytes(self, rdd_id: int) -> int:
        """Total block-store bytes held for one RDD across live workers."""
        total = 0
        for (cached_rdd, partition), worker_id in self._locations.items():
            if cached_rdd != rdd_id:
                continue
            worker = self._cluster.worker(worker_id)
            block_id = _rdd_block_id(cached_rdd, partition)
            if worker.alive and block_id in worker.blocks:
                total += worker.blocks.size_of(block_id)
        return total

    def _handle_worker_killed(self, worker_id: int) -> None:
        stale = [
            key for key, owner in self._locations.items() if owner == worker_id
        ]
        for key in stale:
            del self._locations[key]


class TaskContext:
    """Everything a running task can reach: its identity, worker, shuffle
    manager, cache tracker, and the metrics object it fills in.

    ``attempt`` numbers retries of the same task (1-based); ``speculative``
    marks backup copies launched against stragglers.  Accumulator updates
    made while the task runs land in ``acc_updates`` and are merged into
    driver state exactly once — only for the attempt whose result the
    scheduler actually keeps.

    ``cancel_token`` is the owning query's cooperative cancellation flag
    (when the task runs under a lifecycle manager): in-flight attempts
    observe it via :meth:`check_cancelled` at RDD iterator boundaries, so
    a cancelled query stops computing without waiting for the stage to
    finish — and the dead attempt's buffered accumulator updates are
    simply discarded, never merged.
    """

    def __init__(
        self,
        stage_id: int,
        partition: int,
        worker: "Worker",
        shuffle_manager: "ShuffleManager",
        cache_tracker: CacheTracker,
        metrics: "TaskMetrics",
        attempt: int = 1,
        speculative: bool = False,
        cancel_token: Any | None = None,
        accountant: Any | None = None,
    ):
        self.stage_id = stage_id
        self.partition = partition
        self.worker = worker
        self.shuffle_manager = shuffle_manager
        self.cache_tracker = cache_tracker
        self.metrics = metrics
        self.attempt = attempt
        self.speculative = speculative
        self.cancel_token = cancel_token
        #: Buffered (accumulator, delta) pairs from this attempt.
        self.acc_updates: list[tuple[Any, Any]] = []
        #: Execution-pool memory ledger (None outside an EngineContext).
        self.accountant = accountant
        #: owner -> bytes this attempt still holds; drained by
        #: release_task_memory() when the attempt ends, so failed or
        #: cancelled attempts can never leak reservations.
        self._memory_held: dict[str, int] = {}
        #: Spillable consumers this attempt registered with the
        #: accountant; deregistered alongside the memory drain so a
        #: failed, retried, or cancelled attempt can never leave a dead
        #: consumer (or its spilled runs) reachable from arbitration.
        self._spillables: list[Any] = []

    # -- execution-pool memory accounting ------------------------------
    def reserve_memory(self, owner: str, nbytes: int) -> int:
        """Charge ``nbytes`` of transient operator state (hash tables,
        shuffle buffers) to this worker's execution pool, attributed to
        ``owner``; auto-released when the attempt ends."""
        if self.accountant is None or nbytes <= 0:
            return 0
        charged = self.accountant.reserve(
            self.worker.worker_id, "execution", owner, nbytes
        )
        if charged:
            self._memory_held[owner] = (
                self._memory_held.get(owner, 0) + charged
            )
        return charged

    def release_memory(self, owner: str, nbytes: int) -> int:
        """Return part of an earlier reservation (e.g. a drained
        aggregation state) before the attempt ends."""
        if self.accountant is None or nbytes <= 0:
            return 0
        held = self._memory_held.get(owner, 0)
        released = self.accountant.release(
            self.worker.worker_id, "execution", owner, min(nbytes, held)
        )
        remaining = held - released
        if remaining:
            self._memory_held[owner] = remaining
        else:
            self._memory_held.pop(owner, None)
        return released

    def register_spillable(self, consumer: Any) -> None:
        """Register a spillable execution consumer (external hash agg,
        external sort) with the accountant's arbitration path for this
        task's worker; automatically deregistered when the attempt
        ends."""
        if self.accountant is None:
            return
        self.accountant.register_spill_consumer(
            self.worker.worker_id, consumer
        )
        self._spillables.append(consumer)

    def release_task_memory(self) -> int:
        """Drain every reservation this attempt still holds (called by
        the scheduler in the attempt's ``finally`` — the leak-proof
        release point for retries, speculation, and cancellation)."""
        if self.accountant is None:
            return 0
        for consumer in self._spillables:
            self.accountant.deregister_spill_consumer(
                self.worker.worker_id, consumer
            )
        self._spillables.clear()
        released = 0
        for owner, held in list(self._memory_held.items()):
            released += self.accountant.release(
                self.worker.worker_id, "execution", owner, held
            )
        self._memory_held.clear()
        return released

    def check_cancelled(self) -> None:
        """Raise the owning query's typed cancellation error if its
        token is armed (no-op for tasks outside a lifecycle manager)."""
        if self.cancel_token is not None:
            self.cancel_token.raise_if_cancelled()

    def record_accumulator(self, accumulator: Any, delta: Any) -> None:
        """Buffer a task-side accumulator update for driver-side merge."""
        self.acc_updates.append((accumulator, delta))

    def read_cached(self, rdd_id: int, partition: int) -> Any | None:
        """Read a cached partition, recording memory-source metrics."""
        hit = self.cache_tracker.get(rdd_id, partition)
        if hit is None:
            return None
        __, value = hit
        self.metrics.source = SOURCE_MEMORY
        self.metrics.bytes_in += approximate_size_bytes(value)
        if isinstance(value, list):
            self.metrics.records_in += len(value)
        return value

    def write_cached(self, rdd_id: int, partition: int, value: Any) -> None:
        self.cache_tracker.put(rdd_id, partition, self.worker.worker_id, value)
