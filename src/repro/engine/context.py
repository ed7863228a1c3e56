"""EngineContext: the driver-side entry point to the execution engine."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.cluster import VirtualCluster
from repro.engine.broadcast import Broadcast
from repro.engine.dependencies import ShuffleDependency
from repro.engine.memory import MemoryAccountant
from repro.engine.metrics import QueryProfile
from repro.engine.rdd import RDD, DataRDD, ShuffledRDD
from repro.engine.scheduler import DAGScheduler
from repro.engine.shuffle import MapOutputStats, ShuffleManager
from repro.engine.task import CacheTracker
from repro.obs import MetricsRegistry, QueryTrace, Tracer


class EngineContext:
    """Driver context: owns the cluster, scheduler, shuffle and cache state.

    Analogous to SparkContext.  Create one per application::

        ctx = EngineContext(num_workers=4)
        counts = (
            ctx.parallelize(visits)
            .map(lambda v: (v.url, 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
    """

    def __init__(
        self,
        num_workers: int = 4,
        cores_per_worker: int = 2,
        default_parallelism: Optional[int] = None,
        memory_per_worker_bytes: Optional[int] = None,
        fault_injector=None,
        scheduler_config=None,
    ):
        #: One tracer per context, disabled until enable_tracing(); its
        #: metrics registry is always live.  Every subsystem shares it.
        self.tracer = Tracer()
        #: Optional repro.faults.FaultInjector; None means fault-free
        #: execution (and speculation stays off in its auto mode).
        self.fault_injector = fault_injector
        #: Unified per-worker memory ledger (storage + execution pools);
        #: block stores, shuffle buffers, broadcasts, and operators all
        #: reserve and release through it.
        self.memory = MemoryAccountant(
            tracer=self.tracer, capacity_bytes=memory_per_worker_bytes
        )
        self.cluster = VirtualCluster(
            num_workers,
            cores_per_worker,
            memory_per_worker_bytes=memory_per_worker_bytes,
            tracer=self.tracer,
            accountant=self.memory,
        )
        self.shuffle_manager = ShuffleManager(
            self.cluster, tracer=self.tracer, fault_injector=fault_injector
        )
        self.cache_tracker = CacheTracker(self.cluster)
        self.scheduler = DAGScheduler(self, config=scheduler_config)
        #: Optional QueryLifecycleManager (admission control, deadlines,
        #: cancellation, fairness); None until enable_lifecycle().
        self.lifecycle = None
        #: Optional EventLogWriter; None until enable_event_log().
        self.event_log = None
        #: Optional SqlServer (multi-tenant serving); None until a
        #: server is started over this context (repro.serving).
        self.serving = None
        #: Optional SqlCache (plan/result/fragment caching); None until
        #: SqlSession.enable_sql_cache().  The physical layer reads this
        #: for scan-fragment reuse and shared scans.
        self.sql_cache = None
        if (
            fault_injector is not None
            and fault_injector.kill_worker_id is not None
        ):
            self.cluster.inject_failure(
                fault_injector.kill_worker_id,
                fault_injector.kill_after_tasks,
            )
        self.default_parallelism = (
            default_parallelism
            if default_parallelism is not None
            else num_workers * cores_per_worker
        )
        self._next_rdd_id = 0
        self._next_broadcast_id = 0
        #: Broadcasts whose execution-pool charge is still live (see
        #: release_broadcast_accounting).
        self._live_broadcasts: list[Broadcast] = []

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------
    def new_rdd_id(self) -> int:
        rdd_id = self._next_rdd_id
        self._next_rdd_id += 1
        return rdd_id

    def parallelize(
        self, data: Iterable[Any], num_partitions: Optional[int] = None
    ) -> RDD:
        """Distribute a local collection into an RDD."""
        items = list(data)
        parts = num_partitions or self.default_parallelism
        parts = max(1, min(parts, max(len(items), 1)))
        slices: list[list] = [[] for _ in range(parts)]
        # Contiguous slicing preserves input order across collect().
        base, extra = divmod(len(items), parts)
        start = 0
        for index in range(parts):
            end = start + base + (1 if index < extra else 0)
            slices[index] = items[start:end]
            start = end
        return DataRDD(self, slices)

    def empty_rdd(self) -> RDD:
        return DataRDD(self, [[]])

    def union(self, rdds: list[RDD]) -> RDD:
        from repro.engine.rdd import UnionRDD

        return UnionRDD(self, rdds)

    # ------------------------------------------------------------------
    # Shared variables
    # ------------------------------------------------------------------
    def broadcast(
        self, value: Any, size_bytes: Optional[int] = None
    ) -> Broadcast:
        broadcast = Broadcast(
            self._next_broadcast_id,
            value,
            accountant=self.memory,
            size_bytes=size_bytes,
        )
        self._next_broadcast_id += 1
        self._live_broadcasts.append(broadcast)
        return broadcast

    def release_broadcast_accounting(self) -> int:
        """Drop the execution-pool charge of every live broadcast (the
        SQL session calls this at query end: broadcast build tables are
        query-scoped, and the ledger must balance to zero afterwards).
        The values themselves stay usable; only the accounting ends.
        Returns the bytes released."""
        released = 0
        for broadcast in self._live_broadcasts:
            released += broadcast.release_accounting()
        self._live_broadcasts.clear()
        return released

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def run_job(
        self,
        rdd: RDD,
        func: Callable[[list], Any],
        partitions: Optional[list[int]] = None,
    ) -> list:
        return self.scheduler.run_job(rdd, func, partitions)

    def materialize_shuffle(self, shuffled: ShuffledRDD) -> MapOutputStats:
        """PDE: run only the map side of ``shuffled``'s shuffle and return
        the collected statistics.  The reduce side can then be planned (or
        abandoned for a broadcast join) based on what was observed; if the
        shuffled RDD is later executed, its map stage is skipped because
        the outputs already exist."""
        return self.scheduler.materialize_shuffle(shuffled.shuffle_dep)

    def materialize_dependency(self, dep: ShuffleDependency) -> MapOutputStats:
        return self.scheduler.materialize_shuffle(dep)

    @property
    def last_profile(self) -> Optional[QueryProfile]:
        """Metrics of the most recently executed job."""
        return self.scheduler.last_profile

    def reset_profiles(self) -> None:
        """Clear the job-profile history (call before a measured query)."""
        self.scheduler.reset_history()

    @property
    def profiles(self) -> list[QueryProfile]:
        """Profiles of every job since the last reset (a single SQL query
        may span several: PDE pre-shuffles, sampling, the final collect)."""
        return list(self.scheduler.history)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """The always-on metrics registry (counters/gauges/histograms)."""
        return self.tracer.metrics

    @property
    def trace(self) -> QueryTrace:
        """Spans and events recorded since tracing was last enabled."""
        return self.tracer.trace

    def enable_tracing(self, reset: bool = True) -> Tracer:
        """Turn span/event collection on; returns the tracer."""
        return self.tracer.enable(reset=reset)

    def disable_tracing(self) -> None:
        self.tracer.disable()

    def enable_event_log(self, path, **header_extra):
        """Open a persistent event log at ``path`` (gzip when the name
        ends in ``.gz``); every query executed through the SQL session
        or the lifecycle manager streams its records there, and flight-
        recorder dumps go into the same file.  Returns the writer."""
        from repro.obs.events import EventLogWriter

        if self.event_log is not None:
            self.close_event_log()
        self.event_log = EventLogWriter(
            path,
            workers=self.cluster.num_workers,
            cores_per_worker=(
                self.cluster.workers[0].cores
                if self.cluster.workers
                else 1
            ),
            metrics=self.tracer.metrics,
            **header_extra,
        )
        self.tracer.flight.sink = self.event_log.write
        return self.event_log

    def close_event_log(self) -> None:
        """Flush and detach the event log (idempotent)."""
        if self.event_log is not None:
            self.event_log.close()
            self.event_log = None
            self.tracer.flight.sink = None

    # ------------------------------------------------------------------
    # Query lifecycle (admission, deadlines, cancellation, fairness)
    # ------------------------------------------------------------------
    def enable_lifecycle(self, config=None):
        """Attach a :class:`~repro.engine.lifecycle.QueryLifecycleManager`
        so queries can be submitted concurrently with admission control,
        deadlines, and cooperative cancellation; returns the manager.

        Idempotent when called without a config; a new config replaces
        the manager (only safe while no queries are in flight).
        """
        from repro.engine.lifecycle import QueryLifecycleManager

        if self.lifecycle is None or config is not None:
            self.lifecycle = QueryLifecycleManager(self, config=config)
        return self.lifecycle

    # ------------------------------------------------------------------
    # Cluster control (failure experiments, elasticity)
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        self.cluster.kill_worker(worker_id)

    def restart_worker(self, worker_id: int) -> None:
        self.cluster.restart_worker(worker_id)

    def inject_failure(self, worker_id: int, after_tasks: int):
        return self.cluster.inject_failure(worker_id, after_tasks)

    def add_worker(self, cores: int = 2):
        return self.cluster.add_worker(cores)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EngineContext(workers={self.cluster.num_workers}, "
            f"default_parallelism={self.default_parallelism})"
        )
