"""DAG scheduler: stages, tasks, and lineage-based fault recovery.

The scheduler turns an RDD graph into stages split at shuffle boundaries
(Section 2.4) and runs each stage's tasks on virtual workers.  Its recovery
behaviour implements the paper's fault-tolerance guarantees (Section 2.3):

* a fetch of lost map output raises ``FetchFailedError``; the scheduler
  re-runs *only the lost map tasks* (on other workers) and retries — the
  query never restarts;
* recovery cascades: if recomputing a map task needs data from an earlier
  shuffle that was also lost, that stage's lost tasks are recomputed first;
* recovered partitions spread across all live workers (parallel recovery);
* shuffle outputs that already exist are *not* recomputed — a stage whose
  map outputs are all present is skipped, which is also what lets PDE
  pre-run the map side of a shuffle and reuse it (Section 3.1); lineage
  below an RDD whose partitions are all cached is not walked at all.

Shuffle outputs have a query-scoped lifetime: a SQL statement or
lifecycle query opens a *shuffle scope* (:meth:`DAGScheduler.shuffle_scope`)
that claims every shuffle first registered inside it, and when the last
scope claiming a shuffle ends — success, cancellation, deadline or
failure alike — its map outputs are freed.  Shuffles registered outside
any scope (``sql2rdd`` results, direct RDD-API jobs) belong to the
user's RDD and are kept for reuse across actions, as in Spark.

Layered on top of lineage recovery is per-attempt robustness (Section 7's
straggler/failure discussion), governed by :class:`SchedulerConfig`:

* **retry with backoff** — a :class:`~repro.errors.TransientTaskFailure`
  (from the fault-injection harness or a flaky worker) retries the task on
  a different worker after a capped exponential *simulated-clock* backoff,
  up to ``max_task_attempts``; this is per-attempt and distinct from
  lineage-recovery rounds, which re-run tasks whose *output* was lost;
* **speculative execution** — when a completed task's simulated runtime
  exceeds a quantile of its stage peers, a backup copy runs on another
  worker and the faster finisher's result is kept;
* **worker blacklisting** — workers accumulating ``blacklist_threshold``
  failures are taken out of the schedulable pool for a probation period.

Correctness under re-execution: each attempt buffers its accumulator
updates on its :class:`~repro.engine.task.TaskContext`, and the scheduler
merges only the kept attempt's buffer — exactly once per map partition
(guarded across lineage re-runs) and once per result partition — so
retries, speculation, and recovery never inflate accumulator values.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.engine.dependencies import (
    NarrowDependency,
    ShuffleDependency,
)
from repro.engine.metrics import QueryProfile, StageProfile, TaskMetrics
from repro.engine.task import (
    TaskContext,
    pop_task_context,
    push_task_context,
)
from repro.errors import (
    EngineError,
    FetchFailedError,
    QueryLifecycleError,
    TaskError,
    TransientTaskFailure,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext
    from repro.engine.rdd import RDD
    from repro.engine.shuffle import MapOutputStats

#: Upper bound on recovery rounds for one job before giving up.
MAX_RECOVERY_ROUNDS = 16


@dataclass
class SchedulerConfig:
    """Knobs for the scheduler's robustness machinery.

    ``speculation=None`` means *auto*: speculative execution turns on when
    the engine context carries a fault injector (so fault-free runs keep
    their exact seed behaviour) and stays off otherwise.
    """

    #: Attempts per task (first run + retries) before the job fails.
    max_task_attempts: int = 4
    #: First retry waits this many simulated seconds; doubles per retry.
    retry_backoff_base_s: float = 0.05
    #: Ceiling on the simulated backoff delay.
    retry_backoff_cap_s: float = 2.0
    #: True/False forces speculation on/off; None = auto (see above).
    speculation: Optional[bool] = None
    #: A task is a straggler when its runtime exceeds this quantile of
    #: completed stage peers times ``speculation_multiplier``.
    speculation_quantile: float = 0.75
    speculation_multiplier: float = 1.5
    #: Minimum completed peers before the quantile is trusted.
    speculation_min_peers: int = 3
    #: Failures before a worker is blacklisted.
    blacklist_threshold: int = 3
    #: Probation length, in cluster-wide task completions.
    blacklist_probation_tasks: int = 25


@dataclass
class _Attempt:
    """One finished task attempt the scheduler may keep or discard."""

    worker_id: int
    metrics: TaskMetrics
    task_ctx: TaskContext
    result: Any
    records_out: int
    #: Simulated runtime (None when nothing downstream needs durations).
    seconds: Optional[float] = None


class Stage:
    """A set of independent tasks: map side of one shuffle, or the final
    result computation."""

    def __init__(
        self,
        stage_id: int,
        rdd: "RDD",
        shuffle_dep: Optional[ShuffleDependency] = None,
    ):
        self.stage_id = stage_id
        self.rdd = rdd
        self.shuffle_dep = shuffle_dep
        self.parents: list["Stage"] = []

    @property
    def is_shuffle_map(self) -> bool:
        return self.shuffle_dep is not None

    @property
    def num_partitions(self) -> int:
        return self.rdd.num_partitions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "shuffle-map" if self.is_shuffle_map else "result"
        return f"Stage({self.stage_id}, {kind}, rdd={self.rdd.name})"


class DAGScheduler:
    """Builds stages from lineage and executes them with recovery."""

    def __init__(
        self, ctx: "EngineContext", config: Optional[SchedulerConfig] = None
    ):
        self._ctx = ctx
        self.config = config if config is not None else SchedulerConfig()
        self._next_stage_id = 0
        self._next_job_id = 0
        #: shuffle_id -> Stage, shared across jobs so PDE pre-shuffles and
        #: reused cached plans skip already-materialized stages.
        self._shuffle_stages: dict[int, Stage] = {}
        #: Profile of the most recent job, for the cost model and tests.
        self.last_profile: Optional[QueryProfile] = None
        #: Profiles of every job run since the last reset_history(); a SQL
        #: query can span several jobs (PDE pre-shuffles, sort sampling,
        #: the final collect), and cost accounting needs all of them.
        self.history: list[QueryProfile] = []
        #: (tenant, worker_id) -> failures since its last blacklisting.
        #: Attribution is per tenant (None outside lifecycle queries) so
        #: one tenant's poison query cannot blacklist workers out from
        #: under everybody else's healthy traffic.
        self._worker_failures: dict[tuple[Optional[str], int], int] = {}
        #: (shuffle_id, map_partition) whose accumulator buffer was merged
        #: — lineage re-runs of a map task must not merge again.
        self._merged_map_acc: set[tuple[int, int]] = set()
        #: stage_id -> kept-attempt simulated durations (speculation peers).
        self._stage_durations: dict[int, list[float]] = {}
        #: shuffle_id -> number of open shuffle scopes claiming it.
        self._claims: dict[int, int] = {}
        #: Per-thread open scope (``.claims``): lifecycle queries run on
        #: their own threads, direct SQL on the driver's.
        self._scope_local = threading.local()

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run_job(
        self,
        rdd: "RDD",
        func: Callable[[list], object],
        partitions: Optional[list[int]] = None,
    ) -> list:
        """Compute ``func(partition_data)`` for each requested partition."""
        if partitions is None:
            partitions = list(range(rdd.num_partitions))
        job_id = self._next_job_id
        self._next_job_id += 1
        profile = QueryProfile(job_id=job_id)
        tracer = self._ctx.tracer
        tracer.metrics.inc("jobs.submitted")
        evicted_before = tracer.metrics.value("blocks.evicted")
        evicted_bytes_before = tracer.metrics.value("blocks.evicted.bytes")
        reserved_before = tracer.metrics.value("memory.reserved.bytes")
        spill_events_before = tracer.metrics.value("memory.spill.events")
        spill_bytes_before = tracer.metrics.value("memory.spill.bytes")
        job_status = "ok"
        job_span = tracer.begin_span(
            f"job {job_id}",
            "job",
            rdd=rdd.name,
            partitions=len(partitions),
        )
        final_stage = Stage(self._new_stage_id(), rdd)
        try:
            final_stage.parents = self._parent_stages(rdd)
            self._ensure_parents(final_stage, profile)

            stage_profile = self._stage_profile(profile, final_stage)
            stage_span = tracer.begin_span(
                f"stage {final_stage.stage_id}",
                "stage",
                rdd=rdd.name,
                kind="result",
                tasks=len(partitions),
            )
            tracer.metrics.inc("stages.run")
            try:
                results = []
                for partition in partitions:
                    results.append(
                        self._run_with_recovery(
                            final_stage, partition, profile, stage_profile,
                            func,
                        )
                    )
            except QueryLifecycleError:
                tracer.end_span(stage_span, status="cancelled")
                stage_span = None
                raise
            finally:
                tracer.end_span(stage_span)
        except QueryLifecycleError:
            job_status = "cancelled"
            raise
        finally:
            profile.evicted_blocks = int(
                tracer.metrics.value("blocks.evicted") - evicted_before
            )
            profile.evicted_bytes = int(
                tracer.metrics.value("blocks.evicted.bytes")
                - evicted_bytes_before
            )
            profile.memory_reserved_bytes = int(
                tracer.metrics.value("memory.reserved.bytes")
                - reserved_before
            )
            profile.memory_peak_bytes = int(self._ctx.memory.peak_bytes())
            profile.memory_spill_events = int(
                tracer.metrics.value("memory.spill.events")
                - spill_events_before
            )
            profile.memory_spill_bytes = int(
                tracer.metrics.value("memory.spill.bytes")
                - spill_bytes_before
            )
            tracer.end_span(
                job_span,
                stages=profile.num_stages,
                recovered_tasks=profile.recovered_tasks,
                status=job_status,
            )
            # A result stage is never reused: forget its speculation
            # peers so the map stays bounded by live shuffle stages.
            self._stage_durations.pop(final_stage.stage_id, None)
        self.last_profile = profile
        self.history.append(profile)
        return results

    def materialize_shuffle(self, dep: ShuffleDependency) -> "MapOutputStats":
        """PDE hook: run the map side of one shuffle now and return its
        statistics, without planning anything downstream (Section 3.1)."""
        job_id = self._next_job_id
        self._next_job_id += 1
        profile = QueryProfile(job_id=job_id)
        tracer = self._ctx.tracer
        tracer.metrics.inc("jobs.submitted")
        tracer.metrics.inc("pde.pre_shuffles")
        evicted_before = tracer.metrics.value("blocks.evicted")
        evicted_bytes_before = tracer.metrics.value("blocks.evicted.bytes")
        reserved_before = tracer.metrics.value("memory.reserved.bytes")
        spill_events_before = tracer.metrics.value("memory.spill.events")
        spill_bytes_before = tracer.metrics.value("memory.spill.bytes")
        job_span = tracer.begin_span(
            f"job {job_id}",
            "job",
            kind="pde-pre-shuffle",
            shuffle_id=dep.shuffle_id,
        )
        try:
            stage = self._stage_for_shuffle(dep)
            self._ensure_shuffle_stage(stage, profile)
        finally:
            profile.evicted_blocks = int(
                tracer.metrics.value("blocks.evicted") - evicted_before
            )
            profile.evicted_bytes = int(
                tracer.metrics.value("blocks.evicted.bytes")
                - evicted_bytes_before
            )
            profile.memory_reserved_bytes = int(
                tracer.metrics.value("memory.reserved.bytes")
                - reserved_before
            )
            profile.memory_peak_bytes = int(self._ctx.memory.peak_bytes())
            profile.memory_spill_events = int(
                tracer.metrics.value("memory.spill.events")
                - spill_events_before
            )
            profile.memory_spill_bytes = int(
                tracer.metrics.value("memory.spill.bytes")
                - spill_bytes_before
            )
            tracer.end_span(job_span, stages=profile.num_stages)
        self.last_profile = profile
        self.history.append(profile)
        return self._ctx.shuffle_manager.stats(dep.shuffle_id)

    def reset_history(self) -> None:
        self.history = []

    # ------------------------------------------------------------------
    # Query-scoped shuffle lifetime
    # ------------------------------------------------------------------
    @contextmanager
    def shuffle_scope(self):
        """Run a block as one query's shuffle scope (see
        :meth:`open_shuffle_scope`); its shuffles are freed on exit."""
        claims = self.open_shuffle_scope()
        try:
            yield
        finally:
            self.close_shuffle_scope(claims)

    def open_shuffle_scope(self) -> Optional[set]:
        """Open a shuffle scope on the calling thread and return its
        claim set, or None when one is already open there (a statement
        nested in a lifecycle query, or a CTAS's inner SELECT, joins the
        enclosing scope)."""
        if getattr(self._scope_local, "claims", None) is not None:
            return None
        claims: set = set()
        self._scope_local.claims = claims
        return claims

    def close_shuffle_scope(self, claims: Optional[set]) -> int:
        """End a scope opened by :meth:`open_shuffle_scope`: drop its
        claims and free every shuffle no other open scope still claims.
        Returns the number of map-output blocks freed."""
        if claims is None:
            return 0
        self._scope_local.claims = None
        if not claims:
            return 0
        freed = []
        for shuffle_id in claims:
            remaining = self._claims[shuffle_id] - 1
            if remaining:
                self._claims[shuffle_id] = remaining
            else:
                del self._claims[shuffle_id]
                freed.append(shuffle_id)
        return self.release_query_shuffles(freed)

    def _claim_shuffle(self, shuffle_id: int, registered_now: bool) -> None:
        """Let the calling thread's open scope claim a shuffle it
        registered, or one an in-flight scope still claims (so a shared
        shuffle lives until its last user ends).  A shuffle registered
        outside every scope belongs to a user-held RDD and is never
        claimed."""
        claims = getattr(self._scope_local, "claims", None)
        if claims is None or shuffle_id in claims:
            return
        if registered_now or shuffle_id in self._claims:
            claims.add(shuffle_id)
            self._claims[shuffle_id] = self._claims.get(shuffle_id, 0) + 1

    def release_query_shuffles(self, shuffle_ids) -> int:
        """Forget ended queries' shuffles entirely; returns blocks freed.

        The map outputs are dropped from the workers (they are pinned, so
        nothing else would ever reclaim them), the stages leave the
        reusable-stage cache, their speculation peer durations are
        forgotten, and their exactly-once accumulator guards are cleared
        so a re-run of the same computation merges accumulator buffers
        afresh.
        """
        shuffle_ids = sorted(shuffle_ids)
        if not shuffle_ids:
            return 0
        released = 0
        for shuffle_id in shuffle_ids:
            stage = self._shuffle_stages.pop(shuffle_id, None)
            if stage is not None:
                self._stage_durations.pop(stage.stage_id, None)
            released += self._ctx.shuffle_manager.release_shuffle(shuffle_id)
        if self._merged_map_acc:
            dropped = set(shuffle_ids)
            self._merged_map_acc = {
                key for key in self._merged_map_acc if key[0] not in dropped
            }
        return released

    # ------------------------------------------------------------------
    # Stage graph construction
    # ------------------------------------------------------------------
    def _new_stage_id(self) -> int:
        stage_id = self._next_stage_id
        self._next_stage_id += 1
        return stage_id

    def _stage_for_shuffle(self, dep: ShuffleDependency) -> Stage:
        stage = self._shuffle_stages.get(dep.shuffle_id)
        if stage is None:
            stage = Stage(self._new_stage_id(), dep.rdd, shuffle_dep=dep)
            self._shuffle_stages[dep.shuffle_id] = stage
            stage.parents = self._parent_stages(dep.rdd)
        return stage

    def _parent_stages(self, rdd: "RDD") -> list[Stage]:
        """Shuffle stages this RDD depends on through narrow chains.

        Lineage below an RDD whose partitions are all cached is not
        walked: its parent shuffles are not needed (and may have been
        freed).  Should such a partition be evicted mid-job, the fetch
        that recomputes it fails and :meth:`_recover_shuffle` re-runs the
        freed map stage from the lineage."""
        parents: list[Stage] = []
        seen: set[int] = set()
        stack = [rdd]
        visited: set[int] = set()
        cache_tracker = self._ctx.cache_tracker
        while stack:
            current = stack.pop()
            if current.id in visited:
                continue
            visited.add(current.id)
            if current.is_cached and cache_tracker.holds_all(
                current.id, current.num_partitions
            ):
                continue
            for dep in current.dependencies:
                if isinstance(dep, ShuffleDependency):
                    if dep.shuffle_id not in seen:
                        seen.add(dep.shuffle_id)
                        parents.append(self._stage_for_shuffle(dep))
                elif isinstance(dep, NarrowDependency):
                    stack.append(dep.rdd)
        return parents

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------
    def _ensure_parents(self, stage: Stage, profile: QueryProfile) -> None:
        for parent in stage.parents:
            self._ensure_shuffle_stage(parent, profile)

    def _ensure_shuffle_stage(self, stage: Stage, profile: QueryProfile) -> None:
        """Make every map output of this shuffle available, recursively."""
        dep = stage.shuffle_dep
        manager = self._ctx.shuffle_manager
        self._claim_shuffle(
            dep.shuffle_id, manager.register(dep, stage.num_partitions)
        )
        stage_profile = self._stage_profile(profile, stage)
        tracer = self._ctx.tracer
        stage_span = None
        status = "ok"

        try:
            for round_number in range(MAX_RECOVERY_ROUNDS):
                missing = manager.missing_maps(dep.shuffle_id)
                if not missing:
                    if stage_span is None:
                        tracer.metrics.inc("stages.skipped")
                    return
                if stage_span is None:
                    stage_span = tracer.begin_span(
                        f"stage {stage.stage_id}",
                        "stage",
                        rdd=stage.rdd.name,
                        kind="shuffle-map",
                        shuffle_id=dep.shuffle_id,
                        tasks=len(missing),
                    )
                    tracer.metrics.inc("stages.run")
                if round_number > 0:
                    profile.recovered_tasks += len(missing)
                    tracer.metrics.inc("tasks.recovered", len(missing))
                    tracer.instant(
                        "lineage.recovery",
                        "recovery",
                        stage_id=stage.stage_id,
                        shuffle_id=dep.shuffle_id,
                        lost_maps=len(missing),
                        round=round_number,
                    )
                self._ensure_parents(stage, profile)
                for partition in missing:
                    try:
                        self._run_map_task(
                            stage,
                            partition,
                            stage_profile,
                            recovery=round_number > 0,
                            profile=profile,
                        )
                    except FetchFailedError as failure:
                        # An ancestor shuffle lost data while we were
                        # running; loop around, re-ensure parents, retry
                        # what's missing.  One behind a cached RDD is no
                        # parent stage: recover it here.
                        if all(
                            parent.shuffle_dep.shuffle_id
                            != failure.shuffle_id
                            for parent in stage.parents
                        ):
                            self._recover_shuffle(
                                failure.shuffle_id, profile, stage.rdd
                            )
                        break
            # Recovery rounds exhausted with map outputs still missing:
            # record the failure so traces don't show a perpetually-open,
            # apparently-successful stage.
            status = "error"
            still_missing = manager.missing_maps(dep.shuffle_id)
            tracer.metrics.inc("tasks.failed", max(len(still_missing), 1))
            raise EngineError(
                f"stage {stage.stage_id} failed to materialize after "
                f"{MAX_RECOVERY_ROUNDS} recovery rounds "
                f"({len(still_missing)} map outputs still missing)"
            )
        except QueryLifecycleError:
            # Cancellation/deadline is not a stage failure: the span ends
            # with a distinct status and no stages.failed increment.
            status = "cancelled"
            raise
        except EngineError:
            status = "error"
            raise
        finally:
            if status == "error":
                tracer.metrics.inc("stages.failed")
                tracer.end_span(stage_span, status="error")
            elif status == "cancelled":
                tracer.end_span(stage_span, status="cancelled")
            else:
                tracer.end_span(stage_span)

    def _run_map_task(
        self,
        stage: Stage,
        partition: int,
        stage_profile: StageProfile,
        recovery: bool = False,
        profile: Optional[QueryProfile] = None,
    ) -> None:
        self._run_resilient_task(
            stage,
            partition,
            stage_profile,
            func=None,
            kind="shuffle-map",
            recovery=recovery,
            profile=profile,
        )

    def _run_with_recovery(
        self,
        stage: Stage,
        partition: int,
        profile: QueryProfile,
        stage_profile: StageProfile,
        func: Callable[[list], object],
    ) -> object:
        """Run one result task, recovering lost ancestor shuffles on demand."""
        tracer = self._ctx.tracer
        for attempt in range(1, MAX_RECOVERY_ROUNDS + 1):
            try:
                return self._run_resilient_task(
                    stage,
                    partition,
                    stage_profile,
                    func=func,
                    kind="result",
                    prior_attempts=attempt - 1,
                    profile=profile,
                )
            except FetchFailedError as failure:
                profile.recovered_tasks += 1
                tracer.metrics.inc("tasks.recovered")
                tracer.instant(
                    "task.reexecution",
                    "recovery",
                    stage_id=stage.stage_id,
                    partition=partition,
                    shuffle_id=failure.shuffle_id,
                    attempt=attempt,
                )
                self._recover_shuffle(failure.shuffle_id, profile, stage.rdd)
        tracer.metrics.inc("tasks.failed")
        raise EngineError(
            f"result partition {partition} failed after "
            f"{MAX_RECOVERY_ROUNDS} recovery rounds"
        )

    # ------------------------------------------------------------------
    # Resilient task execution: retry, speculation, blacklisting
    # ------------------------------------------------------------------
    def _speculation_enabled(self) -> bool:
        if self.config.speculation is not None:
            return self.config.speculation
        return self._ctx.fault_injector is not None

    def _run_resilient_task(
        self,
        stage: Stage,
        partition: int,
        stage_profile: StageProfile,
        func: Optional[Callable[[list], object]],
        kind: str,
        recovery: bool = False,
        prior_attempts: int = 0,
        profile: Optional[QueryProfile] = None,
    ) -> object:
        """Run one task to a kept result: retries transient failures with
        backoff, launches a speculative copy against stragglers, feeds the
        blacklist, and merges the winning attempt's accumulator buffer
        exactly once."""
        config = self.config
        tracer = self._ctx.tracer
        excluded: set[int] = set()
        winner: Optional[_Attempt] = None
        attempts_used = 0
        last_failure: Optional[TransientTaskFailure] = None
        for attempt in range(1, config.max_task_attempts + 1):
            attempts_used = attempt
            try:
                winner = self._attempt_task(
                    stage,
                    partition,
                    prior_attempts + attempt,
                    speculative=False,
                    exclude=excluded,
                    func=func,
                    kind=kind,
                    recovery=recovery,
                )
                break
            except TransientTaskFailure as failure:
                last_failure = failure
                excluded.add(failure.worker_id)
                self._note_worker_failure(failure.worker_id, profile)
                if attempt < config.max_task_attempts:
                    self._retry_with_backoff(
                        stage, partition, failure, attempt, profile
                    )
        if winner is None:
            tracer.metrics.inc("tasks.failed")
            raise TaskError(stage.stage_id, partition, last_failure)

        winner = self._maybe_speculate(
            stage,
            partition,
            winner,
            excluded,
            func,
            kind,
            prior_attempts + attempts_used,
            profile,
        )
        if winner.seconds is not None:
            self._stage_durations.setdefault(stage.stage_id, []).append(
                winner.seconds
            )
            self._ctx.tracer.metrics.observe(
                "task.seconds", winner.seconds
            )
        self._merge_accumulators(stage, partition, winner, kind)
        winner.metrics.attempts = prior_attempts + attempts_used + (
            1 if winner.metrics.speculative else 0
        )
        stage_profile.tasks.append(winner.metrics)
        return winner.result

    def _attempt_task(
        self,
        stage: Stage,
        partition: int,
        attempt: int,
        speculative: bool,
        exclude: set[int],
        func: Optional[Callable[[list], object]],
        kind: str,
        recovery: bool = False,
    ) -> _Attempt:
        """Execute one attempt of a task on a freshly assigned worker."""
        ctx = self._ctx
        tracer = ctx.tracer
        lifecycle = ctx.lifecycle
        if lifecycle is not None:
            # Cooperative scheduling point: observe cancellation/deadline
            # and hand the baton to another admitted query's task.  A
            # retry or speculative attempt passes through here too, so a
            # cancel issued mid-recovery stops the next attempt from ever
            # launching (the cancellation-races-retry case).
            lifecycle.checkpoint()
        worker = ctx.cluster.assign_worker(
            preferred=stage.rdd.preferred_workers(partition),
            exclude=exclude,
        )
        tracer.metrics.inc("tasks.launched")
        injector = ctx.fault_injector
        if injector is not None:
            reason = injector.fail_task(
                stage.stage_id, partition, attempt, worker.worker_id
            )
            if reason is not None:
                raise TransientTaskFailure(
                    stage.stage_id,
                    partition,
                    worker.worker_id,
                    reason,
                    attempt,
                )
        metrics = TaskMetrics(
            stage_id=stage.stage_id,
            partition=partition,
            worker_id=worker.worker_id,
            speculative=speculative,
        )
        task_ctx = TaskContext(
            stage_id=stage.stage_id,
            partition=partition,
            worker=worker,
            shuffle_manager=ctx.shuffle_manager,
            cache_tracker=ctx.cache_tracker,
            metrics=metrics,
            attempt=attempt,
            speculative=speculative,
            cancel_token=(
                lifecycle.current_token() if lifecycle is not None else None
            ),
            accountant=ctx.memory,
        )
        push_task_context(task_ctx)
        try:
            try:
                records = stage.rdd.iterator(partition, task_ctx)
                result = func(records) if func is not None else None
            except (FetchFailedError, EngineError):
                raise
            except Exception as exc:
                raise TaskError(stage.stage_id, partition, exc) from exc
        finally:
            pop_task_context(task_ctx)
            # Drain the attempt's execution-pool reservations whether it
            # succeeded, failed, or was cancelled — the ledger-balances-
            # to-zero invariant lives or dies right here.
            task_ctx.release_task_memory()
        if kind == "shuffle-map":
            ctx.shuffle_manager.write_map_output(
                stage.shuffle_dep,
                partition,
                worker.worker_id,
                records,
                metrics,
            )
        metrics.records_out = len(records)
        vector = metrics.to_cost_vector()
        # Durations are only priced out when something consumes them: the
        # trace, the fault injector's stragglers, or speculation.
        seconds: Optional[float] = None
        if (
            tracer.enabled
            or injector is not None
            or self._speculation_enabled()
            or (lifecycle is not None and lifecycle.in_query())
        ):
            seconds = tracer.estimate_seconds(vector)
            if injector is not None:
                seconds *= injector.straggler_factor(
                    stage.stage_id, partition, stage.num_partitions, attempt
                )
        if lifecycle is not None and seconds is not None:
            # Deadline accounting: every completed attempt's simulated
            # cost counts against the owning query's deadline.
            lifecycle.on_task_seconds(seconds)
        span_name = (
            f"map task {stage.stage_id}.{partition}"
            if kind == "shuffle-map"
            else f"result task {stage.stage_id}.{partition}"
        )
        span_args = dict(
            stage_id=stage.stage_id,
            partition=partition,
            kind=kind,
            records_out=metrics.records_out,
            attempt=attempt,
        )
        if kind == "shuffle-map":
            span_args["shuffle_write_bytes"] = metrics.shuffle_write_bytes
            span_args["recovery"] = recovery
        if speculative:
            span_args["speculative"] = True
        tracer.task_span(
            span_name,
            lane=worker.worker_id,
            vector=vector,
            seconds=seconds,
            **span_args,
        )
        if kind == "shuffle-map" and recovery:
            tracer.instant(
                "task.reexecution",
                "recovery",
                lane=worker.worker_id,
                stage_id=stage.stage_id,
                partition=partition,
                kind="shuffle-map",
            )
        ctx.cluster.task_completed(worker)
        return _Attempt(
            worker_id=worker.worker_id,
            metrics=metrics,
            task_ctx=task_ctx,
            result=result,
            records_out=metrics.records_out,
            seconds=seconds,
        )

    def _retry_with_backoff(
        self,
        stage: Stage,
        partition: int,
        failure: TransientTaskFailure,
        attempt: int,
        profile: Optional[QueryProfile],
    ) -> None:
        """Record a retry and charge its backoff delay to simulated time."""
        config = self.config
        tracer = self._ctx.tracer
        delay = min(
            config.retry_backoff_base_s * (2 ** (attempt - 1)),
            config.retry_backoff_cap_s,
        )
        tracer.metrics.inc("tasks.retried")
        if profile is not None:
            profile.retried_tasks += 1
        tracer.instant(
            "task.retry",
            "recovery",
            lane=failure.worker_id,
            stage_id=stage.stage_id,
            partition=partition,
            attempt=attempt,
            backoff_s=delay,
            reason=failure.reason,
        )
        # The wait occupies the failed worker's lane so traces show the
        # gap; category "recovery" keeps it out of task-overlap checks.
        tracer.task_span(
            f"retry backoff {stage.stage_id}.{partition}",
            lane=failure.worker_id,
            seconds=delay,
            category="recovery",
            stage_id=stage.stage_id,
            partition=partition,
            attempt=attempt,
        )

    def _note_worker_failure(
        self, worker_id: int, profile: Optional[QueryProfile]
    ) -> None:
        """Count one failure against a worker; blacklist on threshold.

        Failures are attributed to the submitting tenant: only a single
        tenant's repeated failures on a worker trip the blacklist, so a
        multi-tenant server never punishes tenant B for tenant A's
        poison query.
        """
        lifecycle = getattr(self._ctx, "lifecycle", None)
        tenant = lifecycle.current_tenant() if lifecycle is not None else None
        scoped = (tenant, worker_id)
        count = self._worker_failures.get(scoped, 0) + 1
        self._worker_failures[scoped] = count
        if count >= self.config.blacklist_threshold:
            self._worker_failures[scoped] = 0
            self._ctx.cluster.blacklist_worker(
                worker_id, self.config.blacklist_probation_tasks
            )
            if profile is not None:
                profile.blacklisted_workers += 1

    def _maybe_speculate(
        self,
        stage: Stage,
        partition: int,
        primary: _Attempt,
        excluded: set[int],
        func: Optional[Callable[[list], object]],
        kind: str,
        next_attempt: int,
        profile: Optional[QueryProfile],
    ) -> _Attempt:
        """Launch a backup copy when the primary looks like a straggler;
        return whichever attempt finished faster (simulated time)."""
        if not self._speculation_enabled() or primary.seconds is None:
            return primary
        threshold = self._speculation_threshold(stage)
        if threshold is None or primary.seconds <= threshold:
            return primary
        tracer = self._ctx.tracer
        tracer.metrics.inc("tasks.speculative")
        if profile is not None:
            profile.speculative_tasks += 1
        tracer.instant(
            "task.speculative",
            "recovery",
            stage_id=stage.stage_id,
            partition=partition,
            primary_worker=primary.worker_id,
            primary_seconds=primary.seconds,
            threshold=threshold,
        )
        try:
            copy = self._attempt_task(
                stage,
                partition,
                next_attempt + 1,
                speculative=True,
                exclude=excluded | {primary.worker_id},
                func=func,
                kind=kind,
            )
        except (TransientTaskFailure, FetchFailedError):
            # The backup died; the primary result stands.
            return primary
        if copy.seconds is not None and copy.seconds < primary.seconds:
            # The copy wins.  A map output stays where the primary stored
            # it: the copy's identical buckets were not stored again.
            return copy
        return primary

    def _speculation_threshold(self, stage: Stage) -> Optional[float]:
        """Straggler cutoff from completed peers, or None if too few."""
        durations = self._stage_durations.get(stage.stage_id, ())
        if len(durations) < self.config.speculation_min_peers:
            return None
        ordered = sorted(durations)
        index = min(
            int(len(ordered) * self.config.speculation_quantile),
            len(ordered) - 1,
        )
        return ordered[index] * self.config.speculation_multiplier

    def _merge_accumulators(
        self, stage: Stage, partition: int, winner: _Attempt, kind: str
    ) -> None:
        """Apply the kept attempt's buffered accumulator updates, exactly
        once per partition (lineage re-runs of a map task skip)."""
        if kind == "shuffle-map":
            key = (stage.shuffle_dep.shuffle_id, partition)
            if key in self._merged_map_acc:
                return
            self._merged_map_acc.add(key)
        for accumulator, delta in winner.task_ctx.acc_updates:
            accumulator.apply(delta)

    def _recover_shuffle(
        self, shuffle_id: int, profile: QueryProfile, rdd: "RDD"
    ) -> None:
        """Re-materialize a shuffle ``rdd`` reads; a freed shuffle's
        stage is rebuilt from its dependency in ``rdd``'s lineage."""
        stage = self._shuffle_stages.get(shuffle_id)
        if stage is None:
            dep = _find_shuffle_dep(rdd, shuffle_id)
            if dep is None:
                raise EngineError(
                    f"cannot recover unknown shuffle {shuffle_id}"
                )
            stage = self._stage_for_shuffle(dep)
        self._ensure_shuffle_stage(stage, profile)

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    def _stage_profile(
        self, profile: QueryProfile, stage: Stage
    ) -> StageProfile:
        for existing in profile.stages:
            if existing.stage_id == stage.stage_id:
                return existing
        stage_profile = StageProfile(
            stage_id=stage.stage_id,
            name=stage.rdd.name,
            is_shuffle_map=stage.is_shuffle_map,
            map_side_combined=bool(
                stage.shuffle_dep is not None
                and stage.shuffle_dep.map_side_combine
            ),
        )
        profile.stages.append(stage_profile)
        return stage_profile


def _find_shuffle_dep(
    rdd: "RDD", shuffle_id: int
) -> Optional[ShuffleDependency]:
    """The dependency that produces ``shuffle_id`` in ``rdd``'s full
    lineage (cached RDDs included), or None."""
    stack = [rdd]
    visited: set[int] = set()
    while stack:
        current = stack.pop()
        if current.id in visited:
            continue
        visited.add(current.id)
        for dep in current.dependencies:
            if (
                isinstance(dep, ShuffleDependency)
                and dep.shuffle_id == shuffle_id
            ):
                return dep
            stack.append(dep.rdd)
    return None
