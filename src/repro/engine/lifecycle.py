"""Query lifecycle: admission control, deadlines, cancellation, fairness.

PR 2 made individual *tasks* resilient; this module makes whole *queries*
manageable.  A :class:`QueryLifecycleManager` wraps the engine with:

* **admission control** — a bounded queue over a configurable concurrency
  limit.  Submissions beyond capacity fail fast with a typed
  :class:`~repro.errors.AdmissionRejected` carrying a retry-after hint
  (backpressure, not silent queueing forever);
* **per-query deadlines** on the simulated clock — a query whose charged
  simulated seconds exceed its deadline is cancelled *mid-flight*, at the
  next task boundary, with :class:`~repro.errors.QueryDeadlineExceeded`;
* **cooperative cancellation** — :meth:`QueryHandle.cancel` arms a
  :class:`CancelToken` that the scheduler observes before every task
  launch and that in-flight attempts observe through their
  :class:`~repro.engine.task.TaskContext`.  The unwind releases the
  query's admission slot and cleans up its shuffle outputs, open tracer
  spans, and buffered accumulator updates (the recovery-tail discipline);
* **fair multi-query scheduling** — runnable tasks from concurrently
  admitted queries interleave across the shared virtual workers
  (round-robin, fewest-tasks-first, or weighted fair shares keyed on the
  submitting tenant's priority tier) instead of strict FIFO, so a short
  interactive query is not starved behind a long scan;
* a **per-query circuit breaker** — a query key whose runs repeatedly
  exhaust the engine's recovery budget fails fast with
  :class:`~repro.errors.QueryCircuitOpenError` instead of burning the
  whole retry budget again on every resubmit.  The breaker is scoped per
  ``(tenant, key)``: one tenant's poison query never fails fast another
  tenant running the same SQL.

The serving layer (:mod:`repro.serving`) builds on three hooks here:
``submit`` accepts ``tenant``/``priority``/``weight`` so admission and
fairness are tenant-aware, :meth:`QueryLifecycleManager.shed_queued`
drops a still-queued query with a typed
:class:`~repro.errors.QueryShedError` (load shedding never touches a
query that already launched tasks), and retry-after hints derive from
the observed queue drain rate on the simulated clock.

Execution model
---------------

The engine runs tasks inline and synchronously, so concurrency is
*cooperative*: each admitted query runs on its own daemon thread, but a
baton guarantees exactly one thread executes at any instant.  Handoffs
happen only at task boundaries (the scheduler calls :meth:`checkpoint`
before every task attempt), and the next query to run is chosen
deterministically by the fairness policy — so a set of concurrent
queries produces byte-identical results and traces on every run, and
composes with the seeded fault injector.  The baton also keeps the
module-global task-context stack and the tracer's span stack coherent:
the manager swaps in a per-query span stack at every handoff, so
concurrent queries' spans nest correctly and cancellation can close
exactly the spans the dead query left open.

Real wall-clock time is never read; the only real-time construct is a
generous watchdog on the baton condition variable that turns an
accidental deadlock into a typed error instead of a hung build.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import (
    AdmissionRejected,
    EngineError,
    QueryCancelledError,
    QueryCircuitOpenError,
    QueryDeadlineExceeded,
    QueryLifecycleError,
    QueryShedError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext

#: Query states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
DEADLINE = "deadline"
FAILED = "failed"
SHED = "shed"

#: Terminal states.
_TERMINAL = frozenset({DONE, CANCELLED, DEADLINE, FAILED, SHED})


@dataclass
class LifecycleConfig:
    """Knobs for admission, fairness, and the circuit breaker."""

    #: Queries allowed to run concurrently (admission slots).
    max_concurrent: int = 2
    #: Admitted-but-waiting queries beyond the slots; submissions past
    #: this bound raise :class:`~repro.errors.AdmissionRejected`.
    max_queued: int = 2
    #: "round-robin" interleaves one task per query in admission order;
    #: "min-tasks" always runs the query with the fewest launched tasks
    #: (max-min fairness on task shares); "weighted" runs the query with
    #: the smallest ``tasks_launched / weight`` ratio, so a weight-8
    #: interactive query gets eight task slots for every one a weight-1
    #: best-effort query gets (weighted max-min fairness).
    fairness: str = "round-robin"
    #: Deadline applied to queries submitted without an explicit one
    #: (None = no default deadline).
    default_deadline_s: Optional[float] = None
    #: Consecutive engine failures of one query key before its circuit
    #: opens.
    circuit_failure_threshold: int = 2
    #: Query completions (any key) before an open circuit half-opens and
    #: admits one trial run.
    circuit_reset_completions: int = 4
    #: Retry-after hint when no completed query durations exist yet.
    retry_after_default_s: float = 1.0
    #: Terminal events (slot/queue-position releases) sampled for the
    #: observed queue drain rate that prices retry-after hints.
    drain_rate_window: int = 8
    #: Real-time guard on baton handoffs: a cooperative-scheduling bug
    #: surfaces as a typed error after this many seconds instead of a
    #: hung test run.  Never reached in normal operation.
    watchdog_timeout_s: float = 300.0


class CancelToken:
    """Shared flag a query's scheduler and in-flight tasks observe.

    ``cancel`` is one-shot: the first reason wins (a user cancel racing a
    deadline expiry keeps whichever fired first).
    """

    __slots__ = ("_handle", "cancelled", "reason")

    def __init__(self, handle: "QueryHandle"):
        self._handle = handle
        self.cancelled = False
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        if not self.cancelled:
            self.cancelled = True
            self.reason = reason

    def raise_if_cancelled(self) -> None:
        """Raise the typed cancellation error when the token is armed."""
        if not self.cancelled:
            return
        handle = self._handle
        if self.reason == "deadline":
            raise QueryDeadlineExceeded(
                handle.name,
                deadline_s=handle.deadline_s or 0.0,
                elapsed_s=handle.charged_seconds,
            )
        raise QueryCancelledError(handle.name, reason=self.reason or "cancelled")


@dataclass
class QueryHandle:
    """One submitted query: its state, result, and control surface."""

    query_id: int
    name: str
    key: str
    fn: Callable[[], Any]
    manager: "QueryLifecycleManager"
    deadline_s: Optional[float] = None
    #: Owning tenant (None for directly-submitted queries); scopes the
    #: circuit breaker and worker-failure attribution.
    tenant: Optional[str] = None
    #: Priority tier label (serving layer: interactive/batch/best_effort).
    priority: Optional[str] = None
    #: Fair-share weight under the "weighted" fairness policy.
    weight: int = 1
    #: Why load shedding dropped this query (None unless state is SHED).
    shed_reason: Optional[str] = None
    #: Simulated-clock instant this query was admitted or queued.
    submitted_at: float = 0.0
    state: str = QUEUED
    result: Any = None
    error: Optional[BaseException] = None
    #: Simulated seconds charged to this query (sum of its kept task
    #: attempts' cost-model durations plus straggler factors).
    charged_seconds: float = 0.0
    #: Task attempts this query has launched (retries and speculative
    #: copies included) — the fairness currency.
    tasks_launched: int = 0
    #: Shuffle ids this query's shuffle scope claimed; released when the
    #: query ends, whatever its outcome, so no pinned map-output blocks
    #: leak.
    shuffle_ids: set = field(default_factory=set)
    #: cache_lookup records collected by the SQL cache stack while this
    #: query ran (the lifecycle manager owns its event-log slice).
    cache_lookups: list = field(default_factory=list)
    token: CancelToken = field(init=False)
    _thread: Optional[threading.Thread] = field(default=None, repr=False)
    #: Per-query tracer span stack, swapped in while this query runs.
    _trace_stack: list = field(default_factory=list, repr=False)
    _span: Any = field(default=None, repr=False)
    _cancel_after_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        self.token = CancelToken(self)

    # -- control ------------------------------------------------------
    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation (takes effect at the next
        task boundary; immediate for still-queued queries)."""
        self.manager._cancel(self, reason)

    def cancel_after_tasks(self, count: int) -> "QueryHandle":
        """Arm cancellation to fire once this query has launched
        ``count`` tasks — the deterministic mid-flight cancel used by
        robustness tests and demos (mirrors FailureInjector.after_tasks)."""
        self._cancel_after_tasks = count
        return self

    def result_or_raise(self) -> Any:
        """Drive the cooperative scheduler until this query is terminal,
        then return its result or raise its typed error."""
        return self.manager.wait(self)

    # -- inspection ---------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state in _TERMINAL

    def describe(self) -> str:
        parts = [
            f"query {self.query_id} ({self.name!r}): {self.state}",
            f"{self.tasks_launched} tasks",
            f"{self.charged_seconds:.3f} sim-s",
        ]
        if self.deadline_s is not None:
            parts.append(f"deadline {self.deadline_s:.3f}s")
        if self.tenant is not None:
            tier = f"/{self.priority}" if self.priority else ""
            parts.append(f"tenant {self.tenant}{tier}")
        if self.shed_reason is not None:
            parts.append(f"shed: {self.shed_reason}")
        if self.error is not None:
            parts.append(f"error: {type(self.error).__name__}")
        return ", ".join(parts)


class QueryLifecycleManager:
    """Admits, schedules, cancels, and cleans up after queries.

    One per :class:`~repro.engine.context.EngineContext` (created via
    ``ctx.enable_lifecycle()``).  Drive admitted queries with
    :meth:`drain` (run everything) or :meth:`wait` (run until one handle
    finishes); both must be called from the driver, never from inside a
    submitted query.
    """

    def __init__(
        self, ctx: "EngineContext", config: Optional[LifecycleConfig] = None
    ):
        self._ctx = ctx
        self.config = config if config is not None else LifecycleConfig()
        if self.config.fairness not in (
            "round-robin", "min-tasks", "weighted"
        ):
            raise ValueError(
                f"unknown fairness policy {self.config.fairness!r}"
            )
        self._cond = threading.Condition()
        #: The query currently allowed to run (exactly one, or None when
        #: the driver holds control).
        self._baton: Optional[QueryHandle] = None
        self._current: Optional[QueryHandle] = None
        #: Admitted queries holding a slot, in admission order.
        self._running: list[QueryHandle] = []
        #: Admitted queries waiting for a slot.
        self._queued: list[QueryHandle] = []
        #: Every handle ever submitted (for the shell's .queries view).
        self.handles: list[QueryHandle] = []
        #: Terminal handles in completion order (fairness assertions).
        self.finish_order: list[QueryHandle] = []
        self._next_query_id = 0
        self._rr_cursor = 0
        self._completions = 0
        #: (tenant, query key) -> consecutive engine failures.  Scoping
        #: per tenant keeps one tenant's poison query from opening the
        #: circuit for another tenant running the same SQL.
        self._failures: dict[tuple[Optional[str], str], int] = {}
        #: (tenant, query key) -> completion count at which the circuit
        #: half-opens.
        self._circuit_until: dict[tuple[Optional[str], str], int] = {}
        #: Charged durations of recently completed queries (the
        #: retry-hint fallback before drain-rate samples exist).
        self._recent_seconds: list[float] = []
        #: Simulated-clock instants of recent terminal events — each one
        #: released a slot or queue position, so their spacing is the
        #: observed queue drain rate behind retry-after hints.
        self._drain_times: list[float] = []
        self._driver_stack: Optional[list] = None
        # Aggregate counters (engine metrics mirror these, but the
        # manager keeps its own so describe() is self-contained).
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.deadline_expired = 0
        self.failed = 0
        self.rejected = 0
        self.shed = 0
        self.circuit_opened = 0

    # ------------------------------------------------------------------
    # Submission and admission control
    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable[[], Any],
        name: Optional[str] = None,
        deadline_s: Optional[float] = None,
        key: Optional[str] = None,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
        weight: int = 1,
    ) -> QueryHandle:
        """Admit ``fn`` (a zero-argument callable running engine work).

        Raises :class:`~repro.errors.AdmissionRejected` beyond capacity
        and :class:`~repro.errors.QueryCircuitOpenError` when the
        ``(tenant, key)`` circuit is open.  Nothing executes until
        :meth:`drain`/:meth:`wait`.  ``tenant``/``priority``/``weight``
        are the serving layer's hooks: the weight feeds the "weighted"
        fairness policy and the tenant scopes failure attribution.
        """
        metrics = self._ctx.tracer.metrics
        self.submitted += 1
        metrics.inc("queries.submitted")
        query_id = self._next_query_id
        self._next_query_id += 1
        name = name if name is not None else f"q{query_id}"
        key = key if key is not None else name
        self._check_circuit(name, key, tenant)
        handle = QueryHandle(
            query_id=query_id,
            name=name,
            key=key,
            fn=fn,
            manager=self,
            deadline_s=(
                deadline_s
                if deadline_s is not None
                else self.config.default_deadline_s
            ),
            tenant=tenant,
            priority=priority,
            weight=max(int(weight), 1),
            submitted_at=self._ctx.tracer.clock.now(),
        )
        with self._cond:
            if len(self._running) < self.config.max_concurrent:
                handle.state = RUNNING
                self._running.append(handle)
                metrics.inc("queries.admitted")
                self._ctx.tracer.instant(
                    "query.admitted", "query",
                    query_id=query_id, query=name,
                )
            elif len(self._queued) < self.config.max_queued:
                self._queued.append(handle)
                metrics.inc("queries.queued")
                self._ctx.tracer.instant(
                    "query.queued", "query",
                    query_id=query_id, query=name,
                    position=len(self._queued),
                )
            else:
                self.rejected += 1
                metrics.inc("queries.rejected")
                hint = self._retry_after_hint()
                self._ctx.tracer.instant(
                    "query.rejected", "query",
                    query_id=query_id, query=name,
                    reason="capacity", retry_after_s=hint,
                )
                raise AdmissionRejected(
                    name,
                    running=len(self._running),
                    queued=len(self._queued),
                    retry_after_s=hint,
                )
        self.handles.append(handle)
        return handle

    def _check_circuit(
        self, name: str, key: str, tenant: Optional[str]
    ) -> None:
        scoped = (tenant, key)
        half_open_at = self._circuit_until.get(scoped)
        if half_open_at is None:
            return
        if self._completions >= half_open_at:
            # Half-open: admit one trial; success closes the circuit,
            # another failure re-opens it.
            del self._circuit_until[scoped]
            return
        self.rejected += 1
        self._ctx.tracer.metrics.inc("queries.circuit_rejected")
        remaining = half_open_at - self._completions
        self._ctx.tracer.instant(
            "query.rejected", "query",
            query=name, key=key, tenant=tenant, reason="circuit-open",
            retry_after_completions=remaining,
        )
        raise QueryCircuitOpenError(
            key,
            failures=self._failures.get(scoped, 0),
            retry_after_completions=remaining,
        )

    def _retry_after_hint(self) -> float:
        """Simulated seconds until a resubmission plausibly admits.

        Derived from the observed queue drain rate: the simulated-clock
        spacing of recent terminal events (each frees a slot or queue
        position).  With ``q`` queries already queued, the hint is the
        time for ``q + 1`` drains at that rate.  Before two drain
        samples with clock movement exist, fall back to the average of
        recently completed query durations.
        """
        waiting = 1 + len(self._queued)
        samples = self._drain_times[-self.config.drain_rate_window:]
        if len(samples) >= 2:
            elapsed = samples[-1] - samples[0]
            if elapsed > 0:
                rate = (len(samples) - 1) / elapsed  # drains per sim-s
                return waiting / rate
        recent = self._recent_seconds[-8:]
        average = (
            sum(recent) / len(recent)
            if recent
            else self.config.retry_after_default_s
        )
        return max(average, 1e-3) * waiting

    # ------------------------------------------------------------------
    # Driving the cooperative scheduler
    # ------------------------------------------------------------------
    def drain(self) -> list[QueryHandle]:
        """Run every admitted query to a terminal state; returns the
        completion order."""
        self._require_driver("drain")
        while self._running or self._queued:
            self._promote_queued()
            handle = self._pick_next()
            if handle is None:  # pragma: no cover - defensive
                break
            self._run_slice(handle)
        return list(self.finish_order)

    def wait(self, handle: QueryHandle) -> Any:
        """Drive the scheduler (fairly — other queries keep their turns)
        until ``handle`` is terminal; return its result or raise."""
        self._require_driver("wait")
        while not handle.done:
            self._promote_queued()
            nxt = self._pick_next()
            if nxt is None:  # pragma: no cover - defensive
                raise EngineError(
                    f"query {handle.name!r} is {handle.state} but no "
                    "query is runnable"
                )
            self._run_slice(nxt)
        if handle.error is not None:
            raise handle.error
        return handle.result

    def _require_driver(self, op: str) -> None:
        if self._current is not None and (
            self._current._thread is threading.current_thread()
        ):
            raise EngineError(
                f"cannot call {op}() from inside a running query"
            )

    def _promote_queued(self) -> None:
        with self._cond:
            while (
                self._queued
                and len(self._running) < self.config.max_concurrent
            ):
                handle = self._queued.pop(0)
                handle.state = RUNNING
                self._running.append(handle)
                self._ctx.tracer.metrics.inc("queries.admitted")
                self._ctx.tracer.instant(
                    "query.admitted", "query",
                    query_id=handle.query_id, query=handle.name,
                    promoted=True,
                )

    def _pick_next(self) -> Optional[QueryHandle]:
        """The fairness policy: which admitted query runs next."""
        if not self._running:
            return None
        if self.config.fairness == "min-tasks":
            return min(
                self._running,
                key=lambda handle: (handle.tasks_launched, handle.query_id),
            )
        if self.config.fairness == "weighted":
            # Weighted max-min fairness: the smallest launched-tasks /
            # weight ratio runs next, ties broken by the heavier weight
            # (higher tier first), then admission order — deterministic,
            # so concurrent runs stay byte-identical.
            return min(
                self._running,
                key=lambda handle: (
                    handle.tasks_launched / handle.weight,
                    -handle.weight,
                    handle.query_id,
                ),
            )
        # Round-robin in admission order, robust to completions
        # shrinking the list between slices.
        self._rr_cursor %= len(self._running)
        handle = self._running[self._rr_cursor]
        self._rr_cursor += 1
        return handle

    def _run_slice(self, handle: QueryHandle) -> None:
        """Grant the baton to one query until it yields or finishes."""
        tracer = self._ctx.tracer
        with self._cond:
            if handle._thread is None:
                handle._thread = threading.Thread(
                    target=self._thread_main,
                    args=(handle,),
                    name=f"query-{handle.query_id}",
                    daemon=True,
                )
                handle._thread.start()
            # The query's spans must nest under its own stack, not the
            # driver's; swap for the duration of the slice.
            self._driver_stack = tracer.use_stack(handle._trace_stack)
            self._baton = handle
            self._current = handle
            self._cond.notify_all()
            while self._baton is not None:
                if not self._cond.wait(self.config.watchdog_timeout_s):
                    raise EngineError(
                        f"lifecycle watchdog: query {handle.name!r} made no "
                        f"progress in {self.config.watchdog_timeout_s}s "
                        "(cooperative-scheduling deadlock?)"
                    )
            tracer.use_stack(self._driver_stack)
            self._driver_stack = None

    def _await_grant(self, handle: QueryHandle) -> None:
        with self._cond:
            while self._baton is not handle:
                if not self._cond.wait(self.config.watchdog_timeout_s):
                    raise EngineError(
                        f"lifecycle watchdog: query {handle.name!r} waited "
                        f"{self.config.watchdog_timeout_s}s for the baton"
                    )

    def _yield_baton(self, handle: QueryHandle) -> None:
        with self._cond:
            self._baton = None
            self._current = None
            self._cond.notify_all()
            while self._baton is not handle:
                if not self._cond.wait(self.config.watchdog_timeout_s):
                    raise EngineError(
                        f"lifecycle watchdog: query {handle.name!r} waited "
                        f"{self.config.watchdog_timeout_s}s for the baton"
                    )
            self._current = handle

    # ------------------------------------------------------------------
    # The query thread
    # ------------------------------------------------------------------
    def _thread_main(self, handle: QueryHandle) -> None:
        self._await_grant(handle)
        tracer = self._ctx.tracer
        handle._span = tracer.begin_span(
            f"query {handle.name}",
            "query",
            kind="lifecycle",
            query_id=handle.query_id,
        )
        # Statements the query runs join this scope: its shuffles live
        # until the query ends.
        handle.shuffle_ids = self._ctx.scheduler.open_shuffle_scope()
        try:
            self._observe(handle)
            handle.token.raise_if_cancelled()
            handle.result = handle.fn()
            handle.state = DONE
        except QueryDeadlineExceeded as error:
            handle.error = error
            handle.state = DEADLINE
        except QueryCancelledError as error:
            handle.error = error
            handle.state = CANCELLED
        except BaseException as error:  # noqa: BLE001 - reported via handle
            handle.error = error
            handle.state = FAILED
        finally:
            # Still holding the baton: safe to touch shared engine state.
            self._cleanup(handle)
            with self._cond:
                if handle in self._running:
                    self._running.remove(handle)
                self._record_completion(handle)
                self._baton = None
                self._current = None
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Scheduler-facing hooks (called from the running query's thread)
    # ------------------------------------------------------------------
    def in_query(self) -> bool:
        """True when the calling thread is the currently granted query."""
        current = self._current
        return (
            current is not None
            and current._thread is threading.current_thread()
        )

    def current_token(self) -> Optional[CancelToken]:
        return self._current.token if self.in_query() else None

    def current_tenant(self) -> Optional[str]:
        """Tenant of the running query (worker-failure attribution in
        the scheduler is scoped by this), or None outside a query."""
        return self._current.tenant if self.in_query() else None

    def note_cache_lookups(self, records: list) -> None:
        """Attach the SQL cache stack's lookup records to the running
        query; they land in its lifecycle event-log record."""
        if self.in_query():
            self._current.cache_lookups.extend(records)

    def checkpoint(self) -> None:
        """Cooperative scheduling point, called by the scheduler before
        every task attempt: observe cancellation/deadline, then hand the
        baton back so another query's task can interleave."""
        if not self.in_query():
            return
        handle = self._current
        self._observe(handle)
        handle.token.raise_if_cancelled()
        handle.tasks_launched += 1
        if len(self._running) > 1 or self._queued:
            self._yield_baton(handle)
            # A cancel or deadline may have been issued while another
            # query held the baton — observe before launching the task
            # (this is what makes cancellation race retries/speculation
            # safely: the next attempt never starts).
            self._observe(handle)
            handle.token.raise_if_cancelled()

    def _observe(self, handle: QueryHandle) -> None:
        armed = handle._cancel_after_tasks
        if armed is not None and handle.tasks_launched >= armed:
            handle.token.cancel("cancelled")
        if (
            handle.deadline_s is not None
            and handle.charged_seconds > handle.deadline_s
        ):
            handle.token.cancel("deadline")

    def on_task_seconds(self, seconds: float) -> None:
        """Charge one kept task attempt's simulated duration to the
        running query (deadline accounting and retry-after hints)."""
        if self.in_query():
            self._current.charged_seconds += seconds

    # ------------------------------------------------------------------
    # Cancellation and cleanup
    # ------------------------------------------------------------------
    def _cancel(self, handle: QueryHandle, reason: str) -> None:
        if handle.done:
            return
        with self._cond:
            if handle in self._queued:
                # Never started: terminal immediately, no cleanup needed.
                self._queued.remove(handle)
                handle.token.cancel(reason)
                handle.state = CANCELLED
                handle.error = QueryCancelledError(handle.name, reason=reason)
                self._record_completion(handle)
                return
        handle.token.cancel(reason)

    def shed_queued(self, handle: QueryHandle, reason: str) -> bool:
        """Load-shed a still-queued query (the serving layer's overload
        valve: a deadline that became unmeetable while waiting, or a
        brownout dropping low-priority tiers).

        Only queued queries can be shed — a query that launched tasks is
        cancelled, never shed — so shedding is always cheap: no cleanup,
        no wasted work.  Returns False when ``handle`` was not queued
        (already running or terminal)."""
        with self._cond:
            if handle not in self._queued:
                return False
            self._queued.remove(handle)
        handle.token.cancel("shed")
        handle.state = SHED
        handle.shed_reason = reason
        handle.error = QueryShedError(handle.name, shed_reason=reason)
        self._record_completion(handle)
        return True

    def _cleanup(self, handle: QueryHandle) -> None:
        """Close the query's spans and shuffle scope — no leaked pinned
        blocks, no open spans — and, on abnormal exit, dump the flight
        recorder."""
        tracer = self._ctx.tracer
        status = {
            DONE: "ok",
            CANCELLED: "cancelled",
            DEADLINE: "deadline",
            FAILED: "error",
        }[handle.state]
        if handle._span is not None:
            tracer.end_span(handle._span, status=status)
            handle._span = None
        # end_span pops through abandoned children, but be exhaustive:
        # anything still on this query's private stack is force-closed.
        # drain_stack works even when tracing was disabled mid-query
        # (end_span no-ops while disabled, so a loop built on it would
        # spin forever and leak the stack entries) and is idempotent.
        tracer.drain_stack(handle._trace_stack, status=status)
        if handle.state in (CANCELLED, DEADLINE, FAILED):
            # Post-mortem: dump the flight recorder's recent events (it
            # is live even with tracing off) keyed to this query.
            tracer.flight_dump(
                status, query=f"lifecycle-{handle.query_id}"
            )
        released = self._ctx.scheduler.close_shuffle_scope(
            handle.shuffle_ids
        )
        if released:
            tracer.instant(
                "query.shuffles_released", "query",
                query_id=handle.query_id,
                blocks=released,
            )

    def _record_completion(self, handle: QueryHandle) -> None:
        metrics = self._ctx.tracer.metrics
        self.finish_order.append(handle)
        self._completions += 1
        # Every terminal event frees a slot or queue position: sample
        # the simulated clock for the drain rate behind retry hints.
        self._drain_times.append(self._ctx.tracer.clock.now())
        if len(self._drain_times) > 4 * self.config.drain_rate_window:
            del self._drain_times[: -self.config.drain_rate_window]
        scoped = (handle.tenant, handle.key)
        log = self._ctx.event_log
        if log is not None:
            status = {
                DONE: "ok",
                CANCELLED: "cancelled",
                DEADLINE: "deadline",
                SHED: "shed",
            }.get(handle.state, "error")
            log.write_query(
                name=handle.name,
                kind="lifecycle",
                status=status,
                error=(
                    f"{type(handle.error).__name__}: {handle.error}"
                    if handle.error is not None
                    else None
                ),
                sim_seconds=handle.charged_seconds,
                started=handle.submitted_at,
                ended=self._ctx.tracer.clock.now(),
                query_id=f"lifecycle-{handle.query_id}",
                tenant=handle.tenant,
                priority=handle.priority,
                shed_reason=handle.shed_reason,
                cache_lookups=handle.cache_lookups or None,
            )
            metrics.observe(
                "query.sim_seconds", handle.charged_seconds
            )
        if handle.state == DONE:
            self.completed += 1
            metrics.inc("queries.completed")
            self._recent_seconds.append(handle.charged_seconds)
            self._failures.pop(scoped, None)
            self._circuit_until.pop(scoped, None)
        elif handle.state == DEADLINE:
            self.deadline_expired += 1
            metrics.inc("queries.deadline_expired")
            self._ctx.tracer.instant(
                "query.deadline", "query",
                query_id=handle.query_id, query=handle.name,
                deadline_s=handle.deadline_s,
                elapsed_s=handle.charged_seconds,
            )
        elif handle.state == CANCELLED:
            self.cancelled += 1
            metrics.inc("queries.cancelled")
            self._ctx.tracer.instant(
                "query.cancelled", "query",
                query_id=handle.query_id, query=handle.name,
                tasks_launched=handle.tasks_launched,
            )
        elif handle.state == SHED:
            self.shed += 1
            metrics.inc("queries.shed")
            self._ctx.tracer.instant(
                "query.shed", "query",
                query_id=handle.query_id, query=handle.name,
                tenant=handle.tenant, priority=handle.priority,
                shed_reason=handle.shed_reason,
            )
        elif handle.state == FAILED:
            self.failed += 1
            metrics.inc("queries.failed")
            if isinstance(handle.error, EngineError) and not isinstance(
                handle.error, QueryLifecycleError
            ):
                count = self._failures.get(scoped, 0) + 1
                self._failures[scoped] = count
                if count >= self.config.circuit_failure_threshold:
                    self.circuit_opened += 1
                    metrics.inc("queries.circuit_opened")
                    self._circuit_until[scoped] = (
                        self._completions
                        + self.config.circuit_reset_completions
                    )
                    self._ctx.tracer.instant(
                        "query.circuit_open", "query",
                        key=handle.key, tenant=handle.tenant,
                        failures=count,
                        reset_after_completions=(
                            self.config.circuit_reset_completions
                        ),
                    )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        text = (
            f"lifecycle: {self.submitted} submitted, "
            f"{self.completed} completed, {self.cancelled} cancelled, "
            f"{self.deadline_expired} deadline-expired, "
            f"{self.failed} failed, {self.rejected} rejected, "
            f"{self.circuit_opened} circuit-opened"
        )
        if self.shed:
            text += f", {self.shed} shed"
        return text

    def admission_ledger(self) -> dict:
        """Live admission accounting for ledger-zero assertions: every
        submission must be running, queued, terminal, or rejected —
        slots never leak, on any terminal path."""
        terminal = (
            self.completed
            + self.cancelled
            + self.deadline_expired
            + self.failed
            + self.shed
        )
        return {
            "running": len(self._running),
            "queued": len(self._queued),
            "terminal": terminal,
            "rejected": self.rejected,
            "submitted": self.submitted,
            "leaked": self.submitted
            - terminal
            - self.rejected
            - len(self._running)
            - len(self._queued),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryLifecycleManager(running={len(self._running)}, "
            f"queued={len(self._queued)}, finished={len(self.finish_order)})"
        )
