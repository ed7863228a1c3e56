"""SqlSession: statement execution over the engine, store, and catalog.

Runs the full pipeline of Section 2.4 — parse, logical plan + rule-based
optimization, physical plan as RDD transformations — then executes the
dataflow and materializes results.  Also owns DDL/DML: CREATE TABLE [AS
SELECT] with ``shark.cache`` and co-partitioning TBLPROPERTIES, INSERT,
DROP, CACHE/UNCACHE, and EXPLAIN.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from repro.columnar.table import ColumnarPartition
from repro.columnar.serde import TextSerde
from repro.datatypes import Field, Schema, type_by_name
from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.errors import AnalysisError, CatalogError, UnsupportedFeatureError
from repro.obs import analyze_profiles
from repro.sql import ast
from repro.sql.analyzer import Analyzer, Scope
from repro.sql.catalog import CACHED, Catalog, EXTERNAL, TableEntry
from repro.sql.functions import FunctionRegistry
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import (
    ExecutionReport,
    PhysicalPlanner,
    PlannerConfig,
)
from repro.storage import DistributedFileStore


@dataclass
class QueryResult:
    """Rows plus metadata from one executed statement."""

    rows: list[tuple]
    schema: Schema
    report: ExecutionReport = field(default_factory=ExecutionReport)
    #: For EXPLAIN: the rendered plan text.
    plan_text: Optional[str] = None
    #: True when the rows came from the session's result cache.
    cache_hit: bool = False

    @property
    def column_names(self) -> list[str]:
        return self.schema.names

    def column(self, name: str) -> list:
        index = self.schema.index_of(name)
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.schema)} columns"
            )
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class SqlSession:
    """One SQL session: catalog + UDF registry + planner configuration."""

    def __init__(
        self,
        ctx: EngineContext,
        store: Optional[DistributedFileStore] = None,
        config: Optional[PlannerConfig] = None,
        enable_master_recovery: bool = False,
    ):
        self.ctx = ctx
        self.store = store if store is not None else DistributedFileStore()
        self.catalog = Catalog()
        self.registry = FunctionRegistry()
        self.config = config or PlannerConfig()
        #: Report of the most recently planned query.
        self.last_report: Optional[ExecutionReport] = None
        #: Reliable log of catalog-mutating operations (paper footnote 4);
        #: None disables journaling.
        self.journal = None
        if enable_master_recovery:
            from repro.sql.journal import MasterJournal

            self.journal = MasterJournal(self.store)
        #: True while executing a journaled statement, so internal
        #: load_rows calls are not double-journaled.
        self._in_statement = False
        #: Original SQL text of the statement being executed (event log).
        self._current_text: Optional[str] = None
        #: Optimized-plan text captured by plan_select when logging.
        self._last_plan_text: Optional[str] = None
        #: Query caching stack (repro.sql.cache); None until enabled.
        self.sql_cache = None

    def enable_sql_cache(self, config=None):
        """Turn on the plan/result/fragment caching stack for this
        session (idempotent; returns the active SqlCache)."""
        if self.sql_cache is None:
            from repro.sql.cache import SqlCache

            self.sql_cache = SqlCache(self.ctx, self.catalog, config)
            # The physical layer reads ctx.sql_cache for fragment reuse.
            self.ctx.sql_cache = self.sql_cache
        return self.sql_cache

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def execute(self, text: str) -> QueryResult:
        claims = self.ctx.scheduler.open_shuffle_scope()
        try:
            cache = self.sql_cache
            if cache is not None:
                from repro.sql.cache import SqlCache

                memo = cache.memo_for(text)
                if memo is not None and memo is not SqlCache._MISSING:
                    # Known-cacheable text: the normalized form stands in
                    # for the AST, so parsing is skipped entirely.  A
                    # plan- or result-cache miss below re-parses on
                    # demand.
                    self._current_text = text
                    try:
                        return self._execute_select(None, memo=memo)
                    finally:
                        self._current_text = None
            statement = parse(text)
            self._current_text = text
            try:
                return self._execute_statement(statement)
            finally:
                self._current_text = None
        finally:
            self._end_statement(claims)

    def execute_statement(self, statement: ast.Statement) -> QueryResult:
        claims = self.ctx.scheduler.open_shuffle_scope()
        try:
            return self._execute_statement(statement)
        finally:
            self._end_statement(claims)

    def _end_statement(self, claims) -> None:
        """Every statement exit (success, cancellation, or failure):
        broadcast build tables drop their execution-pool charge and the
        shuffles the statement registered are freed, so the ledger
        balances to zero and no map output outlives its query.  Inside
        a lifecycle query ``claims`` is None: the statement joined the
        query's shuffle scope, which frees them when the query ends."""
        self.ctx.release_broadcast_accounting()
        self.ctx.scheduler.close_shuffle_scope(claims)

    def _execute_statement(self, statement: ast.Statement) -> QueryResult:
        if isinstance(statement, ast.SelectStatement):
            memo = None
            if self.sql_cache is not None and self._current_text is not None:
                memo = self.sql_cache.memoize(self._current_text, statement)
            return self._execute_select(statement, memo=memo)
        if isinstance(statement, ast.Explain):
            if statement.analyze:
                return self._explain_analyze(statement.statement)
            return self._explain(statement.statement)
        # Catalog-mutating statements: execute, then journal on success.
        previously_in_statement = self._in_statement
        self._in_statement = True
        try:
            if isinstance(statement, ast.CreateTable):
                result = self._create_table(statement)
            elif isinstance(statement, ast.DropTable):
                self.catalog.drop(
                    statement.name, if_exists=statement.if_exists
                )
                result = _status(f"dropped {statement.name}")
            elif isinstance(statement, ast.InsertInto):
                result = self._insert(statement)
            elif isinstance(statement, ast.CacheTable):
                result = self._cache_table(statement)
            else:
                raise UnsupportedFeatureError(
                    f"cannot execute {type(statement).__name__}"
                )
        finally:
            self._in_statement = previously_in_statement
        if self.journal is not None and not previously_in_statement:
            self.journal.log_statement(_render_statement(statement))
        return result

    def _execute_select(
        self,
        statement: Optional[ast.SelectStatement],
        memo=None,
    ) -> QueryResult:
        """Run one SELECT through the cache stack.

        ``statement`` may be None when the raw text's normalized form
        (``memo``) is known — a result- or plan-cache hit then never
        parses; a miss re-parses ``self._current_text`` on demand.
        """
        ctx = self.ctx
        tracer = ctx.tracer
        tracer.metrics.inc("queries.executed")
        text = self._current_text
        cache = self.sql_cache
        lookups: list[dict] = []
        try:
            with self._logged_query("sql", text) as logged:
                logged["cache_lookups"] = lookups
                with tracer.span("query", "query", kind="select"):
                    if cache is not None and memo is not None:
                        hit = cache.result_lookup(memo)
                        if hit is not None:
                            rows, schema = hit
                            lookups.append(
                                {"layer": "result", "outcome": "hit"}
                            )
                            report = ExecutionReport()
                            report.note("served from result cache")
                            self.last_report = report
                            logged["report"] = report
                            logged["rows"] = len(rows)
                            return QueryResult(
                                rows, schema, report, cache_hit=True
                            )
                        lookups.append(
                            {"layer": "result", "outcome": "miss"}
                        )
                    plan = None
                    if cache is not None and memo is not None:
                        cached = cache.plan_lookup(memo)
                        if cached is not None:
                            plan = cached[0]
                            lookups.append(
                                {"layer": "plan", "outcome": "hit"}
                            )
                        else:
                            lookups.append(
                                {"layer": "plan", "outcome": "miss"}
                            )
                    if plan is None:
                        if statement is None:
                            statement = parse(text)
                        analyzer = Analyzer(self.catalog, self.registry)
                        plan = optimize(analyzer.analyze_select(statement))
                    if ctx.event_log is not None:
                        self._last_plan_text = plan.pretty()
                    planner = PhysicalPlanner(ctx, self.store, self.config)
                    planned = planner.plan(plan)
                    self.last_report = planned.report
                    fragment_mark = (
                        (cache.fragment_hits, cache.fragment_misses)
                        if cache is not None
                        else (0, 0)
                    )
                    rows = planned.rdd.collect()
                    if cache is not None:
                        hits = cache.fragment_hits - fragment_mark[0]
                        misses = cache.fragment_misses - fragment_mark[1]
                        if hits or misses:
                            lookups.append(
                                {
                                    "layer": "fragment",
                                    "outcome": "hit" if hits else "miss",
                                    "hits": hits,
                                    "misses": misses,
                                }
                            )
                    if cache is not None and memo is not None:
                        cache.plan_store(memo, plan, planned.schema)
                        cache.result_store(memo, rows, planned.schema)
                logged["report"] = planned.report
                logged["rows"] = len(rows)
                logged["plan_text"] = self._last_plan_text
            return QueryResult(rows, planned.schema, planned.report)
        finally:
            # Inside a lifecycle-managed query the manager owns the
            # event-log slice; hand it the lookups for its own record.
            if (
                lookups
                and ctx.lifecycle is not None
                and ctx.lifecycle.in_query()
            ):
                ctx.lifecycle.note_cache_lookups(lookups)

    def plan_select(self, select: ast.SelectStatement,
                    config: Optional[PlannerConfig] = None):
        """Analyze, optimize and physically plan a SELECT; returns the
        PlannedQuery (rdd + schema + report) without executing it."""
        analyzer = Analyzer(self.catalog, self.registry)
        plan = analyzer.analyze_select(select)
        plan = optimize(plan)
        if self.ctx.event_log is not None:
            self._last_plan_text = plan.pretty()
        planner = PhysicalPlanner(self.ctx, self.store, config or self.config)
        planned = planner.plan(plan)
        self.last_report = planned.report
        return planned

    # ------------------------------------------------------------------
    # Event logging
    # ------------------------------------------------------------------
    @contextmanager
    def _logged_query(
        self, kind: str, text: Optional[str], name: Optional[str] = None
    ):
        """Stream one query's records to the context's event log.

        Yields a carrier dict the caller fills with ``report`` /
        ``rows`` / ``plan_text``.  Watermarks on the scheduler history,
        the trace buffers, and the counter values isolate this query's
        slice; on any exit (including cancellation/failure) the records
        are written and, on abnormal status, the flight recorder dumps.
        No-op without an event log, or inside a lifecycle-managed query
        (the lifecycle manager owns those records).
        """
        ctx = self.ctx
        log = ctx.event_log
        carrier: dict[str, Any] = {
            "report": None,
            "rows": None,
            "plan_text": None,
            "cache_lookups": None,
        }
        if log is None or (
            ctx.lifecycle is not None and ctx.lifecycle.in_query()
        ):
            yield carrier
            return
        tracer = ctx.tracer
        history = ctx.scheduler.history
        history_mark = len(history)
        span_mark = len(tracer.trace.spans)
        event_mark = len(tracer.trace.events)
        counters_before = dict(tracer.metrics.snapshot()["counters"])
        spill_mark = ctx.memory.spill_snapshot()
        # Shuffle-id watermark: ids are globally monotonic, so every
        # shuffle this query creates has an id >= the mark.
        from repro.engine.dependencies import ShuffleDependency

        shuffle_mark = ShuffleDependency._next_shuffle_id
        started = tracer.clock.now()
        query_id = f"q{log.queries_logged:04d}"
        status, error = "ok", None
        try:
            yield carrier
        except BaseException as exc:
            status = _terminal_status(exc)
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            ended = tracer.clock.now()
            if history_mark > len(history):
                # reset_profiles ran inside the query (EXPLAIN ANALYZE):
                # everything in the history belongs to it.
                history_mark = 0
            profiles = list(history[history_mark:])
            spans = tracer.trace.spans[span_mark:]
            events = tracer.trace.events[event_mark:]
            counters_after = tracer.metrics.snapshot()["counters"]
            deltas = {
                key: value - counters_before.get(key, 0.0)
                for key, value in counters_after.items()
                if value != counters_before.get(key, 0.0)
            }
            cluster = ctx.cluster
            cores = cluster.workers[0].cores if cluster.workers else 1
            analysis = analyze_profiles(
                "",
                profiles,
                num_workers=cluster.num_workers,
                cores_per_worker=cores,
            )
            tracer.metrics.observe(
                "query.sim_seconds", analysis.total_sim_seconds
            )
            if status != "ok":
                tracer.flight_dump(status, query=query_id)
            report = carrier.get("report")
            operator_profiles = _operator_profiles(report, profiles)
            skew_records = ctx.shuffle_manager.skew_records(shuffle_mark)
            metrics = tracer.metrics
            if operator_profiles:
                from repro.obs.planquality import (
                    DEFAULT_Q_ERROR_THRESHOLD,
                    audit,
                )

                metrics.inc(
                    "plan.operator_profiles", len(operator_profiles)
                )
                flagged = audit(
                    operator_profiles, DEFAULT_Q_ERROR_THRESHOLD
                )
                if flagged:
                    metrics.inc("plan.misestimates", len(flagged))
                    metrics.set_gauge(
                        "plan.q_error_max", flagged[0]["q_error"]
                    )
            if skew_records:
                metrics.inc("skew.shuffles", len(skew_records))
            log.write_query(
                name=name if name is not None else (text or kind).strip(),
                kind=kind,
                text=text,
                status=status,
                error=error,
                profiles=profiles,
                spans=spans,
                events=events,
                counter_deltas=deltas,
                plan_text=carrier.get("plan_text"),
                operator_modes=(
                    list(report.operator_modes)
                    if report is not None
                    else []
                ),
                result_rows=carrier.get("rows"),
                sim_seconds=analysis.total_sim_seconds,
                stage_sim=[
                    {
                        "job_id": stage.job_id,
                        "stage_id": stage.stage_id,
                        "name": stage.name,
                        "kind": stage.kind,
                        "num_tasks": stage.num_tasks,
                        "sim_seconds": stage.sim_seconds,
                        "records_in": stage.records_in,
                        "records_out": stage.records_out,
                        "shuffle_read_bytes": stage.shuffle_read_bytes,
                        "shuffle_write_bytes": stage.shuffle_write_bytes,
                    }
                    for stage in analysis.stages
                ],
                started=started,
                ended=ended,
                query_id=query_id,
                memory=ctx.memory.watermarks(),
                spills=ctx.memory.spill_rows_since(spill_mark),
                cache_lookups=carrier.get("cache_lookups") or None,
                operator_profiles=operator_profiles or None,
                shuffle_skew=skew_records or None,
            )

    def _explain(self, statement: ast.Statement) -> QueryResult:
        if isinstance(statement, ast.CreateTable) and statement.as_select:
            statement = statement.as_select
        if not isinstance(statement, ast.SelectStatement):
            raise UnsupportedFeatureError("EXPLAIN supports SELECT and CTAS")
        analyzer = Analyzer(self.catalog, self.registry)
        plan = analyzer.analyze_select(statement)
        optimized = optimize(plan)
        text = optimized.pretty()
        schema = Schema([Field("plan", type_by_name("string"))])
        return QueryResult(
            rows=[(line,) for line in text.splitlines()],
            schema=schema,
            plan_text=text,
        )

    def _explain_analyze(self, statement: ast.Statement) -> QueryResult:
        """EXPLAIN ANALYZE: run the query for real, then annotate the
        optimized plan with each executed stage's task counts, attempts,
        rows, shuffle bytes, and simulated seconds."""
        if isinstance(statement, ast.CreateTable) and statement.as_select:
            statement = statement.as_select
        if not isinstance(statement, ast.SelectStatement):
            raise UnsupportedFeatureError(
                "EXPLAIN ANALYZE supports SELECT and CTAS"
            )
        analyzer = Analyzer(self.catalog, self.registry)
        plan = analyzer.analyze_select(statement)
        optimized = optimize(plan)
        plan_text = optimized.pretty()

        self.ctx.reset_profiles()
        tracer = self.ctx.tracer
        tracer.metrics.inc("queries.executed")
        spill_mark = self.ctx.memory.spill_snapshot()
        from repro.engine.dependencies import ShuffleDependency

        shuffle_mark = ShuffleDependency._next_shuffle_id
        with self._logged_query(
            "explain-analyze", self._current_text
        ) as logged:
            with tracer.span("query", "query", kind="explain-analyze"):
                planner = PhysicalPlanner(self.ctx, self.store, self.config)
                planned = planner.plan(optimized)
                self.last_report = planned.report
                rows = planned.rdd.collect()
            logged["report"] = planned.report
            logged["rows"] = len(rows)
            logged["plan_text"] = plan_text

        cluster = self.ctx.cluster
        cores = cluster.workers[0].cores if cluster.workers else 1
        notes = list(planned.report.notes)
        if self.ctx.lifecycle is not None:
            notes.append(self.ctx.lifecycle.describe())
        analysis = analyze_profiles(
            plan_text,
            self.ctx.profiles,
            num_workers=cluster.num_workers,
            cores_per_worker=cores,
            result_rows=len(rows),
            notes=notes,
            operator_modes=list(planned.report.operator_modes),
            memory_rows=self.ctx.memory.watermarks(),
            memory_pressure_events=self.ctx.memory.pressure_events,
            memory_spills=self.ctx.memory.spill_rows_since(spill_mark),
            operator_profiles=_operator_profiles(
                planned.report, self.ctx.profiles
            ),
            shuffle_skew=self.ctx.shuffle_manager.skew_records(
                shuffle_mark
            ),
        )
        serving = getattr(self.ctx, "serving", None)
        if serving is not None:
            analysis.serving_lines = serving.summary_lines()
        if self.sql_cache is not None:
            analysis.sql_cache_lines = self.sql_cache.summary_lines()
        text = analysis.render()
        schema = Schema([Field("plan", type_by_name("string"))])
        return QueryResult(
            rows=[(line,) for line in text.splitlines()],
            schema=schema,
            report=planned.report,
            plan_text=text,
        )

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _create_table(self, statement: ast.CreateTable) -> QueryResult:
        if self.catalog.exists(statement.name):
            if statement.if_not_exists:
                return _status(f"table {statement.name} already exists")
            raise CatalogError(f"table already exists: {statement.name}")

        cached = _wants_cache(statement.properties)

        if statement.as_select is None:
            if not statement.columns:
                raise AnalysisError(
                    "CREATE TABLE needs column definitions or AS SELECT"
                )
            schema = Schema(
                Field(column.name, type_by_name(column.type_name))
                for column in statement.columns
            )
            entry = TableEntry(
                name=statement.name,
                schema=schema,
                kind=CACHED if cached else EXTERNAL,
                path=None if cached else self._table_path(statement.name),
                properties=dict(statement.properties),
                row_count=0,
                size_bytes=0,
            )
            if not cached:
                # overwrite=True: during master-recovery replay the file
                # may already exist; loads are replayed on top anyway.
                self.store.write_file(
                    entry.path, [], format="text", overwrite=True
                )
            self.catalog.create(entry)
            return _status(f"created {statement.name}")

        # CTAS: plan the select, honoring co-partitioning requests.
        config = self.config
        copartition_target = statement.properties.get("copartition")
        if copartition_target:
            target = self.catalog.get(copartition_target)
            if target.partitioner is None:
                raise AnalysisError(
                    f"cannot co-partition with {copartition_target}: it was "
                    f"not created with DISTRIBUTE BY"
                )
            config = replace(
                self.config, repartition_override=target.partitioner
            )
        planned = self.plan_select(statement.as_select, config=config)

        entry = TableEntry(
            name=statement.name,
            schema=planned.schema,
            kind=CACHED if cached else EXTERNAL,
            path=None if cached else self._table_path(statement.name),
            properties=dict(statement.properties),
            partitioner=planned.output_partitioner,
            distribute_column=planned.distribute_column,
        )
        if cached:
            self._materialize_cached(entry, planned.rdd)
        else:
            self._materialize_external(entry, planned.rdd)
        self.catalog.create(entry)
        return _status(
            f"created {statement.name} ({entry.row_count} rows, "
            f"{'cached' if cached else 'external'})"
        )

    def _cache_table(self, statement: ast.CacheTable) -> QueryResult:
        entry = self.catalog.get(statement.name)
        if statement.uncache:
            if entry.is_cached and entry.cached_rdd is not None:
                # Spill to the store and flip to external.
                rows_rdd = self._scan_rdd(entry)
                new_entry = TableEntry(
                    name=entry.name,
                    schema=entry.schema,
                    kind=EXTERNAL,
                    path=self._table_path(entry.name),
                    properties=dict(entry.properties),
                )
                self._materialize_external(new_entry, rows_rdd)
                self.catalog.drop(entry.name)
                self.catalog.create(new_entry)
            return _status(f"uncached {statement.name}")
        if entry.is_cached:
            return _status(f"{statement.name} is already cached")
        rows_rdd = self._scan_rdd(entry)
        new_entry = TableEntry(
            name=entry.name,
            schema=entry.schema,
            kind=CACHED,
            properties=dict(entry.properties),
        )
        self._materialize_cached(new_entry, rows_rdd)
        self.catalog.drop(entry.name)
        self.catalog.create(new_entry)
        return _status(f"cached {statement.name}")

    def _scan_rdd(self, entry: TableEntry) -> RDD:
        from repro.sql import logical

        planner = PhysicalPlanner(self.ctx, self.store, self.config)
        return planner.plan(logical.Scan(entry)).rdd

    # ------------------------------------------------------------------
    # DML and loading
    # ------------------------------------------------------------------
    def _insert(self, statement: ast.InsertInto) -> QueryResult:
        entry = self.catalog.get(statement.table)
        if statement.values:
            analyzer = Analyzer(self.catalog, self.registry)
            empty_scope = Scope([])
            rows = []
            for value_exprs in statement.values:
                row = tuple(
                    analyzer.bind(expr, empty_scope).eval(())
                    for expr in value_exprs
                )
                if len(row) != len(entry.schema):
                    raise AnalysisError(
                        f"INSERT row width {len(row)} != table width "
                        f"{len(entry.schema)}"
                    )
                rows.append(row)
            self.load_rows(statement.table, rows)
            return _status(f"inserted {len(rows)} rows into {statement.table}")
        planned = self.plan_select(statement.select)
        if len(planned.schema) != len(entry.schema):
            raise AnalysisError(
                f"INSERT select width {len(planned.schema)} != table width "
                f"{len(entry.schema)}"
            )
        rows = planned.rdd.collect()
        self.load_rows(statement.table, rows)
        return _status(f"inserted {len(rows)} rows into {statement.table}")

    def load_rows(
        self,
        table_name: str,
        rows: Iterable[tuple],
        num_partitions: Optional[int] = None,
    ) -> int:
        """Bulk-load rows into a table (distributed loading, Section 3.3).

        For cached tables each loading partition independently marshals its
        split into compressed columns and records statistics; for external
        tables each partition is encoded into one DFS block.
        """
        # The load's own shuffle (DISTRIBUTE BY repartitioning) is freed
        # once the cached blocks are built; inside a statement the load
        # joins the statement's scope.
        with self.ctx.scheduler.shuffle_scope():
            entry = self.catalog.get(table_name)
            rows = [tuple(row) for row in rows]
            if self.journal is not None and not self._in_statement:
                self.journal.log_load(table_name, rows)
            rdd = self.ctx.parallelize(
                rows, num_partitions or self.ctx.default_parallelism
            )
            if entry.partitioner is not None and entry.distribute_column:
                from repro.sql.expressions import BoundColumn
                from repro.sql import physical as phys

                index = entry.schema.index_of(entry.distribute_column)
                key = BoundColumn(
                    index,
                    entry.schema.fields[index].data_type,
                    entry.distribute_column,
                )
                rdd = phys.repartition_rows(rdd, [key], entry.partitioner)
            if entry.is_cached:
                self._materialize_cached(entry, rdd, append=True)
            else:
                self._materialize_external(entry, rdd, append=True)
            # Loads/inserts move the table version (result/fragment cache
            # invalidation) without touching its DDL identity.
            self.catalog.bump_version(table_name)
            return len(rows)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def _materialize_cached(
        self, entry: TableEntry, rows_rdd: RDD, append: bool = False
    ) -> None:
        """Marshal a row RDD into cached columnar partitions.

        Loading is itself a distributed job: each task builds its own
        partition's columns, picks compression per column, and collects the
        statistics map pruning needs; the master keeps only the metadata.
        """
        schema = entry.schema
        # TBLPROPERTIES ('shark.compress' = 'false') keeps columns plain —
        # an ablation/differential-testing axis for the compression codecs.
        compress = (
            entry.properties.get("shark.compress", "").lower()
            not in ("false", "0", "no")
        )

        def build(part: list) -> list:
            return [ColumnarPartition.from_rows(schema, part,
                                                compress=compress)]

        blocks = rows_rdd.map_partitions(build).set_name(
            f"load:{entry.name}"
        )
        blocks.partitioner = rows_rdd.partitioner
        blocks.cache()
        infos = self.ctx.run_job(
            blocks,
            lambda blks: (
                blks[0].stats,
                blks[0].memory_footprint_bytes(),
                blks[0].num_rows,
            ),
        )
        stats = [info[0] for info in infos]
        bytes_per_partition = [info[1] for info in infos]
        row_count = sum(info[2] for info in infos)

        if append and entry.cached_rdd is not None:
            entry.cached_rdd = entry.cached_rdd.union(blocks)
            entry.partition_stats = entry.partition_stats + stats
            entry.partition_bytes = entry.partition_bytes + bytes_per_partition
            entry.row_count = (entry.row_count or 0) + row_count
            entry.size_bytes = (entry.size_bytes or 0) + sum(
                bytes_per_partition
            )
            # Appends break any previous co-partitioning contract.
            if entry.partitioner is not None and rows_rdd.partitioner != (
                entry.partitioner
            ):
                entry.partitioner = None
                entry.distribute_column = None
        else:
            entry.cached_rdd = blocks
            entry.partition_stats = stats
            entry.partition_bytes = bytes_per_partition
            entry.row_count = row_count
            entry.size_bytes = sum(bytes_per_partition)

    def _materialize_external(
        self, entry: TableEntry, rows_rdd: RDD, append: bool = False
    ) -> None:
        serde = TextSerde(entry.schema)
        partitions = self.ctx.run_job(rows_rdd, list)
        blocks = [serde.encode(part) for part in partitions if part]
        path = entry.path or self._table_path(entry.name)
        entry.path = path
        if append and self.store.exists(path):
            for block in blocks:
                self.store.append_block(path, block)
            entry.row_count = (entry.row_count or 0) + sum(
                len(part) for part in partitions
            )
        else:
            self.store.write_file(path, blocks, format="text", overwrite=True)
            entry.row_count = sum(len(part) for part in partitions)
        entry.size_bytes = self.store.file(path).size_bytes

    @staticmethod
    def _table_path(name: str) -> str:
        return f"/warehouse/{name.lower()}"


def _render_statement(statement: ast.Statement) -> str:
    """Statement text for the journal (re-parsable on replay)."""
    if isinstance(statement, ast.CreateTable):
        return _render_create(statement)
    if isinstance(statement, ast.DropTable):
        suffix = "IF EXISTS " if statement.if_exists else ""
        return f"DROP TABLE {suffix}{statement.name}"
    if isinstance(statement, ast.InsertInto):
        if statement.values:
            rows_sql = ", ".join(
                "(" + ", ".join(_render_literal(e) for e in row) + ")"
                for row in statement.values
            )
            return f"INSERT INTO {statement.table} VALUES {rows_sql}"
        return f"INSERT INTO {statement.table} {_render_select(statement.select)}"
    if isinstance(statement, ast.CacheTable):
        verb = "UNCACHE" if statement.uncache else "CACHE"
        return f"{verb} TABLE {statement.name}"
    raise UnsupportedFeatureError(
        f"cannot journal {type(statement).__name__}"
    )


def _render_create(statement: ast.CreateTable) -> str:
    parts = ["CREATE TABLE"]
    if statement.if_not_exists:
        parts.append("IF NOT EXISTS")
    parts.append(statement.name)
    if statement.columns:
        columns = ", ".join(
            f"{c.name} {c.type_name.upper()}" for c in statement.columns
        )
        parts.append(f"({columns})")
    if statement.properties:
        props = ", ".join(
            f"'{k}' = '{v}'" for k, v in statement.properties.items()
        )
        parts.append(f"TBLPROPERTIES ({props})")
    if statement.as_select is not None:
        parts.append("AS " + _render_select(statement.as_select))
    return " ".join(parts)


def _render_select(select: ast.SelectStatement) -> str:
    """SELECT statements journal as their original text is unavailable;
    re-render from the AST (covers the dialect's full surface)."""
    from repro.sql.render import render_select

    return render_select(select)


def _render_literal(expr: ast.Expr) -> str:
    from repro.sql.render import render_expr

    return render_expr(expr)


def _operator_profiles(
    report: Optional[ExecutionReport], profiles: list
) -> list[dict]:
    """Join a report's planner stamps with the run's actual row counts
    (empty when the query had no report, e.g. a pure cache hit)."""
    if report is None or not report.operator_stamps:
        return []
    from repro.obs.planquality import (
        actual_rows_from_profiles,
        build_operator_profiles,
    )

    return build_operator_profiles(
        report.operator_stamps, actual_rows_from_profiles(profiles)
    )


def _wants_cache(properties: dict[str, str]) -> bool:
    return properties.get("shark.cache", "").lower() in ("true", "1", "yes")


def _terminal_status(error: BaseException) -> str:
    from repro.errors import QueryCancelledError, QueryDeadlineExceeded

    if isinstance(error, QueryDeadlineExceeded):
        return "deadline"
    if isinstance(error, QueryCancelledError):
        return "cancelled"
    return "error"


def _status(message: str) -> QueryResult:
    schema = Schema([Field("status", type_by_name("string"))])
    return QueryResult(rows=[(message,)], schema=schema)
