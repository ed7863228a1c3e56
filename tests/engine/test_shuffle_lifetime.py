"""Query-scoped shuffle lifetime.

A SQL statement frees the shuffles it registered when it ends — success,
cancellation, deadline or failure — and a lifecycle query frees the
shuffles of every statement it ran.  Freed means: the pinned map-output
blocks leave the workers (and the storage ledger), the shuffle leaves
``ShuffleManager`` and the scheduler's reusable-stage map.  RDDs handed
to the user (``sql2rdd`` results, RDD-API jobs) keep Spark's reuse of
map outputs across actions, and a cached table whose parent shuffle was
freed still recomputes evicted blocks through its lineage.
"""

import operator

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.engine.context import EngineContext
from repro.engine.lifecycle import LifecycleConfig
from repro.engine.memory import EXECUTION, STORAGE
from repro.engine.scheduler import SchedulerConfig
from repro.faults import FaultInjector
from repro.obs import sentinel
from repro.workloads import tpch

GROUP_BY = (
    "SELECT bucket, SUM(value) AS total, COUNT(*) AS n "
    "FROM readings GROUP BY bucket"
)
JOIN = (
    "SELECT b.region, SUM(r.value) AS total FROM readings r "
    "JOIN buckets b ON r.bucket = b.bucket GROUP BY b.region"
)


def _build_shark(**kwargs) -> SharkContext:
    shark = SharkContext(num_workers=3, cores_per_worker=2, **kwargs)
    shark.create_table(
        "readings",
        Schema.of(("bucket", STRING), ("day", INT), ("value", DOUBLE)),
        cached=True,
    )
    shark.create_table(
        "buckets", Schema.of(("bucket", STRING), ("region", STRING)),
        cached=True,
    )
    shark.load_rows(
        "readings",
        [(f"b{i % 6}", i % 15, float(i % 100)) for i in range(3000)],
        num_partitions=6,
    )
    shark.load_rows(
        "buckets",
        [(f"b{i}", "east" if i % 2 == 0 else "west") for i in range(6)],
        num_partitions=2,
    )
    return shark


def _shuffle_state(engine) -> dict:
    """Shuffle state a finished statement must leave where it found."""
    return {
        "pinned_blocks": len(engine.cluster.pinned_block_ids()),
        "registrations": len(engine.shuffle_manager._stats),
        "shuffle_stages": len(engine.scheduler._shuffle_stages),
        "claims": len(engine.scheduler._claims),
    }


def _state(engine) -> dict:
    """Shuffle state plus the storage ledger (no SQL cache in play)."""
    return dict(
        _shuffle_state(engine),
        storage_bytes=sum(
            row["used_bytes"]
            for row in engine.memory.watermarks()
            if row["pool"] == STORAGE
        ),
    )


def _tpch_warehouse(memory_per_worker_bytes=None) -> SharkContext:
    """The sentinel's cached TPC-H tables at half its scale (lineitem
    50k rows): the capped run's working set then fits a 2 MiB worker,
    so any eviction is caused by state left behind by earlier queries.
    """
    shark = SharkContext(
        num_workers=sentinel.WORKERS,
        cores_per_worker=sentinel.CORES_PER_WORKER,
        memory_per_worker_bytes=memory_per_worker_bytes,
    )
    for name, data, partitions in (
        ("lineitem", tpch.generate_lineitem(50_000), 2),
        ("orders", tpch.generate_orders(12_500), 2),
        ("customer", tpch.generate_customer(1_250), 1),
    ):
        shark.create_table(name, data.schema, cached=True)
        shark.load_rows(name, data.rows, num_partitions=partitions)
    return shark


def _assert_ledger_zero(engine) -> None:
    execution = sum(
        row["used_bytes"]
        for row in engine.memory.watermarks()
        if row["pool"] == EXECUTION
    )
    assert execution == 0
    assert engine.memory.clamped_release_bytes == 0


def _cached_blocks(engine, rdd) -> list[tuple[int, str]]:
    return [
        (worker_id, f"rdd_{rdd.id}_{partition}")
        for partition, worker_id in sorted(
            engine.cache_tracker.cached_partitions(rdd.id).items()
        )
    ]


class TestBoundedStateSoak:
    """The sentinel suite, three rounds on one context: every statement
    leaves the shuffle and storage state exactly where set-up left it."""

    @pytest.mark.parametrize("cap", [None, 2 * 1024 * 1024])
    def test_state_flat_after_every_statement(self, cap):
        shark = _tpch_warehouse(memory_per_worker_bytes=cap)
        engine = shark.engine
        settled = _state(engine)
        assert settled["pinned_blocks"] == 0
        evicted = shark.metrics.value("blocks.evicted")
        for _ in range(3):
            for name, text in sentinel.suite_queries().items():
                shark.sql(text)
                assert _state(engine) == settled, name
        # Finished queries' map outputs no longer crowd the cached
        # tables out of a capped worker.
        assert shark.metrics.value("blocks.evicted") == evicted
        assert shark.metrics.value("shuffle.released") > 0
        _assert_ledger_zero(engine)


class TestStatementScope:
    def test_every_statement_kind_frees_its_shuffles(self):
        shark = _build_shark()
        engine = shark.engine
        settled = _state(engine)
        shark.sql(GROUP_BY)
        assert _state(engine) == settled
        shark.explain_analyze(JOIN)
        assert _state(engine) == settled
        shark.sql(
            "CREATE TABLE totals (bucket STRING, total DOUBLE, n BIGINT)"
        )
        shark.sql(f"INSERT INTO totals {GROUP_BY}")
        assert len(engine.cluster.pinned_block_ids()) == 0
        assert engine.scheduler._shuffle_stages == {}
        _assert_ledger_zero(engine)

    def test_failed_statement_frees_its_shuffles(self):
        shark = _build_shark()
        engine = shark.engine

        def explode(bucket):
            if bucket == "b3":
                raise ValueError("bad bucket")
            return bucket

        shark.register_udf("explode", explode)
        with pytest.raises(Exception):
            shark.sql(
                "SELECT explode(bucket), COUNT(*) FROM "
                "(SELECT bucket, SUM(value) AS v FROM readings "
                "GROUP BY bucket) t GROUP BY explode(bucket)"
            )
        assert shark.metrics.value("shuffle.released") > 0
        assert engine.cluster.pinned_block_ids() == set()
        assert engine.shuffle_manager.registered_block_ids() == set()
        _assert_ledger_zero(engine)

    def test_sql_cache_memo_statements_free_their_shuffles(self):
        shark = _build_shark()
        shark.enable_sql_cache()
        engine = shark.engine
        settled = _shuffle_state(engine)
        shark.sql(GROUP_BY)
        assert _shuffle_state(engine) == settled
        # A load moves the table version: the same text then takes the
        # memo path (no parse), misses the result cache, hits the plan
        # cache and runs its shuffle again.
        shark.sql("INSERT INTO readings VALUES ('b0', 1, 1.0)")
        jobs_before = shark.metrics.value("jobs.submitted")
        rows = shark.sql(GROUP_BY).rows
        assert shark.metrics.value("jobs.submitted") > jobs_before
        assert ("b0", 24_501.0, 501) in rows
        assert _shuffle_state(engine) == settled


class TestEscapedRdds:
    def test_sql2rdd_second_action_skips_its_map_stage(self):
        shark = _build_shark()
        metrics = shark.metrics
        table_rdd = shark.sql2rdd(GROUP_BY)
        first = table_rdd.collect()
        # A SQL statement in between frees only its own shuffles.
        shark.sql(JOIN)
        run_before = metrics.value("stages.run")
        skipped_before = metrics.value("stages.skipped")
        assert table_rdd.collect() == first
        assert metrics.value("stages.run") - run_before == 1  # result only
        assert metrics.value("stages.skipped") - skipped_before >= 1

    def test_rdd_api_job_keeps_map_outputs(self):
        ctx = EngineContext(num_workers=3, cores_per_worker=2)
        counts = (
            ctx.parallelize(range(300), 6)
            .map(lambda i: (i % 7, 1))
            .reduce_by_key(operator.add)
        )
        first = sorted(counts.collect())
        assert ctx.cluster.pinned_block_ids()
        run_before = ctx.metrics.value("stages.run")
        assert sorted(counts.collect()) == first
        assert ctx.metrics.value("stages.run") - run_before == 1


class TestLineageThroughFreedShuffles:
    def test_ctas_table_recomputes_evicted_blocks(self):
        shark = _build_shark()
        engine = shark.engine
        shark.sql(
            "CREATE TABLE agg TBLPROPERTIES ('shark.cache'='true') AS "
            + GROUP_BY
        )
        # The CTAS shuffle is gone; reading the fully cached table does
        # not resurrect it.
        assert engine.cluster.pinned_block_ids() == set()
        query = "SELECT bucket, total, n FROM agg ORDER BY bucket"
        run_before = shark.metrics.value("stages.run")
        warm = shark.sql(query).rows
        warm_stages = shark.metrics.value("stages.run") - run_before
        assert engine.shuffle_manager.registered_block_ids() == set()

        cached_rdd = shark.table_entry("agg").cached_rdd
        blocks = _cached_blocks(engine, cached_rdd)
        assert blocks
        for worker_id, block_id in blocks:
            engine.cluster.worker(worker_id).blocks.remove(block_id)
        run_before = shark.metrics.value("stages.run")
        recomputed = shark.sql(query).rows
        assert repr(recomputed) == repr(warm)
        # The freed map stage re-ran from lineage ...
        assert shark.metrics.value("stages.run") - run_before > warm_stages
        # ... and was freed again when the query ended.
        assert engine.cluster.pinned_block_ids() == set()
        assert engine.scheduler._shuffle_stages == {}
        _assert_ledger_zero(engine)

    @pytest.mark.parametrize("downstream_shuffle", [False, True])
    def test_block_evicted_mid_job_recovers_freed_shuffle(
        self, downstream_shuffle
    ):
        """A cached partition that vanishes after the job was planned:
        the read falls through to the freed shuffle, whose fetch fails,
        and recovery re-runs the map stage found in the lineage."""
        ctx = EngineContext(num_workers=3, cores_per_worker=2)
        scheduler = ctx.scheduler
        with scheduler.shuffle_scope():
            sums = (
                ctx.parallelize(range(600), 6)
                .map(lambda i: (i % 11, i))
                .reduce_by_key(operator.add)
                .cache()
            )
            expected = sorted(sums.collect())
        assert ctx.shuffle_manager.registered_block_ids() == set()
        victims = _cached_blocks(ctx, sums)[1:]

        def evict_others(index, rows):
            if index == 0:
                for worker_id, block_id in victims:
                    ctx.cluster.worker(worker_id).blocks.remove(block_id)
            return rows

        downstream = sums.map_partitions_with_index(evict_others)
        if downstream_shuffle:
            downstream = downstream.reduce_by_key(operator.add)
        with scheduler.shuffle_scope():
            assert sorted(downstream.collect()) == expected
        assert ctx.metrics.value("shuffle.fetch_failures") > 0
        assert ctx.cluster.pinned_block_ids() == set()
        assert scheduler._shuffle_stages == {}
        _assert_ledger_zero(ctx)


class TestLifecycleQueries:
    def test_successful_lifecycle_query_frees_shuffles(self):
        shark = _build_shark()
        shark.enable_tracing()
        lifecycle = shark.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        handles = [
            shark.submit_sql(GROUP_BY, name="group"),
            shark.submit_sql(JOIN, name="join"),
        ]
        lifecycle.drain()
        assert [handle.state for handle in handles] == ["done", "done"]
        assert all(handle.shuffle_ids for handle in handles)
        assert shark.engine.cluster.pinned_block_ids() == set()
        assert shark.engine.shuffle_manager.registered_block_ids() == set()
        released = shark.trace.events_named("query.shuffles_released")
        assert len(released) == 2

    def test_shared_shuffle_freed_when_last_claimant_ends(self):
        ctx = EngineContext(num_workers=3, cores_per_worker=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        shared = (
            ctx.parallelize(range(600), 6)
            .map(lambda i: (i % 11, 1))
            .reduce_by_key(operator.add)
        )
        shuffle_id = shared.dependencies[0].shuffle_id
        first = lifecycle.submit(shared.collect, name="first")
        second = lifecycle.submit(shared.collect, name="second")
        lifecycle.wait(first)
        assert first.state == "done"
        assert shuffle_id in first.shuffle_ids
        assert shuffle_id in second.shuffle_ids
        # The second query still claims the shuffle: it stays.
        assert not second.done
        assert ctx.shuffle_manager.is_registered(shuffle_id)
        lifecycle.drain()
        assert sorted(second.result) == sorted(first.result)
        assert not ctx.shuffle_manager.is_registered(shuffle_id)
        assert ctx.cluster.pinned_block_ids() == set()
        assert ctx.scheduler._claims == {}


class TestSpeculatedMapOutputs:
    """Both attempts of a speculated map task write the same block id;
    only the winner's copy may survive."""

    @staticmethod
    def _straggler_injector() -> FaultInjector:
        return FaultInjector(
            seed=7, stragglers_per_stage=1, straggler_slowdown=50.0
        )

    @staticmethod
    def _config() -> SchedulerConfig:
        return SchedulerConfig(
            speculation=True,
            speculation_min_peers=2,
            speculation_multiplier=1.2,
        )

    def test_loser_copy_dropped(self):
        ctx = EngineContext(
            num_workers=4,
            cores_per_worker=2,
            fault_injector=self._straggler_injector(),
            scheduler_config=self._config(),
        )
        ctx.enable_tracing()
        counts = (
            ctx.parallelize(range(800), 8)
            .map(lambda i: (i % 13, 1))
            .reduce_by_key(operator.add)
        )
        assert sorted(counts.collect()) == [(k, 800 // 13 + (k < 800 % 13))
                                            for k in range(13)]
        map_stage = counts.dependencies[0].shuffle_id
        speculated_maps = [
            event
            for event in ctx.trace.events_named("task.speculative")
            if event.args["stage_id"]
            == ctx.scheduler._shuffle_stages[map_stage].stage_id
        ]
        assert speculated_maps, "expected a speculated map task"
        # One copy of each map output, on the registered worker.
        copies = [
            block_id
            for worker in ctx.cluster.live_workers()
            for block_id in worker.blocks.pinned_ids()
        ]
        assert sorted(copies) == sorted(
            ctx.shuffle_manager.registered_block_ids()
        )

    def test_sql_under_speculation_leaves_no_pinned_blocks(self):
        shark = _build_shark(
            fault_injector=self._straggler_injector(),
            scheduler_config=self._config(),
        )
        reference = _build_shark()
        for text in (GROUP_BY, JOIN):
            assert sorted(shark.sql(text).rows) == sorted(
                reference.sql(text).rows
            )
            assert shark.engine.cluster.pinned_block_ids() == set()
        assert shark.metrics.value("tasks.speculative") > 0
        _assert_ledger_zero(shark.engine)
