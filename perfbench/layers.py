"""Which engine entry points the traced run wraps, and the per-layer
metrics computed from their spans and from ``MetricsRegistry`` deltas.

Only per-call entry points are wrapped, never per-row functions
(``ColumnStats.observe``, ``SpillableGroups.note_key``,
``MetricsRegistry.inc``): their cost lands in the enclosing layer's
self time.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import ROOT, Target

#: RDD names the SQL physical operators give their output RDDs.
SQL_OPERATOR_NAMES = frozenset(
    {
        "filter",
        "project",
        "project_scan",
        "limit",
        "limit_local",
        "distinct",
        "sort",
        "distribute_by",
        "union_all",
        "values",
        "copartition_key_left",
        "copartition_key_right",
    }
)

_SCAN_RDDS = ("BatchPipelineRDD", "MemstoreScanRDD")


def classify_rdd(args: tuple) -> tuple[str, str]:
    """Layer and label of an RDD ``compute`` call, from its receiver."""
    rdd = args[0]
    kind = type(rdd).__name__
    if kind in _SCAN_RDDS:
        return "columnar.scan", f"columnar.scan.{kind}"
    name = rdd.name
    if (
        name in SQL_OPERATOR_NAMES
        or name.endswith("_join")
        or "aggregate" in name
        or "semi" in name
    ):
        return "sql.physical", f"sql.physical.{name}"
    return "engine.rdd", f"engine.rdd.{kind}"


#: Label of ``ColumnarPartition.from_rows`` spans, whose rows are counted.
INGEST_LABEL = "columnar.ingest.from_rows"


def _rows_arg(args: tuple) -> int:
    # ColumnarPartition.from_rows(cls, schema, rows, ...)
    return len(args[2]) if len(args) > 2 else 0


def targets() -> list[Target]:
    """Every wrapped entry point.  Imports the engine modules."""
    from repro.columnar import compression
    from repro.engine import rdd as engine_rdd

    out = [
        # sql.frontend
        Target("repro.sql.parser", "parse", "sql.frontend"),
        Target("repro.sql.analyzer:Analyzer", "analyze_select", "sql.frontend"),
        Target("repro.sql.optimizer", "optimize", "sql.frontend"),
        # sql.planner (codegen compiles counted within it)
        Target("repro.sql.planner:PhysicalPlanner", "plan", "sql.planner"),
    ]
    for name in (
        "compile_expression",
        "compile_projection",
        "compile_predicate",
        "compile_vector_expression",
        "compile_vector_predicate",
        "compile_vector_projection",
    ):
        out.append(
            Target("repro.sql.codegen", name, "sql.planner", label=f"sql.codegen.{name}")
        )
    for name in (
        "plan_lookup",
        "plan_store",
        "result_lookup",
        "result_store",
        "fragment_lookup",
        "fragment_store",
    ):
        out.append(Target("repro.sql.cache:SqlCache", name, "sql.cache"))
    out += [
        Target("repro.serving.server:SqlServer", "submit", "serving"),
        Target("repro.serving.server:SqlServer", "drain", "serving"),
        Target("repro.engine.lifecycle:QueryLifecycleManager", "submit", "engine.lifecycle"),
        Target("repro.engine.lifecycle:QueryLifecycleManager", "wait", "engine.lifecycle"),
        # The served query's own thread: its body is a layer of its own
        # (query-thread work no other wrapper covers), its waits for the
        # baton count as lifecycle hand-off.
        Target(
            "repro.engine.lifecycle:QueryLifecycleManager", "_thread_main",
            "engine.lifecycle.query",
        ),
        Target("repro.engine.lifecycle:QueryLifecycleManager", "_await_grant", "engine.lifecycle"),
        Target("repro.engine.lifecycle:QueryLifecycleManager", "_yield_baton", "engine.lifecycle"),
        Target("repro.engine.scheduler:DAGScheduler", "run_job", "engine.scheduler"),
        Target("repro.engine.scheduler:DAGScheduler", "materialize_shuffle", "engine.scheduler"),
        Target("repro.columnar.batch:ColumnBatch", "materialize_rows", "columnar.materialize"),
        Target("repro.sql.physical:BatchAggregator", "consume", "sql.physical"),
        Target("repro.sql.physical:BatchAggregator", "finish", "sql.physical"),
        Target("repro.engine.shuffle:ShuffleManager", "write_map_output", "engine.shuffle.write"),
        Target("repro.engine.shuffle:ShuffleManager", "fetch", "engine.shuffle.fetch"),
        Target("repro.engine.memory:MemoryAccountant", "reserve", "engine.memory"),
        Target("repro.engine.memory:MemoryAccountant", "release", "engine.memory"),
        Target("repro.engine.memory:MemoryAccountant", "resize", "engine.memory"),
        Target("repro.engine.spill:SpillableGroups", "spill", "engine.spill"),
        Target("repro.engine.spill:SpillableGroups", "finish_groups", "engine.spill"),
        Target("repro.engine.spill:ExternalSorter", "spill", "engine.spill"),
        Target("repro.engine.spill:ExternalSorter", "finish", "engine.spill"),
        Target("repro.cluster.worker:BlockStore", "put", "cluster.blockstore"),
        Target("repro.cluster.worker:BlockStore", "get", "cluster.blockstore"),
        Target("repro.cluster.worker:BlockStore", "evict_up_to", "cluster.blockstore"),
        Target(
            "repro.cluster.worker", "approximate_size_bytes", "cluster.sizeof",
            outermost=True,
        ),
        Target(
            "repro.columnar.table:ColumnarPartition", "from_rows", "columnar.ingest",
            label=INGEST_LABEL, count=_rows_arg,
        ),
        Target("repro.columnar.compression", "choose_scheme", "columnar.ingest"),
        Target("repro.pde.decisions", "decide_join_strategy", "pde"),
        Target("repro.pde.decisions", "choose_num_reducers", "pde"),
        Target("repro.pde.binpack", "pack_partitions", "pde"),
        Target("repro.ml.logistic:LogisticRegression", "fit", "ml"),
        Target("repro.ml.kmeans:KMeans", "fit", "ml"),
        Target(
            "repro.obs.planquality", "record_operator_rows", "obs",
            modules=("repro.sql.physical",),
        ),
        Target("repro.engine.shuffle:MapOutputStats", "skew_record", "obs"),
    ]
    # Every EncodedColumn subclass's own decode.
    pending = [compression.EncodedColumn]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "decode" in cls.__dict__:
            out.append(
                Target(
                    f"{cls.__module__}:{cls.__name__}", "decode", "columnar.scan",
                    label="columnar.decode",
                )
            )
    # Every RDD class's own compute, layered by receiver.
    from repro.sql import physical

    for module in (engine_rdd, physical):
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, engine_rdd.RDD)
                and value.__module__ == module.__name__
                and "compute" in value.__dict__
            ):
                out.append(
                    Target(
                        f"{module.__name__}:{value.__name__}", "compute",
                        classify_rdd,
                    )
                )
    return out


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str


#: Self-time metrics, one per span layer (ms per traced op).
SELF_TIME = {
    "sql.frontend.self_ms": "sql.frontend",
    "sql.planner.self_ms": "sql.planner",
    "sql.cache.self_ms": "sql.cache",
    "serving.self_ms": "serving",
    "engine.lifecycle.self_ms": "engine.lifecycle",
    "engine.lifecycle.query.self_ms": "engine.lifecycle.query",
    "engine.scheduler.self_ms": "engine.scheduler",
    "columnar.scan.self_ms": "columnar.scan",
    "columnar.materialize.self_ms": "columnar.materialize",
    "sql.physical.self_ms": "sql.physical",
    "engine.rdd.self_ms": "engine.rdd",
    "engine.shuffle.write_ms": "engine.shuffle.write",
    "engine.shuffle.fetch_ms": "engine.shuffle.fetch",
    "engine.memory.self_ms": "engine.memory",
    "engine.spill.self_ms": "engine.spill",
    "cluster.blockstore.self_ms": "cluster.blockstore",
    "cluster.sizeof.self_ms": "cluster.sizeof",
    "columnar.ingest.self_ms": "columnar.ingest",
    "pde.self_ms": "pde",
    "ml.self_ms": "ml",
    "obs.self_ms": "obs",
    "other.self_ms": ROOT,
}

#: Per-op counter deltas: metric -> registry counters summed.
COUNTER_DELTAS = {
    "sql.cache.invalidations": ("sqlcache.invalidations",),
    "sql.cache.evicted_bytes": ("sqlcache.evicted.bytes",),
    "serving.rejected": ("tenant.quota_rejected",),
    "serving.shed": ("server.shed",),
    "engine.jobs": ("jobs.submitted",),
    "engine.stages": ("stages.run",),
    "engine.tasks": ("tasks.launched",),
    "engine.task_retries": ("tasks.retried",),
    "columnar.batch_rows": ("batch.rows",),
    "columnar.batches": ("batch.batches",),
    "engine.shuffle.write_bytes": ("shuffle.write.bytes",),
    "engine.shuffle.records": ("shuffle.write.records",),
    "engine.shuffle.fetch_failures": ("shuffle.fetch_failures",),
    "engine.spill.bytes": ("memory.spill.bytes",),
    "engine.spill.runs": ("memory.spill.runs",),
    "cluster.blocks_evicted": ("blocks.evicted",),
    "engine.lineage_recomputes": ("cache.misses",),
    "pde.decisions": ("pde.join_decisions", "pde.reducer_decisions"),
    "pde.pre_shuffles": ("pde.pre_shuffles",),
}

#: Ratios: metric -> (numerator counters, denominator counters).
RATIOS = {
    "sql.cache.plan_hit_ratio": (
        ("sqlcache.plan.hits",),
        ("sqlcache.plan.hits", "sqlcache.plan.misses"),
    ),
    "sql.cache.result_hit_ratio": (
        ("sqlcache.result.hits",),
        ("sqlcache.result.hits", "sqlcache.result.misses"),
    ),
    "sql.cache.fragment_hit_ratio": (
        ("sqlcache.fragment.hits",),
        ("sqlcache.fragment.hits", "sqlcache.fragment.misses"),
    ),
    "cluster.eviction_ratio": (("blocks.evicted",), ("blocks.put",)),
}

#: Counters read around every traced op.
TRACKED_COUNTERS = sorted(
    {name for names in COUNTER_DELTAS.values() for name in names}
    | {name for pair in RATIOS.values() for names in pair for name in names}
)

#: Span-count metrics: metric -> (layer, label prefix or None).
SPAN_COUNTS = {
    "sql.frontend.calls": ("sql.frontend", None),
    "sql.codegen.compiles": ("sql.planner", "sql.codegen."),
    "engine.memory.reserves": ("engine.memory", "repro.engine.memory:MemoryAccountant.reserve"),
}

def per_layer_metrics() -> list[LayerMetric]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [LayerMetric(name, "ms/op") for name in SELF_TIME]
    for name in list(COUNTER_DELTAS) + list(SPAN_COUNTS):
        unit = "B/op" if name.endswith("bytes") else "1/op"
        out.append(LayerMetric(name, unit))
    out += [LayerMetric(name, "ratio") for name in RATIOS]
    out += [
        LayerMetric("engine.memory.peak_bytes", "B"),
        LayerMetric("engine.memory.clamped", "B"),
        LayerMetric("engine.profiles_retained", "count"),
        LayerMetric("columnar.ingest.rows", "1/op"),
        LayerMetric("columnar.ingest.bytes_per_value", "B"),
        LayerMetric("columnar.ingest.setup_ms", "ms"),
        LayerMetric("costmodel.sim_ms", "ms/op"),
        LayerMetric("python.gc_ms", "ms/op"),
        LayerMetric("trace.overhead_ratio", "ratio"),
    ]
    return out


#: Per-layer metrics where a larger value is better (all others: lower).
HIGHER_IS_BETTER = frozenset(
    {
        "sql.cache.plan_hit_ratio",
        "sql.cache.result_hit_ratio",
        "sql.cache.fragment_hit_ratio",
    }
)
