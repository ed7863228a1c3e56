"""Physical operators: logical nodes lowered to RDD transformations.

Each helper takes child RDDs of row tuples and returns a new RDD.  The
planner (:mod:`repro.sql.planner`) decides *which* helper to use (join
strategies, PDE, map pruning); the helpers only build dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.cluster.worker import approximate_size_bytes
from repro.columnar.table import ColumnarPartition
from repro.costmodel.models import SOURCE_MEMORY
from repro.datatypes import Schema
from repro.engine.dependencies import OneToOneDependency, ShuffleDependency
from repro.engine.memory import DRIVER_WORKER, EXECUTION
from repro.engine.partitioner import HashPartitioner, Partitioner
from repro.engine.rdd import (
    RDD,
    CoGroupedRDD,
    MapPartitionsRDD,
    PrunedRDD,
    ShuffledRDD,
)
from repro.engine.spill import SpillableGroups
from repro.engine.task import current_task_context
from repro.obs.planquality import OperatorStamp, record_operator_rows
from repro.sql.expressions import BoundExpr
from repro.sql.functions import (
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
)
from repro.sql.logical import AggregateSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext
    from repro.engine.task import TaskContext
    from repro.sql.catalog import TableEntry


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorFilter:
    """One vectorizable conjunct pushed into the columnar scan.

    ``kind`` is one of 'cmp' (with ``op`` in =, <>, <, <=, >, >=), 'between',
    'in', 'isnull', 'notnull'.  Evaluated column-at-a-time with numpy over
    the decoded column — the "better cache behavior" benefit of columnar
    layout (Section 3.2) — before any row tuple is built.
    """

    column: str
    kind: str
    op: str = ""
    values: tuple = ()


def _row_fallback_value(spec: VectorFilter, value) -> bool:
    """Row-level re-check of one vector filter, for blocks where the
    column could not be evaluated vectorized (mixed/object arrays)."""
    if spec.kind == "cmp":
        if value is None:
            return False
        target = spec.values[0]
        try:
            return {
                "=": value == target,
                "<>": value != target,
                "<": value < target,
                "<=": value <= target,
                ">": value > target,
                ">=": value >= target,
            }[spec.op]
        except TypeError:
            return False
    if spec.kind == "between":
        if value is None:
            return False
        low, high = spec.values
        try:
            return low <= value <= high
        except TypeError:
            return False
    if spec.kind == "in":
        return value is not None and value in spec.values
    if spec.kind == "isnull":
        return value is None
    if spec.kind == "notnull":
        return value is not None
    return True


def _filter_mask(block: ColumnarPartition, spec: VectorFilter):
    """Boolean mask for one vector filter over one block, or None when the
    column cannot be evaluated vectorized (e.g. NULLs in an object array).
    """
    values = block.column_by_name(spec.column)
    if isinstance(values, np.ndarray) and values.dtype != object:
        array = values
        notnull = None  # primitive arrays cannot hold NULLs
    else:
        array = np.asarray(values, dtype=object)
        # SQL: a NULL operand makes the predicate non-TRUE, so NULL rows
        # are excluded from every mask kind except isnull.
        notnull = np.fromiter(
            (value is not None for value in values), dtype=bool,
            count=len(array),
        )
    try:
        if spec.kind == "cmp":
            target = spec.values[0]
            mask = {
                "=": lambda: array == target,
                "<>": lambda: array != target,
                "<": lambda: array < target,
                "<=": lambda: array <= target,
                ">": lambda: array > target,
                ">=": lambda: array >= target,
            }[spec.op]()
        elif spec.kind == "between":
            low, high = spec.values
            mask = (array >= low) & (array <= high)
        elif spec.kind == "in":
            if array.dtype == object:
                options = set(spec.values)
                mask = np.fromiter(
                    (value in options for value in values), dtype=bool,
                    count=len(array),
                )
            else:
                mask = np.isin(
                    array, np.asarray(list(spec.values), dtype=array.dtype)
                )
        elif spec.kind == "isnull":
            return (
                ~notnull
                if notnull is not None
                else np.zeros(len(array), dtype=bool)
            )
        elif spec.kind == "notnull":
            return (
                notnull
                if notnull is not None
                else np.ones(len(array), dtype=bool)
            )
        else:
            return None
    except TypeError:
        return None  # incomparable mixed column: fall back to row filter
    mask = np.asarray(mask, dtype=bool)
    if notnull is not None:
        mask = mask & notnull
    return mask


class MemstoreScanRDD(RDD):
    """Scan a cached table's columnar partitions into row tuples.

    Performs late materialization: only the projected columns are decoded
    (the benefit of the columnar layout, Section 3.2), and vectorizable
    predicates run column-at-a-time over the arrays so row tuples are only
    built for surviving rows.  The parent RDD's elements are
    :class:`ColumnarPartition` blocks, one per partition.
    """

    def __init__(
        self,
        parent: RDD,
        table_schema: Schema,
        projected: Optional[list[str]] = None,
        vector_filters: tuple = (),
        scan_key: Optional[str] = None,
        filter_key: Optional[str] = None,
    ):
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            [OneToOneDependency(parent)],
            name="memstore_scan",
        )
        self._parent = parent
        self._projected = projected
        self._table_schema = table_schema
        self._vector_filters = tuple(vector_filters)
        #: Plan-quality stamp keys: the scan is credited with rows read
        #: (pre-filter); ``filter_key`` is set only when the pushed-down
        #: vector filters are the whole predicate, so the surviving rows
        #: are the filter operator's actual output.
        self._scan_key = scan_key
        self._filter_key = filter_key
        #: Filters that could not be evaluated vectorized on some block
        #: must still hold: the caller keeps them in the row-level filter,
        #: so a None mask here is only a lost optimization, never a wrong
        #: result... unless the caller *removed* them.  We therefore apply
        #: the row-level fallback ourselves for failed specs.

    def _row_fallback(self, spec: VectorFilter, value) -> bool:
        return _row_fallback_value(spec, value)

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        blocks = self._parent.iterator(split, task_ctx)
        rows: list[tuple] = []
        total_bytes = 0
        total_records = 0
        for block in blocks:
            if not isinstance(block, ColumnarPartition):
                raise TypeError(
                    f"memstore partition holds {type(block).__name__}, "
                    f"expected ColumnarPartition"
                )
            total_records += block.num_rows

            # Vectorized predicate pass: one numpy mask per conjunct.
            mask = None
            fallback_specs: list[VectorFilter] = []
            for spec in self._vector_filters:
                spec_mask = _filter_mask(block, spec)
                if spec_mask is None:
                    fallback_specs.append(spec)
                    continue
                mask = spec_mask if mask is None else (mask & spec_mask)

            if mask is not None:
                selected = np.nonzero(np.asarray(mask, dtype=bool))[0]
            else:
                selected = range(block.num_rows)

            if self._projected is None:
                indices = list(range(len(block.schema)))
                total_bytes += block.memory_footprint_bytes()
            else:
                indices = [
                    block.schema.index_of(name) for name in self._projected
                ]
                total_bytes += sum(
                    block.encoded_column(i).compressed_bytes for i in indices
                )
            columns = [block.column(i) for i in indices]
            if fallback_specs:
                fallback_columns = [
                    block.column_by_name(spec.column)
                    for spec in fallback_specs
                ]
            to_python = ColumnarPartition._to_python
            for row_index in selected:
                if fallback_specs and not all(
                    self._row_fallback(spec, column[row_index])
                    for spec, column in zip(fallback_specs, fallback_columns)
                ):
                    continue
                rows.append(
                    tuple(
                        to_python(column[row_index]) for column in columns
                    )
                )
        task_ctx.metrics.source = SOURCE_MEMORY
        task_ctx.metrics.records_in += total_records
        task_ctx.metrics.bytes_in += total_bytes
        if self._scan_key is not None:
            record_operator_rows(self._scan_key, total_records)
        if self._filter_key is not None:
            record_operator_rows(self._filter_key, len(rows))
        return rows


def scan_memstore(
    entry: "TableEntry",
    projected: Optional[list[str]],
    kept_partitions: Optional[list[int]] = None,
    vector_filters: tuple = (),
    scan_op: Optional[OperatorStamp] = None,
    filter_op: Optional[OperatorStamp] = None,
) -> RDD:
    """Build the scan dataflow for a cached table, optionally map-pruned
    and with vectorizable predicates pushed into the columnar scan."""
    base = entry.cached_rdd
    if base is None:
        raise ValueError(f"table {entry.name} has no cached data")
    if kept_partitions is not None and kept_partitions != list(
        range(base.num_partitions)
    ):
        base = PrunedRDD(base, kept_partitions)
    return MemstoreScanRDD(
        base, entry.schema, projected, vector_filters=vector_filters,
        scan_key=scan_op.key if scan_op is not None else None,
        filter_key=filter_op.key if filter_op is not None else None,
    )


# ---------------------------------------------------------------------------
# Batch pipeline (vectorized execution past the scan)
# ---------------------------------------------------------------------------


def _vector_validity(vector, n: int):
    """Positions holding non-NULL values, or None when all are valid."""
    data = vector.data
    if isinstance(data, np.ndarray):
        return vector.valid
    return np.fromiter((v is not None for v in data), dtype=bool, count=n)


class BatchAggregator:
    """Vectorized task-local hash aggregation over ColumnBatches.

    Produces exactly the ``(group_key, accumulators)`` pairs of
    :func:`_partial_aggregate_partition` — downstream merge/finish stages
    are shared with the row path, so the two pipelines differ only in how
    partials are built.  Group identity is resolved batch-at-a-time:
    dictionary-encoded group columns aggregate directly on their integer
    codes (never decoding the column), primitive columns go through
    ``np.unique``, and everything else falls back to a per-row dict probe.
    Accumulator updates use per-group numpy reductions whose accumulation
    order matches the row path's left-to-right updates.
    """

    def __init__(
        self,
        group_kernels: list,
        group_ordinals: list,
        specs: list[AggregateSpec],
        arg_kernels: list,
    ):
        self.group_kernels = group_kernels
        self.group_ordinals = group_ordinals
        self.specs = specs
        self.arg_kernels = arg_kernels
        #: Spillable group state, registered with the accountant's
        #: arbitration path for the running task's worker; ``groups``
        #: aliases its live dict so the update kernels stay unchanged.
        self.state = SpillableGroups(
            [spec.function for spec in specs], "batch_aggregate"
        )
        self.groups: dict[tuple, list] = self.state.groups

    # -- group identity -------------------------------------------------
    def _group_ids(self, batch) -> tuple[np.ndarray, list]:
        """(group id per row, local key list) for one batch."""
        n = batch.num_rows
        if not self.group_kernels:
            return np.zeros(n, dtype=np.int64), [()]
        if len(self.group_kernels) == 1 and self.group_ordinals[0] is not None:
            view = batch.codes(self.group_ordinals[0])
            if view is not None:
                codes, dictionary = view
                uniq, gids = np.unique(codes, return_inverse=True)
                to_python = ColumnarPartition._to_python
                keys = [(to_python(dictionary[code]),) for code in uniq]
                return gids, keys
        vectors = [kernel(batch) for kernel in self.group_kernels]
        if len(vectors) == 1:
            vector = vectors[0]
            data = vector.data
            if (
                isinstance(data, np.ndarray)
                and data.dtype != object
                and vector.valid is None
                and not (
                    np.issubdtype(data.dtype, np.floating)
                    and np.isnan(data).any()
                )
            ):
                uniq, gids = np.unique(data, return_inverse=True)
                keys = [(value,) for value in uniq.tolist()]
                return gids, keys
        columns = [vector.to_python_list() for vector in vectors]
        mapping: dict[tuple, int] = {}
        keys: list[tuple] = []
        gids = np.empty(n, dtype=np.int64)
        for r in range(n):
            key = tuple(column[r] for column in columns)
            gid = mapping.get(key)
            if gid is None:
                gid = len(keys)
                mapping[key] = gid
                keys.append(key)
            gids[r] = gid
        return gids, keys

    # -- accumulator updates --------------------------------------------
    @staticmethod
    def _masked(data: np.ndarray, valid, gids: np.ndarray):
        if valid is None:
            return data, gids
        return data[valid], gids[valid]

    def _numeric_data(self, vector, n: int):
        """(values, group-able validity) when the argument is a numeric
        array the grouped reductions can run on; None otherwise."""
        data = vector.data
        if not isinstance(data, np.ndarray):
            return None
        if data.dtype == np.bool_ or not np.issubdtype(data.dtype, np.number):
            return None
        return data, _vector_validity(vector, n)

    def _update_count(self, j, fn, kernel, batch, gids, group_accs):
        k = len(group_accs)
        n = batch.num_rows
        if fn.count_star or kernel is None:
            counts = np.bincount(gids, minlength=k)
        else:
            vector = kernel(batch)
            valid = _vector_validity(vector, n)
            if valid is None:
                counts = np.bincount(gids, minlength=k)
            else:
                counts = np.bincount(gids[valid], minlength=k)
        for g in range(k):
            count = counts[g]
            if count:
                accs = group_accs[g]
                accs[j] = accs[j] + int(count)

    def _update_sum(self, j, fn, kernel, batch, gids, group_accs):
        k = len(group_accs)
        vector = kernel(batch)
        numeric = self._numeric_data(vector, batch.num_rows)
        if numeric is None:
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        data, valid = numeric
        sub_data, sub_gids = self._masked(data, valid, gids)
        counts = np.bincount(sub_gids, minlength=k)
        if np.issubdtype(sub_data.dtype, np.integer):
            # Exact integer sums; bail to the row loop if a 64-bit
            # accumulator could overflow where Python ints would not.
            if sub_data.size and int(np.abs(sub_data).max()) > (2**62) // max(
                int(counts.max()), 1
            ):
                self._update_generic(j, fn, vector, batch, gids, group_accs)
                return
            sums = np.zeros(k, dtype=np.int64)
            np.add.at(sums, sub_gids, sub_data.astype(np.int64, copy=False))
            convert = int
        else:
            # np.bincount adds weights in input order: the same
            # left-to-right accumulation sequence as the row path.
            sums = np.bincount(sub_gids, weights=sub_data, minlength=k)
            convert = float
        for g in range(k):
            if counts[g]:
                accs = group_accs[g]
                value = convert(sums[g])
                accs[j] = value if accs[j] is None else accs[j] + value

    def _update_avg(self, j, fn, kernel, batch, gids, group_accs):
        k = len(group_accs)
        vector = kernel(batch)
        numeric = self._numeric_data(vector, batch.num_rows)
        if numeric is None:
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        data, valid = numeric
        sub_data, sub_gids = self._masked(data, valid, gids)
        if sub_data.size and np.issubdtype(sub_data.dtype, np.integer) and int(
            np.abs(sub_data).max()
        ) > 2**52:
            # Float64 weights would round large ints differently per batch.
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        sums = np.bincount(sub_gids, weights=sub_data, minlength=k)
        counts = np.bincount(sub_gids, minlength=k)
        for g in range(k):
            if counts[g]:
                accs = group_accs[g]
                total, count = accs[j]
                accs[j] = (total + float(sums[g]), count + int(counts[g]))

    def _update_min_max(self, j, fn, kernel, batch, gids, group_accs):
        k = len(group_accs)
        vector = kernel(batch)
        numeric = self._numeric_data(vector, batch.num_rows)
        if numeric is None:
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        data, valid = numeric
        sub_data, sub_gids = self._masked(data, valid, gids)
        is_float = np.issubdtype(sub_data.dtype, np.floating)
        if is_float and np.isnan(sub_data).any():
            # NaN poisons np.minimum/maximum but not Python comparisons.
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        minimum = isinstance(fn, MinAggregate)
        if is_float:
            fill = np.inf if minimum else -np.inf
            extremes = np.full(k, fill, dtype=np.float64)
            convert = float
        else:
            info = np.iinfo(np.int64)
            fill = info.max if minimum else info.min
            extremes = np.full(k, fill, dtype=np.int64)
            convert = int
        reducer = np.minimum if minimum else np.maximum
        reducer.at(extremes, sub_gids, sub_data)
        counts = np.bincount(sub_gids, minlength=k)
        for g in range(k):
            if counts[g]:
                accs = group_accs[g]
                accs[j] = fn.merge(accs[j], convert(extremes[g]))

    def _update_generic(self, j, fn, vector, batch, gids, group_accs):
        """Row-order fn.update loop: exact semantics for any aggregate."""
        values = vector.to_python_list() if vector is not None else None
        update = fn.update
        for r in range(batch.num_rows):
            accs = group_accs[gids[r]]
            accs[j] = update(
                accs[j], values[r] if values is not None else None
            )

    # -- public API ------------------------------------------------------
    def consume(self, batch) -> None:
        gids, keys = self._group_ids(batch)
        group_accs = []
        spilled_gids: set[int] = set()
        live_accs = self.state.live_accs
        for g, key in enumerate(keys):
            accs = live_accs(key)
            if accs is None:
                # Key's bucket already spilled: the vectorized updates
                # below land in a discarded sink; the rows themselves
                # are routed raw afterwards and replayed at finish.
                spilled_gids.add(g)
                accs = [spec.function.initial() for spec in self.specs]
            group_accs.append(accs)
        for j, spec in enumerate(self.specs):
            fn = spec.function
            kernel = self.arg_kernels[j]
            if fn.distinct:
                vector = kernel(batch) if kernel is not None else None
                self._update_generic(j, fn, vector, batch, gids, group_accs)
            elif isinstance(fn, CountAggregate):
                self._update_count(j, fn, kernel, batch, gids, group_accs)
            elif isinstance(fn, SumAggregate):
                self._update_sum(j, fn, kernel, batch, gids, group_accs)
            elif isinstance(fn, AvgAggregate):
                self._update_avg(j, fn, kernel, batch, gids, group_accs)
            elif isinstance(fn, (MinAggregate, MaxAggregate)):
                self._update_min_max(j, fn, kernel, batch, gids, group_accs)
            else:
                vector = kernel(batch) if kernel is not None else None
                self._update_generic(j, fn, vector, batch, gids, group_accs)
        if spilled_gids:
            self._route_spilled_rows(batch, gids, keys, spilled_gids)
        # Charge this batch's accumulator growth (new groups only) to
        # the running task's execution pool; the reservation may itself
        # arbitrate, spilling buckets of the state just built.
        self.state.charge_pending()

    def _route_spilled_rows(
        self, batch, gids, keys, spilled_gids: set[int]
    ) -> None:
        """Append rows belonging to spilled buckets as raw
        ``(key, argument values)`` records, in arrival order."""
        columns = [
            kernel(batch).to_python_list() if kernel is not None else None
            for kernel in self.arg_kernels
        ]
        append_raw = self.state.append_raw
        for r in range(batch.num_rows):
            g = int(gids[r])
            if g in spilled_gids:
                append_raw(
                    keys[g],
                    [
                        column[r] if column is not None else None
                        for column in columns
                    ],
                )

    def memory_footprint_bytes(self) -> int:
        """Exact heap bytes of the accumulated (live) group state."""
        return approximate_size_bytes(self.groups)

    def finish(self) -> list:
        if (
            not self.group_kernels
            and not self.groups
            and not self.state.spilled
        ):
            # Global aggregation over an empty partition still yields one
            # group (COUNT(*) over zero rows is 0, not zero rows).
            self.state.live_accs(())
        return self.state.finish_groups()


class BatchPipelineRDD(RDD):
    """A fused columnar pipeline over cached blocks.

    scan -> [vector filters] -> [residual predicate kernel] ->
    chain of filter/project kernels -> late materialization (row tuples)
    or a :class:`BatchAggregator` (partial ``(key, accs)`` pairs).

    Columns stay (possibly compressed) arrays throughout; Python row
    tuples only exist past the pipeline's exit.  One compute() call
    processes each ColumnarPartition block as one batch.
    """

    def __init__(
        self,
        parent: RDD,
        table_schema: Schema,
        column_indices: list[int],
        projected: Optional[list[str]],
        vector_filters: tuple = (),
        residual_predicate: Optional[Callable] = None,
        chain: tuple = (),
        aggregate_factory: Optional[Callable[[], BatchAggregator]] = None,
        name: str = "batch_scan",
        fragment_scope: Optional[tuple] = None,
        op_keys: Optional[dict] = None,
    ):
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            [OneToOneDependency(parent)],
            name=name,
        )
        self._parent = parent
        self._table_schema = table_schema
        self._column_indices = list(column_indices)
        self._projected = projected
        self._vector_filters = tuple(vector_filters)
        self._residual = residual_predicate
        self._chain = tuple(chain)
        self._aggregate_factory = aggregate_factory
        #: Plan-quality stamp keys for the fused operators: "scan",
        #: "filter" (the whole scan predicate), "chain" (one per chained
        #: kernel) and "aggregate" — runtime row counts are credited to
        #: these so batch and row mode report the same operators.
        self._op_keys = dict(op_keys or {})
        #: (table, version, kept_partitions_or_None) when the sql cache's
        #: fragment layer is on: decoded post-selection batches are
        #: published there, so concurrent queries over the same table
        #: decode each block once (shared scans).
        self._fragment_scope = fragment_scope

    def _scan_selection(self, block: ColumnarPartition):
        """Row positions surviving the pushed-down vector filters, or
        None when every row survives trivially (no filters)."""
        mask = None
        fallback_specs: list[VectorFilter] = []
        for spec in self._vector_filters:
            spec_mask = _filter_mask(block, spec)
            if spec_mask is None:
                fallback_specs.append(spec)
                continue
            mask = spec_mask if mask is None else (mask & spec_mask)
        if mask is None and not fallback_specs:
            return None
        if mask is not None:
            selection = np.nonzero(mask)[0]
        else:
            selection = np.arange(block.num_rows)
        if fallback_specs:
            columns = [
                block.column_by_name(spec.column) for spec in fallback_specs
            ]
            kept = [
                index
                for index in selection
                if all(
                    _row_fallback_value(spec, column[index])
                    for spec, column in zip(fallback_specs, columns)
                )
            ]
            selection = np.asarray(kept, dtype=np.int64)
        return selection

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        from repro.columnar.batch import ColumnBatch

        counters = self.ctx.tracer.metrics
        aggregator = (
            self._aggregate_factory() if self._aggregate_factory else None
        )
        rows: list[tuple] = []
        total_records = 0
        total_bytes = 0
        num_batches = 0
        filter_key = self._op_keys.get("filter")
        chain_keys = self._op_keys.get("chain") or (None,) * len(self._chain)
        filter_rows_out = 0
        chain_rows_out = [0] * len(self._chain)
        cache = (
            getattr(self.ctx, "sql_cache", None)
            if self._fragment_scope is not None
            else None
        )
        for ordinal, block in enumerate(
            self._parent.iterator(split, task_ctx)
        ):
            if not isinstance(block, ColumnarPartition):
                raise TypeError(
                    f"memstore partition holds {type(block).__name__}, "
                    f"expected ColumnarPartition"
                )
            total_records += block.num_rows
            if self._projected is None:
                total_bytes += block.memory_footprint_bytes()
            else:
                total_bytes += sum(
                    block.encoded_column(
                        block.schema.index_of(name)
                    ).compressed_bytes
                    for name in self._projected
                )
            batch = None
            fragment_key = None
            if cache is not None:
                fragment_key = cache.fragment_key(
                    self._fragment_scope,
                    split,
                    ordinal,
                    self._column_indices,
                    self._vector_filters,
                )
                batch = cache.fragment_lookup(fragment_key)
            if batch is None:
                # batch.batches counts real decodes only: a fragment hit
                # (shared scan) reuses another query's decoded batch.
                num_batches += 1
                selection = self._scan_selection(block)
                batch = ColumnBatch.from_block(
                    block, self._column_indices, selection
                )
                if fragment_key is not None:
                    cache.fragment_store(
                        fragment_key, batch, task_ctx.worker.worker_id
                    )
            if self._residual is not None:
                keep = self._residual(batch)
                batch = batch.take(np.nonzero(keep)[0])
                counters.inc("batch.kernel.filter")
            # Post-selection (and post-residual) survivors are the
            # filter operator's actual output for this block.
            filter_rows_out += batch.num_rows
            for index, (kind, payload) in enumerate(self._chain):
                if kind == "filter":
                    keep = payload(batch)
                    batch = batch.take(np.nonzero(keep)[0])
                    counters.inc("batch.kernel.filter")
                else:  # project
                    entries = [
                        batch.entries[plan]
                        if plan_kind == "col"
                        else plan(batch)
                        for plan_kind, plan in payload
                    ]
                    batch = ColumnBatch(entries, batch.num_rows)
                    counters.inc("batch.kernel.project")
                chain_rows_out[index] += batch.num_rows
            if aggregator is not None:
                aggregator.consume(batch)
                counters.inc("batch.kernel.aggregate")
            else:
                rows.extend(batch.materialize_rows())
        counters.inc("batch.batches", num_batches)
        counters.inc("batch.rows", total_records)
        self.ctx.tracer.instant(
            "batch.pipeline",
            "task",
            lane=task_ctx.worker.worker_id,
            stage_id=task_ctx.stage_id,
            partition=task_ctx.partition,
            batches=num_batches,
            rows=total_records,
            output_rows=len(rows) if aggregator is None else None,
        )
        task_ctx.metrics.source = SOURCE_MEMORY
        task_ctx.metrics.records_in += total_records
        task_ctx.metrics.bytes_in += total_bytes
        task_ctx.metrics.batch_rows += total_records
        scan_key = self._op_keys.get("scan")
        if scan_key is not None:
            record_operator_rows(scan_key, total_records)
        if filter_key is not None:
            record_operator_rows(filter_key, filter_rows_out)
        for key, count in zip(chain_keys, chain_rows_out):
            if key is not None:
                record_operator_rows(key, count)
        if aggregator is not None:
            out = aggregator.finish()
            aggregate_key = self._op_keys.get("aggregate")
            if aggregate_key is not None:
                record_operator_rows(aggregate_key, len(out))
            return out
        return rows


def scan_batch_pipeline(
    entry: "TableEntry",
    projected: Optional[list[str]],
    kept_partitions: Optional[list[int]],
    column_indices: list[int],
    vector_filters: tuple = (),
    residual_predicate: Optional[Callable] = None,
    chain: tuple = (),
    aggregate_factory: Optional[Callable[[], BatchAggregator]] = None,
    name: str = "batch_scan",
    op_keys: Optional[dict] = None,
) -> RDD:
    """Build the fused batch dataflow for a cached table (same pruning
    contract as :func:`scan_memstore`)."""
    base = entry.cached_rdd
    if base is None:
        raise ValueError(f"table {entry.name} has no cached data")
    cache = getattr(base.ctx, "sql_cache", None)
    fragment_scope = None
    if cache is not None and cache.config.enable_fragments:
        fragment_scope = (
            entry.name.lower(),
            cache.table_version(entry.name),
            None,
        )
    if kept_partitions is not None and kept_partitions != list(
        range(base.num_partitions)
    ):
        if fragment_scope is not None:
            # Key fragments on the *original* partition ids, so two
            # queries with different pruning share surviving blocks.
            fragment_scope = (
                fragment_scope[0],
                fragment_scope[1],
                tuple(kept_partitions),
            )
        base = PrunedRDD(base, kept_partitions)
    return BatchPipelineRDD(
        base,
        entry.schema,
        column_indices,
        projected,
        vector_filters=vector_filters,
        residual_predicate=residual_predicate,
        chain=chain,
        aggregate_factory=aggregate_factory,
        name=name,
        fragment_scope=fragment_scope,
        op_keys=op_keys,
    )


# ---------------------------------------------------------------------------
# Row-level operators
# ---------------------------------------------------------------------------


def _count_into(op: Optional[OperatorStamp]):
    """Per-partition pass-through that credits the partition's rows to
    ``op``'s plan-quality stamp; None when no stamp was requested."""
    if op is None:
        return None
    key = op.key

    def count_partition(part: list) -> list:
        record_operator_rows(key, len(part))
        return part

    return count_partition


def filter_rows(
    child: RDD,
    condition: BoundExpr,
    use_codegen: bool = True,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Filter rows where the predicate is exactly TRUE.

    With ``use_codegen`` the predicate is compiled to Python bytecode once
    (Section 5's expression-evaluator compiler) instead of interpreting
    the expression tree per row; semantics are identical and unsupported
    shapes fall back to interpretation.
    """
    predicate = None
    if use_codegen:
        from repro.sql.codegen import compile_predicate

        predicate = compile_predicate(condition)
    if predicate is None:
        predicate = lambda row: condition.eval(row) is True  # noqa: E731
    if op is None:
        return child.filter(predicate).set_name("filter")
    key = op.key

    def run(part: list) -> list:
        out = [row for row in part if predicate(row)]
        record_operator_rows(key, len(out))
        return out

    return child.map_partitions(
        run, preserves_partitioning=True
    ).set_name("filter")


def project_rows(
    child: RDD,
    expressions: list[BoundExpr],
    use_codegen: bool = True,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Evaluate the SELECT list per row, compiled when possible."""
    run = None
    if use_codegen:
        from repro.sql.codegen import compile_projection

        run = compile_projection(expressions)
    if run is None:
        def run(row: tuple) -> tuple:
            return tuple(expr.eval(row) for expr in expressions)

    if op is None:
        return child.map(run).set_name("project")
    key = op.key

    def run_partition(part: list) -> list:
        out = [run(row) for row in part]
        record_operator_rows(key, len(out))
        return out

    return child.map_partitions(run_partition).set_name("project")


def limit_rows(
    child: RDD, count: int, op: Optional[OperatorStamp] = None
) -> RDD:
    """LIMIT pushed into individual partitions (Section 2.4), then a final
    single-partition pass takes the global first ``count``."""

    def take_local(part: list) -> list:
        return part[:count]

    local = child.map_partitions(take_local).set_name("limit_local")
    merged = local.coalesce(1)
    if op is None:
        return merged.map_partitions(take_local).set_name("limit")
    key = op.key

    def take_final(part: list) -> list:
        out = part[:count]
        record_operator_rows(key, len(out))
        return out

    return merged.map_partitions(take_final).set_name("limit")


def distinct_rows(
    child: RDD,
    num_partitions: Optional[int] = None,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    out = child.distinct(num_partitions)
    counter = _count_into(op)
    if counter is not None:
        out = out.map_partitions(counter, preserves_partitioning=True)
    return out.set_name("distinct")


class SortKey:
    """Composite sort key honoring per-column direction and SQL NULL order
    (NULLs first ascending, last descending, as in Hive)."""

    __slots__ = ("values", "ascendings")

    def __init__(self, values: tuple, ascendings: tuple):
        self.values = values
        self.ascendings = ascendings

    def __lt__(self, other: "SortKey") -> bool:
        for mine, theirs, ascending in zip(
            self.values, other.values, self.ascendings
        ):
            if mine is None and theirs is None:
                continue
            if mine is None:
                return ascending
            if theirs is None:
                return not ascending
            if mine == theirs:
                continue
            if ascending:
                return mine < theirs
            return mine > theirs
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SortKey) and self.values == other.values

    def __le__(self, other: "SortKey") -> bool:
        return self == other or self < other


def sort_rows(
    child: RDD,
    keys: list[tuple[BoundExpr, bool]],
    num_partitions: Optional[int] = None,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    ascendings = tuple(asc for __, asc in keys)
    expressions = [expr for expr, __ in keys]

    def key_of(row: tuple) -> SortKey:
        return SortKey(
            tuple(expr.eval(row) for expr in expressions), ascendings
        )

    out = child.sort_by(key_of, True, num_partitions)
    counter = _count_into(op)
    if counter is not None:
        out = out.map_partitions(counter, preserves_partitioning=True)
    return out.set_name("sort")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _partial_aggregate_partition(
    part: list,
    group_exprs: list[BoundExpr],
    specs: list[AggregateSpec],
) -> list:
    """Task-local aggregation: one pass producing (group_key, accs) pairs.

    State lives in a :class:`SpillableGroups` registered with the
    accountant, charged incrementally as groups appear — so an over-cap
    reservation mid-partition can spill buckets to simulated disk and
    the pass completes in bounded memory, with output identical to the
    in-memory path."""
    state = SpillableGroups(
        [spec.function for spec in specs], "hash_aggregate"
    )
    if not group_exprs:
        # Global aggregation: an empty input still yields one group so
        # COUNT(*) over zero rows returns 0, not zero rows.
        state.live_accs(())
        state.charge_pending()
    for row in part:
        key = tuple(expr.eval(row) for expr in group_exprs)
        state.update_row(
            key,
            [
                spec.argument.eval(row) if spec.argument is not None else None
                for spec in specs
            ],
        )
    return state.finish_groups()


def _merge_accumulators(
    specs: list[AggregateSpec],
) -> Callable[[list, list], list]:
    def merge(left: list, right: list) -> list:
        return [
            spec.function.merge(l, r)
            for spec, l, r in zip(specs, left, right)
        ]

    return merge


def partial_aggregate_rdd(
    child: RDD,
    group_exprs: list[BoundExpr],
    specs: list[AggregateSpec],
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Phase-1 task-local aggregation producing (group key, accs) pairs."""
    key = op.key if op is not None else None

    def run(part: list) -> list:
        out = _partial_aggregate_partition(part, group_exprs, specs)
        if key is not None:
            record_operator_rows(key, len(out))
        return out

    return child.map_partitions(run).set_name("partial_aggregate")


def aggregate_rows(
    child: RDD,
    group_exprs: list[BoundExpr],
    specs: list[AggregateSpec],
    num_partitions: Optional[int] = None,
    stats_collectors: tuple = (),
    coalesce_groups: Optional[list[list[int]]] = None,
    fine_grained_partitions: Optional[int] = None,
    partials: Optional[RDD] = None,
    partial_op: Optional[OperatorStamp] = None,
    final_op: Optional[OperatorStamp] = None,
) -> RDD:
    """Two-phase hash aggregation.

    Phase 1 aggregates within each input partition ("task-local
    aggregations", Section 6.2.2); phase 2 shuffles (group key, partials)
    and merges.  With ``fine_grained_partitions`` set, the shuffle uses
    many fine buckets which PDE then coalesces via ``coalesce_groups``
    (the skew mitigation of Section 3.1.2).  A caller that already built
    the ``(key, accs)`` partials (the vectorized batch pipeline) passes
    them via ``partials`` and skips the row-at-a-time phase 1.
    """
    if partials is None:
        partials = partial_aggregate_rdd(
            child, group_exprs, specs, op=partial_op
        )

    merge = _merge_accumulators(specs)
    reduce_partitions = fine_grained_partitions or num_partitions
    merged = partials.combine_by_key(
        create_combiner=lambda accs: accs,
        merge_value=merge,
        merge_combiners=merge,
        num_partitions=reduce_partitions,
        stats_collectors=stats_collectors,
    ).set_name("merge_aggregate")

    if coalesce_groups is not None:
        merged = merged.coalesce_grouped(coalesce_groups).set_name(
            "coalesced_aggregate"
        )

    def finish(pair: tuple) -> tuple:
        key, accs = pair
        finished = tuple(
            spec.function.finish(acc) for spec, acc in zip(specs, accs)
        )
        return tuple(key) + finished

    if final_op is None:
        return merged.map(finish).set_name("final_aggregate")
    final_key = final_op.key

    def finish_partition(part: list) -> list:
        out = [finish(pair) for pair in part]
        record_operator_rows(final_key, len(out))
        return out

    return merged.map_partitions(finish_partition).set_name(
        "final_aggregate"
    )


def global_aggregate_rows(
    child: RDD,
    specs: list[AggregateSpec],
    partials: Optional[RDD] = None,
    partial_op: Optional[OperatorStamp] = None,
    final_op: Optional[OperatorStamp] = None,
) -> RDD:
    """Aggregation with no GROUP BY: all partials merge on one reducer."""
    return aggregate_rows(child, [], specs, num_partitions=1,
                          partials=partials, partial_op=partial_op,
                          final_op=final_op)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def _key_function(keys: list[BoundExpr]) -> Callable[[tuple], Any]:
    if len(keys) == 1:
        key = keys[0]
        return lambda row: key.eval(row)
    return lambda row: tuple(key.eval(row) for key in keys)


def _emit_joined(
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
) -> Callable[[tuple], list]:
    left_nulls = (None,) * left_width
    right_nulls = (None,) * right_width

    def emit(pair: tuple) -> list:
        __, (left_rows, right_rows) = pair
        out: list[tuple] = []
        if left_rows and right_rows:
            for left_row in left_rows:
                matched = False
                for right_row in right_rows:
                    combined = tuple(left_row) + tuple(right_row)
                    if residual is None or residual.eval(combined) is True:
                        out.append(combined)
                        matched = True
                if not matched and join_type in ("left", "full"):
                    out.append(tuple(left_row) + right_nulls)
            if join_type in ("right", "full"):
                for right_row in right_rows:
                    matched = any(
                        residual is None
                        or residual.eval(tuple(lr) + tuple(right_row)) is True
                        for lr in left_rows
                    )
                    if not matched:
                        out.append(left_nulls + tuple(right_row))
        elif left_rows and join_type in ("left", "full"):
            out.extend(tuple(row) + right_nulls for row in left_rows)
        elif right_rows and join_type in ("right", "full"):
            out.extend(left_nulls + tuple(row) for row in right_rows)
        return out

    return emit


def _joined(
    parent: RDD,
    emit: Callable[[Any], list],
    op: Optional[OperatorStamp],
    name: str,
) -> RDD:
    """``parent.flat_map(emit)`` named ``name``, crediting each
    partition's joined rows to the join's plan-quality stamp in one
    call (an empty partition credits nothing: it emitted nothing)."""
    key = op.key if op is not None else None

    def join_partition(__, part: list) -> list:
        out = [row for item in part for row in emit(item)]
        if key is not None and part:
            record_operator_rows(key, len(out))
        return out

    return MapPartitionsRDD(parent, join_partition, name=name)


def shuffle_join(
    ctx: "EngineContext",
    left: RDD,
    right: RDD,
    left_keys: list[BoundExpr],
    right_keys: list[BoundExpr],
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
    partitioner: Partitioner,
    pre_shuffled_left: Optional[RDD] = None,
    pre_shuffled_right: Optional[RDD] = None,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Repartition both sides by key and join corresponding partitions.

    ``pre_shuffled_*`` carry ShuffledRDDs whose map side PDE already
    materialized; cogroup sees their partitioner matches and uses a narrow
    dependency, so the pre-shuffle work is reused, not repeated.
    """
    keyed_left = pre_shuffled_left
    if keyed_left is None:
        keyed_left = left.key_by(_key_function(left_keys))
    keyed_right = pre_shuffled_right
    if keyed_right is None:
        keyed_right = right.key_by(_key_function(right_keys))
    grouped = CoGroupedRDD(ctx, [keyed_left, keyed_right], partitioner)
    emit = _emit_joined(join_type, left_width, right_width, residual)
    return _joined(grouped, emit, op, f"{join_type}_join")


def copartitioned_join(
    ctx: "EngineContext",
    left: RDD,
    right: RDD,
    left_keys: list[BoundExpr],
    right_keys: list[BoundExpr],
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
    partitioner: Partitioner,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Join two tables co-partitioned on the join key (Section 3.4): both
    keyed RDDs inherit the stored partitioning, so cogroup is all-narrow
    and no shuffle happens."""
    keyed_left = MapPartitionsRDD(
        left,
        lambda __, part, fn=_key_function(left_keys): [
            (fn(row), row) for row in part
        ],
        name="copartition_key_left",
    )
    keyed_left.partitioner = partitioner
    keyed_right = MapPartitionsRDD(
        right,
        lambda __, part, fn=_key_function(right_keys): [
            (fn(row), row) for row in part
        ],
        name="copartition_key_right",
    )
    keyed_right.partitioner = partitioner
    grouped = CoGroupedRDD(ctx, [keyed_left, keyed_right], partitioner)
    emit = _emit_joined(join_type, left_width, right_width, residual)
    return _joined(grouped, emit, op, "copartitioned_join")


def _charge_build_side(ctx: "EngineContext", value: Any):
    """Broadcast a join build structure, briefly double-charging it as
    ``join_build`` on the driver's execution pool so the peak-consumers
    view attributes build-side memory to joins (the live charge then
    rides the broadcast until the query releases its accounting)."""
    accountant = ctx.memory
    size_bytes = approximate_size_bytes(value)
    size = accountant.reserve(
        DRIVER_WORKER, EXECUTION, "join_build", size_bytes
    )
    broadcast = ctx.broadcast(value, size_bytes=size_bytes)
    accountant.release(DRIVER_WORKER, EXECUTION, "join_build", size)
    return broadcast


def broadcast_join(
    ctx: "EngineContext",
    stream_side: RDD,
    build_rows: list[tuple],
    stream_keys: list[BoundExpr],
    build_keys: list[BoundExpr],
    join_type: str,
    stream_is_left: bool,
    stream_width: int,
    build_width: int,
    residual: Optional[BoundExpr],
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Map join (Section 3.1.1): hash the small side once, broadcast it,
    and join each partition of the large side with only map tasks."""
    build_key_fn = _key_function(build_keys)
    table: dict[Any, list[tuple]] = {}
    for row in build_rows:
        table.setdefault(build_key_fn(row), []).append(row)
    broadcast = _charge_build_side(ctx, table)

    stream_key_fn = _key_function(stream_keys)
    build_nulls = (None,) * build_width
    outer_stream = (
        (join_type == "left" and stream_is_left)
        or (join_type == "right" and not stream_is_left)
    )

    def emit(row: tuple) -> list:
        matches = broadcast.value.get(stream_key_fn(row), ())
        out: list[tuple] = []
        for build_row in matches:
            if stream_is_left:
                combined = tuple(row) + tuple(build_row)
            else:
                combined = tuple(build_row) + tuple(row)
            if residual is None or residual.eval(combined) is True:
                out.append(combined)
        if not out and outer_stream:
            if stream_is_left:
                out.append(tuple(row) + build_nulls)
            else:
                out.append(build_nulls + tuple(row))
        return out

    return _joined(stream_side, emit, op, "broadcast_join")


def cross_join(
    ctx: "EngineContext",
    left: RDD,
    right_rows: list[tuple],
    residual: Optional[BoundExpr],
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Broadcast nested-loop join for key-less joins."""
    broadcast = _charge_build_side(ctx, right_rows)

    def emit(row: tuple) -> list:
        out = []
        for right_row in broadcast.value:
            combined = tuple(row) + tuple(right_row)
            if residual is None or residual.eval(combined) is True:
                out.append(combined)
        return out

    return _joined(left, emit, op, "cross_join")


def pre_shuffle_side(
    ctx: "EngineContext",
    side: RDD,
    keys: list[BoundExpr],
    partitioner: Partitioner,
    stats_collectors: tuple = (),
) -> tuple[RDD, ShuffleDependency]:
    """PDE: run the map (pre-shuffle) stage of one join side *now*.

    Returns a ShuffledRDD whose map outputs are already materialized plus
    its dependency, whose statistics the optimizer reads before deciding
    the join strategy.
    """
    keyed = side.key_by(_key_function(keys))
    shuffled = ShuffledRDD(
        keyed, partitioner, stats_collectors=stats_collectors
    )
    ctx.materialize_dependency(shuffled.shuffle_dep)
    return shuffled, shuffled.shuffle_dep


def repartition_rows(
    child: RDD,
    keys: list[BoundExpr],
    partitioner: Partitioner,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """DISTRIBUTE BY: hash rows to partitions by key expressions, keeping
    rows (not pairs) as output."""
    key_fn = _key_function(keys)
    keyed = child.map(lambda row: (key_fn(row), row))
    shuffled = keyed.partition_by(partitioner)
    values = shuffled.values()
    counter = _count_into(op)
    if counter is not None:
        values = values.map_partitions(counter, preserves_partitioning=True)
    values = values.set_name("distribute_by")
    values.partitioner = partitioner
    return values


def semi_join_probe(
    key_fn: Callable[[tuple], Any],
    value_set: frozenset,
    has_null: bool,
    negated: bool,
) -> Callable[[tuple], bool]:
    """Row predicate for ``key [NOT] IN (subquery values)``.

    SQL three-valued semantics: a NULL key is never TRUE; NOT IN over a
    set containing NULL is never TRUE for any row.
    """

    def keep(row: tuple) -> bool:
        value = key_fn(row)
        if value is None:
            return False
        if negated:
            if has_null:
                return False
            return value not in value_set
        return value in value_set

    return keep


def _counted_filter(
    child: RDD, keep: Callable[[tuple], bool], op: Optional[OperatorStamp],
    name: str,
) -> RDD:
    """``child.filter(keep)`` that also credits surviving rows to ``op``."""
    if op is None:
        return child.filter(keep).set_name(name)
    key = op.key

    def run(part: list) -> list:
        out = [row for row in part if keep(row)]
        record_operator_rows(key, len(out))
        return out

    return child.map_partitions(
        run, preserves_partitioning=True
    ).set_name(name)


def semi_join_filter(
    ctx: "EngineContext",
    child: RDD,
    key: BoundExpr,
    values: list,
    negated: bool,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Filter ``child`` by membership of ``key`` in the collected subquery
    result (broadcast to all tasks)."""
    has_null = any(value is None for value in values)
    try:
        value_set = frozenset(v for v in values if v is not None)
    except TypeError:
        # Unhashable subquery values: linear probe.
        value_list = [v for v in values if v is not None]

        def keep_linear(row: tuple) -> bool:
            value = key.eval(row)
            if value is None:
                return False
            found = value in value_list
            if negated:
                return not found and not has_null
            return found

        return _counted_filter(child, keep_linear, op, "semi_join")
    broadcast = _charge_build_side(ctx, value_set)
    keep = semi_join_probe(
        lambda row: key.eval(row), broadcast.value, has_null, negated
    )
    return _counted_filter(child, keep, op, "semi_join")


def values_rdd(ctx: "EngineContext", rows: list[tuple]) -> RDD:
    return ctx.parallelize(rows, num_partitions=1).set_name("values")


def union_rdds(
    ctx: "EngineContext",
    children: list[RDD],
    op: Optional[OperatorStamp] = None,
) -> RDD:
    out = ctx.union(children)
    counter = _count_into(op)
    if counter is not None:
        out = out.map_partitions(counter)
    return out.set_name("union_all")


def default_partitioner(
    ctx: "EngineContext", num_partitions: Optional[int] = None
) -> HashPartitioner:
    return HashPartitioner(num_partitions or ctx.default_parallelism)
