"""Always-on bookkeeping costs per distinct key or per batch, not per row.

The shuffle's heavy-key partial, the size estimate of join build tables
and aggregation state, hash-aggregation's first-seen order and the
join operators' plan-quality row credit all run on every query.  These
tests pin each to its cheap shape (call-count guards) and check that
the cheap shape reports what the per-row version reported (reference
implementations kept here).
"""

from __future__ import annotations

import datetime
import enum
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SharkContext
from repro.cluster import worker
from repro.cluster.worker import SIZE_SAMPLE, approximate_size_bytes
from repro.datatypes import INT, STRING, Schema
from repro.engine import shuffle
from repro.engine.dependencies import ShuffleDependency
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import _heavy_key_labels, _key_label
from repro.engine.spill import SpillableGroups
from repro.sql import physical
from repro.sql.functions import CountAggregate, SumAggregate
from repro.sql.physical import SortKey
from repro.sql.planner import PlannerConfig


# ----------------------------------------------------------------------
# Reference implementations: the per-row versions
# ----------------------------------------------------------------------
def _reference_label(key) -> str:
    if key is None or isinstance(key, (bool, int, float, str)):
        return repr(key)
    if isinstance(key, tuple):
        return "(" + ", ".join(_reference_label(item) for item in key) + ")"
    return f"<{type(key).__name__}>"


def _reference_heavy(keys: list, top_n: int) -> list:
    counts: dict[str, int] = {}
    for key in keys:
        label = _reference_label(key)
        counts[label] = counts.get(label, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[
        :top_n
    ]


def _reference_size(value) -> int:
    """Full walk of a dict's entries (no sampling)."""
    total = sys.getsizeof(value)
    for key, item in value.items():
        total += sys.getsizeof(key)
        if isinstance(item, (list, tuple, dict, set, frozenset)):
            total += approximate_size_bytes(item)
        else:
            total += sys.getsizeof(item)
    return total


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2


# ----------------------------------------------------------------------
# Heavy-key selection
# ----------------------------------------------------------------------
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.text(alphabet="ab", max_size=2),
    st.sampled_from([Color.RED, Color.BLUE]),
    st.dates(
        min_value=datetime.date(2020, 1, 1),
        max_value=datetime.date(2020, 1, 3),
    ),
    st.sampled_from([datetime.datetime(2020, 1, 1), b"raw"]),
)
_KEYS = st.recursive(
    _SCALARS,
    lambda inner: st.tuples(inner, inner) | st.tuples(inner),
    max_leaves=4,
)


def _sort_keys(values: list) -> list:
    return [SortKey((value,), (True,)) for value in values]


class TestHeavyKeySelection:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_KEYS, max_size=60), st.integers(1, 10))
    def test_matches_per_record_labels(self, keys, top_n):
        assert _heavy_key_labels(keys, top_n) == _reference_heavy(
            keys, top_n
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(0, 12), max_size=200),
            st.lists(st.sampled_from([0.5, 1.5, 2.5, -1.0]), max_size=200),
            st.lists(
                st.tuples(
                    st.dates(
                        min_value=datetime.date(2020, 1, 1),
                        max_value=datetime.date(2020, 1, 9),
                    ),
                    st.sampled_from([datetime.datetime(2020, 1, 1), "a"]),
                ),
                max_size=200,
            ),
            st.lists(
                st.tuples(
                    st.text(alphabet="xyz", max_size=1),
                    st.one_of(st.none(), st.integers(0, 3)),
                ),
                max_size=200,
            ),
        ),
    )
    def test_matches_on_plain_streams(self, keys):
        # The count-distinct-keys shape: one scalar type (or tuples of
        # them), many records per key, plenty of ties at the cut-off.
        assert _heavy_key_labels(keys, 8) == _reference_heavy(keys, 8)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=40))
    def test_unhashable_sort_keys_fall_back(self, values):
        keys = _sort_keys(values)
        assert _heavy_key_labels(keys, 8) == _reference_heavy(keys, 8)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0, 1, True, False, 1.0, 0.0, -0.0]),
            max_size=30,
        ),
        st.booleans(),
    )
    def test_equal_numeric_keys_count_apart(self, values, wrap):
        keys = [(value, "a") for value in values] if wrap else values
        assert _heavy_key_labels(keys, 8) == _reference_heavy(keys, 8)

    @pytest.mark.parametrize(
        "keys, expected",
        [
            ([1, True, True], [("True", 2), ("1", 1)]),
            ([1.0, 1, 1], [("1", 2), ("1.0", 1)]),
            ([0.0, -0.0, -0.0], [("-0.0", 2), ("0.0", 1)]),
            ([(1, "a"), (True, "a"), (True, "a")],
             [("(True, 'a')", 2), ("(1, 'a')", 1)]),
            ([(0.0,), (-0.0,), (-0.0,)], [("(-0.0)", 2), ("(0.0)", 1)]),
        ],
    )
    def test_equal_keys_with_different_labels_count_apart(
        self, keys, expected
    ):
        assert _heavy_key_labels(keys, 8) == expected

    def test_distinct_nan_objects_share_one_label(self):
        keys = [float("nan") for __ in range(3)] + [1.5]
        assert _heavy_key_labels(keys, 8) == [("nan", 3), ("1.5", 1)]

    def test_labels_match_reference(self):
        for key in (
            None, True, 3, -0.0, "x", Color.RED, datetime.date(2020, 1, 1),
            (1, ("a", None)), (Color.BLUE,), (), b"raw",
            SortKey((1,), (True,)),
        ):
            assert _key_label(key) == _reference_label(key)

    @pytest.mark.parametrize(
        "make_key", [lambda i: (f"k{i % 40}", i % 3), lambda i: i % 25]
    )
    def test_label_called_once_per_distinct_key(
        self, ctx, monkeypatch, make_key
    ):
        calls = Counter()

        def counting(key):
            calls[key] += 1
            return _key_label(key)

        monkeypatch.setattr(shuffle, "_key_label", counting)
        records = [(make_key(i), i) for i in range(5000)]
        parent = ctx.parallelize([(0, 0)], 1)
        dep = ShuffleDependency(parent, HashPartitioner(4))
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=1)
        manager.write_map_output(dep, 0, 0, records)
        distinct = {key for key, __ in records}
        assert sum(calls.values()) <= len(distinct)
        assert max(calls.values()) == 1
        partial = manager.stats(dep.shuffle_id).skew_partials[0]
        assert partial["keys"] == _reference_heavy(
            [key for key, __ in records], 8
        )


# ----------------------------------------------------------------------
# Sampled dict sizing
# ----------------------------------------------------------------------
class TestDictSizing:
    def test_exact_up_to_the_sample(self):
        for n in (1, 17, SIZE_SAMPLE):
            table = {i: [(i, f"v{i}")] * (i % 4 + 1) for i in range(n)}
            assert approximate_size_bytes(table) == _reference_size(table)

    def test_large_dict_is_deterministic_estimate(self):
        table = {i: [(i, "x" * (i % 7))] * (i % 3 + 1) for i in range(5000)}
        again = {i: [(i, "x" * (i % 7))] * (i % 3 + 1) for i in range(5000)}
        estimate = approximate_size_bytes(table)
        assert estimate == approximate_size_bytes(table)
        assert estimate == approximate_size_bytes(again)
        exact = _reference_size(table)
        assert abs(estimate - exact) <= 0.05 * exact

    def test_large_dict_visits_a_sample(self, monkeypatch):
        visited = []
        original = worker.approximate_size_bytes

        def counting(value):
            visited.append(value)
            return original(value)

        table = {i: [i, i + 1] for i in range(50_000)}
        monkeypatch.setattr(worker, "approximate_size_bytes", counting)
        original(table)
        assert len(visited) <= SIZE_SAMPLE + 1


# ----------------------------------------------------------------------
# Hash-aggregation first-seen order
# ----------------------------------------------------------------------
def test_first_seen_order_costs_nothing_until_a_spill():
    state = SpillableGroups(
        [CountAggregate(count_star=True), SumAggregate()], "hash_aggregate"
    )
    for i in range(300):
        state.update_row((f"k{i % 50}",), [None, float(i)])
    assert state._order == {}
    state.spill(1)
    assert list(state._order) == [(f"k{i}",) for i in range(50)]
    state.update_row(("late",), [None, 1.0])
    result = state.finish_groups()
    assert [key for key, __ in result] == (
        [(f"k{i}",) for i in range(50)] + [("late",)]
    )


# ----------------------------------------------------------------------
# Join operator-row credit
# ----------------------------------------------------------------------
def _joined_shark(config=None) -> SharkContext:
    shark = SharkContext(num_workers=4, config=config)
    shark.create_table(
        "big", Schema.of(("k", INT), ("payload", STRING)), cached=True
    )
    shark.load_rows("big", [(i % 100, f"row{i}") for i in range(2000)])
    shark.create_table(
        "small", Schema.of(("k", INT), ("tag", STRING)), cached=True
    )
    shark.load_rows("small", [(i, f"tag{i}") for i in range(50)])
    return shark


def _join_credits(shark, monkeypatch, sql: str):
    calls = []
    original = physical.record_operator_rows

    def counting(key, count):
        calls.append((key, count))
        original(key, count)

    monkeypatch.setattr(physical, "record_operator_rows", counting)
    result = shark.sql(sql)
    joins = [count for key, count in calls if key.startswith("join#")]
    return result, joins


class TestJoinRowCredit:
    SQL = "SELECT big.payload, small.tag FROM big JOIN small ON big.k = small.k"

    def test_broadcast_join_credits_once_per_partition(self, monkeypatch):
        shark = _joined_shark()
        result, joins = _join_credits(shark, monkeypatch, self.SQL)
        assert [d.strategy for d in result.report.join_decisions] == [
            "broadcast_right"
        ]
        assert len(joins) <= shark.engine.default_parallelism < 2000
        assert sum(joins) == len(result.rows) == 1000

    def test_shuffle_join_credits_once_per_partition(self, monkeypatch):
        shark = _joined_shark(PlannerConfig(broadcast_threshold_bytes=16))
        result, joins = _join_credits(shark, monkeypatch, self.SQL)
        assert [d.strategy for d in result.report.join_decisions] == [
            "shuffle"
        ]
        assert len(joins) <= shark.engine.default_parallelism
        assert sum(joins) == len(result.rows) == 1000
