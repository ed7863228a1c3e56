"""Tests of the benchmark's own logic (run: ``python -m pytest perfbench``)."""

from __future__ import annotations

import gc
import threading
from datetime import date

import numpy as np
import pytest

import hostspeed
import oracle
import spans
import stats
from workloads import ETL_EVERY, dashboard_stream


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
class TestPercentileRule:
    def test_p90_needs_100_samples_for_ten_beyond(self):
        assert stats.min_samples_for(0.9) == 100
        assert stats.samples_beyond(100, 0.9) == 10
        assert stats.samples_beyond(99, 0.9) == 9
        assert stats.samples_beyond(105, 0.9) == 10

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError, match="needs 100 samples"):
            stats.tail_percentile([1.0] * 99, 0.9)

    def test_nearest_rank_value(self):
        samples = [float(value) for value in range(100, 0, -1)]
        # Rank ceil(0.9 * 100) = 90 of 1..100.
        assert stats.tail_percentile(samples, 0.9) == 90.0


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
class TestHostSpeed:
    def test_reference_speed_scaling(self):
        reference = hostspeed.REFERENCE_KERNEL_S
        power = hostspeed.KERNEL_EXPONENT
        assert hostspeed.at_reference(2.0, reference, reference) == pytest.approx(2.0)
        # A host running the kernel at half speed: measured times shrink
        # by 2 ** KERNEL_EXPONENT.
        assert hostspeed.at_reference(
            2.0, 2 * reference, 2 * reference
        ) == pytest.approx(2.0 / 2**power)
        # The kernel times before and after the op are averaged.
        assert hostspeed.at_reference(
            3.0, reference, 2 * reference
        ) == pytest.approx(3.0 / 1.5**power)

    def test_samples_are_recorded_per_call(self):
        ticks = iter(float(tick) for tick in (0, 1, 10, 13))
        speed = hostspeed.HostSpeed(clock=lambda: next(ticks))
        assert speed.sample(calls=2) == pytest.approx(2.0)
        assert speed.samples == [1.0, 3.0]

    def test_kernel_leaves_garbage_collector_counts_alone(self):
        gc.disable()
        try:
            before = gc.get_count()
            hostspeed.kernel()
            assert gc.get_count() == before
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def _record(layer, parent, start, end, op=0):
    return [layer, layer, parent, op, start, end]


class TestSelfTime:
    def test_nested_tree(self):
        records = [
            _record("op", -1, 0.0, 10.0),
            _record("a", 0, 1.0, 4.0),
            _record("b", 1, 2.0, 3.0),
            _record("c", 0, 5.0, 9.0),
        ]
        assert spans.self_times(records) == [3.0, 2.0, 1.0, 4.0]
        assert sum(spans.self_times(records)) == 10.0

    def test_overlapping_children_are_merged(self):
        records = [
            _record("op", -1, 0.0, 10.0),
            _record("x", 0, 1.0, 5.0),
            _record("y", 0, 3.0, 7.0),
            _record("z", 0, 8.0, 12.0),  # clipped at the parent's end
        ]
        assert spans.self_times(records)[0] == pytest.approx(10.0 - 6.0 - 2.0)

    def test_cross_thread_spans_parent_to_waiting_span(self):
        ticks = iter(float(tick) for tick in range(100))
        recorder = spans.SpanRecorder(clock=lambda: next(ticks))
        root = recorder.begin_op(7, "op")  # t=0
        wait = recorder.begin("engine.lifecycle", "wait")  # t=1

        def query_thread():
            outer = recorder.begin("sql.frontend", "parse")  # t=2
            inner = recorder.begin("engine.scheduler", "run_job")  # t=3
            recorder.end(inner)  # t=4
            recorder.end(outer)  # t=5

        thread = threading.Thread(target=query_thread)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        recorder.end(wait)  # t=6
        recorder.end_op(root)  # t=7
        records = recorder.records
        assert [r[spans.PARENT] for r in records] == [-1, 0, 1, 2]
        assert all(r[spans.OP] == 7 for r in records)
        # wait: 5 long, 3 covered by the query thread's parse span.
        assert spans.self_times(records) == [2.0, 2.0, 2.0, 1.0]


class TestPatcher:
    def test_wraps_every_binding_and_restores(self):
        import repro.sql.parser as parser
        import repro.sql.session as session

        original = parser.parse
        assert session.parse is original
        recorder = spans.SpanRecorder()
        patcher = spans.Patcher(
            recorder, [spans.Target("repro.sql.parser", "parse", "sql.frontend")]
        )
        patcher.install()
        try:
            assert parser.parse is not original
            assert session.parse is parser.parse
            session.parse("SELECT 1")
        finally:
            patcher.uninstall()
        assert parser.parse is original and session.parse is original
        assert [r[spans.LAYER] for r in recorder.records] == ["sql.frontend"]

    def test_outermost_skips_recursion(self):
        import repro.cluster.worker as worker

        recorder = spans.SpanRecorder()
        patcher = spans.Patcher(
            recorder,
            [
                spans.Target(
                    "repro.cluster.worker", "approximate_size_bytes",
                    "cluster.sizeof", outermost=True,
                )
            ],
        )
        patcher.install()
        try:
            worker.approximate_size_bytes({"a": {"b": [1, 2]}, "c": [3]})
        finally:
            patcher.uninstall()
        assert len(recorder.records) == 1


# ----------------------------------------------------------------------
# Oracle normalisation
# ----------------------------------------------------------------------
class TestNormalisation:
    def test_date_literals_and_division_rewritten_outside_strings(self):
        text = "SELECT a / b FROM t WHERE d <= DATE '1998-09-02' AND s = 'x/y'"
        assert oracle.to_sqlite(text) == (
            "SELECT a * 1.0 / b FROM t WHERE d <= '1998-09-02' AND s = 'x/y'"
        )

    def test_integer_division_is_hive_division(self):
        db = oracle.SqlOracle()
        assert db.query("SELECT 7 / 2, (1 + 2) / 4") == [(3.5, 0.75)]
        db.close()

    def test_values(self):
        assert oracle.values_match(date(1994, 1, 2), "1994-01-02")
        assert oracle.values_match(2, 2.0)
        assert oracle.values_match(0.1 + 0.2, 0.3)
        assert not oracle.values_match(1.0, 1.0 + 1e-6)
        assert not oracle.values_match(3, 4)
        assert oracle.values_match(None, None)
        assert not oracle.values_match(None, 0)
        assert oracle.values_match(True, 1)
        assert not oracle.values_match(False, 1)
        assert oracle.values_match(np.float64(2.5), 2.5)

    def test_tolerance_is_fixed(self):
        assert oracle.REL_TOL == 1e-9 and oracle.ABS_TOL == 1e-9

    def test_unordered_rows_with_nulls(self):
        actual = [("b", 2.0), (None, 1), ("a", 3)]
        expected = [("a", 3.0), ("b", 2), (None, 1)]
        assert oracle.multiset_match(actual, expected)
        assert not oracle.multiset_match(actual, expected[:2])
        assert not oracle.multiset_match([("a", 1)], [("a", 2)])

    def test_ordered_ties_any_order(self):
        expected = [("x", 5), ("y", 3), ("z", 3), ("w", 1)]
        assert oracle.ordered_match(
            [("x", 5), ("z", 3), ("y", 3), ("w", 1)], expected, (1,)
        )
        assert not oracle.ordered_match(
            [("x", 5), ("w", 1), ("y", 3), ("z", 3)], expected, (1,)
        )

    def test_limit_cut_through_tie_group(self):
        expected = [("x", 5), ("y", 3), ("z", 3), ("w", 1)]
        assert oracle.ordered_match([("x", 5), ("z", 3)], expected, (1,), limit=2)
        assert not oracle.ordered_match(
            [("x", 5), ("q", 3)], expected, (1,), limit=2
        )
        assert not oracle.ordered_match([("x", 5)], expected, (1,), limit=2)

    def test_expect_strips_limit_for_ordered_queries(self):
        db = oracle.SqlOracle()
        db.load("t", ["k", "v"], [("a", 2), ("b", 2), ("c", 1)])
        expected = db.expect("SELECT k, v FROM t ORDER BY v DESC LIMIT 1", (1,))
        assert expected.limit == 1 and len(expected.rows) == 3
        assert expected.matches([("b", 2)]) and expected.matches([("a", 2)])
        assert not expected.matches([("c", 1)])
        db.close()


class TestMlOracle:
    def test_logistic_step_matches_per_point_loop(self):
        from repro.ml.logistic import gradient_factor

        rng = np.random.default_rng(5)
        features = rng.normal(size=(50, 3))
        labels = rng.choice([-1.0, 1.0], size=50)
        start = 2.0 * np.random.default_rng(9).random(3) - 1.0
        gradient = sum(
            gradient_factor(y, float(np.dot(start, x))) * x
            for x, y in zip(features, labels)
        )
        assert oracle.vectors_match(
            oracle.logistic_step(features, labels, seed=9), start - gradient
        )

    def test_kmeans_step_matches_loop(self):
        points = np.random.default_rng(3).normal(size=(120, 2))
        centers, inertia = oracle.kmeans_step(points, 3, seed=4)
        chosen = np.random.default_rng(4).choice(100, size=3, replace=False)
        start = points[:100][chosen]
        sums = np.zeros((3, 2))
        counts = np.zeros(3)
        total = 0.0
        for point in points:
            distances = np.sum((start - point) ** 2, axis=1)
            index = int(np.argmin(distances))
            sums[index] += point
            counts[index] += 1
            total += distances[index]
        want = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], start)
        assert oracle.vectors_match(centers, want)
        assert oracle.values_match(inertia, total)


# ----------------------------------------------------------------------
# Zipf op stream
# ----------------------------------------------------------------------
class TestDashboardStream:
    def test_deterministic_for_a_seed(self):
        assert dashboard_stream(11, 500) == dashboard_stream(11, 500)
        assert dashboard_stream(11, 500) != dashboard_stream(12, 500)

    def test_prefix_stable(self):
        assert dashboard_stream(3, 1000)[:400] == dashboard_stream(3, 400)

    def test_etl_every_nth_and_zipf_skew(self):
        stream = dashboard_stream(4, 4000)
        etl = [index for index, (kind, __) in enumerate(stream) if kind == "etl"]
        assert etl == list(range(ETL_EVERY - 1, 4000, ETL_EVERY))
        templates = [key[0] for kind, key in stream if kind == "read"]
        counts = [templates.count(name) for name in ("q1", "q2", "q3", "q4")]
        assert counts == sorted(counts, reverse=True)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runs report
# ----------------------------------------------------------------------
def test_benchmark_json_lists_every_reported_metric():
    import json
    from pathlib import Path

    from layers import HIGHER_IS_BETTER, per_layer_metrics
    from run import END_TO_END
    from workloads import WORKLOADS

    spec = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [
        (m.name, m.unit, "higher" if m.name in HIGHER_IS_BETTER else "lower")
        for m in per_layer_metrics()
    ]


def test_overhead_ratio_uses_per_kind_medians():
    from run import overhead_ratio

    untraced = [("a", 1.0)] * 5 + [("a", 50.0)] + [("b", 2.0)] * 3
    traced = [("a", 1.1)] * 5 + [("b", 2.2)] * 3
    # Tracing costs 10%: untraced ops/s are 1.1 times the traced ones.
    assert overhead_ratio(untraced, traced) == pytest.approx(12.1 / 11.0)


def test_timed_rounds_fixed_work():
    from run import timed_rounds

    class Fake:
        round_size = 7
        nominal_ops_per_s = 7.0

    assert timed_rounds(Fake, 20, trace=False) == 20
    # At least 100 ops, so 10 samples lie beyond the p90.
    assert timed_rounds(Fake, 1, trace=False) == 15
    # Traced runs alternate untraced and traced rounds.
    assert timed_rounds(Fake, 1, trace=True) == 16
