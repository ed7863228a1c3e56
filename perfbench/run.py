"""Wall-clock benchmark of the engine: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload tpch_warm --seed 1 --seconds 15 --trace 0

``--seconds`` sets the run's work: that many seconds of ops at the
workload's nominal rate (see ``workloads.py``).  ``--trace 0`` reports
the end-to-end metrics (``setup_s``, ``op_p50_ms``, ``op_p90_ms``,
``ops_per_s``, ``peak_rss_mb``) with no wrappers installed; the times
among them are scaled to the reference host speed (``hostspeed.py``),
and the raw wall-clock figures are printed beside them.  ``--trace
1`` is the separate traced run: same seed and op stream, with every
other round wrapped (see ``layers.py``), and reports the per-layer
metrics plus ``trace.overhead_ratio``, the untraced rounds' ops/s over
the traced rounds'.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when any op raised or disagreed with the oracle, or a
memory-ledger invariant broke, and 2 when the engine sources are
missing.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_KERNEL_S, HostSpeed, at_reference
from layers import (
    COUNTER_DELTAS,
    INGEST_LABEL,
    RATIOS,
    SELF_TIME,
    SPAN_COUNTS,
    TRACKED_COUNTERS,
    per_layer_metrics,
    targets,
)
from spans import END, LABEL, LAYER, OP, ROOT, START, Patcher, SpanRecorder, self_times
from stats import MIN_BEYOND, min_samples_for, samples_beyond, tail_percentile
from workloads import CORES_PER_WORKER, WORKERS, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fresh engines built per run.  The first pays one-time costs (lazy
#: imports, first-use code paths) and is not timed; ``setup_s`` is the
#: median of the others.
SETUPS = 6
#: Kernel calls timed before and after each set-up (an op is followed
#: by one).
SETUP_KERNEL_CALLS = 10
#: Nearest-rank percentile reported as ``op_p90_ms``.
TAIL_QUANTILE = 0.9
#: Environment every run executes under: pinned string hashing, and one
#: BLAS thread (OpenBLAS otherwise starts a thread per CPU at import).
RUN_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: Directory (under the working directory) for traced runs' span files.
SPAN_DIR = ".perfbench"
#: End-to-end metrics of an untraced run, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class GcClock:
    """Wall seconds spent in garbage collection, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(one of {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload, args.seconds, bool(args.trace))
    run.phases["inputs"] = time.perf_counter() - started
    document = run.execute()
    for line in run.lines:
        print(line)
    print(json.dumps(document))
    return 0 if document["correct"] else 1


class Run:
    """One benchmark process: set up, warm up, time, report."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.gc_clock = GcClock()
        self.recorder = None
        self.patcher = None
        #: Traced-op counter deltas and simulated milliseconds.
        self.deltas: dict[str, float] = {}
        self.sim_ms = 0.0
        self.gc_seconds = 0.0
        #: Clamped-release bytes read at the end of the run.
        self.clamped = 0
        #: Wall seconds per phase of the run, for the report.
        self.phases: dict[str, float] = {}
        self.speed = HostSpeed()
        #: Kernel seconds timed after the last op: the next op's "before".
        self.last_kernel = None
        #: Wall and process CPU seconds of the untraced timed ops.
        self.raw_latencies: list[float] = []
        self.cpu_seconds = 0.0
        #: Kernel seconds sampled around the timed ops.
        self.timed_kernels: list[float] = []

    # ------------------------------------------------------------------
    def execute(self) -> dict:
        workload = self.workload
        if self.trace:
            self.recorder = SpanRecorder()
            self.patcher = Patcher(self.recorder, targets())
        mark = time.perf_counter()
        setup_seconds = self.set_up()
        mark = self._phase("setups", mark)
        workload.prepare_oracle()
        mark = self._phase("oracle", mark)
        gc.collect()
        gc.freeze()
        gc.callbacks.append(self.gc_clock)
        ops = workload.ops()
        for __ in range(workload.warmup_rounds * workload.round_size):
            self.run_op(next(ops), traced=False)
        mark = self._phase("warm-up", mark)

        #: traced? -> [(op label, reference-speed seconds)] of the timed ops.
        timed: dict[bool, list[tuple[str, float]]] = {False: [], True: []}
        op_id = 0
        self.cpu_seconds = 0.0
        kernel_start = len(self.speed.samples) - 1
        for index in range(timed_rounds(workload, self.seconds, self.trace)):
            traced = self.trace and index % 2 == 1
            if traced:
                self.patcher.install()
            try:
                for __ in range(workload.round_size):
                    op = next(ops)
                    wall, scaled = self.run_op(op, traced, op_id)
                    timed[traced].append((op.label, scaled))
                    if not traced:
                        self.raw_latencies.append(wall)
                    op_id += 1
            finally:
                if traced:
                    self.patcher.uninstall()
        self.timed_kernels = self.speed.samples[kernel_start:]
        gc.callbacks.remove(self.gc_clock)
        self._phase("timed", mark)
        self.lines.extend(f"# {line}" for line in workload.describe())
        self.lines.append(
            "# phases (s): "
            + ", ".join(f"{name} {value:.2f}" for name, value in self.phases.items())
        )
        invariants_ok = self.check_invariants()
        if self.trace:
            metrics = self.layer_metrics(timed)
            path = Path.cwd() / SPAN_DIR / f"{workload.name}-seed{workload.seed}.json.gz"
            self.recorder.write(path, workload=workload.name, seed=workload.seed)
            self.lines.append(f"# spans written to {path.relative_to(Path.cwd())}")
        else:
            metrics = self.end_to_end(setup_seconds, timed[False])
        correct = self.failed == 0 and invariants_ok
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def _phase(self, name: str, mark: float) -> float:
        now = time.perf_counter()
        self.phases[name] = now - mark
        return now

    # ------------------------------------------------------------------
    def set_up(self) -> list[tuple[float, float]]:
        """Build the engine SETUPS times and keep the last; returns the
        wall and reference-speed seconds of every set-up but the first.
        In a traced run the last set-up is traced as op -1."""
        durations = []
        for index in range(SETUPS):
            if index:
                self.workload.teardown()
                gc.collect()
            before = self.speed.sample(SETUP_KERNEL_CALLS)
            traced = self.trace and index == SETUPS - 1
            if traced:
                self.patcher.install()
                root = self.recorder.begin_op(-1, "setup")
            try:
                start = time.perf_counter()
                self.workload.setup()
                elapsed = time.perf_counter() - start
            finally:
                if traced:
                    self.recorder.end_op(root)
                    self.patcher.uninstall()
            after = self.speed.sample(SETUP_KERNEL_CALLS)
            if index:
                durations.append((elapsed, at_reference(elapsed, before, after)))
        return durations

    def run_op(self, op, traced: bool, op_id: int = 0) -> tuple[float, float]:
        """Run one op; returns its wall and reference-speed seconds.  The
        oracle check, any trace bookkeeping and a host-speed sample
        follow the timed window."""
        engine = self.workload.engine
        if self.last_kernel is None:
            self.last_kernel = self.speed.sample()
        kernel_before = self.last_kernel
        if traced:
            metrics = engine.metrics
            before = [metrics.value(name) for name in TRACKED_COUNTERS]
            history = len(engine.scheduler.history)
            gc_before = self.gc_clock.total
            root = self.recorder.begin_op(op_id, op.label)
        error = None
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if traced:
            self.recorder.end_op(root)
            self.gc_seconds += self.gc_clock.total - gc_before
            for name, value in zip(TRACKED_COUNTERS, before):
                self.deltas[name] = (
                    self.deltas.get(name, 0.0) + metrics.value(name) - value
                )
            self.sim_ms += self.simulated_ms(engine.scheduler.history[history:])
        else:
            self.cpu_seconds += cpu
        self.attempted += 1
        if error is not None:
            self.failed += 1
            traceback.print_exception(error, file=sys.stderr)
        elif not op.check(result):
            self.failed += 1
            print(f"perfbench: oracle mismatch on {op.label}", file=sys.stderr)
        self.last_kernel = self.speed.sample()
        return elapsed, at_reference(elapsed, kernel_before, self.last_kernel)

    @staticmethod
    def simulated_ms(profiles) -> float:
        from repro.obs.analyze import analyze_profiles

        if not profiles:
            return 0.0
        analysis = analyze_profiles(
            "", list(profiles), num_workers=WORKERS, cores_per_worker=CORES_PER_WORKER
        )
        return analysis.total_sim_seconds * 1000.0

    def check_invariants(self) -> bool:
        """Memory-ledger invariants: no clamped release, and the
        execution pool back at zero on every ledger."""
        from repro.engine.memory import EXECUTION

        memory = self.workload.engine.memory
        live = sum(ledger.used[EXECUTION] for ledger in memory.ledgers.values())
        self.clamped = memory.clamped_release_bytes
        self.lines.append(
            f"# ledger: clamped releases {self.clamped} B, "
            f"execution live at end {live} B"
        )
        return self.clamped == 0 and live == 0

    # ------------------------------------------------------------------
    def end_to_end(
        self, setups: list[tuple[float, float]], timed: list[tuple[str, float]]
    ) -> dict:
        def times(setup_s: list[float], latencies: list[float]) -> dict:
            return {
                "setup_s": statistics.median(setup_s),
                "op_p50_ms": statistics.median(latencies) * 1000.0,
                "op_p90_ms": tail_percentile(latencies, TAIL_QUANTILE) * 1000.0,
                "ops_per_s": len(latencies) / sum(latencies),
            }

        latencies = [latency for __, latency in timed]
        raw = times([wall for wall, __ in setups], self.raw_latencies)
        measured = times([scaled for __, scaled in setups], latencies)
        measured["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        values = {name: (measured[name], unit) for name, unit in END_TO_END}
        kernels = self.timed_kernels
        by_label = _by_label(timed)
        mix = {label: len(values) for label, values in by_label.items()}
        self.lines += [
            f"# workload {self.workload.name} seed {self.workload.seed}: "
            f"{len(latencies)} timed ops, "
            f"{samples_beyond(len(latencies), TAIL_QUANTILE)} beyond p90; "
            f"mix {mix}",
            "# median ms per op kind: "
            + ", ".join(
                f"{label} {statistics.median(values) * 1000.0:.2f}"
                for label, values in by_label.items()
            ),
            f"# setup_s over {len(setups)} set-ups (wall s): "
            + ", ".join(f"{wall:.3f}" for wall, __ in setups),
            "# raw wall-clock: "
            + ", ".join(f"{name} {value:.4f}" for name, value in raw.items()),
            f"# host speed: kernel median {statistics.median(kernels) * 1e3:.4f} ms "
            f"(reference {REFERENCE_KERNEL_S * 1e3:g} ms) over {len(kernels)} "
            f"timed-phase calls; wall/reference time of the timed ops "
            f"{sum(self.raw_latencies) / sum(latencies):.3f}; CPU/wall "
            f"{self.cpu_seconds / sum(self.raw_latencies):.3f}",
            f"fail_ratio {self.failed}/{self.attempted} = "
            f"{self.failed / self.attempted:.4f} (warm-up and timed ops)",
        ]
        self.lines += [
            f"{name} {value:.4f} {unit}" for name, (value, unit) in values.items()
        ]
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        }

    def layer_metrics(self, timed: dict) -> dict:
        recorder = self.recorder
        traced_ops = len(timed[True])
        per_op = 1.0 / traced_ops
        own_times = self_times(recorder.records)
        layer_ms: dict[str, float] = {}
        setup_ingest_ms = 0.0
        span_counts: dict[tuple, int] = {}
        for record, own in zip(recorder.records, own_times):
            if record[OP] is None:
                continue
            if record[OP] < 0:
                if record[LAYER] == "columnar.ingest":
                    setup_ingest_ms += own * 1000.0
                continue
            layer_ms[record[LAYER]] = layer_ms.get(record[LAYER], 0.0) + own * 1000.0
            key = (record[LAYER], record[LABEL])
            span_counts[key] = span_counts.get(key, 0) + 1
        values: dict[str, float] = {}
        for name, layer in SELF_TIME.items():
            values[name] = layer_ms.get(layer, 0.0) * per_op
        for name, (layer, prefix) in SPAN_COUNTS.items():
            values[name] = per_op * sum(
                count
                for (span_layer, label), count in span_counts.items()
                if span_layer == layer and (prefix is None or label.startswith(prefix))
            )
        for name, counters in COUNTER_DELTAS.items():
            values[name] = per_op * sum(self.deltas.get(c, 0.0) for c in counters)
        bases = {}
        for name, (numerator, denominator) in RATIOS.items():
            num = sum(self.deltas.get(c, 0.0) for c in numerator)
            den = sum(self.deltas.get(c, 0.0) for c in denominator)
            values[name] = num / den if den else 0.0
            bases[name] = (num, den)
        engine = self.workload.engine
        memory = engine.memory
        values["engine.memory.peak_bytes"] = float(
            max(ledger.total_peak for ledger in memory.ledgers.values())
        )
        values["engine.memory.clamped"] = float(self.clamped)
        values["engine.profiles_retained"] = float(len(engine.scheduler.history))
        values["columnar.ingest.rows"] = per_op * recorder.counts.get(
            (INGEST_LABEL, "ops"), 0
        )
        values["columnar.ingest.bytes_per_value"] = self.bytes_per_value()
        values["columnar.ingest.setup_ms"] = setup_ingest_ms
        values["costmodel.sim_ms"] = self.sim_ms * per_op
        values["python.gc_ms"] = self.gc_seconds * 1000.0 * per_op
        values["trace.overhead_ratio"] = overhead_ratio(timed[False], timed[True])
        # Mean wall of the traced ops' root spans, for the report.
        root_ms = sum(
            (record[END] - record[START]) * 1000.0
            for record in recorder.records
            if record[LAYER] == ROOT and record[OP] is not None and record[OP] >= 0
        )
        self.lines.append(
            f"# traced run {self.workload.name} seed {self.workload.seed}: "
            f"{traced_ops} traced ops ({root_ms * per_op:.3f} ms/op wall), "
            f"{len(timed[False])} untraced ops, {len(recorder.records)} spans"
        )
        metrics = {}
        for metric in per_layer_metrics():
            value = values[metric.name]
            line = f"{metric.name} {value:.6g} {metric.unit}"
            if metric.name in bases:
                num, den = bases[metric.name]
                line += f" ({num:g}/{den:g}{'' if den else ', absent'})"
            self.lines.append(line)
            metrics[metric.name] = {"value": value, "unit": metric.unit}
        return metrics

    def bytes_per_value(self) -> float:
        """Encoded bytes per stored value over the cached tables."""
        catalog = self.workload.shark.session.catalog
        stored = values = 0
        for name in catalog.table_names():
            entry = catalog.get(name)
            if entry.is_cached and entry.row_count:
                stored += entry.size_bytes or 0
                values += entry.row_count * len(entry.schema.names)
        return stored / values if values else 0.0


def timed_rounds(workload, seconds: float, trace: bool) -> int:
    """Whole rounds timed in a run: ``seconds`` at the workload's nominal
    rate, and at least enough ops for the p90 to have MIN_BEYOND samples
    beyond it.  A traced run alternates untraced and traced rounds, so it
    times an even number."""
    ops = max(
        seconds * workload.nominal_ops_per_s,
        min_samples_for(TAIL_QUANTILE, MIN_BEYOND),
    )
    rounds = math.ceil(ops / workload.round_size)
    return rounds + rounds % 2 if trace else rounds


def _by_label(timed: list[tuple[str, float]]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for label, latency in timed:
        out.setdefault(label, []).append(latency)
    return out


def overhead_ratio(
    untraced: list[tuple[str, float]], traced: list[tuple[str, float]]
) -> float:
    """Untraced ops/s over traced ops/s (1.1 when tracing costs 10%)
    at the traced rounds' op mix,
    from each op kind's median latency on either side (medians, so a
    garbage-collection pause landing in one side's round does not
    decide the ratio)."""
    plain = {
        label: statistics.median(values)
        for label, values in _by_label(untraced).items()
    }
    traced_cost = untraced_cost = 0.0
    for label, values in _by_label(traced).items():
        if label in plain:
            traced_cost += len(values) * statistics.median(values)
            untraced_cost += len(values) * plain[label]
    return traced_cost / untraced_cost if untraced_cost else 0.0


if __name__ == "__main__":
    # Pin string hashing so dict and set layouts repeat from run to run:
    # under random hash seeds the dashboard's cache-hit latency differed
    # by up to ~15% between otherwise identical processes.  The exec
    # replaces this process; it starts no other.
    if any(os.environ.get(name) != value for name, value in RUN_ENV.items()):
        os.environ.update(RUN_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # One CPU: the engine runs one thread at a time (the lifecycle passes
    # a baton between the client and a served query's thread), so a
    # second CPU only adds cross-CPU wake-up latency, which left the
    # dashboard's ops 7-39% off-CPU and moved its throughput 1.8x
    # between runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing the engine's heap object by
    # object takes seconds and measures nothing.
    os._exit(code)
