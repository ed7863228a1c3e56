"""An interactive SQL shell over a SharkContext.

The paper: "We have modified the Scala shell to enable interactive
execution of both SQL and distributed machine learning algorithms."  This
is the Python analogue: a REPL that executes SQL statements against an
in-process Shark cluster, plus dot-commands for inspecting the catalog,
plans, and run-time optimizer decisions — and for killing workers live to
watch lineage recovery happen.

Run with::

    python -m repro.shell
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Optional, TextIO

from repro import SharkContext
from repro.errors import ReproError

PROMPT = "shark> "
CONTINUATION = "    -> "

HELP_TEXT = """\
Enter SQL terminated by ';'.  Dot-commands:
  .help                 this message
  .tables               list catalog tables
  .describe <table>     show a table's schema and storage
  .explain <query>      optimized logical plan without executing
  .profile <query>      EXPLAIN ANALYZE: run and annotate the plan with
                        per-stage tasks/rows/bytes/simulated seconds
  .metrics              engine counters (tasks, shuffle bytes, evictions)
  .memory               unified memory ledger: per-worker pool usage,
                        peaks, headroom, top consumers, and spills
  .cache [on]           query caching stack status (plan/result/fragment
                        hit ratios, shared scans); 'on' enables it
  .trace [on|off|<path>] toggle span tracing / export Chrome-trace JSON
  .eventlog [<path>|off] stream every query to a persistent event log
  .history <path> [id]  report over an event log (whole log, or one query)
  .doctor <log_a> <log_b>  diff two event logs of the same corpus and
                        rank root causes for every regressed query
  .workers              virtual cluster status
  .kill <worker_id>     kill a worker (lineage recovery demo)
  .notes                run-time optimizer decisions of the last query
  .submit <query>       submit SQL for concurrent execution (queued under
                        admission control; run with .drain)
  .queries              lifecycle status of every submitted query
  .cancel <id>          cooperatively cancel a submitted query
  .drain                run all submitted queries to completion, fairly
                        interleaved
  .server [start|drain] multi-tenant serving status; 'start' hosts a
                        SqlServer over this context, 'drain' runs every
                        accepted query and lists the ones that finished
                        in it; 'submit <tenant> <sql>' admits
                        one query under the tenant's quota
  .tenants [add <name> [tier]]  per-tenant serving sessions; 'add'
                        registers a tenant (tier: interactive, batch,
                        or best_effort)
  .quit                 exit"""

#: Truncate result sets in the shell beyond this many rows.
MAX_DISPLAY_ROWS = 40


def format_table(column_names: list[str], rows: list[tuple]) -> str:
    """Render rows as an aligned text table."""
    display = [[_cell(value) for value in row] for row in rows]
    widths = [len(name) for name in column_names]
    for row in display:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    header = " | ".join(
        name.ljust(width) for name, width in zip(column_names, widths)
    )
    separator = "-+-".join("-" * width for width in widths)
    lines = [header, separator]
    for row in display:
        lines.append(
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


class Shell:
    """The REPL: feed it lines, it feeds back output via ``write``."""

    def __init__(
        self,
        shark: Optional[SharkContext] = None,
        write: Optional[Callable[[str], None]] = None,
    ):
        self.shark = shark if shark is not None else SharkContext()
        self._write = write if write is not None else self._default_write
        self._buffer: list[str] = []
        self.running = True

    @staticmethod
    def _default_write(text: str) -> None:
        print(text)

    # ------------------------------------------------------------------
    # Input handling
    # ------------------------------------------------------------------
    def feed(self, line: str) -> None:
        """Process one input line (statement fragment or dot-command)."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("."):
            self._dot_command(stripped)
            return
        if not stripped and not self._buffer:
            return
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer)
            self._buffer = []
            self._execute(statement)

    @property
    def prompt(self) -> str:
        return CONTINUATION if self._buffer else PROMPT

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, statement: str) -> None:
        try:
            result = self.shark.sql(statement)
        except ReproError as error:
            self._write(f"error: {error}")
            return
        rows = result.rows[:MAX_DISPLAY_ROWS]
        self._write(format_table(result.column_names, rows))
        suffix = ""
        if len(result.rows) > MAX_DISPLAY_ROWS:
            suffix = f" (showing first {MAX_DISPLAY_ROWS})"
        self._write(f"{len(result.rows)} row(s){suffix}")
        for note in result.report.notes:
            self._write(f"-- {note}")

    # ------------------------------------------------------------------
    # Dot-commands
    # ------------------------------------------------------------------
    def _dot_command(self, command: str) -> None:
        name, __, argument = command.partition(" ")
        argument = argument.strip()
        if name in (".quit", ".exit"):
            self.running = False
            return
        if name == ".help":
            self._write(HELP_TEXT)
            return
        if name == ".tables":
            names = self.shark.session.catalog.table_names()
            self._write("\n".join(names) if names else "(no tables)")
            return
        if name == ".describe":
            self._describe(argument)
            return
        if name == ".explain":
            try:
                self._write(self.shark.explain(argument.rstrip(";")))
            except ReproError as error:
                self._write(f"error: {error}")
            return
        if name == ".profile":
            log_path = None
            if argument.startswith("--log "):
                log_path, __, argument = argument[len("--log "):].partition(" ")
                argument = argument.strip()
            try:
                self._write(
                    self.shark.explain_analyze(
                        argument.rstrip(";"), log=log_path
                    )
                )
                if log_path:
                    self._write(f"-- query record appended to {log_path}")
            except ReproError as error:
                self._write(f"error: {error}")
            return
        if name == ".metrics":
            self._write(self.shark.metrics.describe())
            serving = self.shark.engine.serving
            if serving is not None:
                self._write("== serving ==")
                for line in serving.summary_lines():
                    self._write(line)
            return
        if name == ".server":
            self._server_command(argument)
            return
        if name == ".tenants":
            self._tenants_command(argument)
            return
        if name == ".memory":
            self._write(self.shark.engine.memory.describe())
            return
        if name == ".cache":
            if argument == "on":
                self.shark.enable_sql_cache()
                self._write("sql cache enabled")
                return
            cache = self.shark.sql_cache
            if cache is None:
                self._write(
                    "sql cache disabled (enable with '.cache on')"
                )
                return
            self._write("== sql cache ==")
            for line in cache.summary_lines():
                self._write(line)
            return
        if name == ".trace":
            self._trace_command(argument)
            return
        if name == ".eventlog":
            self._eventlog_command(argument)
            return
        if name == ".history":
            self._history_command(argument)
            return
        if name == ".doctor":
            self._doctor_command(argument)
            return
        if name == ".workers":
            for worker in self.shark.engine.cluster.workers:
                status = "alive" if worker.alive else "DEAD"
                self._write(
                    f"worker {worker.worker_id}: {status}, "
                    f"{len(worker.blocks)} blocks, "
                    f"{worker.tasks_run} tasks run"
                )
            return
        if name == ".kill":
            try:
                self.shark.kill_worker(int(argument))
                self._write(
                    f"killed worker {argument}; its cached partitions and "
                    f"shuffle outputs are gone — the next query recovers "
                    f"them from lineage"
                )
            except (ValueError, IndexError, ReproError) as error:
                self._write(f"error: {error}")
            return
        if name == ".notes":
            report = self.shark.last_report
            if report is None or not report.notes:
                self._write("(no optimizer notes)")
            else:
                for note in report.notes:
                    self._write(f"-- {note}")
            return
        if name == ".submit":
            try:
                handle = self.shark.submit_sql(argument.rstrip(";"))
                self._write(
                    f"submitted query {handle.query_id} "
                    f"({handle.state}); run with .drain"
                )
            except RuntimeError:
                self.shark.enable_lifecycle()
                self._dot_command(command)
            except ReproError as error:
                self._write(f"error: {error}")
            return
        if name == ".queries":
            lifecycle = self.shark.lifecycle
            if lifecycle is None or not lifecycle.handles:
                self._write("(no submitted queries)")
            else:
                for handle in lifecycle.handles:
                    self._write(handle.describe())
                self._write(lifecycle.describe())
            return
        if name == ".cancel":
            lifecycle = self.shark.lifecycle
            try:
                query_id = int(argument)
                handle = next(
                    h
                    for h in (lifecycle.handles if lifecycle else [])
                    if h.query_id == query_id
                )
            except (ValueError, StopIteration):
                self._write(f"error: no submitted query {argument!r}")
                return
            if handle.done:
                self._write(
                    f"query {query_id} already finished ({handle.state})"
                )
                return
            handle.cancel()
            self._write(
                f"cancellation requested for query {query_id} (takes "
                f"effect at its next task boundary)"
            )
            return
        if name == ".drain":
            lifecycle = self.shark.lifecycle
            if lifecycle is None:
                self._write("(no submitted queries)")
                return
            try:
                finished = lifecycle.drain()
            except ReproError as error:
                self._write(f"error: {error}")
                return
            for handle in finished:
                self._write(handle.describe())
            return
        self._write(f"unknown command {name!r}; try .help")

    def _server_command(self, argument: str) -> None:
        from repro.serving import SqlServer

        server = self.shark.engine.serving
        if argument == "start":
            if server is not None:
                self._write("server already running")
            else:
                server = SqlServer(self.shark)
                self._write(
                    "server started (weighted fair scheduling); register "
                    "tenants with `.tenants add <name> [tier]`"
                )
            return
        if server is None:
            self._write("(no server; start one with `.server start`)")
            return
        if argument == "drain":
            finished = server.drain()
            shown = finished[-MAX_DISPLAY_ROWS:]
            suffix = (
                f" (showing last {len(shown)})"
                if len(shown) < len(finished) else ""
            )
            self._write(f"drained {len(finished)} queries{suffix}")
            for ticket in shown:
                self._write(ticket.describe())
            self._write(server.describe())
            return
        if argument.startswith("submit "):
            rest = argument[len("submit "):].strip()
            tenant, __, text = rest.partition(" ")
            text = text.strip().rstrip(";")
            if not tenant or not text:
                self._write("usage: .server submit <tenant> <sql>")
                return
            try:
                ticket = server.submit(tenant, text)
            except ReproError as error:
                self._write(f"error: {error}")
                return
            self._write(
                f"accepted query {ticket.seq} for tenant {tenant} "
                f"({ticket.priority}); run with .server drain"
            )
            return
        if argument:
            self._write(f"unknown server subcommand {argument!r}")
            return
        for line in server.summary_lines():
            self._write(line)

    def _tenants_command(self, argument: str) -> None:
        server = self.shark.engine.serving
        if argument.startswith("add "):
            if server is None:
                self._write(
                    "(no server; start one with `.server start`)"
                )
                return
            rest = argument[len("add "):].split()
            name = rest[0] if rest else ""
            tier = rest[1] if len(rest) > 1 else "batch"
            if not name:
                self._write("usage: .tenants add <name> [tier]")
                return
            try:
                tenant = server.register_tenant(name, priority=tier)
            except (ValueError, ReproError) as error:
                self._write(f"error: {error}")
                return
            self._write(
                f"tenant {tenant.name} registered "
                f"[{tenant.priority}, weight {tenant.weight}]"
            )
            return
        if server is None or not server.tenants:
            self._write("(no tenants; `.tenants add <name> [tier]`)")
            return
        for name in sorted(server.tenants):
            self._write(server.tenants[name].describe())

    def _trace_command(self, argument: str) -> None:
        tracer = self.shark.tracer
        if argument in ("", "on"):
            self.shark.enable_tracing(reset=argument == "on")
            self._write("tracing enabled")
            return
        if argument == "off":
            self.shark.disable_tracing()
            self._write("tracing disabled")
            return
        # Anything else is a path: export what was recorded.
        trace = self.shark.trace
        if len(trace) == 0:
            self._write(
                "(no spans recorded — run `.trace on`, then a query)"
            )
            return
        try:
            trace.write_chrome_trace(argument)
        except OSError as error:
            self._write(f"error: {error}")
            return
        self._write(
            f"wrote {len(trace.spans)} spans / {len(trace.events)} events "
            f"to {argument} (open in https://ui.perfetto.dev)"
        )

    def _eventlog_command(self, argument: str) -> None:
        log = self.shark.engine.event_log
        if argument == "":
            if log is None:
                self._write("(no event log; `.eventlog <path>` to start one)")
            else:
                self._write(
                    f"event log: {log.path} "
                    f"({log.queries_logged} queries logged)"
                )
            return
        if argument == "off":
            if log is None:
                self._write("(no event log open)")
            else:
                path = log.path
                self.shark.close_event_log()
                self._write(f"closed event log {path}")
            return
        try:
            self.shark.enable_event_log(argument, source="shell")
        except OSError as error:
            self._write(f"error: {error}")
            return
        self._write(
            f"event log open at {argument}; every query now streams its "
            f"records there (`.eventlog off` to close, then inspect with "
            f"`.history {argument}`)"
        )

    def _history_command(self, argument: str) -> None:
        from repro.obs.history import HistoryStore

        path, __, query = argument.partition(" ")
        query = query.strip()
        if not path:
            self._write("usage: .history <path> [query-id-or-name]")
            return
        log = self.shark.engine.event_log
        if log is not None and str(log.path) == path:
            self._write(
                f"(note: {path} is still open for writing; close it "
                f"with `.eventlog off` for a complete report)"
            )
        try:
            store = HistoryStore.load(path)
            self._write(store.report(query=query if query else None))
        except (OSError, ValueError, KeyError) as error:
            self._write(f"error: {error}")

    def _doctor_command(self, argument: str) -> None:
        from repro.obs import doctor

        parts = argument.split()
        if len(parts) != 2:
            self._write("usage: .doctor <log_a> <log_b>")
            return
        try:
            report = doctor.diagnose_logs(
                parts[0],
                parts[1],
                metrics=self.shark.tracer.metrics,
            )
        except (OSError, ValueError, KeyError) as error:
            self._write(f"error: {error}")
            return
        self._write(report.render())

    def _describe(self, name: str) -> None:
        try:
            entry = self.shark.table_entry(name)
        except ReproError as error:
            self._write(f"error: {error}")
            return
        storage = "cached (columnar memstore)" if entry.is_cached else (
            f"external ({entry.path})"
        )
        self._write(f"table {entry.name} — {storage}")
        for field in entry.schema.fields:
            self._write(f"  {field.name}  {field.data_type}")
        if entry.row_count is not None:
            self._write(f"  -- {entry.row_count} rows")
        if entry.distribute_column:
            self._write(
                f"  -- DISTRIBUTE BY {entry.distribute_column} "
                f"({entry.partitioner})"
            )


def run(
    lines: Iterable[str],
    shark: Optional[SharkContext] = None,
    write: Optional[Callable[[str], None]] = None,
) -> Shell:
    """Drive a shell over an iterable of input lines (testing entry)."""
    shell = Shell(shark=shark, write=write)
    for line in lines:
        if not shell.running:
            break
        shell.feed(line)
    return shell


def main(stdin: Optional[TextIO] = None) -> int:
    """Interactive entry point."""
    stream = stdin if stdin is not None else sys.stdin
    shell = Shell()
    print("Shark SQL shell — .help for commands, .quit to exit")
    interactive = stream is sys.stdin and stream.isatty()
    while shell.running:
        if interactive:
            try:
                line = input(shell.prompt)
            except (EOFError, KeyboardInterrupt):
                break
        else:
            line = stream.readline()
            if not line:
                break
        shell.feed(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
