"""Virtual workers and their block stores."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.memory import MemoryAccountant
    from repro.obs import Tracer


#: Elements walked when sizing a list, tuple or dict; larger ones are
#: sampled by a deterministic stride and scaled up.
SIZE_SAMPLE = 256


def approximate_size_bytes(value: Any) -> int:
    """Best-effort in-memory size of a stored block.

    Objects that know their footprint (columnar partitions, column
    batches) expose ``memory_footprint_bytes()``; everything else is
    estimated with ``sys.getsizeof`` plus a recursive pass over
    container elements, which is accurate enough for spill accounting
    and the memory benchmarks.  Lists, tuples and dicts of more than
    :data:`SIZE_SAMPLE` elements are sampled by a deterministic stride,
    so their sizes are estimates (exact at or below it).
    """
    footprint = getattr(value, "memory_footprint_bytes", None)
    if callable(footprint):
        return int(footprint())
    if isinstance(value, (list, tuple)):
        total = sys.getsizeof(value)
        # Sample large collections rather than walking every element.
        n = len(value)
        if n == 0:
            return total
        sample = value if n <= SIZE_SAMPLE else value[:: n // SIZE_SAMPLE]
        per_item = sum(sys.getsizeof(item) for item in sample) / len(sample)
        return int(total + per_item * n)
    if isinstance(value, dict):
        # Recurse: a dict of lists (hash-aggregate state, join build
        # tables) is dominated by its values, not the container shell.
        total = sys.getsizeof(value)
        n = len(value)
        if n == 0:
            return total
        entries = value.items()
        if n > SIZE_SAMPLE:
            entries = list(islice(entries, 0, None, n // SIZE_SAMPLE))
        entry_bytes = 0
        for key, item in entries:
            entry_bytes += sys.getsizeof(key)
            if isinstance(item, (list, tuple, dict, set, frozenset)):
                entry_bytes += approximate_size_bytes(item)
            else:
                entry_bytes += sys.getsizeof(item)
        if n <= SIZE_SAMPLE:
            return total + entry_bytes
        return int(total + entry_bytes / len(entries) * n)
    if isinstance(value, (set, frozenset)):
        total = sys.getsizeof(value)
        for item in value:
            total += sys.getsizeof(item)
        return total
    return sys.getsizeof(value)


def _block_owner(block_id: str) -> str:
    """Attribution label for a block id: ``rdd_3_5`` -> ``rdd_3``,
    ``shuffle_1_2`` -> ``shuffle`` (strip the partition suffix).

    RDD ids are per-context, so ``rdd_<id>`` is stable run to run and
    safe to persist in watermark records.  Shuffle ids come from a
    process-global counter, so per-shuffle labels would break the
    byte-identical-logs invariant; all map outputs pool under one
    ``shuffle`` owner instead."""
    prefix, sep, suffix = block_id.rpartition("_")
    if not sep or not suffix.isdigit():
        return block_id
    if prefix.partition("_")[0] == "shuffle":
        return "shuffle"
    return prefix


@dataclass
class StoredBlock:
    """One block held by a worker."""

    block_id: str
    value: Any
    size_bytes: int
    #: Pinned blocks (shuffle map outputs) are never evicted — losing them
    #: silently would look like spontaneous data loss; they only disappear
    #: with the worker.  Cached RDD partitions are evictable: lineage
    #: recomputes them on the next read.
    pinned: bool = False


class BlockStore:
    """Per-worker in-memory block storage with size accounting.

    With ``capacity_bytes`` set, evictable blocks are dropped
    least-recently-used-first under memory pressure (Spark's storage
    behaviour: caching is best-effort; lineage makes eviction safe).
    """

    def __init__(
        self,
        capacity_bytes: int | None = None,
        tracer: Optional["Tracer"] = None,
        accountant: Optional["MemoryAccountant"] = None,
        worker_id: int = 0,
    ) -> None:
        self._blocks: dict[str, StoredBlock] = {}
        self.capacity_bytes = capacity_bytes
        #: Number of blocks dropped under memory pressure.
        self.evictions = 0
        #: Optional observability hook (shared with the owning cluster).
        self.tracer = tracer
        #: Storage-pool ledger; every byte held here is charged to it.
        self.accountant = accountant
        self.worker_id = worker_id
        if accountant is not None:
            accountant.attach_victim_source(
                worker_id, self.victim_candidates
            )
            accountant.attach_evictor(worker_id, self.evict_up_to)

    def put(
        self,
        block_id: str,
        value: Any,
        size_bytes: int | None = None,
        pinned: bool = False,
    ) -> None:
        size = approximate_size_bytes(value) if size_bytes is None else size_bytes
        replaced = self._blocks.pop(block_id, None)
        if replaced is not None:
            self._account_release(replaced)
        # Reserve before inserting: the reservation may arbitrate (evict
        # through evict_up_to), and the incoming block must not be an
        # eviction candidate before its own bytes are charged — evicting
        # it uncharged would release bytes never reserved (a clamp).
        if self.accountant is not None:
            self.accountant.reserve(
                self.worker_id, "storage", _block_owner(block_id), size
            )
        self._blocks[block_id] = StoredBlock(block_id, value, size, pinned)
        if self.tracer is not None:
            self.tracer.metrics.inc("blocks.put")
            self.tracer.metrics.inc("blocks.put.bytes", size)
        self._enforce_capacity()

    def _account_release(self, block: StoredBlock) -> None:
        if self.accountant is not None:
            self.accountant.release(
                self.worker_id,
                "storage",
                _block_owner(block.block_id),
                block.size_bytes,
            )

    def _evict_block(self, block_id: str) -> int:
        """Drop one unpinned block, releasing its accounting; returns
        the bytes freed."""
        block = self._blocks.pop(block_id)
        self._account_release(block)
        self.evictions += 1
        if self.tracer is not None:
            self.tracer.metrics.inc("blocks.evicted")
            self.tracer.metrics.inc(
                "blocks.evicted.bytes", block.size_bytes
            )
            self.tracer.instant(
                "block.evict", "cache",
                block_id=block_id, bytes=block.size_bytes,
            )
        return block.size_bytes

    def _lru_victim(self) -> str | None:
        return next(
            (
                block_id
                for block_id, block in self._blocks.items()
                if not block.pinned
            ),
            None,
        )

    def evict_up_to(self, nbytes: int) -> int:
        """Evict unpinned blocks LRU-first until ``nbytes`` are freed or
        only pinned blocks remain; returns the bytes freed.

        This is the accountant's arbitration entry point (eviction
        before spill): cached partitions are the cheapest memory to
        reclaim because lineage recomputes them on the next read.  It
        lives here — not in the accountant — because a CI guard forbids
        touching ``_blocks`` outside this module.
        """
        freed = 0
        while freed < nbytes:
            victim = self._lru_victim()
            if victim is None:
                break
            freed += self._evict_block(victim)
        return freed

    def _enforce_capacity(self) -> None:
        if self.capacity_bytes is None:
            return
        while self.used_bytes > self.capacity_bytes:
            victim = self._lru_victim()
            if victim is None:
                return  # only pinned blocks remain; nothing to evict
            self._evict_block(victim)

    def get(self, block_id: str) -> Any:
        block = self._blocks.pop(block_id)  # re-insert: LRU refresh
        self._blocks[block_id] = block
        return block.value

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._blocks

    def remove(self, block_id: str) -> None:
        removed = self._blocks.pop(block_id, None)
        if removed is not None:
            self._account_release(removed)

    def clear(self) -> None:
        for block in self._blocks.values():
            self._account_release(block)
        self._blocks.clear()

    def block_ids(self) -> Iterator[str]:
        return iter(list(self._blocks))

    def size_of(self, block_id: str, default: int = 0) -> int:
        """Accounted size of one block (public accessor: nothing outside
        this class reads or mutates the per-block byte fields)."""
        block = self._blocks.get(block_id)
        return block.size_bytes if block is not None else default

    def victim_candidates(self) -> list[tuple[str, int]]:
        """Evictable blocks in insertion (LRU) order — the would-be
        victim list a ``memory.pressure`` event reports.  Pinned blocks
        (shuffle map outputs) are never candidates."""
        return [
            (block_id, block.size_bytes)
            for block_id, block in self._blocks.items()
            if not block.pinned
        ]

    def pinned_ids(self) -> set[str]:
        """Ids of pinned (shuffle map output) blocks held here."""
        return {
            block_id
            for block_id, block in self._blocks.items()
            if block.pinned
        }

    @property
    def used_bytes(self) -> int:
        return sum(block.size_bytes for block in self._blocks.values())

    def __len__(self) -> int:
        return len(self._blocks)


@dataclass
class Worker:
    """A virtual worker node.

    Tasks assigned to a dead worker fail; blocks on a dead worker are gone.
    Restarting a worker brings back its slots but not its blocks, exactly
    like replacing a failed machine.
    """

    worker_id: int
    cores: int = 8
    alive: bool = True
    blocks: BlockStore = field(default_factory=BlockStore)
    #: Number of tasks this worker has executed (for failure triggers and
    #: load-balance assertions in tests).
    tasks_run: int = 0

    def kill(self) -> None:
        self.alive = False
        self.blocks.clear()

    def restart(self) -> None:
        self.alive = True
        self.blocks = BlockStore(
            capacity_bytes=self.blocks.capacity_bytes,
            tracer=self.blocks.tracer,
            accountant=self.blocks.accountant,
            worker_id=self.blocks.worker_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "alive" if self.alive else "dead"
        return (
            f"Worker({self.worker_id}, {status}, blocks={len(self.blocks)}, "
            f"tasks_run={self.tasks_run})"
        )
