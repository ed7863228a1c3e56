"""Batch-at-a-time column carriers for the vectorized operator pipeline.

A :class:`ColumnBatch` is the unit of work flowing between fused kernels:
a fixed set of column *entries* plus a logical row count.  Entries are
lazy — a :class:`LazyColumn` keeps a reference to the encoded block column
and the scan's selection vector, and only decodes (and gathers) when a
kernel actually touches the values.  That is the late-materialization
invariant: rows are only rebuilt as Python tuples at pipeline exits
(shuffle, join, sort, or result collection), and a column that is merely
*carried* through filters and projections is never decoded at all.

Values inside a batch follow the same conventions as decoded block
columns: primitives are numpy arrays (with an optional validity mask for
NULLs), everything else is a plain Python list with inline ``None``.
"""

from __future__ import annotations

import sys

from typing import Any, Optional, Sequence

import numpy as np

from repro.columnar.table import ColumnarPartition

__all__ = ["Vector", "LazyColumn", "ColumnBatch"]


class Vector:
    """One dense column of batch values.

    ``data`` is either a numpy array (primitives; positions where
    ``valid`` is False are NULL and hold unspecified garbage) or a Python
    list with inline ``None``.  ``valid`` is only ever paired with array
    data; ``valid is None`` over an array means no NULLs.
    """

    __slots__ = ("data", "valid")

    def __init__(self, data, valid: Optional[np.ndarray] = None):
        self.data = data
        self.valid = valid

    def __len__(self) -> int:
        return len(self.data)

    @property
    def is_array(self) -> bool:
        return isinstance(self.data, np.ndarray)

    def gather(self, indices: np.ndarray) -> "Vector":
        if isinstance(self.data, np.ndarray):
            valid = self.valid[indices] if self.valid is not None else None
            return Vector(self.data[indices], valid)
        data = self.data
        return Vector([data[i] for i in indices])

    def to_python_list(self) -> list:
        """Values as Python objects with inline None (row-path parity).

        ``ndarray.tolist()`` unboxes numpy scalars to exact Python
        ints/floats/bools, matching ``ColumnarPartition._to_python``.
        """
        if not isinstance(self.data, np.ndarray):
            return list(self.data)
        values = self.data.tolist()
        if self.valid is not None:
            return [
                value if ok else None
                for value, ok in zip(values, self.valid.tolist())
            ]
        return values

    def memory_footprint_bytes(self) -> int:
        """Exact heap bytes: array buffers (``nbytes``) plus the validity
        mask, or the list shell plus per-object sizes for object columns."""
        if isinstance(self.data, np.ndarray):
            total = self.data.nbytes
            if self.valid is not None:
                total += self.valid.nbytes
            return total
        return sys.getsizeof(self.data) + sum(
            sys.getsizeof(value) for value in self.data if value is not None
        )


def _as_vector(values: Sequence[Any]) -> Vector:
    """Wrap a decoded block column (ndarray or list) as a Vector."""
    if isinstance(values, np.ndarray):
        return Vector(values)
    return Vector(values if isinstance(values, list) else list(values))


class LazyColumn:
    """A batch entry that defers decoding an encoded block column.

    Holds (block, column index, selection).  ``vector()`` decodes through
    the block's column cache and gathers the selection; ``codes()``
    exposes the underlying dictionary codes (selection applied) without
    decoding, when the column is dictionary-encoded.
    """

    __slots__ = ("block", "index", "selection", "_vector")

    def __init__(
        self,
        block: ColumnarPartition,
        index: int,
        selection: Optional[np.ndarray],
    ):
        self.block = block
        self.index = index
        self.selection = selection
        self._vector: Optional[Vector] = None

    def __len__(self) -> int:
        if self.selection is not None:
            return len(self.selection)
        return self.block.num_rows

    def vector(self) -> Vector:
        if self._vector is None:
            full = _as_vector(self.block.column(self.index))
            if self.selection is not None:
                full = full.gather(self.selection)
            self._vector = full
        return self._vector

    def codes(self) -> Optional[tuple[np.ndarray, list]]:
        view = self.block.encoded_column(self.index).dictionary_view()
        if view is None:
            return None
        codes, dictionary = view
        if self.selection is not None:
            codes = codes[self.selection]
        return codes, dictionary

    def memory_footprint_bytes(self) -> int:
        """Exact heap bytes this entry pins right now: the decoded
        vector if it exists, otherwise the encoded column it references
        (plus the dictionary), plus the selection index array."""
        if self._vector is not None:
            total = self._vector.memory_footprint_bytes()
        else:
            encoded = self.block.encoded_column(self.index)
            total = encoded.compressed_bytes
            view = encoded.dictionary_view()
            if view is not None:
                __, dictionary = view
                total += sys.getsizeof(dictionary) + sum(
                    sys.getsizeof(value)
                    for value in dictionary
                    if value is not None
                )
        if self.selection is not None:
            total += self.selection.nbytes
        return total


class ColumnBatch:
    """A selection-resolved batch: N columns x num_rows logical rows.

    Entries are :class:`LazyColumn` or :class:`Vector`; all share the same
    length (``num_rows``).  A filter kernel produces a new batch by
    gathering every entry through the kept indices — lazy entries stay
    lazy (the gather composes selections), so a fused
    filter->project->aggregate chain decodes only what it touches.
    """

    __slots__ = ("entries", "num_rows")

    def __init__(self, entries: list, num_rows: int):
        self.entries = entries
        self.num_rows = num_rows

    @classmethod
    def from_block(
        cls,
        block: ColumnarPartition,
        column_indices: Sequence[int],
        selection: Optional[np.ndarray] = None,
    ) -> "ColumnBatch":
        num_rows = block.num_rows if selection is None else len(selection)
        entries = [
            LazyColumn(block, index, selection) for index in column_indices
        ]
        return cls(entries, num_rows)

    def vector(self, ordinal: int) -> Vector:
        entry = self.entries[ordinal]
        if isinstance(entry, LazyColumn):
            return entry.vector()
        return entry

    def codes(self, ordinal: int) -> Optional[tuple[np.ndarray, list]]:
        entry = self.entries[ordinal]
        if isinstance(entry, LazyColumn):
            return entry.codes()
        return None

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """Keep only the given row positions (a filter kernel's output)."""
        gathered = []
        for entry in self.entries:
            if isinstance(entry, LazyColumn):
                if entry.selection is not None:
                    composed = entry.selection[indices]
                else:
                    composed = indices
                gathered.append(
                    LazyColumn(entry.block, entry.index, composed)
                )
            else:
                gathered.append(entry.gather(indices))
        return ColumnBatch(gathered, len(indices))

    def memory_footprint_bytes(self) -> int:
        """Exact heap bytes held across all entries (lazy entries count
        what they currently pin, not what decoding would cost)."""
        return sum(
            entry.memory_footprint_bytes() for entry in self.entries
        )

    def materialize_rows(self) -> list[tuple]:
        """Late materialization: rebuild Python row tuples at a pipeline
        exit, matching the row path's value conventions exactly."""
        if not self.entries:
            return [()] * self.num_rows
        columns = [self.vector(i).to_python_list() for i in
                   range(len(self.entries))]
        return list(zip(*columns))
