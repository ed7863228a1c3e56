"""Independent output oracle: stdlib ``sqlite3`` for SQL, numpy for ML.

The engine's own tests compare it with itself (vectorize on/off,
cached/uncached, Shark vs a Hive baseline sharing its front end).  The
benchmark instead loads the same generated rows into an in-memory
SQLite database and runs each statement there, and recomputes each ML
step with numpy.  Expected answers are computed at set-up, outside the
clocks.

Normalisation rules (fixed; tests pin them):

* **Dates** compare as ISO ``YYYY-MM-DD`` strings; SQLite stores them
  that way and ``DATE 'x'`` literals are rewritten to ``'x'``.
* **Numbers** compare by value: an ``int`` equals a ``float`` of the
  same value, and two numbers where either is a float match when
  ``math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)`` (summation
  order differs between a partitioned aggregate and SQLite's scan).
  Integers compare exactly.  Booleans compare as the integers 0 and 1
  (SQLite has no boolean type).
* **NULL** equals only NULL, and sorts before every other value.
* **Integer division**: HiveQL's ``/`` always yields a double, SQLite's
  truncates two integers, so every ``/`` outside a string literal is
  rewritten to ``* 1.0 /``.
* **Row order** is ignored unless the statement orders its output.  An
  ordered result must list the same sort-key sequence as the oracle;
  rows with equal keys may come in any order, and under a ``LIMIT``
  the last tie group may be any subset of the oracle's.
"""

from __future__ import annotations

import math
import re
import sqlite3
from dataclasses import dataclass
from datetime import date
from typing import Any, Optional, Sequence

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-9
#: Absolute tolerance on ML vectors (sums of ~1e4 terms of size ~1).
ML_ABS_TOL = 1e-8

_DATE_LITERAL = re.compile(r"\bDATE\s+('[^']*')", re.IGNORECASE)


def to_sqlite(text: str) -> str:
    """Rewrite HiveQL text into the SQLite dialect (date literals and
    integer division; string literals are left untouched)."""
    text = _DATE_LITERAL.sub(r"\1", text)
    pieces = re.split(r"('(?:[^']|'')*')", text)
    for index in range(0, len(pieces), 2):
        pieces[index] = pieces[index].replace("/", "* 1.0 /")
    return "".join(pieces)


def normalize_value(value: Any) -> Any:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, bool):
        return int(value)
    return value


def values_match(actual: Any, expected: Any) -> bool:
    actual = normalize_value(actual)
    expected = normalize_value(expected)
    if actual is None or expected is None:
        return actual is None and expected is None
    numeric = (int, float)
    if isinstance(actual, numeric) and isinstance(expected, numeric):
        if isinstance(actual, int) and isinstance(expected, int):
            return actual == expected
        return math.isclose(
            actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL
        )
    return actual == expected


def rows_match(actual: Sequence, expected: Sequence) -> bool:
    return len(actual) == len(expected) and all(
        values_match(a, e) for a, e in zip(actual, expected)
    )


def _sort_key(row: Sequence) -> tuple:
    """Total order for pairing rows: NULLs first, floats rounded so
    that values equal within tolerance sort alike."""
    key = []
    for value in row:
        value = normalize_value(value)
        if value is None:
            key.append((0, 0, ""))
        elif isinstance(value, (int, float)):
            key.append((1, float(f"{value:.6g}"), ""))
        else:
            key.append((2, 0, str(value)))
    return tuple(key)


def _paired_match(actual: Sequence, expected_sorted: Sequence) -> bool:
    """Multiset equality, ``expected_sorted`` already in pairing order."""
    return len(actual) == len(expected_sorted) and all(
        rows_match(a, e)
        for a, e in zip(sorted(actual, key=_sort_key), expected_sorted)
    )


def multiset_match(actual: Sequence, expected: Sequence) -> bool:
    return _paired_match(actual, sorted(expected, key=_sort_key))


def ordered_match(
    actual: Sequence,
    expected_full: Sequence,
    key_columns: Sequence[int],
    limit: Optional[int] = None,
) -> bool:
    """Check an ORDER BY result against the oracle's full (un-limited)
    ordered result; ties on the key columns may come in any order."""
    want = len(expected_full) if limit is None else min(
        limit, len(expected_full)
    )
    if len(actual) != want:
        return False

    def key(row):
        return [row[i] for i in key_columns]

    for a, e in zip(actual, expected_full):
        if not rows_match(key(a), key(e)):
            return False
    # Group both sides into runs of equal keys and compare run by run.
    start = 0
    while start < want:
        end = start
        while end < want and rows_match(key(actual[end]), key(actual[start])):
            end += 1
        group_end = end
        while group_end < len(expected_full) and rows_match(
            key(expected_full[group_end]), key(actual[start])
        ):
            group_end += 1
        got = sorted(actual[start:end], key=_sort_key)
        pool = list(expected_full[start:group_end])
        if group_end == end:
            if not multiset_match(got, pool):
                return False
        else:
            # A LIMIT cut through this tie group: every returned row
            # must be a distinct member of the oracle's group.
            for row in got:
                for index, candidate in enumerate(pool):
                    if rows_match(row, candidate):
                        del pool[index]
                        break
                else:
                    return False
        start = end
    return True


@dataclass
class Expected:
    """The oracle's answer to one statement."""

    rows: list
    key_columns: Optional[tuple[int, ...]] = None
    limit: Optional[int] = None
    #: ``rows`` in pairing order, computed on first use.
    _sorted: Optional[list] = None

    def matches(self, actual: Sequence) -> bool:
        if self.key_columns is not None:
            return ordered_match(actual, self.rows, self.key_columns, self.limit)
        if self._sorted is None:
            self._sorted = sorted(self.rows, key=_sort_key)
        return _paired_match(actual, self._sorted)


_ORDER_LIMIT = re.compile(r"\bLIMIT\s+(\d+)\s*$", re.IGNORECASE)


class SqlOracle:
    """An in-memory SQLite copy of the generated tables."""

    def __init__(self) -> None:
        self.db = sqlite3.connect(":memory:")

    def load(self, name: str, columns: Sequence[str], rows) -> None:
        quoted = ", ".join(f'"{column}"' for column in columns)
        marks = ", ".join("?" for _ in columns)
        self.db.execute(f'CREATE TABLE "{name}" ({quoted})')
        self.db.executemany(
            f'INSERT INTO "{name}" VALUES ({marks})',
            ([_storable(value) for value in row] for row in rows),
        )
        self.db.commit()

    def query(self, text: str) -> list[tuple]:
        return self.db.execute(to_sqlite(text)).fetchall()

    def expect(
        self, text: str, key_columns: Optional[tuple[int, ...]] = None
    ) -> Expected:
        """The oracle answer for ``text``.  An ordered statement passes
        its output sort-key columns; a trailing ``LIMIT n`` is dropped
        from the oracle query so ties at the cut can be judged."""
        limit = None
        if key_columns is not None:
            stripped = text.strip()
            match = _ORDER_LIMIT.search(stripped)
            if match is not None:
                limit = int(match.group(1))
                text = stripped[: match.start()]
        return Expected(self.query(text), key_columns, limit)

    def close(self) -> None:
        self.db.close()


def _storable(value: Any) -> Any:
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, (list, dict, tuple)):
        return repr(value)
    return value


# ----------------------------------------------------------------------
# ML: the same step computed with numpy
# ----------------------------------------------------------------------
def logistic_step(
    features: np.ndarray, labels: np.ndarray, seed: int,
    learning_rate: float = 1.0,
) -> np.ndarray:
    """Weights after one gradient step from the trainer's seeded start
    (``w0`` uniform in [-1, 1) from ``default_rng(seed)``)."""
    rng = np.random.default_rng(seed)
    weights = 2.0 * rng.random(features.shape[1]) - 1.0
    margins = labels * (features @ weights)
    # (1 / (1 + exp(-m)) - 1) * y, with the sigmoid split by sign.
    sigmoid = np.where(
        margins >= 0,
        1.0 / (1.0 + np.exp(-np.abs(margins))),
        np.exp(-np.abs(margins)) / (1.0 + np.exp(-np.abs(margins))),
    )
    factors = (sigmoid - 1.0) * labels
    return weights - learning_rate * (factors @ features)


def kmeans_step(
    points: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, float]:
    """Centres and inertia after one Lloyd step from the trainer's
    seeded start: ``k`` of the first ``max(20k, 100)`` points."""
    sample = points[: max(k * 20, 100)]
    rng = np.random.default_rng(seed)
    centers = sample[rng.choice(len(sample), size=k, replace=False)]
    distances = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    nearest = np.argmin(distances, axis=1)
    inertia = float(distances[np.arange(len(points)), nearest].sum())
    updated = centers.copy()
    for index in range(k):
        members = points[nearest == index]
        if len(members):
            updated[index] = members.sum(axis=0) / len(members)
    return updated, inertia


def vectors_match(actual: np.ndarray, expected: np.ndarray) -> bool:
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=REL_TOL, atol=ML_ABS_TOL)
    )
