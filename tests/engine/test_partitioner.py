"""Partitioner behaviour: stability, ranges, equality."""

import collections
import datetime
import enum
import zlib

import pytest

from repro.engine.partitioner import (
    FunctionPartitioner,
    HashPartitioner,
    RangePartitioner,
    stable_hash,
)


class TestStableHash:
    def test_deterministic_for_strings(self):
        assert stable_hash("shark") == stable_hash("shark")

    def test_int_is_identity_like(self):
        assert stable_hash(5) == 5
        assert stable_hash(0) == 0

    def test_negative_int_is_nonnegative(self):
        assert stable_hash(-17) >= 0

    def test_none_hashes_to_zero(self):
        assert stable_hash(None) == 0

    def test_bool_distinct_from_general_ints_semantics(self):
        assert stable_hash(True) == 1
        assert stable_hash(False) == 0

    def test_tuple_order_sensitive(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_float_and_bytes_supported(self):
        assert stable_hash(3.14) >= 0
        assert stable_hash(b"abc") >= 0

    def test_arbitrary_objects_fall_back_to_repr(self):
        class Weird:
            def __repr__(self):
                return "weird!"

        assert stable_hash(Weird()) == stable_hash(Weird())

    def test_matches_isinstance_chain_reference(self):
        # Exact-type fast paths must not move any key to another
        # reducer: compare against the plain isinstance chain.
        def reference(key):
            if key is None:
                return 0
            if isinstance(key, bool):
                return int(key)
            if isinstance(key, int):
                return key & 0x7FFFFFFF
            if isinstance(key, float):
                return zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF
            if isinstance(key, str):
                return zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF
            if isinstance(key, bytes):
                return zlib.crc32(key) & 0x7FFFFFFF
            if isinstance(key, tuple):
                value = 0x345678
                for item in key:
                    value = (value * 1000003) ^ reference(item)
                return value & 0x7FFFFFFF
            return zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF

        class Level(enum.IntEnum):
            LOW = 1
            HIGH = 2 ** 40

        class Tag(str):
            pass

        class Big(int):
            pass

        Pair = collections.namedtuple("Pair", "a b")
        scalars = [
            None, True, False, 0, 1, -1, 2 ** 31, -(2 ** 63), 10 ** 30,
            Big(7), Level.LOW, Level.HIGH, 0.0, -0.0, 1.5, float("nan"),
            float("inf"), "", "shark", "\u00e9t\u00e9", Tag("t"), b"", b"raw",
            datetime.date(1998, 12, 1), datetime.datetime(2020, 1, 2, 3, 4),
        ]
        corpus = scalars + [
            (), (1,), ("a", 1), (None, True, 2.5), ((1, "x"), (b"y",)),
            (datetime.date(1995, 3, 15), ("AIR", 3)), Pair(1, "b"),
            tuple(scalars),
        ]
        for key in corpus:
            assert stable_hash(key) == reference(key), key


class TestHashPartitioner:
    def test_rejects_nonpositive_partitions(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_partitions_in_range(self):
        partitioner = HashPartitioner(7)
        for key in ["a", "b", 1, 2.5, None, ("x", 1)]:
            assert 0 <= partitioner.partition(key) < 7

    def test_same_key_same_partition(self):
        partitioner = HashPartitioner(16)
        assert partitioner.partition("key") == partitioner.partition("key")

    def test_equality_by_type_and_count(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(8)
        assert hash(HashPartitioner(4)) == hash(HashPartitioner(4))

    def test_spreads_keys(self):
        partitioner = HashPartitioner(8)
        used = {partitioner.partition(f"key{i}") for i in range(200)}
        assert len(used) == 8


class TestRangePartitioner:
    def test_bounds_define_partitions(self):
        partitioner = RangePartitioner([10, 20, 30])
        assert partitioner.num_partitions == 4
        assert partitioner.partition(5) == 0
        assert partitioner.partition(10) == 0
        assert partitioner.partition(15) == 1
        assert partitioner.partition(35) == 3

    def test_descending(self):
        partitioner = RangePartitioner([10, 20], ascending=False)
        assert partitioner.partition(5) == 2
        assert partitioner.partition(25) == 0

    def test_equality_includes_bounds(self):
        assert RangePartitioner([1, 2]) == RangePartitioner([1, 2])
        assert RangePartitioner([1, 2]) != RangePartitioner([1, 3])
        assert RangePartitioner([1, 2]) != RangePartitioner(
            [1, 2], ascending=False
        )


class TestFunctionPartitioner:
    def test_uses_function_modulo(self):
        partitioner = FunctionPartitioner(4, lambda key: key * 3)
        assert partitioner.partition(2) == 6 % 4

    def test_equality_is_identity_of_function(self):
        fn = lambda key: key  # noqa: E731
        assert FunctionPartitioner(4, fn) == FunctionPartitioner(4, fn)
        assert FunctionPartitioner(4, fn) != FunctionPartitioner(
            4, lambda key: key
        )

    def test_label_makes_distinct_functions_equal(self):
        """The co-partitioning contract: a caller-supplied label asserts
        two functions partition identically, so rebuilt plans compare
        equal (the id()-based hash defeated this)."""
        a = FunctionPartitioner(4, lambda key: key * 3, label="x3")
        b = FunctionPartitioner(4, lambda key: key * 3, label="x3")
        assert a == b
        assert hash(a) == hash(b)

    def test_label_mismatch_is_unequal(self):
        a = FunctionPartitioner(4, lambda key: key, label="id")
        b = FunctionPartitioner(4, lambda key: key, label="other")
        assert a != b

    def test_label_with_different_num_partitions_is_unequal(self):
        a = FunctionPartitioner(4, lambda key: key, label="id")
        b = FunctionPartitioner(8, lambda key: key, label="id")
        assert a != b

    def test_labelled_never_equals_unlabelled(self):
        fn = lambda key: key  # noqa: E731
        assert FunctionPartitioner(4, fn, label="id") != FunctionPartitioner(
            4, fn
        )
