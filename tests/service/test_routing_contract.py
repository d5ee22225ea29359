"""Routing-contract agreement suite: vectorized routing vs per-key ``stable_hash``.

The worker-side router hashes whole key arrays; the driver (and the scalar
fallback) hashes key by key. The module contract is that both paths agree
*key for key* for every representable key type — if they ever drift, the
driver's activation bookkeeping and the workers' actual routing silently
disagree. This suite pins the contract over every key family the canonical
encoding spec names, over power-of-two and non-power-of-two shard counts,
plus regression tests for the trailing-NUL truncation bug (fixed-width
``S``/``U`` dtypes cannot represent trailing NULs, so the vectorized path
must never coerce keys through them lossily).

The numeric cases run over both numeric routers: the normative
``shard_ids_for_keys`` and the service's in-place hot-path kernel
``_numeric_shard_ids``, which the routing fingerprint does not cover — this
suite is what pins it to the encoding.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import pytest

from repro.service import SamplerService, shard_ids_for_keys, stable_hash
from repro.service.routing import _KERNEL_BLOCK, _numeric_shard_ids
from repro.core import RTBS

SHARD_COUNTS = [1, 2, 8, 64, 3, 7, 12]  # powers of two and not

#: Both numeric routers; every numeric agreement case runs on each.
NUMERIC_ROUTERS = pytest.mark.parametrize(
    "router", [shard_ids_for_keys, _numeric_shard_ids], ids=["reference", "kernel"]
)

#: Key counts around the kernel's block boundaries.
KERNEL_LENGTHS = [
    0,
    1,
    _KERNEL_BLOCK - 1,
    _KERNEL_BLOCK,
    _KERNEL_BLOCK + 1,
    2 * _KERNEL_BLOCK + 3,
]

#: Every narrow integer, unsigned and float dtype, bool, and the 8-byte
#: dtypes in the non-native byte order.
WIDENED_DTYPES = [
    "i1", "i2", "i4", "u1", "u2", "u4", "f2", "f4", "?",
    ">i8", ">u8", ">f8", ">i4", ">u2", ">f4",
]


def reference(keys, num_shards):
    return [stable_hash(key) % num_shards for key in keys]


def assert_agreement(keys, num_shards, router=shard_ids_for_keys):
    vectorized = router(keys, num_shards)
    assert vectorized.dtype == np.int64
    assert vectorized.tolist() == reference(keys, num_shards)


@functools.cache
def lengths_case():
    """Keys for the longest block-boundary case and their ``stable_hash``es
    (computed once: the per-key reference is the slow side)."""
    keys = np.random.default_rng(11).integers(-(2**63), 2**63 - 1, max(KERNEL_LENGTHS))
    hashes = np.array([stable_hash(int(key)) for key in keys], dtype=np.uint64)
    return keys, hashes


def special_floats(dtype):
    """Signed zeros, infinities and NaNs with distinct payloads in ``dtype``
    (NaN payloads set through the bit pattern)."""
    dtype = np.dtype(dtype)
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -2.5])
    bits_dtype = np.dtype(f"u{dtype.itemsize}")
    exponent = {2: 0x7C00, 4: 0x7F800000, 8: 0x7FF0000000000000}[dtype.itemsize]
    sign = 1 << (8 * dtype.itemsize - 1)
    payloads = np.array(
        [exponent | 1, exponent | 0b101, sign | exponent | 1, sign - 1],
        dtype=bits_dtype,
    ).view(dtype.newbyteorder("="))
    return np.concatenate([values.astype(dtype.newbyteorder("=")), payloads]).astype(dtype)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
class TestAgreement:
    @NUMERIC_ROUTERS
    def test_int64_extremes(self, num_shards, router):
        values = [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63), 31337]
        assert_agreement(np.array(values, dtype=np.int64), num_shards, router)

    @NUMERIC_ROUTERS
    def test_uint64_above_2_63(self, num_shards, router):
        values = [0, 1, 2**63, 2**63 + 1, 2**64 - 1, 12345]
        arr = np.array(values, dtype=np.uint64)
        vectorized = router(arr, num_shards)
        assert vectorized.tolist() == [
            stable_hash(int(value)) % num_shards for value in values
        ]

    @NUMERIC_ROUTERS
    def test_narrow_integer_dtypes_widen_consistently(self, num_shards, router):
        for dtype in (np.int8, np.uint8, np.int16, np.int32, np.uint32):
            arr = np.arange(-100 if np.issubdtype(dtype, np.signedinteger) else 0, 100).astype(dtype)
            vectorized = router(arr, num_shards)
            assert vectorized.tolist() == [
                stable_hash(int(value)) % num_shards for value in arr
            ]

    @NUMERIC_ROUTERS
    def test_floats_nan_and_signed_zero(self, num_shards, router):
        values = [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, 1e-308, 3.14]
        arr = np.array(values, dtype=np.float64)
        assert_agreement(arr, num_shards, router)
        if num_shards > 1:
            # +0.0 and -0.0 are different IEEE-754 bit patterns, hence
            # different keys; over many shard counts they must eventually
            # separate (they do for every count in this suite > 4).
            assert stable_hash(0.0) != stable_hash(-0.0)

    @NUMERIC_ROUTERS
    def test_bool_keys(self, num_shards, router):
        arr = np.array([True, False, True])
        vectorized = router(arr, num_shards)
        assert vectorized.tolist() == [
            stable_hash(bool(value)) % num_shards for value in arr
        ]

    @NUMERIC_ROUTERS
    @pytest.mark.parametrize("length", KERNEL_LENGTHS)
    def test_lengths_around_the_kernel_block(self, num_shards, router, length):
        keys, hashes = lengths_case()
        vectorized = router(keys[:length], num_shards)
        assert vectorized.dtype == np.int64
        assert len(vectorized) == length
        expected = (hashes[:length] % np.uint64(num_shards)).astype(np.int64)
        assert np.array_equal(vectorized, expected)

    @NUMERIC_ROUTERS
    @pytest.mark.parametrize("dtype", WIDENED_DTYPES)
    def test_widened_dtypes_and_byte_orders(self, num_shards, router, dtype):
        dtype = np.dtype(dtype)
        if dtype.kind == "f":
            arr = special_floats(dtype)
        elif dtype.kind == "b":
            arr = np.array([True, False, False, True])
        else:
            info = np.iinfo(dtype)
            arr = np.array(
                [info.min, info.min + 1, -1 if info.min else 2, 0, 1, info.max - 1, info.max],
                dtype=dtype,
            )
        assert arr.dtype == dtype
        # Widening a signalling NaN to float64 quiets it; both routers and
        # stable_hash widen the same way. The normative router warns as it
        # does so; the kernel runs on every ingest and must not.
        with warnings.catch_warnings():
            if router is _numeric_shard_ids:
                warnings.simplefilter("error", RuntimeWarning)
            else:
                warnings.simplefilter("ignore", RuntimeWarning)
            assert_agreement(arr, num_shards, router)

    @NUMERIC_ROUTERS
    def test_strided_keys(self, num_shards, router):
        keys = np.arange(-500, 500, dtype=np.int64)[::3]
        assert_agreement(keys, num_shards, router)
        assert_agreement(keys.astype(">f8"), num_shards, router)

    def test_mixed_width_unicode(self, num_shards):
        keys = ["a", "bb", "ccc", "", "héllo wörld", "日本語のキー", "a" * 100, "bb"]
        assert_agreement(keys, num_shards)
        assert_agreement(np.asarray(keys), num_shards)
        assert_agreement(np.array(keys, dtype=object), num_shards)

    def test_bytes_with_embedded_nuls(self, num_shards):
        keys = [b"a\x00b", b"ab", b"\x00leading", b"plain", b"a\x00\x00b"]
        assert_agreement(keys, num_shards)
        assert_agreement(np.array(keys, dtype=object), num_shards)

    def test_bytes_with_trailing_nuls(self, num_shards):
        # The regression case: S-dtype coercion would truncate the trailing
        # NULs and merge distinct keys; lists and object arrays must route
        # exactly as stable_hash does on the originals.
        keys = [b"user\x00", b"user", b"user\x00\x00", b"x\x00"]
        assert_agreement(keys, num_shards)
        assert_agreement(np.array(keys, dtype=object), num_shards)

    def test_strings_with_trailing_nuls(self, num_shards):
        keys = ["user\x00", "user", "tail\x00\x00", "embedded\x00mid"]
        assert_agreement(keys, num_shards)
        assert_agreement(np.array(keys, dtype=object), num_shards)

    def test_tuple_keys(self, num_shards):
        keys = [("user", 1), ("user", 2), (1.5, b"x"), (), (("nested",), 3)]
        assert_agreement(keys, num_shards)

    @NUMERIC_ROUTERS
    def test_large_mixed_sample_statistical_spread(self, num_shards, router):
        rng = np.random.default_rng(7)
        keys = rng.integers(-(2**40), 2**40, 5000)
        assert_agreement(keys, num_shards, router)


class TestFixedWidthArrayCaveat:
    """Caller-constructed S/U arrays: truncation happened before routing."""

    def test_s_dtype_arrays_route_on_element_values_consistently(self):
        # np.asarray destroyed the trailing-NUL distinction at construction
        # time (both elements store identically); the contract that *can*
        # hold — and must — is vectorized == per-element over the array.
        arr = np.asarray([b"user\x00", b"user"])
        assert arr.dtype.kind == "S"
        vectorized = shard_ids_for_keys(arr, 8)
        per_element = [stable_hash(bytes(key)) % 8 for key in arr]
        assert vectorized.tolist() == per_element
        # The lossless spellings of the same keys keep them distinct.
        as_list = shard_ids_for_keys([b"user\x00", b"user"], 8)
        assert as_list[0] != as_list[1] or stable_hash(b"user\x00") % 8 == stable_hash(b"user") % 8

    def test_exact_issue_repro(self):
        # Vectorized routing of the original keys must match stable_hash on
        # the original keys — shard_ids_for_keys may not funnel them through
        # a truncating S-dtype coercion.
        keys = [b"user\x00", b"user"]
        assert shard_ids_for_keys(keys, 8).tolist() == [
            stable_hash(b"user\x00") % 8,
            stable_hash(b"user") % 8,
        ]
        assert stable_hash(b"user\x00") != stable_hash(b"user")


def _rtbs_factory(rng):
    return RTBS(n=50, lambda_=0.1, rng=rng)


class TestServiceNumericRouting:
    """The service hashes numeric key arrays with the hot-path kernel; every
    shard must hold exactly the items the reference routes to it."""

    @pytest.mark.parametrize("num_shards", [4, 5])
    @pytest.mark.parametrize("dtype", ["<i8", ">i8", "i2", "u4", ">u8", "f4", ">f8", "?"])
    @pytest.mark.parametrize("explicit", [False, True], ids=["items", "keys"])
    def test_shards_hold_what_the_reference_routes_there(self, num_shards, dtype, explicit):
        values = np.random.default_rng(5).integers(-1000, 1000, 300)
        if explicit:
            items, keys = np.arange(300), values.astype(dtype)
        else:
            items, keys = values.astype(dtype), None
        service = SamplerService(
            lambda rng: RTBS(n=1000, lambda_=0.1, rng=rng), num_shards=num_shards, rng=3
        )
        service.ingest_batch(items, keys=keys)
        ids = shard_ids_for_keys(items if keys is None else keys, num_shards)
        held = service.shard_samples()
        for shard_id in range(num_shards):
            assert sorted(held.get(shard_id, [])) == sorted(items[ids == shard_id].tolist())

    def test_signalling_nan_keys_ingest_without_warning(self):
        items = [1, 2, 3]
        keys = np.array([0x7FA00000, 0x7F800001, 0x3F800000], dtype=np.uint32).view(np.float32)
        service = SamplerService(
            lambda rng: RTBS(n=1000, lambda_=0.1, rng=rng), num_shards=4, rng=3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            service.ingest_batch(items, keys=keys)
        with np.errstate(invalid="ignore"):
            ids = shard_ids_for_keys(keys, 4)
        held = service.shard_samples()
        for shard_id in range(4):
            expected = [items[i] for i in np.flatnonzero(ids == shard_id)]
            assert sorted(held.get(shard_id, [])) == expected


class TestIngestKeysMaterialization:
    """Regression: sized-less per-batch keys iterables must not crash ``len``."""

    def test_generator_keys_entries_are_materialized(self):
        batches = [np.arange(100), np.arange(100, 200)]
        key_lists = [[f"user-{value % 7}" for value in batch] for batch in batches]
        explicit = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        explicit.ingest(batches, keys=[list(keys) for keys in key_lists])
        lazy = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        lazy.ingest(batches, keys=[iter(keys) for keys in key_lists])
        assert lazy.sample_items() == explicit.sample_items()
        assert lazy.shard_samples() == explicit.shard_samples()

    def test_generator_keys_work_for_single_batch_ingest(self):
        service = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        service.ingest_batch(np.arange(50), keys=(value % 5 for value in range(50)))
        assert len(service) == 50

    def test_non_iterable_keys_entry_raises_a_clear_error(self):
        service = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        with pytest.raises(ValueError, match="keys must be a sequence"):
            service.ingest_batch(np.arange(10), keys=42)
        # The failed batch never advanced the clock.
        assert service.batches_seen == 0

    def test_mismatched_generator_length_still_names_the_problem(self):
        service = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        with pytest.raises(ValueError, match="one routing key per item"):
            service.ingest_batch(np.arange(10), keys=iter([1, 2, 3]))
