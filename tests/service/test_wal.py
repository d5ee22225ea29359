"""Format-level tests for the write-ahead log: framing, torn tails, corruption.

The reader contract under damage: a *torn tail* (the final frame cut short —
the artifact of a crash mid-append) ends the scan at the last valid frame
and is reported with its byte offset; *corruption* (a CRC mismatch on a
fully-present frame, a malformed body, garbage headers, out-of-order
sequence numbers) raises :class:`~repro.service.WALError` naming the file
and offset. No raw ``struct``/``json`` error ever escapes.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.service import WALError, WALLayoutError, WriteAheadLog
from repro.service.wal import read_log_records


def _routed(batch: np.ndarray, num_shards: int = 2):
    return [(int(index % num_shards), batch[index::num_shards]) for index in range(num_shards)]


def _log(wal) -> str:
    return os.path.join(wal.directory, "batches.wal")


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog.create(tmp_path / "wal", num_shards=2)
    yield log
    log.close()


class TestRoundTrip:
    def test_batch_records_round_trip(self, wal):
        batches = [np.arange(10) + 100 * seq for seq in range(3)]
        for seq, batch in enumerate(batches):
            wal.append_batch(seq, float(seq + 1), _routed(batch), explicit_keys=False)
        wal.flush()
        scan = read_log_records(_log(wal))
        assert scan.num_shards == 2 and scan.torn is None
        assert [record.seq for record in scan.records] == [0, 1, 2]
        assert [record.time for record in scan.records] == [1.0, 2.0, 3.0]
        for record, batch in zip(scan.records, batches):
            assert [shard_id for shard_id, _, _ in record.entries] == [0, 1]
            for shard_id, rows, arrivals in record.entries:
                np.testing.assert_array_equal(rows, batch[shard_id::2])
                assert rows.dtype == batch.dtype and arrivals is None

    def test_planned_entries_keep_their_arrival_counts(self, wal):
        wal.append_batch(
            0, 1.0, [(0, np.arange(3), 50), (1, np.arange(0), 7)], explicit_keys=False
        )
        wal.flush()
        (record,) = read_log_records(_log(wal)).records
        assert [(shard, len(rows), count) for shard, rows, count in record.entries] == [
            (0, 3, 50),
            (1, 0, 7),
        ]

    @pytest.mark.parametrize(
        "batch",
        [
            np.arange(6, dtype=np.int64),
            np.linspace(0.0, 1.0, 7),
            np.array(["alpha", "beta", "gamma"]),
            np.array([b"raw", b"bytes"]),
            np.array([3, "mixed", (1, 2)][:2] + [[5, 6]], dtype=object),
            np.array(
                [(1, 2.5), (3, 4.5)], dtype=[("a", "<i8"), ("b", "<f8")]
            ),
        ],
        ids=["int64", "float64", "unicode", "bytes", "object", "structured"],
    )
    def test_every_payload_dtype_round_trips(self, wal, batch):
        wal.append_batch(0, 1.0, [(0, batch)], explicit_keys=False)
        wal.flush()
        (record,) = read_log_records(_log(wal)).records
        ((_, rows, _),) = record.entries
        assert rows.dtype == batch.dtype
        assert rows.tolist() == batch.tolist()

    def test_explicit_keys_flag_round_trips(self, wal):
        wal.append_batch(0, 1.0, [], explicit_keys=False)
        wal.append_batch(1, 2.0, [], explicit_keys=True)
        wal.flush()
        scan = read_log_records(_log(wal))
        assert [record.flags & 1 for record in scan.records] == [0, 1]

    def test_empty_batch_is_a_record_with_no_entries(self, wal):
        wal.append_batch(0, 1.0, [], explicit_keys=False)
        wal.flush()
        (record,) = read_log_records(_log(wal)).records
        assert (record.seq, record.time, record.entries) == (0, 1.0, [])
        # One log holds every batch: no other file appears.
        assert os.listdir(wal.directory) == ["batches.wal"]


class TestTornTails:
    def _filled(self, wal) -> str:
        for seq in range(3):
            wal.append_batch(seq, float(seq + 1), _routed(np.arange(40)), explicit_keys=False)
        wal.close()
        return _log(wal)

    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_truncated_tail_stops_at_last_valid_frame(self, wal, cut):
        path = self._filled(wal)
        data = Path(path).read_bytes()
        scan = read_log_records(path)
        # Cut inside the final frame (three variants: mid-body, just past
        # the frame header, mid-header).
        cut_at = scan.records[-1].start + cut
        with open(path, "wb") as fh:
            fh.write(data[:cut_at])
        damaged = read_log_records(path)
        assert [record.seq for record in damaged.records] == [0, 1]
        assert damaged.torn is not None
        assert damaged.torn.offset == scan.records[-1].start

    def test_strict_reader_raises_naming_file_and_offset(self, wal):
        path = self._filled(wal)
        data = Path(path).read_bytes()
        scan = read_log_records(path)
        with open(path, "wb") as fh:
            fh.write(data[: scan.records[-1].start + 5])
        with pytest.raises(WALError, match="torn write"):
            read_log_records(path, strict=True)
        with pytest.raises(WALError, match=f"offset {scan.records[-1].start}"):
            read_log_records(path, strict=True)
        with pytest.raises(WALError, match=os.path.basename(path)):
            read_log_records(path, strict=True)

    def test_file_shorter_than_header_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "stub.wal"
        path.write_bytes(b"REPROWA")  # 7 bytes: even the magic is cut short
        scan = read_log_records(path)
        assert scan.records == [] and scan.torn is not None
        with pytest.raises(WALError, match="torn write at offset 0"):
            read_log_records(path, strict=True)

    def test_a_torn_record_never_committed_and_the_next_append_overwrites_it(
        self, wal
    ):
        path = self._filled(wal)
        data = Path(path).read_bytes()
        last = read_log_records(path).records[-1]
        with open(path, "wb") as fh:
            fh.write(data[: last.start + 30])
        attached = WriteAheadLog.attach(wal.directory, num_shards=2)
        plan = attached.collect_replay(-1)
        assert plan.last_seq == 1 and [len(b) for b, _ in plan.per_shard.values()] == [2, 2]
        attached.append_batch(2, 9.0, _routed(np.arange(4)), explicit_keys=False)
        attached.close()
        scan = read_log_records(path, strict=True)
        assert [(record.seq, record.time) for record in scan.records] == [
            (0, 1.0),
            (1, 2.0),
            (2, 9.0),
        ]


class TestCorruption:
    def _filled(self, wal) -> str:
        for seq in range(4):
            wal.append_batch(seq, float(seq + 1), _routed(np.arange(60)), explicit_keys=False)
        wal.close()
        return _log(wal)

    def test_bit_flip_mid_log_raises_crc_error_with_offset(self, wal):
        path = self._filled(wal)
        scan = read_log_records(path)
        target = scan.records[1]
        data = bytearray(Path(path).read_bytes())
        data[target.start + 12] ^= 0xFF  # flip a body byte of record 1
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(WALError, match="CRC mismatch"):
            read_log_records(path)
        with pytest.raises(WALError, match=f"offset {target.start}"):
            read_log_records(path)
        # Corruption below the tail is never tolerated, strict or not.
        with pytest.raises(WALError):
            read_log_records(path, strict=False)

    def test_garbage_file_is_not_a_wal(self, tmp_path):
        path = tmp_path / "noise.wal"
        path.write_bytes(b"definitely not a log" * 4)
        with pytest.raises(WALError, match="bad magic"):
            read_log_records(path)

    @pytest.mark.parametrize("version", [99, 4, 1])
    def test_any_other_format_version_is_refused(self, tmp_path, version):
        # A build reads only the format it writes: newer logs and the
        # formats earlier builds wrote are refused alike.
        path = tmp_path / "other.wal"
        path.write_bytes(struct.pack("<8sHHi", b"REPROWAL", version, 1, 0))
        with pytest.raises(
            WALError, match=f"unsupported WAL format version {version}; this build reads 5"
        ):
            read_log_records(path)

    def test_out_of_order_sequence_numbers_are_corruption(self, tmp_path):
        log = WriteAheadLog.create(tmp_path / "wal", num_shards=1)
        log.append_batch(5, 1.0, [(0, np.arange(3))], explicit_keys=False)
        log.append_batch(6, 2.0, [(0, np.arange(3))], explicit_keys=False)
        log.close()
        path = _log(log)
        data = Path(path).read_bytes()
        scan = read_log_records(path)
        first = data[scan.records[0].start : scan.records[0].end]
        second = data[scan.records[1].start : scan.records[1].end]
        with open(path, "wb") as fh:  # swap the two records
            fh.write(data[: scan.records[0].start] + second + first)
        with pytest.raises(WALError, match="not after"):
            read_log_records(path)

    @staticmethod
    def _reframed(path: str, head: bytes, body: bytes) -> None:
        """Write a log holding one frame around ``body``, its CRC recomputed."""
        with open(path, "wb") as fh:
            fh.write(head + struct.pack("<II", len(body), zlib.crc32(body)) + body)

    def test_every_proper_prefix_of_a_record_is_refused(self, tmp_path):
        log = WriteAheadLog.create(tmp_path / "wal", num_shards=4)
        log.append_batch(
            0,
            1.0,
            [
                (0, np.arange(5), 40),
                (1, np.array(["a", "bc"])),
                (2, np.array([1, "x"], dtype=object), 9),
                (3, np.array([(1, 2.5)], dtype=[("a", "<i8"), ("b", "<f8")])),
            ],
            explicit_keys=True,
        )
        log.close()
        path = _log(log)
        data = Path(path).read_bytes()
        (record,) = read_log_records(path).records
        head, body = data[: record.start], data[record.start + 8 : record.end]
        # A cut at 0 is the zero-length terminator, not a record; every
        # other prefix is well framed but must not decode as a record.
        for cut in range(1, len(body)):
            self._reframed(path, head, body[:cut])
            with pytest.raises(WALError, match="offset"):
                read_log_records(path)
        self._reframed(path, head, body + b"\x00")
        with pytest.raises(WALError, match="1 bytes past its 4 entries"):
            read_log_records(path)
        self._reframed(path, head, body)
        assert len(read_log_records(path, strict=True).records[0].entries) == 4

    @pytest.mark.parametrize(
        "routed,message",
        [
            ([(1, np.arange(3)), (1, np.arange(2))], "shard 1 of 2 after shard 1"),
            ([(1, np.arange(3)), (0, np.arange(2))], "shard 0 of 2 after shard 1"),
            ([(2, np.arange(3))], "shard 2 of 2 after shard -1"),
            ([(0, np.arange(5), 3)], "shard 0 of 2 after shard -1 .5 items, arrivals 3"),
        ],
        ids=["repeated", "unordered", "foreign", "more-rows-than-arrivals"],
    )
    def test_a_malformed_entry_is_refused(self, wal, routed, message):
        wal.append_batch(0, 1.0, routed, explicit_keys=False)
        wal.close()
        with pytest.raises(WALError, match=f"malformed entry for {message}"):
            read_log_records(_log(wal))


class TestLifecycle:
    def test_create_refuses_a_deployments_directory(self, tmp_path):
        log = WriteAheadLog.create(tmp_path / "wal", num_shards=2)
        log.append_batch(0, 1.0, [(0, np.arange(3))], explicit_keys=False)
        log.close()
        with pytest.raises(WALError, match="recover_service"):
            WriteAheadLog.create(tmp_path / "wal", num_shards=2)

    def test_create_tolerates_mid_construction_debris(self, tmp_path):
        # A checkpoint directory with no manifest (crash before the first
        # swap) is not a deployment: nothing was ever durable.
        (tmp_path / "wal" / "checkpoint").mkdir(parents=True)
        (tmp_path / "wal" / "checkpoint" / "service-abc").mkdir()
        WriteAheadLog.create(tmp_path / "wal", num_shards=2).close()

    def test_attach_refuses_mismatched_shard_count(self, tmp_path):
        log = WriteAheadLog.create(tmp_path / "wal", num_shards=3)
        log.append_batch(0, 1.0, [(0, np.arange(3))], explicit_keys=False)
        log.close()
        with pytest.raises(WALLayoutError, match="3-shard"):
            WriteAheadLog.attach(tmp_path / "wal", num_shards=5)

    def test_attach_normalizes_an_empty_log_of_another_layout(self, tmp_path):
        # reshard's crash window: the new layout's empty log was swapped in,
        # but the manifest still restores the old layout.
        WriteAheadLog.create(tmp_path / "wal", num_shards=3).close()
        attached = WriteAheadLog.attach(tmp_path / "wal", num_shards=5)
        attached.append_batch(0, 1.0, [(4, np.arange(3))], explicit_keys=False)
        attached.close()
        scan = read_log_records(_log(attached), strict=True)
        assert scan.num_shards == 5 and [r.seq for r in scan.records] == [0]

    @pytest.mark.parametrize("damage", ["deleted", "header-torn"])
    def test_attach_refuses_a_missing_log(self, wal, damage):
        wal.append_batch(0, 1.0, _routed(np.arange(10)), explicit_keys=False)
        wal.close()
        if damage == "deleted":
            os.unlink(_log(wal))
        else:
            with open(_log(wal), "r+b") as fh:
                fh.truncate(5)
        with pytest.raises(WALLayoutError, match="batches.wal is missing"):
            WriteAheadLog.attach(wal.directory, num_shards=2)

    def test_truncate_recycles_the_segment_in_place(self, wal):
        for seq in range(5):
            wal.append_batch(seq, float(seq + 1), _routed(np.arange(20)), explicit_keys=False)
        size = os.path.getsize(_log(wal))
        wal.truncate()
        assert read_log_records(_log(wal)).records == []
        # The segment keeps its length (and its warm pages) ...
        assert os.path.getsize(_log(wal)) == size
        # ... and appends continue seamlessly after a truncation.
        wal.append_batch(5, 6.0, _routed(np.arange(20)), explicit_keys=False)
        wal.flush()
        assert [record.seq for record in read_log_records(_log(wal)).records] == [5]


class TestCollectReplay:
    def test_each_shard_gets_its_entries_in_batch_order(self, wal):
        wal.append_batch(0, 1.0, [(1, np.arange(4), 9)], explicit_keys=False)
        wal.append_batch(1, 2.0, [], explicit_keys=True)
        wal.append_batch(2, 3.0, _routed(np.arange(6)), explicit_keys=False)
        wal.close()
        plan = WriteAheadLog.attach(wal.directory, num_shards=2).collect_replay(0)
        assert (plan.last_seq, plan.last_time, plan.explicit_keys) == (2, 3.0, True)
        assert sorted(plan.per_shard) == [0, 1]
        assert plan.per_shard[1][1] == [3.0] and plan.arrivals[1] == [None]
        np.testing.assert_array_equal(plan.per_shard[1][0][0], np.arange(6)[1::2])
        everything = WriteAheadLog.attach(wal.directory, num_shards=2).collect_replay(-1)
        assert everything.per_shard[1][1] == [1.0, 3.0]
        assert everything.arrivals[1] == [9, None]

    def test_commit_gap_raises(self, wal):
        for seq in (0, 1, 2):
            wal.append_batch(seq, float(seq + 1), _routed(np.arange(10)), explicit_keys=False)
        wal.close()
        path = _log(wal)
        data = Path(path).read_bytes()
        scan = read_log_records(path)
        middle = scan.records[1]
        with open(path, "wb") as fh:  # excise the middle record
            fh.write(data[: middle.start] + data[middle.end :])
        attached = WriteAheadLog.attach(wal.directory, num_shards=2)
        with pytest.raises(WALError, match="jump"):
            attached.collect_replay(-1)
