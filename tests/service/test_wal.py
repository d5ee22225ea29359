"""Format-level tests for the write-ahead log: framing, torn tails, corruption.

A log is a header, a base record (the paired checkpoint, opaque at this
level) and one record per batch. The reader contract under damage: a
*torn tail* (the final frame cut short — the artifact of a crash
mid-append) ends the scan at the last valid frame and is reported with
its byte offset; *corruption* (a CRC mismatch on a fully-present frame, a
malformed body, garbage headers, out-of-order sequence numbers) raises
:class:`~repro.service.WALError` naming the file and offset. No raw
``struct``/``json`` error ever escapes.
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


def _created(directory, num_shards: int = 2) -> WriteAheadLog:
    """A new log whose base record is a stand-in checkpoint at watermark -1."""
    log = WriteAheadLog.create(directory, num_shards=num_shards)
    log.truncate(-1, [b"checkpoint"], num_shards)
    return log


@pytest.fixture
def wal(tmp_path):
    log = _created(tmp_path / "wal")
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
        assert (scan.watermark, bytes(scan.base)) == (-1, b"checkpoint")
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

    def test_records_of_more_buffers_than_one_writev_takes_round_trip(self, tmp_path):
        # 400 entries and 1,100 base chunks are more than IOV_MAX (1,024)
        # buffers, so each record is written in several writev(2) groups.
        log = WriteAheadLog.create(tmp_path / "wal", num_shards=400)
        log.truncate(-1, [bytes([index % 256]) for index in range(1_100)], 400)
        routed = [(shard_id, np.arange(shard_id, shard_id + 3)) for shard_id in range(400)]
        log.append_batch(0, 1.0, routed, explicit_keys=False)
        log.close()
        scan = read_log_records(_log(log), strict=True)
        assert bytes(scan.base) == bytes(index % 256 for index in range(1_100))
        (record,) = scan.records
        assert [(shard_id, rows.tolist()) for shard_id, rows, _ in record.entries] == [
            (shard_id, rows.tolist()) for shard_id, rows in routed
        ]

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

    @pytest.mark.parametrize("version", [99, 5, 4, 1])
    def test_any_other_format_version_is_refused(self, tmp_path, version):
        # A build reads only the format it writes: newer logs and the
        # formats earlier builds wrote are refused alike.
        path = tmp_path / "other.wal"
        path.write_bytes(struct.pack("<8sHHi", b"REPROWAL", version, 1, 0))
        with pytest.raises(
            WALError, match=f"unsupported WAL format version {version}; this build reads 6"
        ):
            read_log_records(path)

    def test_out_of_order_sequence_numbers_are_corruption(self, tmp_path):
        log = _created(tmp_path / "wal", num_shards=1)
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
        log = _created(tmp_path / "wal", num_shards=4)
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
        # Every prefix, the empty one included, is well framed but must not
        # decode as a record.
        for cut in range(len(body)):
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
        _created(tmp_path / "wal").close()
        with pytest.raises(WALError, match="recover_service"):
            WriteAheadLog.create(tmp_path / "wal", num_shards=2)

    def test_create_tolerates_mid_construction_debris(self, tmp_path):
        # A segment left unswapped by a crash before the first checkpoint
        # landed is not a deployment: nothing was ever durable.
        (tmp_path / "wal").mkdir()
        (tmp_path / "wal" / "batches.wal.tmp").write_bytes(b"REPROWAL partial")
        _created(tmp_path / "wal").close()
        assert os.listdir(tmp_path / "wal") == ["batches.wal"]

    def test_attach_refuses_mismatched_shard_count(self, tmp_path):
        log = _created(tmp_path / "wal", num_shards=3)
        log.append_batch(0, 1.0, [(0, np.arange(3))], explicit_keys=False)
        log.close()
        with pytest.raises(WALLayoutError, match="3-shard"):
            WriteAheadLog.attach(tmp_path / "wal", num_shards=5)

    @pytest.mark.parametrize("cut", [5, 20, 30], ids=["header", "frame", "base"])
    def test_attach_refuses_a_torn_head(self, wal, cut):
        # The head is written whole before it is swapped in, so a short one
        # is damage, not a crash artifact.
        wal.append_batch(0, 1.0, _routed(np.arange(10)), explicit_keys=False)
        wal.close()
        with open(_log(wal), "r+b") as fh:
            fh.truncate(cut)
        with pytest.raises(WALError, match="torn write"):
            WriteAheadLog.attach(wal.directory, num_shards=2)

    def test_truncate_starts_a_fresh_segment_whose_base_is_the_checkpoint(self, wal):
        for seq in range(5):
            wal.append_batch(seq, float(seq + 1), _routed(np.arange(20)), explicit_keys=False)
        wal.truncate(4, [b"cut at ", b"batch 4"], 3)
        scan = read_log_records(_log(wal), strict=True)
        assert scan.records == [] and scan.num_shards == 3
        assert (scan.watermark, bytes(scan.base)) == (4, b"cut at batch 4")
        assert wal.watermark == 4
        # The segment holds nothing but its head, and nothing else is left.
        assert os.path.getsize(_log(wal)) == 14 + 8 + 8 + len(b"cut at batch 4")
        assert os.listdir(wal.directory) == ["batches.wal"]
        # Appends continue behind the new base; one at or below its
        # watermark reads as out of order.
        wal.append_batch(5, 6.0, [(2, np.arange(20))], explicit_keys=False)
        wal.flush()
        assert [record.seq for record in read_log_records(_log(wal)).records] == [5]
        wal.append_batch(4, 7.0, [], explicit_keys=False)
        with pytest.raises(WALError, match="sequence 4 is not after 5"):
            read_log_records(_log(wal))


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
