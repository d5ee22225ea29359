"""Format-level tests for the write-ahead log: framing, torn tails, corruption.

The reader contract under damage: a *torn tail* (the final frame cut short —
the artifact of a crash mid-append) ends the scan at the last valid frame
and is reported with its byte offset; *corruption* (a CRC mismatch on a
fully-present frame, garbage headers, out-of-order sequence numbers) raises
:class:`~repro.service.WALError` naming the file and offset. No raw
``struct``/``json`` error ever escapes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.service import WALError, WALLayoutError, WriteAheadLog
from repro.service.wal import read_log_records


def _routed(batch: np.ndarray, num_shards: int = 2):
    return [(int(index % num_shards), batch[index::num_shards]) for index in range(num_shards)]


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog.create(tmp_path / "wal", num_shards=2)
    yield log
    log.close()


class TestRoundTrip:
    def test_shard_and_commit_records_round_trip(self, wal):
        batches = [np.arange(10) + 100 * seq for seq in range(3)]
        for seq, batch in enumerate(batches):
            wal.append_batch(seq, float(seq + 1), _routed(batch), explicit_keys=False)
        wal.flush()
        commit = read_log_records(os.path.join(wal.directory, "commit.wal"))
        assert [record.seq for record in commit.records] == [0, 1, 2]
        assert [record.time for record in commit.records] == [1.0, 2.0, 3.0]
        assert commit.torn is None
        shard0 = read_log_records(os.path.join(wal.directory, "shard-00000.wal"))
        for record, batch in zip(shard0.records, batches):
            np.testing.assert_array_equal(record.payload, batch[0::2])
            assert record.payload.dtype == batch.dtype

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
        scan = read_log_records(os.path.join(wal.directory, "shard-00000.wal"))
        (record,) = scan.records
        assert record.payload.dtype == batch.dtype
        assert record.payload.tolist() == batch.tolist()

    def test_explicit_keys_flag_round_trips(self, wal):
        wal.append_batch(0, 1.0, [], explicit_keys=False)
        wal.append_batch(1, 2.0, [], explicit_keys=True)
        wal.flush()
        scan = read_log_records(os.path.join(wal.directory, "commit.wal"))
        assert [record.flags & 1 for record in scan.records] == [0, 1]

    def test_empty_batch_is_commit_only(self, wal):
        wal.append_batch(0, 1.0, [], explicit_keys=False)
        wal.flush()
        assert len(read_log_records(os.path.join(wal.directory, "commit.wal")).records) == 1
        # No shard record was ever written: the segment (eagerly created
        # with every other one at create()) holds only its header.
        assert read_log_records(os.path.join(wal.directory, "shard-00000.wal")).records == []


class TestTornTails:
    def _filled(self, wal) -> str:
        for seq in range(3):
            wal.append_batch(seq, float(seq + 1), _routed(np.arange(40)), explicit_keys=False)
        wal.close()
        return os.path.join(wal.directory, "shard-00001.wal")

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


class TestCorruption:
    def _filled(self, wal) -> str:
        for seq in range(4):
            wal.append_batch(seq, float(seq + 1), _routed(np.arange(60)), explicit_keys=False)
        wal.close()
        return os.path.join(wal.directory, "shard-00000.wal")

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

    @pytest.mark.parametrize("version", [99, 3, 1])
    def test_any_other_format_version_is_refused(self, tmp_path, version):
        # A build reads only the format it writes: newer logs and the
        # formats earlier builds wrote are refused alike.
        path = tmp_path / "other.wal"
        path.write_bytes(struct.pack("<8sHHi", b"REPROWAL", version, 1, 0))
        with pytest.raises(
            WALError, match=f"unsupported WAL format version {version}; this build reads 4"
        ):
            read_log_records(path)

    def test_out_of_order_sequence_numbers_are_corruption(self, tmp_path):
        log = WriteAheadLog.create(tmp_path / "wal", num_shards=1)
        log.append_batch(5, 1.0, [(0, np.arange(3))], explicit_keys=False)
        log.append_batch(6, 2.0, [(0, np.arange(3))], explicit_keys=False)
        log.close()
        path = os.path.join(log.directory, "shard-00000.wal")
        data = Path(path).read_bytes()
        scan = read_log_records(path)
        first = data[scan.records[0].start : scan.records[0].end]
        second = data[scan.records[1].start : scan.records[1].end]
        with open(path, "wb") as fh:  # swap the two records
            fh.write(data[: scan.records[0].start] + second + first)
        with pytest.raises(WALError, match="not after"):
            read_log_records(path)


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
        with pytest.raises(WALError, match="3-shard"):
            WriteAheadLog.attach(tmp_path / "wal", num_shards=5)

    def test_truncate_drops_records_at_or_below_watermark(self, wal):
        for seq in range(5):
            wal.append_batch(seq, float(seq + 1), _routed(np.arange(20)), explicit_keys=False)
        wal.truncate(2)
        commit = read_log_records(os.path.join(wal.directory, "commit.wal"))
        assert [record.seq for record in commit.records] == [3, 4]
        shard = read_log_records(os.path.join(wal.directory, "shard-00000.wal"))
        assert [record.seq for record in shard.records] == [3, 4]
        # Appends continue seamlessly after a truncation.
        wal.append_batch(5, 6.0, _routed(np.arange(20)), explicit_keys=False)
        wal.flush()
        commit = read_log_records(os.path.join(wal.directory, "commit.wal"))
        assert [record.seq for record in commit.records] == [3, 4, 5]


class TestCollectReplay:
    def test_uncommitted_shard_records_are_orphans(self, wal):
        from repro.service.wal import _encode_payload

        wal.append_batch(0, 1.0, _routed(np.arange(20)), explicit_keys=False)
        # Simulate the crash window: shard record written, commit never was.
        encoding, chunks = _encode_payload(np.arange(5))
        wal._shards[0].append(
            [struct.pack("<Qd", 1, 2.0), bytes([encoding]), *chunks]
        )
        wal.close()
        plan = WriteAheadLog.attach(wal.directory, num_shards=2).collect_replay(-1)
        assert plan.last_seq == 0
        assert plan.orphaned_shards == [0]
        assert sorted(plan.per_shard) == [0, 1]
        (batches, times) = plan.per_shard[0]
        assert len(batches) == 1 and times == [1.0]

    def test_commit_gap_raises(self, wal):
        for seq in (0, 1, 2):
            wal.append_batch(seq, float(seq + 1), _routed(np.arange(10)), explicit_keys=False)
        wal.close()
        path = os.path.join(wal.directory, "commit.wal")
        data = Path(path).read_bytes()
        scan = read_log_records(path)
        middle = scan.records[1]
        with open(path, "wb") as fh:  # excise the middle commit
            fh.write(data[: middle.start] + data[middle.end :])
        attached = WriteAheadLog.attach(wal.directory, num_shards=2)
        with pytest.raises(WALError, match="jump"):
            attached.collect_replay(-1)

    def test_shard_record_without_any_commit_refuses_attach(self, wal):
        # A deleted (or never-copied) commit log must not silently orphan
        # every shard record — their committed prefix is unknowable, so
        # attach refuses with a named layout error instead of quietly
        # dropping committed data as "uncommitted".
        wal.append_batch(0, 1.0, _routed(np.arange(10)), explicit_keys=False)
        wal.close()
        os.unlink(os.path.join(wal.directory, "commit.wal"))
        with pytest.raises(WALLayoutError, match="commit.wal is missing"):
            WriteAheadLog.attach(wal.directory, num_shards=2)
