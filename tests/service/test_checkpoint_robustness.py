"""Robustness tests: damaged checkpoint directories fail loudly and clearly.

A truncated or partially-copied checkpoint (missing array archive, corrupt
manifest JSON, mismatched manifest/archive pair) must raise
:class:`~repro.service.CheckpointError` naming the bad file — never a raw
``KeyError``/``JSONDecodeError`` stack trace — and the crash-safe overwrite
protocol must never produce such a directory on its own.
"""

from __future__ import annotations

import gc
import json
import os
import struct
import zlib

import numpy as np
import pytest

from repro.core import RTBS
from repro.core.base import CHECKPOINT_MANIFEST_VERSION
from repro.service import (
    CheckpointError,
    MissingCheckpointError,
    SamplerService,
    WALError,
    load_checkpoint,
    load_sampler,
    load_service,
    load_service_delta,
    recover_service,
    save_sampler,
    save_service,
)


@pytest.fixture
def checkpoint_dir(tmp_path):
    sampler = RTBS(n=30, lambda_=0.2, rng=0)
    sampler.process_batch(np.arange(200))
    directory = tmp_path / "ckpt"
    save_sampler(sampler, directory)
    return directory


class TestDamagedCheckpoints:
    def test_missing_directory_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope")
        # ... and also a CheckpointError, for callers catching broadly.
        with pytest.raises(MissingCheckpointError):
            load_checkpoint(tmp_path / "nope")

    def test_missing_array_archive_names_the_file(self, checkpoint_dir):
        (archive,) = checkpoint_dir.glob("arrays-*.npz")
        archive.unlink()
        with pytest.raises(CheckpointError, match=str(archive)):
            load_sampler(checkpoint_dir)

    def test_truncated_manifest_names_the_file(self, checkpoint_dir):
        manifest = checkpoint_dir / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="manifest.json"):
            load_sampler(checkpoint_dir)
        with pytest.raises(CheckpointError, match="truncated or partially copied"):
            load_sampler(checkpoint_dir)

    def test_manifest_missing_keys_is_rejected(self, checkpoint_dir):
        manifest = checkpoint_dir / "manifest.json"
        manifest.write_text(json.dumps({"state": {}}))
        with pytest.raises(CheckpointError, match="'arrays_file' and 'state'"):
            load_checkpoint(checkpoint_dir)
        manifest.write_text(json.dumps(["not", "a", "mapping"]))
        with pytest.raises(CheckpointError, match="expected a mapping"):
            load_checkpoint(checkpoint_dir)

    def test_corrupt_archive_names_the_file(self, checkpoint_dir):
        (archive,) = checkpoint_dir.glob("arrays-*.npz")
        archive.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match=archive.name):
            load_sampler(checkpoint_dir)

    def test_bit_rotted_archive_member_names_the_file(self, checkpoint_dir):
        # Damage *inside* the zip (intact central directory, bad member
        # CRC): NpzFile only notices while lazily decompressing during
        # decode, a different failure point than opening the archive.
        (archive,) = checkpoint_dir.glob("arrays-*.npz")
        data = bytearray(archive.read_bytes())
        middle = len(data) // 2
        data[middle : middle + 64] = b"\xff" * 64
        archive.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=archive.name):
            load_sampler(checkpoint_dir)

    def test_truncated_archive_names_the_file(self, checkpoint_dir):
        # A zip cut off mid-way raises zipfile.BadZipFile inside np.load —
        # a different exception family than non-zip garbage, and the
        # realistic partial-copy failure mode.
        (archive,) = checkpoint_dir.glob("arrays-*.npz")
        data = archive.read_bytes()
        archive.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match=archive.name):
            load_sampler(checkpoint_dir)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open files"
    )
    def test_truncated_archive_leaves_no_file_open(self, checkpoint_dir):
        (archive,) = checkpoint_dir.glob("arrays-*.npz")
        data = archive.read_bytes()
        archive.write_bytes(data[: len(data) // 2])
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(CheckpointError) as excinfo:
            load_sampler(checkpoint_dir)
        # Counted while the error (and the traceback holding its frames) is
        # still alive, so a handle only its frames still reference counts.
        assert len(os.listdir("/proc/self/fd")) == before, excinfo.value

    def test_mismatched_archive_reports_dangling_reference(self, checkpoint_dir):
        # A manifest paired with an archive from a *different* save: the
        # array names do not line up.
        (archive,) = checkpoint_dir.glob("arrays-*.npz")
        with open(archive, "wb") as fh:
            np.savez_compressed(fh, unrelated=np.arange(3))
        with pytest.raises(CheckpointError, match="different saves"):
            load_sampler(checkpoint_dir)

    def test_checkpoint_error_is_not_raised_for_healthy_directories(self, checkpoint_dir):
        restored = load_sampler(checkpoint_dir)
        assert restored.batches_seen == 1


class TestCrashSafeOverwriteNeverDamages:
    def test_interrupted_rewrites_leave_a_loadable_checkpoint(self, tmp_path):
        """Repeated overwrites plus leftover crash debris still load cleanly.

        The save protocol writes the new archive first, swaps the manifest
        atomically, then garbage-collects; stray ``.tmp`` files and
        superseded archives from simulated crashes must never break a load.
        """
        sampler = RTBS(n=30, lambda_=0.2, rng=0)
        directory = tmp_path / "ckpt"
        for round_index in range(3):
            sampler.process_batch(np.arange(round_index * 100, (round_index + 1) * 100))
            save_sampler(sampler, directory)
            # Simulate a crashed writer: orphan temp + orphan archive.
            (directory / "arrays-orphan.npz.tmp").write_bytes(b"partial")
            (directory / "manifest-orphan.tmp").write_text("{")
            restored = load_sampler(directory)
            assert restored.sample_items() == sampler.sample_items()
        # The next successful save garbage-collects the debris.
        save_sampler(sampler, directory)
        assert not list(directory.glob("*.tmp"))
        assert len(list(directory.glob("arrays-*.npz"))) == 1


class TestManifestVersioning:
    def test_classic_manifest_records_the_format_version(self, checkpoint_dir):
        manifest = json.loads((checkpoint_dir / "manifest.json").read_text())
        assert manifest["manifest_version"] == CHECKPOINT_MANIFEST_VERSION

    def test_classic_manifest_from_the_future_is_refused(self, checkpoint_dir):
        manifest_path = checkpoint_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["manifest_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="unsupported manifest_version 99"):
            load_checkpoint(checkpoint_dir)

    def test_versionless_legacy_manifest_is_refused(self, tmp_path):
        # Manifests written before versioning carry no marker; a build reads
        # only the version it writes, so they are refused.
        service = SamplerService(
            lambda rng: RTBS(n=20, lambda_=0.2, rng=rng), num_shards=2, rng=3
        )
        service.ingest_batch(np.arange(300))
        directory = tmp_path / "classic"
        save_service(service, directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["manifest_version"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="has no manifest_version"):
            load_service(directory, lambda rng: RTBS(n=20, lambda_=0.2, rng=rng))


def _factory():
    return lambda rng: RTBS(n=20, lambda_=0.2, rng=rng)


@pytest.fixture
def paired_log(tmp_path):
    """The log of a WAL directory whose base is a 4-shard cut at batch 3."""
    service = SamplerService(_factory(), num_shards=4, rng=3, wal_dir=tmp_path / "wal")
    for start in range(0, 4):
        service.ingest_batch(np.arange(start * 300, (start + 1) * 300))
    service.checkpoint()
    service.close()
    return tmp_path / "wal" / "batches.wal"


class TestDamagedPairedCheckpoints:
    """The paired checkpoint is the log's base record: damage is a WALError."""

    _HEAD = 14 + 8  # log header, then the base record's frame

    def test_paired_checkpoint_of_another_format_is_refused(self, paired_log):
        data = bytearray(paired_log.read_bytes())
        struct.pack_into("<H", data, 8, 99)
        paired_log.write_bytes(bytes(data))
        with pytest.raises(WALError, match="unsupported WAL format version 99"):
            load_service_delta(paired_log.parent)

    def test_a_bit_flip_in_the_base_record_is_a_crc_error(self, paired_log):
        data = bytearray(paired_log.read_bytes())
        data[self._HEAD + 40] ^= 0xFF
        paired_log.write_bytes(bytes(data))
        with pytest.raises(WALError, match="CRC mismatch at offset 14"):
            load_service_delta(paired_log.parent)

    def test_corrupt_base_record_is_not_a_json_error(self, paired_log):
        # A base whose JSON was cut short, re-framed with a valid CRC: the
        # decoder refuses it with a named error, not a raw JSONDecodeError.
        data = paired_log.read_bytes()
        (length,) = struct.unpack_from("<I", data, 14)
        body = data[self._HEAD : self._HEAD + length]
        text_length, count = struct.unpack_from("<QI", body, 8)
        text = body[20 : 20 + text_length]
        damaged = (
            body[:8]
            + struct.pack("<QI", len(text) // 2, count)
            + text[: len(text) // 2]
            + body[20 + text_length :]
        )
        paired_log.write_bytes(
            data[:14]
            + struct.pack("<II", len(damaged), zlib.crc32(damaged))
            + damaged
            + data[self._HEAD + length :]
        )
        with pytest.raises(WALError, match="base record is undecodable"):
            load_service_delta(paired_log.parent)

    def test_unswapped_crash_debris_is_replaced_by_the_next_save(self, paired_log):
        # A segment that a writer left unswapped — it died before the
        # replace — never breaks a load, and the next checkpoint replaces it.
        wal_dir = paired_log.parent
        (wal_dir / "batches.wal.tmp").write_bytes(b"REPROWAL partial")
        state, watermark = load_service_delta(wal_dir)
        assert watermark == 3 and state["batches_seen"] == 4
        service = recover_service(wal_dir, _factory())
        try:
            service.ingest_batch(np.arange(100))
            service.checkpoint()
        finally:
            service.close()
        assert os.listdir(wal_dir) == ["batches.wal"]
        assert load_service_delta(wal_dir)[1] == 4
