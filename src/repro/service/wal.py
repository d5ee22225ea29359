"""Write-ahead logging for durable :class:`SamplerService` deployments.

The service's directory checkpoints are exact but O(sample) per snapshot; a
production stream cannot afford one per batch, and a crash between
checkpoints would silently lose every batch since the last one. This module
closes that gap: every batch is appended to an on-disk log *before* it is
dispatched to the shard samplers, so recovery is

    last delta checkpoint  +  replay of the log tail,

and by the engine's determinism contract (serial/process backends are
bit-identical for a fixed seed) the replayed service is bit-identical to an
uninterrupted run — not merely statistically equivalent.

Layout of a WAL directory
-------------------------

::

    wal_dir/
      batches.wal       one record per ingested batch, in batch order
      checkpoint/       the paired delta checkpoint (see repro.service.checkpoint)

Each batch is written as one record: the batch's global sequence number,
arrival time and an explicit-keys flag, then one entry per receiving shard
holding that shard's routed sub-batch. The record's frame is the commit
point: a batch whose record is absent or torn (a crash mid-append) never
committed and is discarded on recovery as if it never arrived, so a
multi-shard batch can never be half-applied.

Record framing
--------------

The log starts with a 14-byte header (magic, format version, shard count)
followed by length-prefixed, CRC32-framed records::

    <u32 body_length> <u32 crc32(body)> <body>

A body is ``(seq: u64, time: f64, flags: u8, entries: u32)`` followed by
that many shard entries, each ``(shard_id: u32, arrivals: u64,
encoding: u8)`` plus one encoded payload array (raw fixed-width bytes for
simple dtypes, ``.npy`` for exotic ones, JSON for object arrays — never
pickle, matching the checkpoint layer's trust model; object payloads
round-trip through JSON semantics, so tuples come back as lists, exactly as
they do through a directory checkpoint). ``arrivals`` is a *planned*
entry's arrival count: the entry holds only the arrivals the driver
accepted for the shard (see :meth:`~repro.core.base.Sampler.ingest_stream`).
The all-ones value marks an unplanned entry, which holds the shard's whole
sub-batch and replays as an ordinary batch. An empty batch is a record with
no entries. Every field is always present and every payload states its
length, so a body decodes to exactly its own length or is refused: a record
cut short and re-framed never passes for a shorter one.

A zero-length frame is a *terminator*: the log segment is recycled —
truncation at a checkpoint rewrites the terminator at the head of the file
rather than shrinking it, so steady-state appends overwrite the segment's
warm pages instead of paying the kernel's first-touch cost for fresh ones
(the same reason production databases recycle redo-log segments). Replay
stops at the terminator; stale frame bytes beyond it are invisible.

A *torn tail* — fewer bytes than the last frame promises, the crash artifact
of an interrupted append — ends replay at the last valid frame and is
reported, not fatal; the next append overwrites the debris. A CRC mismatch
on a fully-present frame is *corruption* (bit rot, a partial copy) and
raises :class:`WALError` naming the file and byte offset; no raw
``struct``/``json`` error ever escapes this module. A log missing under a
checkpoint manifest, or one whose header names another shard count while it
holds records, raises :class:`WALLayoutError` on
:meth:`WriteAheadLog.attach` instead of silently recovering less than was
committed.

Fsync policy
------------

``"always"`` fsyncs the log once per batch (durable against power loss);
``"os"`` (default) hands every batch to the kernel per append (durable
against process crash; the page cache orders completed writes); ``"none"``
promises only flush()/checkpoint/close durability — records still reach the
page cache per append (the writes are unbuffered), but no per-batch ordering
or fsync work is done on their behalf. See docs/ARCHITECTURE.md.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from io import BytesIO
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "WALError",
    "WALLayoutError",
    "WriteAheadLog",
    "recover_service",
    "read_log_records",
]

_MAGIC = b"REPROWAL"
#: Format version of the on-disk log encoding: a build reads only the
#: version it writes, so a log from any other build is refused, not misread.
WAL_FORMAT_VERSION = 5

_HEADER = struct.Struct("<8sHI")  # magic, version, num_shards
_FRAME = struct.Struct("<II")  # body length, crc32(body)
#: A zero-length frame marks the *logical* end of a recycled log segment:
#: truncation overwrites in place instead of shrinking the file, so the
#: file's pages stay allocated (and warm) for the next round of appends.
#: No real record has a zero-length body, so the marker is unambiguous.
_ZERO_FRAME = b"\x00" * _FRAME.size
_RECORD = struct.Struct("<QdBI")  # seq, time, flags, entry count
_ENTRY = struct.Struct("<IQB")  # shard id, arrivals, payload encoding
#: The ``arrivals`` field of an unplanned entry.
_UNPLANNED = 2**64 - 1

_FLAG_EXPLICIT_KEYS = 0x01

_ENC_RAW = 0  # dtype string + shape + raw bytes (simple fixed-width dtypes)
_ENC_JSON = 1  # JSON of .tolist() (object arrays)
_ENC_NPY = 2  # .npy bytes, allow_pickle=False (structured/exotic dtypes)

_LOG_NAME = "batches.wal"
_CHECKPOINT_NAME = "checkpoint"

_FSYNC_POLICIES = ("always", "os", "none")

#: Test-only failpoint: when set, called with a site name at every durability
#: -relevant step (record writes, flushes, fsyncs, truncation writes). The
#: fault-injection suite installs a hook that kills the process after a
#: chosen number of calls, giving "crash at any point" coverage.
_FAULT_HOOK: Callable[[str], None] | None = None


def _fault(site: str) -> None:
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(site)


class WALError(RuntimeError):
    """A write-ahead log is corrupt, inconsistent, or unreadable.

    The message names the offending file (and byte offset, where one
    exists), so an operator can tell bit rot or a partial copy from a
    software bug without reading a stack trace.
    """


class WALLayoutError(WALError):
    """A WAL directory's log does not match its checkpoint layout.

    Raised by :meth:`WriteAheadLog.attach` when the log is missing (or cut
    short before its header) under a checkpoint manifest, or when its header
    names a different ``num_shards`` layout while it holds records — the
    signatures of a partial copy, a mixed-up directory, or an operator
    deleting ``*.wal`` files, none of which recovery may paper over
    silently.
    """


# ----------------------------------------------------------------------
# payload array encoding (pickle-free, like the checkpoint layer)
# ----------------------------------------------------------------------
def _encode_payload(array: np.ndarray) -> tuple[int, list[bytes | memoryview]]:
    """Encode one payload array; returns ``(encoding, byte chunks)``.

    Chunks are written (and CRC'd) sequentially without concatenation, so a
    100k-item numeric sub-batch costs one ``tobytes`` plus small headers —
    no intermediate copies.
    """
    if array.dtype.hasobject:
        data = json.dumps(array.tolist()).encode("utf-8")
        return _ENC_JSON, [struct.pack("<Q", len(data)), data]
    if array.dtype.fields is None and array.dtype.kind in "biufcSU":
        contiguous = np.ascontiguousarray(array)
        dtype_str = contiguous.dtype.str.encode("ascii")
        if contiguous.dtype.kind in "biufc":
            # Zero-copy byte view for plain numeric payloads — the hot path.
            # The view is consumed (CRC'd and written) before append_batch
            # returns, while the array is still alive.
            raw: bytes | memoryview = memoryview(contiguous).cast("B")
        else:
            raw = contiguous.tobytes()
        head = struct.pack(
            f"<B{len(dtype_str)}sB{contiguous.ndim}qQ",
            len(dtype_str),
            dtype_str,
            contiguous.ndim,
            *contiguous.shape,
            len(raw),
        )
        return _ENC_RAW, [head, raw]
    buffer = BytesIO()
    np.save(buffer, array, allow_pickle=False)
    data = buffer.getvalue()
    return _ENC_NPY, [struct.pack("<Q", len(data)), data]


def _span(body: memoryview, offset: int, length: int) -> memoryview:
    """``length`` bytes of ``body`` from ``offset``, all present or refused."""
    chunk = body[offset : offset + length]
    if len(chunk) != length:
        raise ValueError(f"field promises {length} bytes, {len(chunk)} present")
    return chunk


def _decode_payload(
    encoding: int, body: memoryview, offset: int, where: str
) -> tuple[np.ndarray, int]:
    """Decode one payload array from a record body (raises :class:`WALError`).

    Returns the array and the body offset just past it. ``body`` is a view
    into the log bytes; a raw payload is copied exactly once, out of the
    view into the returned array.
    """
    try:
        if encoding == _ENC_RAW:
            (dtype_len,) = struct.unpack_from("<B", body, offset)
            offset += 1
            dtype = np.dtype(bytes(_span(body, offset, dtype_len)).decode("ascii"))
            offset += dtype_len
            (ndim,) = struct.unpack_from("<B", body, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}q", body, offset)
            offset += 8 * ndim
            (nbytes,) = struct.unpack_from("<Q", body, offset)
            offset += 8
            raw = _span(body, offset, nbytes)
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy(), offset + nbytes
        if encoding not in (_ENC_JSON, _ENC_NPY):
            raise ValueError(f"unknown payload encoding {encoding}")
        (length,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        data = _span(body, offset, length)
        if encoding == _ENC_NPY:
            return np.load(BytesIO(data), allow_pickle=False), offset + length
        items = json.loads(bytes(data).decode("utf-8"))
        out = np.empty(len(items), dtype=object)
        for index, item in enumerate(items):
            out[index] = item
        return out, offset + length
    except (ValueError, TypeError, KeyError, IndexError, struct.error, OverflowError) as error:
        # The expected decode failures for a torn/corrupt record body:
        # struct.error (truncated header fields), ValueError (a short field,
        # bad dtype string, frombuffer size mismatch, json.JSONDecodeError,
        # malformed .npy), UnicodeDecodeError (ValueError subclass),
        # TypeError/KeyError (json payload shape), IndexError/OverflowError
        # (bad offsets). Anything else — MemoryError, OSError, a bug — must
        # propagate.
        raise WALError(f"{where}: undecodable payload array ({error})") from error


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
@dataclass
class LogRecord:
    """One decoded batch record plus its frame's byte range in the file."""

    seq: int
    time: float
    flags: int
    #: ``(shard_id, rows, arrivals)`` per receiving shard, in shard order;
    #: ``arrivals`` is ``None`` for an unplanned entry.
    entries: list[tuple[int, np.ndarray, int | None]]
    start: int  # frame start offset in the file
    end: int  # one past the frame's last byte


@dataclass
class TornTail:
    """Where a log stops being readable because of an interrupted append."""

    path: str
    offset: int
    reason: str


@dataclass
class LogScan:
    """Everything :func:`read_log_records` learned about one log file."""

    num_shards: int
    records: list[LogRecord] = field(default_factory=list)
    torn: TornTail | None = None


def _check_version(path: str, version: int) -> None:
    if version != WAL_FORMAT_VERSION:
        raise WALError(
            f"{path}: unsupported WAL format version {version}; "
            f"this build reads {WAL_FORMAT_VERSION}"
        )


def _decode_record(
    body: memoryview, num_shards: int, where: str
) -> tuple[int, float, int, list[tuple[int, np.ndarray, int | None]]]:
    """Decode one record body exactly: ``(seq, time, flags, entries)``."""
    try:
        seq, time, flags, count = _RECORD.unpack_from(body, 0)
        offset = _RECORD.size
        entries: list[tuple[int, np.ndarray, int | None]] = []
        for _ in range(count):
            shard_id, arrivals, encoding = _ENTRY.unpack_from(body, offset)
            payload, offset = _decode_payload(encoding, body, offset + _ENTRY.size, where)
            planned = None if arrivals == _UNPLANNED else int(arrivals)
            previous = entries[-1][0] if entries else -1
            if not previous < shard_id < num_shards or (
                planned is not None and planned < len(payload)
            ):
                raise WALError(
                    f"{where}: malformed entry for shard {shard_id} of "
                    f"{num_shards} after shard {previous} ({len(payload)} "
                    f"items, arrivals {arrivals})"
                )
            entries.append((int(shard_id), payload, planned))
    except struct.error as error:
        raise WALError(f"{where}: malformed record body ({error})") from error
    if offset != len(body):
        raise WALError(
            f"{where}: malformed record body ({len(body) - offset} bytes past "
            f"its {count} entries)"
        )
    return int(seq), float(time), int(flags), entries


def read_log_records(path: str | os.PathLike, strict: bool = False) -> LogScan:
    """Read every valid record of one log file.

    A torn tail (truncated final frame — the artifact of a crash mid-append)
    ends the scan at the last valid frame and is reported in the returned
    :class:`LogScan`; with ``strict=True`` it raises :class:`WALError`
    naming the file and offset instead. Damage *before* the tail — a CRC
    mismatch on a fully-present frame, a malformed body, out-of-order
    sequence numbers, a bad header — always raises :class:`WALError`. No
    raw ``struct`` error ever escapes.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        scan = LogScan(num_shards=0)
        scan.torn = TornTail(
            path, 0, f"file shorter than the {_HEADER.size}-byte log header"
        )
        if strict:
            raise WALError(f"{path}: torn write at offset 0: {scan.torn.reason}")
        return scan
    magic, version, num_shards = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise WALError(f"{path}: not a repro WAL file (bad magic {magic!r})")
    _check_version(path, version)
    scan = LogScan(num_shards=num_shards)
    position = _HEADER.size
    previous_seq = -1
    view = memoryview(data)
    while position < len(data):
        remaining = len(data) - position
        if remaining < _FRAME.size:
            scan.torn = TornTail(
                path, position, f"{remaining} trailing bytes, too short for a frame header"
            )
            break
        length, crc = _FRAME.unpack_from(data, position)
        if length == 0:
            # Recycled-segment terminator: the log logically ends here even
            # though stale frame bytes (or zero padding) may follow. The crc
            # field is deliberately not checked — a crash mid-terminator
            # leaves its tail bytes stale, and either way the log ends.
            break
        body_start = position + _FRAME.size
        if length > len(data) - body_start:
            scan.torn = TornTail(
                path,
                position,
                f"frame promises {length} body bytes but only "
                f"{len(data) - body_start} remain",
            )
            break
        body = view[body_start : body_start + length]
        if zlib.crc32(body) != crc:
            raise WALError(
                f"{path}: CRC mismatch at offset {position} (record after "
                f"seq {previous_seq}); the log is corrupt — restore from a "
                "replica or accept the loss by truncating at this offset"
            )
        where = f"{path} @ offset {position}"
        seq, time, flags, entries = _decode_record(body, num_shards, where)
        if seq <= previous_seq:
            raise WALError(
                f"{where}: sequence {seq} is not after {previous_seq}; "
                "records are out of order — the log was rewritten inconsistently"
            )
        previous_seq = seq
        end = body_start + length
        scan.records.append(LogRecord(seq, time, flags, entries, position, end))
        position = end
    if scan.torn is not None and strict:
        raise WALError(
            f"{path}: torn write at offset {scan.torn.offset}: {scan.torn.reason}"
        )
    return scan


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def _replace_with_header(path: str, num_shards: int) -> None:
    """Atomically swap ``path`` for a fresh, empty (header-only) log file."""
    temporary = path + ".tmp"
    with open(temporary, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, WAL_FORMAT_VERSION, num_shards))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(temporary, path)


def _scan_logical_end(path: str) -> int:
    """Find the append position of an existing log without decoding bodies.

    Walks the frame chain with seeks (bodies are skipped, not read or CRC
    checked — :func:`read_log_records` remains the integrity gate) and stops
    at the recycled-segment terminator, the end of the file, or the first
    frame the file is too short to hold (a torn tail; appending there
    overwrites the debris).
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        position = min(_HEADER.size, size)
        while position + _FRAME.size <= size:
            fh.seek(position)
            frame = fh.read(_FRAME.size)
            if len(frame) < _FRAME.size:
                break
            length, _ = _FRAME.unpack(frame)
            if length == 0:
                break
            end = position + _FRAME.size + length
            if end > size:
                break
            position = end
    return position


class _LogFile:
    """The append-only log file, with lazy (re)opening and segment recycling.

    Records are written with a single unbuffered ``writev(2)`` carrying the
    frame header, the body, *and* a trailing zero-frame terminator; the file
    position then steps back over the terminator so the next record
    overwrites it. Truncation (:meth:`recycle`) just rewrites the
    terminator at the head of the file instead of shrinking it: the
    segment's pages stay allocated, so steady-state appends overwrite warm
    pages rather than paying the kernel's first-touch cost for freshly
    extended files. Because record and terminator share one ``writev(2)``,
    a killed process leaves the log at a record boundary; only out-of-order
    page writeback (power loss) can tear a frame, and replay reports
    exactly where.
    """

    def __init__(self, path: str, num_shards: int) -> None:
        self.path = path
        self.num_shards = num_shards
        self._basename = os.path.basename(path)
        self._fh: Any = None

    def _open(self) -> Any:
        if self._fh is None or self._fh.closed:
            end = _scan_logical_end(self.path)
            self._fh = open(self.path, "r+b", buffering=0)
            self._fh.seek(end)
        return self._fh

    def append(self, chunks: Sequence[bytes | memoryview]) -> None:
        # One writev(2) per record: frame header, body chunks, and the
        # terminator are gathered in the kernel, so the payload reaches the
        # page cache with zero userspace copies beyond the incremental CRC.
        # Per-chunk buffered writes measured ~5x slower at the 100k-item
        # operating point — the write round trips, not the bytes, dominated.
        crc = 0
        length = 0
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
            length += len(chunk)
        buffers = [_FRAME.pack(length, crc), *chunks, _ZERO_FRAME]
        fh = self._open()
        _fault(f"wal.append:{self._basename}")
        total = _FRAME.size + length + _FRAME.size
        written = os.writev(fh.fileno(), buffers)
        if written != total:  # pragma: no cover - regular files write fully
            remainder = memoryview(b"".join(bytes(b) for b in buffers))[written:]
            while remainder:
                remainder = remainder[fh.write(remainder) :]
        fh.seek(-_FRAME.size, os.SEEK_CUR)

    def tell(self) -> int:
        """The append position: the offset of the current terminator."""
        return self._open().tell()

    def rewind(self, offset: int) -> None:
        """Drop everything appended since :meth:`tell` returned ``offset``.

        Rewrites the zero-frame terminator at ``offset`` and parks the
        append position on it, so a failed append's partial (or complete
        but unacknowledged) frame is invisible to replay and the retried
        append overwrites it.
        """
        fh = self._open()
        fh.seek(offset)
        fh.write(_ZERO_FRAME)
        fh.seek(offset)

    def flush(self, fsync: bool) -> None:
        if self._fh is None or self._fh.closed:
            return
        # Unbuffered handles are already in the page cache; the flush site
        # stays for the fault hooks and the fsync barrier.
        _fault(f"wal.flush:{self._basename}")
        self._fh.flush()
        if fsync:
            _fault(f"wal.fsync:{self._basename}")
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        # Idempotent, and the handle is released even when the flush raises
        # (ENOSPC, a revoked filesystem): a close that leaves the fd open
        # would make the *next* close fail too, turning one I/O error into a
        # stuck service.
        if self._fh is not None and not self._fh.closed:
            try:
                self._fh.flush()
            finally:
                self._fh.close()

    def recycle(self) -> None:
        """Empty the log in place, without reading its records.

        Rewrites the header and a zero-frame terminator at the head of the
        file, fsyncs, and parks the append position on the terminator. The
        file keeps its length, so its already-touched pages serve the next
        round of appends. A crash at any point leaves a readable log, and
        replay filters by the checkpoint watermark anyway.
        """
        fh = self._open()
        _fault(f"wal.truncate-write:{self._basename}")
        fh.seek(0)
        fh.write(_HEADER.pack(_MAGIC, WAL_FORMAT_VERSION, self.num_shards) + _ZERO_FRAME)
        os.fsync(fh.fileno())
        fh.seek(_HEADER.size)


@dataclass
class ReplayPlan:
    """What a WAL tail holds beyond a checkpoint watermark."""

    last_seq: int
    last_time: float
    explicit_keys: bool
    #: shard id -> (sub-batches, arrival times), in batch order.
    per_shard: dict[int, tuple[list[np.ndarray], list[float]]]
    #: shard id -> each sub-batch's arrival count (``None``: unplanned), in
    #: lockstep with ``per_shard`` — the ``arrivals`` of ``ingest_stream``.
    arrivals: dict[int, list[int | None]]


class WriteAheadLog:
    """The per-service log file plus its paired checkpoint directory.

    Created by :class:`~repro.service.service.SamplerService` when
    ``wal_dir=`` is given (:meth:`create`, which refuses a directory already
    holding a deployment's log) or by :func:`recover_service`
    (:meth:`attach`). All appends go through :meth:`append_batch`, which
    writes each batch as one record.
    """

    def __init__(
        self, directory: str | os.PathLike, num_shards: int, fsync: str = "os"
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        self.directory = os.fspath(directory)
        self.fsync = fsync
        self._log = _LogFile(os.path.join(self.directory, _LOG_NAME), int(num_shards))

    # -- lifecycle -----------------------------------------------------
    @property
    def checkpoint_dir(self) -> str:
        """The paired delta-checkpoint directory (``<wal_dir>/checkpoint``)."""
        return os.path.join(self.directory, _CHECKPOINT_NAME)

    @classmethod
    def create(
        cls, directory: str | os.PathLike, num_shards: int, fsync: str = "os"
    ) -> "WriteAheadLog":
        """Start a fresh WAL directory for a brand-new service.

        Refuses a directory that already holds a deployment — a log with
        committed records, or a completed checkpoint manifest: silently
        appending a *new* service's batches to an old deployment's log
        would make its recovery nonsense. Recover the old deployment with
        :func:`recover_service`, or point the new service at an empty
        directory. Debris from a service that crashed *mid-construction*
        (checkpoint sub-directories without a manifest, an empty log —
        nothing was ever durable) does not count as a deployment: the log is
        replaced.

        The log is created eagerly, header-only and fsynced, before the
        first checkpoint: :meth:`attach` treats a missing log as damage.
        """
        from repro.service.checkpoint import _DELTA_MANIFEST_NAME

        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, _LOG_NAME)
        manifest = os.path.join(directory, _CHECKPOINT_NAME, _DELTA_MANIFEST_NAME)
        if os.path.exists(manifest) or (
            os.path.exists(path) and read_log_records(path).records
        ):
            raise WALError(
                f"WAL directory {directory} already holds a deployment's log; "
                "recover it with repro.service.recover_service(...) or start "
                "the new service in an empty directory"
            )
        _replace_with_header(path, int(num_shards))
        return cls(directory, num_shards, fsync=fsync)

    @classmethod
    def attach(
        cls, directory: str | os.PathLike, num_shards: int, fsync: str = "os"
    ) -> "WriteAheadLog":
        """Reopen an existing WAL directory for recovery + continued appends.

        Validates the log against the ``num_shards`` layout the caller's
        checkpoint restores, raising :class:`WALLayoutError` when committed
        data could be silently lost: the log is missing (or shorter than its
        header), or its header names a different shard count while it holds
        records (two deployments' files mixed together).

        A log of any format version but the current one raises
        :class:`WALError`. The benign crash artifact is normalized, not
        fatal: an empty log under a foreign-layout header — the signature
        of a crash inside ``reshard`` between its log reset and its
        checkpoint — is atomically rewritten for the attaching layout.
        """
        path = os.path.join(os.fspath(directory), _LOG_NAME)
        head = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise WALLayoutError(
                f"{path} is missing or shorter than its header; a WAL "
                "directory holds its log from creation on, so it was deleted "
                "or not copied — restore the full WAL directory"
            )
        magic, version, logged_shards = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise WALError(f"{path}: not a repro WAL file")
        _check_version(path, version)
        wal = cls(directory, num_shards, fsync=fsync)
        if logged_shards != num_shards:
            if read_log_records(path).records:
                raise WALLayoutError(
                    f"{path} was written by a {logged_shards}-shard service, "
                    f"but the checkpoint restores {num_shards} shards; the "
                    "directory mixes deployments"
                )
            wal.reset_layout(num_shards)
        return wal

    # -- appending -----------------------------------------------------
    def append_batch(
        self,
        seq: int,
        time: float,
        routed: Sequence[tuple[Any, ...]],
        explicit_keys: bool,
    ) -> None:
        """Log one ingested batch as one record.

        ``routed`` holds ``(shard_id, rows)`` for an unplanned sub-batch
        and ``(shard_id, rows, arrivals)`` for a planned one (``arrivals``
        ``None`` counts as unplanned), in increasing shard order.

        The record is one ``writev``; under ``"always"`` it is fsynced,
        under ``"os"`` handed to the page cache, and ``"none"`` defers
        everything to the next flush/checkpoint.

        All or nothing: if the write, flush or fsync raises (a full disk,
        an I/O error), the log is rewound to where the batch began before
        the error propagates, so it holds exactly the batches before it and
        the same ``seq`` can be appended again.
        """
        flags = _FLAG_EXPLICIT_KEYS if explicit_keys else 0
        chunks: list[bytes | memoryview] = [_RECORD.pack(seq, time, flags, len(routed))]
        for shard_id, rows, *plan in routed:
            encoding, payload = _encode_payload(rows)
            arrivals = _UNPLANNED if not plan or plan[0] is None else int(plan[0])
            chunks += [_ENTRY.pack(int(shard_id), arrivals, encoding), *payload]
        start = self._log.tell()
        try:
            self._log.append(chunks)
            if self.fsync != "none":
                self._log.flush(fsync=self.fsync == "always")
        except BaseException:
            self._log.rewind(start)
            raise

    def flush(self) -> None:
        """Push every record to the OS (and to disk under ``"always"``)."""
        self._log.flush(fsync=self.fsync == "always")

    def close(self) -> None:
        """Flush and close the log file handle (the log stays on disk). Idempotent."""
        self._log.close()

    # -- truncation / layout -------------------------------------------
    def truncate(self) -> None:
        """Empty the log after a paired checkpoint.

        The caller's checkpoint must cover every logged batch, as
        ``checkpoint()`` does: it cuts at the last committed batch under
        the service lock. So nothing survives, and the segment is recycled
        without being read. Crash-safe: replay filters by the manifest
        watermark regardless. A replication caller must move its standby's
        base up to the watermark first — promotion replays from the base,
        and truncated frames are gone.
        """
        self._log.recycle()

    def reset_layout(self, num_shards: int) -> None:
        """Replace the log with an empty one under a new shard count.

        Called by ``reshard`` *after* it has checkpointed (so the log is
        already empty). The log is swapped via tmp-file + ``os.replace``, so
        a crash at any point leaves a directory :meth:`attach` accepts —
        either the old header (its manifest still current) or an empty
        foreign-layout log that attach normalizes.
        """
        self.close()
        self._log.num_shards = int(num_shards)
        _replace_with_header(self._log.path, self._log.num_shards)

    # -- recovery ------------------------------------------------------
    def collect_replay(self, watermark: int) -> ReplayPlan:
        """Scan the log for the replayable tail beyond ``watermark``.

        Reads the log (a torn tail is tolerated — that is the expected
        crash artifact; the batch it held never committed) and gathers
        each shard's sub-batches from the records in ``(watermark,
        last]``, where ``last`` is the final readable record. A gap in
        that range raises :class:`WALError` — a crash cannot produce one,
        only corruption or a log truncated inconsistently with its
        checkpoint.
        """
        records = [
            record
            for record in read_log_records(self._log.path).records
            if record.seq > watermark
        ]
        per_shard: dict[int, tuple[list[np.ndarray], list[float]]] = {}
        arrivals: dict[int, list[int | None]] = {}
        for expected, record in enumerate(records, start=watermark + 1):
            if record.seq != expected:
                raise WALError(
                    f"{self._log.path}: committed batches jump from "
                    f"{expected - 1} to {record.seq}; the log was truncated "
                    "inconsistently with its checkpoint"
                )
            for shard_id, rows, planned in record.entries:
                batches, times = per_shard.setdefault(shard_id, ([], []))
                batches.append(rows)
                times.append(record.time)
                arrivals.setdefault(shard_id, []).append(planned)
        return ReplayPlan(
            last_seq=records[-1].seq if records else int(watermark),
            last_time=records[-1].time if records else float("nan"),
            explicit_keys=any(r.flags & _FLAG_EXPLICIT_KEYS for r in records),
            per_shard=per_shard,
            arrivals=arrivals,
        )


def recover_service(
    wal_dir: str | os.PathLike,
    sampler_factory,
    key_fn=None,
    executor=None,
    fsync: str = "os",
    replication=None,
):
    """Rebuild a WAL-enabled service after a crash: checkpoint + log replay.

    Loads the paired delta checkpoint (``<wal_dir>/checkpoint``), replays
    each shard's sub-batches from the log tail beyond the checkpoint
    watermark through the normal ``ingest_stream`` path, and returns a live
    service with the WAL re-attached for continued appends. By the
    determinism contract the result is bit-identical to the uninterrupted
    run through the last *committed* batch — on any executor backend.
    ``service.batches_seen`` tells the producer where to resume its stream.

    A torn log tail (crash mid-append) is tolerated: recovery stops at the
    last committed batch, and the next append overwrites the debris.
    Corruption below the tail raises :class:`WALError`; a missing or
    foreign-layout log under a live manifest raises
    :class:`WALLayoutError`; a damaged checkpoint raises
    :class:`~repro.service.checkpoint.CheckpointError` naming every
    missing or stale shard.

    ``replication=`` (a :class:`~repro.service.replication.ReplicationConfig`)
    re-enables warm-standby replication on the recovered service, exactly as
    ``SamplerService(replication=...)`` would for a fresh one.
    """
    from repro.service.checkpoint import load_service_delta
    from repro.service.service import SamplerService

    wal_dir = os.fspath(wal_dir)
    state, watermark = load_service_delta(os.path.join(wal_dir, _CHECKPOINT_NAME))
    service = SamplerService.from_state_dict(
        state, sampler_factory, key_fn=key_fn, executor=executor
    )
    wal = WriteAheadLog.attach(wal_dir, service.num_shards, fsync=fsync)
    plan = wal.collect_replay(watermark)
    for shard_id in sorted(plan.per_shard):
        batches, times = plan.per_shard[shard_id]
        sampler = service._get_or_create_shard(shard_id)
        sampler.ingest_stream(batches, times=times, arrivals=plan.arrivals[shard_id])
        service._ckpt_dirty.add(shard_id)
    if plan.last_seq > watermark:
        service._time = plan.last_time
        service._batches_seen = plan.last_seq + 1
        if plan.explicit_keys:
            service._explicit_keys_used = True
    service._wal = wal
    service._wal_watermark = watermark
    if replication is not None:
        service._enable_replication(replication)
    return service
