"""Write-ahead logging for durable :class:`SamplerService` deployments.

The service's directory checkpoints are exact but O(sample) per snapshot; a
production stream cannot afford one per batch, and a crash between
checkpoints would silently lose every batch since the last one. This module
closes that gap: every batch is appended to an on-disk log *before* it is
dispatched to the shard samplers, so recovery is

    the log's base record (the paired checkpoint)  +  replay of the batches
    behind it,

and by the engine's determinism contract (serial/process backends are
bit-identical for a fixed seed) the replayed service is bit-identical to an
uninterrupted run — not merely statistically equivalent.

Layout of a WAL directory
-------------------------

A WAL directory holds one file, ``batches.wal``: a 14-byte header (magic,
format version, shard count) followed by length-prefixed, CRC32-framed
records::

    <u32 body_length> <u32 crc32(body)> <body>

The first record is the *base*: the paired checkpoint, a cut of the whole
service at a watermark (the sequence number of the last batch it holds).
Its body is ``(watermark: i64)`` followed by the checkpoint bytes of
:func:`~repro.service.checkpoint.save_service_delta`. Every later record is
one ingested batch, in batch order, each beyond the watermark.

A batch record's body is ``(seq: u64, time: f64, flags: u8, entries: u32)``
followed by that many shard entries, each ``(shard_id: u32, arrivals: u64,
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
cut short and re-framed never passes for a shorter one. The record's frame
is the commit point: a batch whose record is absent or torn (a crash
mid-append) never committed and is discarded on recovery as if it never
arrived, so a multi-shard batch can never be half-applied.

Checkpoints start a fresh segment
---------------------------------

A paired checkpoint (:meth:`WriteAheadLog.truncate`) writes
``batches.wal.tmp`` holding the header and the new base record, fsyncs it,
``os.replace``\\ s it over ``batches.wal`` and fsyncs the directory. The
replace is the commit point: a crash before it leaves the old segment (old
base, every batch since), a crash after it the new one (new base, no
batches yet). Either recovers to the same committed state.

A *torn tail* — fewer bytes than the last frame promises, the crash artifact
of an interrupted append — ends replay at the last valid frame and is
reported, not fatal; it is cut off when the log is next opened for
appending. A CRC mismatch on a fully-present frame is *corruption* (bit rot,
a partial copy) and raises :class:`WALError` naming the file and byte
offset; no raw ``struct``/``json`` error ever escapes this module. A log
whose header names another shard count than its checkpoint restores raises
:class:`WALLayoutError` on :meth:`WriteAheadLog.attach`.

Fsync policy
------------

``"always"`` fsyncs the log once per batch (durable against power loss);
``"os"`` (default) hands every batch to the kernel per append (durable
against process crash; the page cache orders completed writes); ``"none"``
promises only flush()/checkpoint/close durability — records still reach the
page cache per append (the writes are unbuffered), but no per-batch ordering
or fsync work is done on their behalf. A checkpoint fsyncs its new segment
and the directory under every policy. See docs/ARCHITECTURE.md.
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
WAL_FORMAT_VERSION = 6

_HEADER = struct.Struct("<8sHI")  # magic, version, num_shards
_FRAME = struct.Struct("<II")  # body length, crc32(body)
_WATERMARK = struct.Struct("<q")  # a base record's first field
_RECORD = struct.Struct("<QdBI")  # seq, time, flags, entry count
_ENTRY = struct.Struct("<IQB")  # shard id, arrivals, payload encoding
#: The ``arrivals`` field of an unplanned entry.
_UNPLANNED = 2**64 - 1

_FLAG_EXPLICIT_KEYS = 0x01

_ENC_RAW = 0  # dtype string + shape + raw bytes (simple fixed-width dtypes)
_ENC_JSON = 1  # JSON of .tolist() (object arrays)
_ENC_NPY = 2  # .npy bytes, allow_pickle=False (structured/exotic dtypes)

_LOG_NAME = "batches.wal"
#: The most buffers one writev(2) takes (IOV_MAX on Linux and macOS).
_IOV_MAX = 1024

_FSYNC_POLICIES = ("always", "os", "none")

#: Test-only failpoint: when set, called with a site name at every durability
#: -relevant step (record writes, flushes, fsyncs, each step of a segment
#: swap). The fault-injection suite installs a hook that kills the process
#: (or raises an I/O error) at a chosen call, giving "crash at any point"
#: coverage.
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
    """A WAL log's header does not match the checkpoint it holds.

    Raised by :meth:`WriteAheadLog.attach` when the header names a
    different ``num_shards`` layout than the one its base record restores.
    The writer puts both in one file with one atomic swap, so a mismatch is
    damage (a rewritten header, files mixed between deployments) that
    recovery may not paper over silently.
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
    #: The base record's watermark (``-1`` without a base).
    watermark: int = -1
    #: The base record's checkpoint bytes (``None`` when the log holds no
    #: complete base record).
    base: memoryview | None = None
    records: list[LogRecord] = field(default_factory=list)
    torn: TornTail | None = None


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


def read_log_records(
    path: str | os.PathLike, strict: bool = False, base_only: bool = False
) -> LogScan:
    """Read the base record and every valid batch record of one log file.

    A torn tail (truncated final frame — the artifact of a crash mid-append)
    ends the scan at the last valid frame and is reported in the returned
    :class:`LogScan`; with ``strict=True`` it raises :class:`WALError`
    naming the file and offset instead. Damage *before* the tail — a CRC
    mismatch on a fully-present frame, a malformed body, out-of-order
    sequence numbers, a bad header — always raises :class:`WALError`. No
    raw ``struct`` error ever escapes. ``base_only=True`` reads no further
    than the base record.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        if base_only:
            data = fh.read(_HEADER.size + _FRAME.size)
            if len(data) == _HEADER.size + _FRAME.size:
                data += fh.read(_FRAME.unpack_from(data, _HEADER.size)[0])
        else:
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
    if version != WAL_FORMAT_VERSION:
        raise WALError(
            f"{path}: unsupported WAL format version {version}; "
            f"this build reads {WAL_FORMAT_VERSION}"
        )
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
        end = body_start + length
        if scan.base is None:
            if length < _WATERMARK.size:
                raise WALError(f"{where}: malformed base record ({length} bytes)")
            (scan.watermark,) = _WATERMARK.unpack_from(body, 0)
            scan.base = body[_WATERMARK.size :]
            previous_seq = scan.watermark
            position = end
            if base_only:
                break
            continue
        seq, time, flags, entries = _decode_record(body, num_shards, where)
        if seq <= previous_seq:
            raise WALError(
                f"{where}: sequence {seq} is not after {previous_seq}; "
                "records are out of order — the log was rewritten inconsistently"
            )
        previous_seq = seq
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
def _framed(chunks: Sequence[bytes | memoryview]) -> tuple[list[bytes | memoryview], int]:
    """One record's buffers (frame header, then ``chunks``) and their byte count.

    The CRC runs over the chunks incrementally, so the payload reaches the
    page cache with zero userspace copies.
    """
    crc = 0
    length = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        length += len(chunk)
    return [_FRAME.pack(length, crc), *chunks], _FRAME.size + length


def _write_all(fd: int, buffers: Sequence[bytes | memoryview], total: int) -> None:
    # One writev(2) gathers every buffer in the kernel. Per-chunk buffered
    # writes measured ~5x slower at the 100k-item operating point — the
    # write round trips, not the bytes, dominated. writev refuses more than
    # IOV_MAX buffers (EINVAL), which a record of a few hundred shards
    # needs, so longer lists go out in IOV_MAX-sized groups.
    groups = [(buffers, total)]
    if len(buffers) > _IOV_MAX:
        groups = [
            (group, sum(len(buffer) for buffer in group))
            for group in (
                buffers[start : start + _IOV_MAX]
                for start in range(0, len(buffers), _IOV_MAX)
            )
        ]
    for group, size in groups:
        written = os.writev(fd, group)
        if written != size:  # pragma: no cover - regular files write fully
            remainder = memoryview(b"".join(bytes(b) for b in group))[written:]
            while remainder:
                remainder = remainder[os.write(fd, remainder) :]


def _valid_end(fh: Any) -> int:
    """The offset just past the last whole frame of an open log.

    Walks the frame chain with seeks (bodies are skipped, not read or CRC
    checked — :func:`read_log_records` remains the integrity gate) and stops
    at the end of the file or at the first frame the file is too short to
    hold: a torn tail.
    """
    size = os.fstat(fh.fileno()).st_size
    position = min(_HEADER.size, size)
    while position + _FRAME.size <= size:
        fh.seek(position)
        length, _ = _FRAME.unpack(fh.read(_FRAME.size))
        end = position + _FRAME.size + length
        if end > size:
            break
        position = end
    return position


def _fsync_directory(directory: str) -> None:
    """Make ``directory``'s entries (a replaced file) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _LogFile:
    """The append-only log file, opened lazily for appending.

    Each record is one unbuffered ``writev(2)`` of its frame header and
    body, so a killed process leaves the log at a record boundary; only
    out-of-order page writeback (power loss) can tear a frame, and replay
    reports exactly where. Opening the log cuts a torn tail off, so a new
    record never lands in front of stale bytes that would read as a
    corrupt frame.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._basename = os.path.basename(path)
        self._fh: Any = None

    def _open(self) -> Any:
        if self._fh is None or self._fh.closed:
            fh = open(self.path, "r+b", buffering=0)
            end = _valid_end(fh)
            fh.truncate(end)
            fh.seek(end)
            self._fh = fh
        return self._fh

    def append(self, chunks: Sequence[bytes | memoryview]) -> None:
        buffers, total = _framed(chunks)
        fh = self._open()
        _fault(f"wal.append:{self._basename}")
        _write_all(fh.fileno(), buffers, total)

    def tell(self) -> int:
        """The append position: the end of the last record."""
        return self._open().tell()

    def rewind(self, offset: int) -> None:
        """Drop everything appended since :meth:`tell` returned ``offset``.

        Cuts the file at ``offset``, so a failed append's partial (or
        complete but unacknowledged) frame is gone and the retried append
        lands where it began.
        """
        fh = self._open()
        fh.truncate(offset)
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

    def replace(self, num_shards: int, base: Sequence[bytes | memoryview]) -> None:
        """Swap the log for a fresh segment holding only ``base``.

        Writes the header and the base record to ``<log>.tmp``, fsyncs it
        and ``os.replace``\\ s it over the log. Until the replace, the old
        segment is the log and any error leaves it as it was (the temporary
        file is removed); from the replace on, the new segment is, and the
        old segment's handle is closed.
        """
        temporary = self.path + ".tmp"
        buffers, total = _framed(base)
        header = _HEADER.pack(_MAGIC, WAL_FORMAT_VERSION, num_shards)
        try:
            _fault(f"wal.segment-write:{self._basename}")
            with open(temporary, "wb", buffering=0) as fh:
                _write_all(fh.fileno(), [header, *buffers], _HEADER.size + total)
                _fault(f"wal.segment-fsync:{self._basename}")
                os.fsync(fh.fileno())
            _fault(f"wal.segment-replace:{self._basename}")
            os.replace(temporary, self.path)
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
        self.close()


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
    """The per-service log file, whose base record is the paired checkpoint.

    Created by :class:`~repro.service.service.SamplerService` when
    ``wal_dir=`` is given (:meth:`create`, which refuses a directory already
    holding a deployment's log) or by :func:`recover_service`
    (:meth:`attach`). All appends go through :meth:`append_batch`, which
    writes each batch as one record; every checkpoint goes through
    :meth:`truncate`, which starts a fresh segment.
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
        self._log = _LogFile(os.path.join(self.directory, _LOG_NAME))
        #: The shard count the log's header names.
        self.num_shards = int(num_shards)
        #: Global sequence number of the last batch the log's base record
        #: (the paired checkpoint) covers; everything after it lives only
        #: in the log's batch records.
        self.watermark = -1

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(
        cls, directory: str | os.PathLike, num_shards: int, fsync: str = "os"
    ) -> "WriteAheadLog":
        """Claim a WAL directory for a brand-new service.

        Refuses a directory that already holds a log: silently replacing an
        old deployment's log would lose it. Recover the old deployment with
        :func:`recover_service`, or point the new service at an empty
        directory. A ``batches.wal.tmp`` left by a crash mid-construction is
        not a deployment: nothing was ever durable, and it is overwritten.

        The log itself is written by the first :meth:`truncate` — the
        service's constructor checkpoints at once — and appends need it.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, _LOG_NAME)):
            raise WALError(
                f"WAL directory {directory} already holds a deployment's log; "
                "recover it with repro.service.recover_service(...) or start "
                "the new service in an empty directory"
            )
        return cls(directory, num_shards, fsync=fsync)

    @classmethod
    def attach(
        cls, directory: str | os.PathLike, num_shards: int, fsync: str = "os"
    ) -> "WriteAheadLog":
        """Reopen an existing WAL directory for recovery + continued appends.

        Validates the log against the ``num_shards`` layout the caller's
        checkpoint restores: a header naming another shard count raises
        :class:`WALLayoutError`. A damaged header or base record, or a log
        of any format version but the current one, raises :class:`WALError`.
        """
        path = os.path.join(os.fspath(directory), _LOG_NAME)
        scan = read_log_records(path, strict=True, base_only=True)
        if scan.num_shards != num_shards:
            raise WALLayoutError(
                f"{path} was written by a {scan.num_shards}-shard service, "
                f"but the checkpoint restores {num_shards} shards; the "
                "directory mixes deployments"
            )
        wal = cls(directory, num_shards, fsync=fsync)
        wal.watermark = scan.watermark
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

    # -- checkpointing -------------------------------------------------
    def truncate(
        self,
        watermark: int,
        checkpoint: Sequence[bytes | memoryview],
        num_shards: int,
    ) -> None:
        """Replace the log with a fresh segment whose base record is a checkpoint.

        ``checkpoint`` holds the bytes of a cut at ``watermark`` (see
        :func:`~repro.service.checkpoint.save_service_delta`) and must cover
        every logged batch, as the service's ``checkpoint()`` does: it cuts
        at the last committed batch under the service lock. ``num_shards``
        is the layout the cut holds, written into the new header — a
        ``reshard`` changes it with the same one swap.

        The swap is atomic (see :meth:`_LogFile.replace`). If it raises
        before the new segment replaces the old one, the log, its handle,
        :attr:`num_shards` and :attr:`watermark` are unchanged and the call
        can be retried; if the directory fsync after it raises, the new
        segment is the log. A replication caller must move its standby's
        base up to the watermark as the swap lands — promotion replays from
        the base, and the new segment holds no batch at or below the
        watermark.
        """
        self._log.replace(
            int(num_shards), [_WATERMARK.pack(int(watermark)), *checkpoint]
        )
        self.num_shards, self.watermark = int(num_shards), int(watermark)
        # Last, so that the swap survives power loss.
        _fault(f"wal.segment-dirsync:{_LOG_NAME}")
        _fsync_directory(self.directory)

    # -- recovery ------------------------------------------------------
    def collect_replay(self, watermark: int) -> ReplayPlan:
        """Scan the log for the replayable tail beyond ``watermark``.

        Reads the log (a torn tail is tolerated — that is the expected
        crash artifact; the batch it held never committed) and gathers
        each shard's sub-batches from the records in ``(watermark,
        last]``, where ``last`` is the final readable record. A log whose
        base lies beyond ``watermark``, or a gap in that range, raises
        :class:`WALError` — a crash cannot produce either, only corruption
        or a log truncated past the caller's checkpoint.
        """
        scan = read_log_records(self._log.path)
        if scan.base is None:
            raise WALError(f"{self._log.path}: the log holds no complete base record")
        if scan.watermark > watermark:
            raise WALError(
                f"{self._log.path}: the log was truncated at batch "
                f"{scan.watermark}, past batch {watermark}; the committed "
                "batches between are not in it"
            )
        records = [record for record in scan.records if record.seq > watermark]
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

    Restores the log's base record (the paired checkpoint), replays each
    shard's sub-batches from the batch records behind it through the normal
    ``ingest_stream`` path, and returns a live service with the WAL
    re-attached for continued appends. By the determinism contract the
    result is bit-identical to the uninterrupted run through the last
    *committed* batch — on any executor backend. ``service.batches_seen``
    tells the producer where to resume its stream.

    A torn log tail (crash mid-append) is tolerated: recovery stops at the
    last committed batch, and the next append cuts the debris off. A
    directory without a log raises
    :class:`~repro.service.checkpoint.MissingCheckpointError`; corruption
    raises :class:`WALError`, and a header naming another shard count than
    the base restores raises :class:`WALLayoutError`.

    ``replication=`` (a :class:`~repro.service.replication.ReplicationConfig`)
    re-enables warm-standby replication on the recovered service, exactly as
    ``SamplerService(replication=...)`` would for a fresh one.
    """
    from repro.service.checkpoint import load_service_delta
    from repro.service.service import SamplerService

    state, watermark = load_service_delta(wal_dir)
    service = SamplerService.from_state_dict(
        state, sampler_factory, key_fn=key_fn, executor=executor
    )
    wal = WriteAheadLog.attach(wal_dir, service.num_shards, fsync=fsync)
    plan = wal.collect_replay(watermark)
    for shard_id in sorted(plan.per_shard):
        batches, times = plan.per_shard[shard_id]
        sampler = service._get_or_create_shard(shard_id)
        sampler.ingest_stream(batches, times=times, arrivals=plan.arrivals[shard_id])
    if plan.last_seq > watermark:
        service._time = plan.last_time
        service._batches_seen = plan.last_seq + 1
        if plan.explicit_keys:
            service._explicit_keys_used = True
    service._wal = wal
    if replication is not None:
        service._enable_replication(replication)
    return service
