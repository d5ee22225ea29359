"""Per-shard write-ahead logging for durable :class:`SamplerService` deployments.

The service's directory checkpoints are exact but O(sample) per snapshot; a
production stream cannot afford one per batch, and a crash between
checkpoints would silently lose every batch since the last one. This module
closes that gap: every batch is appended to an on-disk log *before* it is
dispatched to the shard samplers, so recovery is

    last delta checkpoint  +  replay of each shard's log tail,

and by the engine's determinism contract (serial/process backends are
bit-identical for a fixed seed) the replayed service is bit-identical to an
uninterrupted run — not merely statistically equivalent.

Layout of a WAL directory
-------------------------

::

    wal_dir/
      commit.wal        one small record per ingested batch (the commit point)
      shard-<k>.wal     the routed sub-batches of shard k, in batch order
      checkpoint/       the paired delta checkpoint (see repro.service.checkpoint)

A batch is written as its routed per-shard sub-batches (one record in each
receiving shard's log) followed by one *commit record* in ``commit.wal``
carrying the batch's global sequence number, arrival time, and an
explicit-keys flag. The commit record is the atomicity point: a batch whose
commit record is absent (crash mid-append) is discarded on recovery as if it
never arrived, so a multi-shard append can never be half-applied. Because
the shard records are written — and, under the ``"always"`` policy, fsynced
— before the commit record, a durable commit implies durable sub-batches.

Record framing
--------------

Every log file starts with a 20-byte header (magic, format version, kind,
shard id, shard count) followed by length-prefixed, CRC32-framed records::

    <u32 body_length> <u32 crc32(body)> <body>

Commit bodies are ``(seq: u64, time: f64, flags: u8)``; shard bodies are
``(seq: u64, time: f64)`` plus one encoded payload array (raw fixed-width
bytes for simple dtypes, ``.npy`` for exotic ones, JSON for object arrays —
never pickle, matching the checkpoint layer's trust model; object payloads
round-trip through JSON semantics, so tuples come back as lists, exactly as
they do through a directory checkpoint), then, for a *planned* record, the
shard's arrival count ``(arrivals: u64)``. A planned record holds only the
arrivals the driver accepted for the shard (see
:meth:`~repro.core.base.Sampler.ingest_stream`); a record without the
count holds the shard's whole sub-batch and replays as an ordinary batch.

A zero-length frame is a *terminator*: log segments are recycled — trunca-
tion at a checkpoint rewrites the terminator at the head of the file rather
than shrinking it, so steady-state appends overwrite the segment's warm
pages instead of paying the kernel's first-touch cost for fresh ones (the
same reason production databases recycle redo-log segments). Replay stops
at the terminator; stale frame bytes beyond it are invisible.

A *torn tail* — fewer bytes than the last frame promises, the crash artifact
of an interrupted append — ends replay at the last valid frame and is
reported, not fatal. A CRC mismatch on a fully-present frame is *corruption*
(bit rot, a partial copy) and raises :class:`WALError` naming the file and
byte offset; no raw ``struct``/unpickling error ever escapes this module.
A directory whose *segment set* is inconsistent — checkpoint manifest
present but log segments missing, stray segments from a different layout,
shard records without a commit log — raises :class:`WALLayoutError` on
:meth:`WriteAheadLog.attach` instead of silently recovering less than was
committed.

Fsync policy
------------

``"always"`` fsyncs every touched log per batch (durable against power
loss); ``"os"`` (default) hands every batch to the kernel per append
(durable against process crash; the page cache orders completed writes);
``"none"`` promises only flush()/checkpoint/close durability — records
still reach the page cache per append (the writes are unbuffered), but no
per-batch ordering or fsync work is done on their behalf. See
docs/ARCHITECTURE.md.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from io import BytesIO
from typing import Any, Callable, Iterable, Sequence

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
WAL_FORMAT_VERSION = 4

_KIND_COMMIT = 0
_KIND_SHARD = 1

_HEADER = struct.Struct("<8sHHi")  # magic, version, kind, shard_id_or_num_shards
_FRAME = struct.Struct("<II")  # body length, crc32(body)
#: A zero-length frame marks the *logical* end of a recycled log segment:
#: truncation overwrites in place instead of shrinking the file, so the
#: file's pages stay allocated (and warm) for the next round of appends.
#: No real record has a zero-length body — commit bodies are fixed-size,
#: shard bodies carry at least a payload tag — so the marker is unambiguous.
_ZERO_FRAME = b"\x00" * _FRAME.size
_COMMIT_BODY = struct.Struct("<QdB")  # seq, time, flags
_SHARD_BODY = struct.Struct("<Qd")  # seq, time (payload block follows)
_ARRIVALS = struct.Struct("<Q")  # a planned record's arrival count (trailer)

_FLAG_EXPLICIT_KEYS = 0x01

_ENC_RAW = 0  # dtype string + shape + raw bytes (simple fixed-width dtypes)
_ENC_JSON = 1  # JSON of .tolist() (object arrays)
_ENC_NPY = 2  # .npy bytes, allow_pickle=False (structured/exotic dtypes)

_COMMIT_NAME = "commit.wal"
_CHECKPOINT_NAME = "checkpoint"

_FSYNC_POLICIES = ("always", "os", "none")

#: Test-only failpoint: when set, called with a site name at every durability
#: -relevant step (record writes, flushes, fsyncs, truncation replaces). The
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
    """A WAL directory's segment set does not match its checkpoint layout.

    Raised by :meth:`WriteAheadLog.attach` when the directory holds a
    checkpoint manifest but the log segments it implies are missing, belong
    to a different ``num_shards`` layout, or hold shard records with no
    commit log to vouch for them — the signatures of a partial copy, a
    mixed-up directory, or an operator deleting ``*.wal`` files, none of
    which recovery may paper over silently.
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
            dtype = np.dtype(bytes(body[offset : offset + dtype_len]).decode("ascii"))
            offset += dtype_len
            (ndim,) = struct.unpack_from("<B", body, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}q", body, offset)
            offset += 8 * ndim
            (nbytes,) = struct.unpack_from("<Q", body, offset)
            offset += 8
            raw = body[offset : offset + nbytes]
            if len(raw) != nbytes:
                raise ValueError(f"payload promises {nbytes} bytes, {len(raw)} present")
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy(), offset + nbytes
        if encoding == _ENC_JSON:
            (length,) = struct.unpack_from("<Q", body, offset)
            offset += 8
            items = json.loads(bytes(body[offset : offset + length]).decode("utf-8"))
            out = np.empty(len(items), dtype=object)
            for index, item in enumerate(items):
                out[index] = item
            return out, offset + length
        if encoding == _ENC_NPY:
            (length,) = struct.unpack_from("<Q", body, offset)
            offset += 8
            array = np.load(BytesIO(body[offset : offset + length]), allow_pickle=False)
            return array, offset + length
        raise ValueError(f"unknown payload encoding {encoding}")
    except WALError:
        raise
    except (ValueError, TypeError, KeyError, IndexError, struct.error, OverflowError) as error:
        # The expected decode failures for a torn/corrupt record body:
        # struct.error (truncated header fields), ValueError (bad dtype
        # string, frombuffer size mismatch, json.JSONDecodeError, malformed
        # .npy), UnicodeDecodeError (ValueError subclass), TypeError/KeyError
        # (json payload shape), IndexError/OverflowError (bad offsets).
        # Anything else — MemoryError, OSError, a bug — must propagate.
        raise WALError(f"{where}: undecodable payload array ({error})") from error


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
@dataclass
class LogRecord:
    """One decoded WAL record plus its raw frame location (for rewrites)."""

    seq: int
    time: float
    flags: int
    payload: np.ndarray | None
    start: int  # frame start offset in the file
    end: int  # one past the frame's last byte
    #: A planned shard record's arrival count; ``None`` for an unplanned one.
    arrivals: int | None = None


@dataclass
class TornTail:
    """Where a log stops being readable because of an interrupted append."""

    path: str
    offset: int
    reason: str


@dataclass
class LogScan:
    """Everything :func:`read_log_records` learned about one log file."""

    kind: int
    shard_id: int
    num_shards: int
    records: list[LogRecord] = field(default_factory=list)
    torn: TornTail | None = None


def _check_version(path: str, version: int) -> None:
    if version != WAL_FORMAT_VERSION:
        raise WALError(
            f"{path}: unsupported WAL format version {version}; "
            f"this build reads {WAL_FORMAT_VERSION}"
        )


def read_log_records(path: str | os.PathLike, strict: bool = False) -> LogScan:
    """Read every valid record of one log file.

    A torn tail (truncated final frame — the artifact of a crash mid-append)
    ends the scan at the last valid frame and is reported in the returned
    :class:`LogScan`; with ``strict=True`` it raises :class:`WALError`
    naming the file and offset instead. Damage *before* the tail — a CRC
    mismatch on a fully-present frame, out-of-order sequence numbers, a bad
    header — always raises :class:`WALError`. No raw ``struct`` error ever
    escapes.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        scan = LogScan(kind=-1, shard_id=-1, num_shards=0)
        scan.torn = TornTail(path, 0, "file shorter than the 20-byte log header")
        if strict:
            raise WALError(f"{path}: torn write at offset 0: {scan.torn.reason}")
        return scan
    magic, version, kind, shard_field = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise WALError(f"{path}: not a repro WAL file (bad magic {magic!r})")
    _check_version(path, version)
    if kind == _KIND_COMMIT:
        scan = LogScan(kind=kind, shard_id=-1, num_shards=shard_field)
    else:
        scan = LogScan(kind=kind, shard_id=shard_field, num_shards=0)
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
        arrivals: int | None = None
        try:
            if kind == _KIND_COMMIT:
                seq, time, flags = _COMMIT_BODY.unpack_from(body, 0)
                payload = None
            else:
                seq, time = _SHARD_BODY.unpack_from(body, 0)
                flags = int(body[_SHARD_BODY.size])
                payload, tail = _decode_payload(
                    flags, body, _SHARD_BODY.size + 1, where
                )
                if tail != length:
                    (arrivals,) = _ARRIVALS.unpack_from(body, tail)
                    if tail + _ARRIVALS.size != length or arrivals < len(payload):
                        raise WALError(
                            f"{where}: malformed planned record ({length - tail} "
                            f"trailing bytes, {len(payload)} items of "
                            f"{arrivals} arrivals)"
                        )
        except struct.error as error:
            raise WALError(f"{where}: malformed record body ({error})") from error
        if seq <= previous_seq:
            raise WALError(
                f"{where}: sequence {seq} is not after {previous_seq}; "
                "records are out of order — the log was rewritten inconsistently"
            )
        previous_seq = seq
        end = body_start + length
        scan.records.append(
            LogRecord(int(seq), float(time), int(flags), payload, position, end, arrivals)
        )
        position = end
    if scan.torn is not None and strict:
        raise WALError(
            f"{path}: torn write at offset {scan.torn.offset}: {scan.torn.reason}"
        )
    return scan


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def _shard_log_name(shard_id: int) -> str:
    return f"shard-{shard_id:05d}.wal"


def _parse_shard_log_name(name: str) -> int | None:
    """The shard id a ``shard-<k>.wal`` filename names, or ``None``."""
    if not (name.startswith("shard-") and name.endswith(".wal")):
        return None
    try:
        return int(name[len("shard-") : -len(".wal")])
    except ValueError:
        return None


def _replace_with_header(path: str, kind: int, shard_field: int) -> None:
    """Atomically swap ``path`` for a fresh, empty (header-only) log file."""
    temporary = path + ".tmp"
    with open(temporary, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, WAL_FORMAT_VERSION, kind, shard_field))
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
    """One append-only log file with lazy (re)opening and segment recycling.

    Records are written with a single unbuffered ``write(2)`` carrying the
    frame header, the body, *and* a trailing zero-frame terminator; the file
    position then steps back over the terminator so the next record
    overwrites it. Truncation (:meth:`rewrite_keeping` with nothing to keep
    — the every-checkpoint case) just rewrites the terminator at the head of
    the file instead of shrinking it: the segment's pages stay allocated, so
    steady-state appends overwrite warm pages rather than paying the
    kernel's first-touch cost for freshly extended files. Because record and
    terminator share one ``write(2)``, a killed process leaves the log at a
    record boundary; only out-of-order page writeback (power loss) can tear
    a frame, and replay reports exactly where.
    """

    def __init__(self, path: str, kind: int, shard_field: int) -> None:
        self.path = path
        self.kind = kind
        self.shard_field = shard_field
        self._basename = os.path.basename(path)
        self._fh: Any = None

    def _open(self) -> Any:
        if self._fh is None or self._fh.closed:
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = 0
            if size >= _HEADER.size:
                end = _scan_logical_end(self.path)
                self._fh = open(self.path, "r+b", buffering=0)
                self._fh.seek(end)
            else:
                # Fresh file (or one that died before its header landed).
                self._fh = open(self.path, "wb", buffering=0)
                self._fh.write(
                    _HEADER.pack(_MAGIC, WAL_FORMAT_VERSION, self.kind, self.shard_field)
                )
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
        but uncommitted) frame is invisible to replay and the retried
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

    def rewrite_keeping(self, keep: Callable[[LogRecord], bool]) -> None:
        """Atomically rewrite the log retaining only records passing ``keep``.

        Used for truncation at a checkpoint watermark and for dropping
        uncommitted orphan records during recovery. When nothing survives —
        the common every-checkpoint case — the segment is *recycled*: a
        zero-frame terminator is rewritten at the head of the file and the
        file keeps its length, so its already-touched pages serve the next
        round of appends. Otherwise the surviving frames are copied byte for
        byte into a fresh file which replaces the old one with
        ``os.replace``. Either way a crash at any point leaves a readable
        log, and replay filters by watermark anyway, so truncation is pure
        space reclamation.
        """
        if not os.path.exists(self.path):
            self.close()
            return
        scan = read_log_records(self.path)  # unbuffered writes: all visible
        retained = [record for record in scan.records if keep(record)]
        if not retained:
            _fault(f"wal.truncate-write:{self._basename}")
            head = (
                _HEADER.pack(_MAGIC, WAL_FORMAT_VERSION, self.kind, self.shard_field)
                + _ZERO_FRAME
            )
            if self._fh is not None and not self._fh.closed:
                # Keep the handle (and the segment's warm pages): rewrite
                # the head in place and park the position on the terminator.
                self._fh.seek(0)
                self._fh.write(head)
                os.fsync(self._fh.fileno())
                self._fh.seek(_HEADER.size)
            else:
                with open(self.path, "r+b") as fh:
                    fh.write(head)
                    fh.flush()
                    os.fsync(fh.fileno())
            return
        self.close()
        with open(self.path, "rb") as fh:
            data = fh.read()
        temporary = self.path + ".tmp"
        _fault(f"wal.truncate-write:{self._basename}")
        with open(temporary, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, WAL_FORMAT_VERSION, self.kind, self.shard_field))
            for record in retained:
                fh.write(data[record.start : record.end])
            fh.flush()
            os.fsync(fh.fileno())
        _fault(f"wal.truncate-replace:{self._basename}")
        os.replace(temporary, self.path)


@dataclass
class ReplayPlan:
    """What a WAL tail holds beyond a checkpoint watermark."""

    last_seq: int
    last_time: float
    explicit_keys: bool
    #: shard id -> (sub-batches, arrival times), in batch order.
    per_shard: dict[int, tuple[list[np.ndarray], list[float]]]
    #: shard ids holding records beyond the last commit (crash orphans).
    orphaned_shards: list[int]
    torn: list[TornTail]
    #: shard id -> each sub-batch's arrival count (``None``: unplanned), in
    #: lockstep with ``per_shard`` — the ``arrivals`` of ``ingest_stream``.
    arrivals: dict[int, list[int | None]] = field(default_factory=dict)

    @property
    def batches(self) -> int:
        return sum(len(batches) for batches, _ in self.per_shard.values())


class WriteAheadLog:
    """The per-service bundle of commit log + per-shard logs + checkpoint dir.

    Created by :class:`~repro.service.service.SamplerService` when
    ``wal_dir=`` is given (:meth:`create`, which refuses a directory already
    holding a deployment's logs) or by :func:`recover_service`
    (:meth:`attach`). All appends go through :meth:`append_batch`, which
    writes the routed sub-batch records first and the commit record last —
    the ordering that makes a durable commit imply durable sub-batches.
    """

    def __init__(
        self, directory: str | os.PathLike, num_shards: int, fsync: str = "os"
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        self.directory = os.fspath(directory)
        self.num_shards = int(num_shards)
        self.fsync = fsync
        self._commit = _LogFile(
            os.path.join(self.directory, _COMMIT_NAME), _KIND_COMMIT, self.num_shards
        )
        self._shards = {
            shard_id: _LogFile(
                os.path.join(self.directory, _shard_log_name(shard_id)),
                _KIND_SHARD,
                shard_id,
            )
            for shard_id in range(self.num_shards)
        }

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

        Refuses a directory that already holds a deployment — a commit log
        with committed records, or a completed checkpoint manifest: silently
        appending a *new* service's batches to an old deployment's logs
        would make its recovery nonsense. Recover the old deployment with
        :func:`recover_service`, or point the new service at an empty
        directory. Debris from a service that crashed *mid-construction*
        (checkpoint sub-directories without a manifest, an empty eagerly
        created commit log, orphan shard records — nothing was ever durable)
        does not count as a deployment: it is deleted and recreated.

        The full segment set (commit log plus one log per shard) is created
        eagerly, header-only, which lets :meth:`attach` treat a missing
        segment as damage.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, _CHECKPOINT_NAME, "MANIFEST.json")):
            raise WALError(
                f"WAL directory {directory} already holds a deployment's logs; "
                "recover it with repro.service.recover_service(...) or start "
                "the new service in an empty directory"
            )
        commit_path = os.path.join(directory, _COMMIT_NAME)
        if os.path.exists(commit_path) and read_log_records(commit_path).records:
            raise WALError(
                f"WAL directory {directory} already holds a deployment's logs; "
                "recover it with repro.service.recover_service(...) or start "
                "the new service in an empty directory"
            )
        # With no manifest and no committed batch, any log files present are
        # debris of a constructor that crashed before anything was durable.
        for name in sorted(os.listdir(directory)):
            if name == _COMMIT_NAME or _parse_shard_log_name(name) is not None:
                os.unlink(os.path.join(directory, name))
        wal = cls(directory, num_shards, fsync=fsync)
        for log in (*wal._shards.values(), wal._commit):
            log._open()
        return wal

    @classmethod
    def attach(
        cls, directory: str | os.PathLike, num_shards: int, fsync: str = "os"
    ) -> "WriteAheadLog":
        """Reopen an existing WAL directory for recovery + continued appends.

        Validates the directory's segment set against the ``num_shards``
        layout the caller's checkpoint restores, raising
        :class:`WALLayoutError` on every inconsistency that means committed
        data could be silently lost:

        * a stray ``shard-<k>.wal`` with ``k >= num_shards`` holding records
          (a foreign layout's log mixed in);
        * shard records present with no commit log to vouch for them (the
          commit log was deleted or the copy was partial);
        * a commit log naming a different shard count *and* holding records
          (two deployments' files mixed together);
        * a commit log with any of its shard segments missing.

        A commit log of any format version but the current one raises
        :class:`WALError`. Benign crash artifacts are normalized, not fatal:
        an empty commit log under a foreign-layout header — the signature of
        a crash inside ``reshard``'s log reset — is atomically rewritten for
        the attaching layout.
        """
        directory = os.fspath(directory)
        commit_path = os.path.join(directory, _COMMIT_NAME)
        shard_paths = {
            shard_id: os.path.join(directory, _shard_log_name(shard_id))
            for shard_id in range(num_shards)
        }
        for name in sorted(os.listdir(directory)):
            stray_id = _parse_shard_log_name(name)
            if stray_id is None or stray_id < num_shards:
                continue
            stray_path = os.path.join(directory, name)
            if read_log_records(stray_path).records:
                raise WALLayoutError(
                    f"{stray_path} holds records for shard {stray_id}, but the "
                    f"checkpoint restores only {num_shards} shards; the "
                    "directory mixes deployments with different layouts"
                )
        commit_head = b""
        if os.path.exists(commit_path):
            with open(commit_path, "rb") as fh:
                commit_head = fh.read(_HEADER.size)
        if len(commit_head) < _HEADER.size:
            # No commit log (or one torn before its header landed): legal
            # only while there is provably nothing to replay — a shard
            # record with no commit to vouch for it means the commit log
            # was deleted or the directory is a partial copy.
            for shard_id, path in sorted(shard_paths.items()):
                if os.path.exists(path) and read_log_records(path).records:
                    raise WALLayoutError(
                        f"{path} holds shard records but {commit_path} is "
                        "missing; without the commit log their committed "
                        "prefix is unknowable — restore the full WAL "
                        "directory (the copy is partial or the commit log "
                        "was deleted)"
                    )
            return cls(directory, num_shards, fsync=fsync)
        magic, version, kind, logged_shards = _HEADER.unpack_from(commit_head, 0)
        if magic != _MAGIC:
            raise WALError(f"{commit_path}: not a repro WAL file")
        _check_version(commit_path, version)
        if kind != _KIND_COMMIT:
            raise WALLayoutError(
                f"{commit_path}: header names a shard log, not a commit log; "
                "the directory's files were renamed or mixed up"
            )
        if logged_shards != num_shards:
            if read_log_records(commit_path).records:
                raise WALLayoutError(
                    f"{commit_path} was written by a {logged_shards}-shard "
                    f"service, but the checkpoint restores {num_shards} "
                    "shards; the directory mixes deployments"
                )
            # Empty commit log under a foreign-layout header: the crash
            # window of reshard's log reset (the new layout's segments were
            # being swapped in when the process died). Nothing is
            # replayable, so normalize the segment set to the attaching
            # layout.
            wal = cls(directory, num_shards, fsync=fsync)
            wal.reset_layout(num_shards)
            return wal
        missing = sorted(
            shard_id
            for shard_id, path in shard_paths.items()
            if not os.path.exists(path)
        )
        if missing:
            raise WALLayoutError(
                f"{directory}: commit log present but shard segments missing "
                f"for shards {missing}; a WAL directory holds its full "
                "segment set, so these were deleted or not copied — restore "
                "the full WAL directory"
            )
        for shard_id, path in sorted(shard_paths.items()):
            with open(path, "rb") as fh:
                head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                continue  # torn before the header landed; rewritten on append
            shard_magic, shard_version, shard_kind, shard_field = _HEADER.unpack_from(head, 0)
            if shard_magic != _MAGIC:
                raise WALError(f"{path}: not a repro WAL file")
            _check_version(path, shard_version)
            if shard_kind != _KIND_SHARD or shard_field != shard_id:
                raise WALLayoutError(
                    f"{path}: header names "
                    f"{'commit log' if shard_kind == _KIND_COMMIT else f'shard {shard_field}'}, "
                    f"not shard {shard_id}; the directory's files were "
                    "renamed or mixed up"
                )
        return cls(directory, num_shards, fsync=fsync)

    # -- appending -----------------------------------------------------
    def append_batch(
        self,
        seq: int,
        time: float,
        routed: Iterable[tuple[Any, ...]],
        explicit_keys: bool,
    ) -> None:
        """Log one ingested batch: sub-batch records first, then the commit.

        ``routed`` holds ``(shard_id, rows)`` for an unplanned sub-batch
        and ``(shard_id, rows, arrivals)`` for a planned one (``arrivals``
        ``None`` counts as unplanned).

        Under ``"always"`` the touched shard logs are fsynced before the
        commit record is written (and the commit log fsynced after), so a
        readable commit record implies readable sub-batches even across a
        power loss; ``"os"`` relies on the page cache preserving write order
        across a process crash; ``"none"`` defers everything to the next
        flush/checkpoint.

        All or nothing: if any write, flush or fsync raises (a full disk,
        an I/O error), every log the batch touched is rewound to where the
        batch began before the error propagates, so the logs hold exactly
        the batches before it and the same ``seq`` can be appended again.
        """
        marks: list[tuple[_LogFile, int]] = []
        try:
            for shard_id, sub_batch, *plan in routed:
                log = self._shards[int(shard_id)]
                encoding, chunks = _encode_payload(sub_batch)
                if plan and plan[0] is not None:
                    chunks.append(_ARRIVALS.pack(int(plan[0])))
                marks.append((log, log.tell()))
                log.append([_SHARD_BODY.pack(seq, time), bytes([encoding]), *chunks])
            if self.fsync != "none":
                for log, _ in marks:
                    log.flush(fsync=self.fsync == "always")
            flags = _FLAG_EXPLICIT_KEYS if explicit_keys else 0
            marks.append((self._commit, self._commit.tell()))
            self._commit.append([_COMMIT_BODY.pack(seq, time, flags)])
            if self.fsync != "none":
                self._commit.flush(fsync=self.fsync == "always")
        except BaseException:
            for log, offset in marks:
                log.rewind(offset)
            raise

    def flush(self) -> None:
        """Push every buffered record to the OS (and to disk under ``"always"``)."""
        for log in (*self._shards.values(), self._commit):
            log.flush(fsync=self.fsync == "always")

    def close(self) -> None:
        """Flush and close the log file handles (the logs stay on disk).

        Idempotent, and every handle is attempted even when one fails: a
        flush error on one segment (ENOSPC, a yanked filesystem) must not
        leave the remaining handles open — the first failure is re-raised
        after the sweep.
        """
        first_error: OSError | None = None
        for log in (*self._shards.values(), self._commit):
            try:
                log.close()
            except OSError as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    # -- truncation / layout -------------------------------------------
    def truncate(self, watermark: int) -> None:
        """Drop every record with ``seq <= watermark`` (the checkpoint's edge).

        Called after a delta checkpoint lands: everything at or below the
        watermark is durable in the checkpoint, so the logs shrink back to
        the replay tail (usually nothing). Crash-safe: replay filters by the
        manifest watermark regardless. A replication caller must move its
        standby's base up to the watermark first — promotion replays from
        the base, and truncated frames are gone.
        """
        for log in (*self._shards.values(), self._commit):
            log.rewrite_keeping(lambda record: record.seq > watermark)

    def drop_uncommitted(self, last_committed: int) -> None:
        """Drop shard records beyond the last commit (crash orphans).

        A crash between a sub-batch append and its commit leaves orphan shard
        records; recovery discards them so the next live append (which reuses
        their sequence numbers) cannot produce an out-of-order log.
        """
        for log in self._shards.values():
            log.rewrite_keeping(lambda record: record.seq <= last_committed)

    def reset_layout(self, num_shards: int) -> None:
        """Replace the logs with a fresh, empty set for a new layout.

        Called by ``reshard`` *after* it has checkpointed (so the logs are
        already truncated to nothing): the per-shard logs are keyed by the
        old layout's shard ids and would be nonsense under the new one.
        Every segment is swapped via tmp-file + ``os.replace`` and the
        commit log is replaced *last*, so a crash at any point leaves a
        directory :meth:`attach` accepts — either the old layout (its
        manifest still current) or an empty foreign-layout set that attach
        normalizes.
        """
        self.close()
        self.num_shards = int(num_shards)
        for shard_id in range(self.num_shards):
            _replace_with_header(
                os.path.join(self.directory, _shard_log_name(shard_id)),
                _KIND_SHARD,
                shard_id,
            )
        _replace_with_header(
            os.path.join(self.directory, _COMMIT_NAME), _KIND_COMMIT, self.num_shards
        )
        for name in sorted(os.listdir(self.directory)):
            stray_id = _parse_shard_log_name(name)
            if stray_id is not None and stray_id >= self.num_shards:
                os.unlink(os.path.join(self.directory, name))
        self._commit = _LogFile(
            os.path.join(self.directory, _COMMIT_NAME), _KIND_COMMIT, self.num_shards
        )
        self._shards = {
            shard_id: _LogFile(
                os.path.join(self.directory, _shard_log_name(shard_id)),
                _KIND_SHARD,
                shard_id,
            )
            for shard_id in range(self.num_shards)
        }

    # -- recovery ------------------------------------------------------
    def collect_replay(self, watermark: int) -> ReplayPlan:
        """Scan the logs for the replayable tail beyond ``watermark``.

        Reads the commit log (torn tail tolerated — that is the expected
        crash artifact), takes the last committed sequence number as the
        recovery horizon, and gathers each shard's sub-batches within
        ``(watermark, horizon]``. Shard records beyond the horizon are
        uncommitted orphans, listed for :meth:`drop_uncommitted`. Gaps in
        the committed range, or a shard record whose commit is missing
        mid-range, raise :class:`WALError` — they cannot be produced by a
        crash, only by corruption or mixed-up files.
        """
        torn: list[TornTail] = []
        commit_scan = read_log_records(self._commit.path) if os.path.exists(
            self._commit.path
        ) else LogScan(kind=_KIND_COMMIT, shard_id=-1, num_shards=self.num_shards)
        if commit_scan.torn is not None:
            torn.append(commit_scan.torn)
        commits = [r for r in commit_scan.records if r.seq > watermark]
        expected = watermark + 1
        for record in commits:
            if record.seq != expected:
                raise WALError(
                    f"{self._commit.path}: committed batches jump from "
                    f"{expected - 1} to {record.seq}; the log was truncated "
                    "inconsistently with its checkpoint"
                )
            expected += 1
        last_seq = commits[-1].seq if commits else watermark
        last_time = commits[-1].time if commits else float("nan")
        explicit = any(r.flags & _FLAG_EXPLICIT_KEYS for r in commits)
        committed = {r.seq for r in commits}
        per_shard: dict[int, tuple[list[np.ndarray], list[float]]] = {}
        arrivals: dict[int, list[int | None]] = {}
        orphaned: list[int] = []
        for shard_id, log in self._shards.items():
            if not os.path.exists(log.path):
                continue
            scan = read_log_records(log.path)
            if scan.torn is not None:
                torn.append(scan.torn)
            batches: list[np.ndarray] = []
            times: list[float] = []
            counts: list[int | None] = []
            for record in scan.records:
                if record.seq <= watermark:
                    continue  # truncation debris below the checkpoint edge
                if record.seq > last_seq:
                    orphaned.append(shard_id)
                    break
                if record.seq not in committed:
                    raise WALError(
                        f"{log.path}: record for batch {record.seq} has no "
                        f"commit in {self._commit.path}; the logs are from "
                        "different runs or were partially copied"
                    )
                batches.append(record.payload)
                times.append(record.time)
                counts.append(record.arrivals)
            if batches:
                per_shard[shard_id] = (batches, times)
                arrivals[shard_id] = counts
        return ReplayPlan(
            last_seq=int(last_seq),
            last_time=float(last_time),
            explicit_keys=explicit,
            per_shard=per_shard,
            orphaned_shards=sorted(orphaned),
            torn=torn,
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
    each shard's log tail beyond the checkpoint watermark through the normal
    ``ingest_stream`` path, and returns a live service with the WAL
    re-attached for continued appends. By the determinism contract the
    result is bit-identical to the uninterrupted run through the last
    *committed* batch — on any executor backend. ``service.batches_seen``
    tells the producer where to resume its stream.

    A torn log tail (crash mid-append) is tolerated: recovery stops at the
    last committed batch. Corruption below the tail raises
    :class:`WALError`; an inconsistent segment set (missing or foreign
    segments under a live manifest) raises :class:`WALLayoutError`; a
    damaged checkpoint raises
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
    if plan.orphaned_shards:
        wal.drop_uncommitted(plan.last_seq)
    service._wal = wal
    service._wal_watermark = watermark
    if replication is not None:
        service._enable_replication(replication)
    return service
