"""Pickle-free directory checkpoints for samplers and the sampler service.

A checkpoint is a directory with two files:

* ``manifest.json`` — the snapshot's tree of scalars and containers, with
  every NumPy array replaced by a tagged reference, plus the name of the
  array archive it belongs to;
* ``arrays-<token>.npz`` — the referenced numeric arrays, stored losslessly
  (and uncompressed) in NumPy's native format under a unique name per save.

Saving into a directory that already holds a checkpoint is crash-safe: the
new array archive is written under a fresh name first, then the manifest is
swapped in with an atomic ``os.replace``, and only then are superseded
archives deleted. A crash at any point leaves either the complete old
checkpoint or the complete new one — never a manifest pointing at arrays
from a different save.

Pickle is deliberately never used (``np.load`` runs with
``allow_pickle=False``), so loading a checkpoint can execute no code — safe
to move between machines and trust boundaries. The trade-off is on payload
types: numeric payload arrays round-trip exactly through the npz; arbitrary
Python payloads must be JSON-serializable and round-trip through JSON
semantics (tuples come back as lists). Payloads that are neither raise
``TypeError`` at save time with the offending path, rather than silently
writing a checkpoint that cannot be restored.

JSON floats round-trip exactly (``repr``-based shortest representation), so
``W_t``/``C_t`` bookkeeping and RNG states restore bit for bit.

A WAL-enabled service's *paired* checkpoint uses the same tree encoding in
a single file: it is the base record at the head of the service's log
(:func:`save_service_delta`, :func:`load_service_delta`; see
:mod:`repro.service.wal`).
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zipfile
import zlib
from typing import Any

import numpy as np

from repro.core.base import CHECKPOINT_MANIFEST_VERSION
from repro.service.wal import (
    _LOG_NAME,
    WALError,
    WriteAheadLog,
    _decode_payload,
    _encode_payload,
    read_log_records,
)

__all__ = [
    "CheckpointError",
    "MissingCheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "save_sampler",
    "load_sampler",
    "save_service",
    "load_service",
    "save_service_delta",
    "load_service_delta",
]


class CheckpointError(RuntimeError):
    """A checkpoint directory is truncated, corrupt, or unreadable.

    Raised by :func:`load_checkpoint` with a message that names the
    offending file (missing array archive, corrupt manifest JSON, dangling
    array reference, ...) so an operator can tell a partially-copied
    checkpoint from a software bug without reading a stack trace.
    """


class MissingCheckpointError(CheckpointError, FileNotFoundError):
    """No checkpoint exists at the given directory (no manifest file).

    Subclasses :class:`FileNotFoundError` so callers probing for an optional
    checkpoint can keep the idiomatic ``except FileNotFoundError``.
    """

_MANIFEST_NAME = "manifest.json"
_ARRAYS_PREFIX = "arrays-"
_ARRAYS_SUFFIX = ".npz"
_KIND = "__repro_kind__"


def _encode(node: Any, arrays: dict[str, np.ndarray], path: str) -> Any:
    """Replace arrays with references; verify the rest is JSON-representable."""
    if isinstance(node, np.ndarray):
        if node.dtype == object:
            return {_KIND: "object_array", "items": _encode(node.tolist(), arrays, path)}
        ref = f"a{len(arrays)}"
        arrays[ref] = node
        return {_KIND: "ndarray", "ref": ref}
    if isinstance(node, (np.integer, np.floating, np.bool_)):
        return node.item()
    if isinstance(node, dict):
        if _KIND in node:
            # A payload dict carrying the reserved tag would be
            # misinterpreted as an array reference on load; refuse now.
            raise TypeError(
                f"checkpoint mappings must not use the reserved key "
                f"{_KIND!r} (found at {path})"
            )
        encoded = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"checkpoint mapping keys must be strings, got "
                    f"{type(key).__name__} at {path}"
                )
            encoded[key] = _encode(value, arrays, f"{path}.{key}")
        return encoded
    if isinstance(node, (list, tuple)):
        return [
            _encode(value, arrays, f"{path}[{index}]")
            for index, value in enumerate(node)
        ]
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise TypeError(
        f"cannot checkpoint value of type {type(node).__name__} at {path}; "
        "payloads must be numeric arrays or JSON-serializable objects "
        "(pickle is intentionally not supported)"
    )


def _decode(node: Any, arrays: Any) -> Any:
    if isinstance(node, dict):
        kind = node.get(_KIND)
        if kind == "ndarray":
            return arrays[node["ref"]]
        if kind == "object_array":
            items = _decode(node["items"], arrays)
            out = np.empty(len(items), dtype=object)
            for index, item in enumerate(items):
                out[index] = item
            return out
        return {key: _decode(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode(value, arrays) for value in node]
    return node


def save_checkpoint(state: dict[str, Any], directory: str | os.PathLike) -> None:
    """Persist a snapshot mapping (``state_dict()`` output) to ``directory``.

    Crash-safe for a single writer overwriting a previous checkpoint in the
    same directory: the array archive is written under a fresh unique name,
    the manifest (which names its archive) is swapped in atomically via
    ``os.replace``, and only then are superseded archives garbage-collected.
    Interrupting the save at any point leaves a loadable checkpoint — the
    old one until the manifest swap, the new one after (a process crash;
    nothing is fsynced). The arrays are stored uncompressed: a deflated
    archive is about 3x smaller, but writing it takes about 7x as long.
    """
    os.makedirs(directory, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    encoded = _encode(state, arrays, path="$")

    fd, arrays_tmp = tempfile.mkstemp(
        dir=directory, prefix=_ARRAYS_PREFIX, suffix=_ARRAYS_SUFFIX + ".tmp"
    )
    try:
        # Write through the open handle: np.savez would append ".npz" to a
        # path that does not already end with it.
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        arrays_name = os.path.basename(arrays_tmp)[: -len(".tmp")]
        os.replace(arrays_tmp, os.path.join(directory, arrays_name))
    except BaseException:
        if os.path.exists(arrays_tmp):
            os.unlink(arrays_tmp)
        raise

    manifest = {
        "manifest_version": CHECKPOINT_MANIFEST_VERSION,
        "arrays_file": arrays_name,
        "state": encoded,
    }
    fd, manifest_tmp = tempfile.mkstemp(dir=directory, prefix="manifest-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, separators=(",", ":"))
        os.replace(manifest_tmp, os.path.join(directory, _MANIFEST_NAME))
    except BaseException:
        if os.path.exists(manifest_tmp):
            os.unlink(manifest_tmp)
        raise

    # The new checkpoint is durable; drop superseded archives and any
    # leftover temp files from interrupted saves (best effort).
    for name in os.listdir(directory):
        superseded = (
            name.startswith(_ARRAYS_PREFIX)
            and name != arrays_name
            and (name.endswith(_ARRAYS_SUFFIX) or name.endswith(".tmp"))
        ) or (name.startswith("manifest-") and name.endswith(".tmp"))
        if superseded:
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass


def _check_manifest_version(manifest: dict[str, Any], manifest_path: str) -> None:
    """Refuse a manifest of any version but the one this build writes."""
    if "manifest_version" not in manifest:
        raise CheckpointError(f"checkpoint manifest {manifest_path} has no manifest_version")
    if manifest["manifest_version"] != CHECKPOINT_MANIFEST_VERSION:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path}: unsupported manifest_version "
            f"{manifest['manifest_version']!r}; this build reads {CHECKPOINT_MANIFEST_VERSION}"
        )


def load_checkpoint(directory: str | os.PathLike) -> dict[str, Any]:
    """Load a snapshot mapping previously written by :func:`save_checkpoint`.

    A directory with no manifest raises :class:`MissingCheckpointError` (a
    ``FileNotFoundError``). Any *damaged* checkpoint — corrupt manifest
    JSON, a manifest missing its required keys, a missing or unreadable
    array archive, a dangling array reference — raises
    :class:`CheckpointError` naming the bad file, never a raw decoding
    stack trace.
    """
    manifest_path = os.path.join(directory, _MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise MissingCheckpointError(f"no checkpoint manifest at {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as error:
            raise CheckpointError(
                f"corrupt checkpoint manifest {manifest_path}: not valid JSON "
                f"({error}); the checkpoint was truncated or partially copied"
            ) from error
    if not isinstance(manifest, dict) or "arrays_file" not in manifest or "state" not in manifest:
        raise CheckpointError(
            f"corrupt checkpoint manifest {manifest_path}: expected a mapping "
            "with 'arrays_file' and 'state' keys"
        )
    _check_manifest_version(manifest, manifest_path)
    arrays_path = os.path.join(directory, manifest["arrays_file"])
    if not os.path.exists(arrays_path):
        raise CheckpointError(
            f"checkpoint array archive missing: {arrays_path} (named by "
            f"{manifest_path}); the checkpoint directory is incomplete — "
            "copy it atomically or re-save"
        )
    # Opened here: np.load(path) leaks its handle when NpzFile's constructor raises.
    with open(arrays_path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            # BadZipFile subclasses neither OSError nor ValueError; a
            # *truncated* npz (as opposed to non-zip garbage) raises it.
            raise CheckpointError(
                f"unreadable checkpoint array archive {arrays_path}: {error}"
            ) from error
        try:
            return _decode(manifest["state"], archive)
        except KeyError as error:
            raise CheckpointError(
                f"checkpoint array archive {arrays_path} lacks array {error} "
                f"referenced by {manifest_path}; manifest and archive are "
                "from different saves"
            ) from error
        except (OSError, ValueError, zipfile.BadZipFile, zlib.error) as error:
            # NpzFile decompresses members lazily, so damage *inside* the
            # archive (bad CRC, truncated member) surfaces here, not at
            # np.load time.
            raise CheckpointError(
                f"corrupt data inside checkpoint array archive {arrays_path}: "
                f"{error}"
            ) from error


def save_sampler(sampler: "Sampler", directory: str | os.PathLike) -> None:
    """Checkpoint a single sampler to a directory."""
    save_checkpoint(sampler.state_dict(), directory)


def load_sampler(directory: str | os.PathLike) -> "Sampler":
    """Restore a single sampler, dispatching on the stored sampler type."""
    from repro.core.base import Sampler

    return Sampler.from_state_dict(load_checkpoint(directory))


def save_service(service: "SamplerService", directory: str | os.PathLike) -> None:
    """Checkpoint a whole :class:`~repro.service.service.SamplerService`."""
    save_checkpoint(service.state_dict(), directory)


def load_service(
    directory: str | os.PathLike,
    sampler_factory,
    key_fn=None,
    executor=None,
    num_shards=None,
) -> "SamplerService":
    """Restore a service checkpoint; the factory is re-supplied by the caller.

    ``executor`` is deployment configuration, not state: a service saved
    under one backend may be restored under any other (e.g. serial in a
    notebook, process pool in production) without changing its trajectory.
    So is ``num_shards``: a checkpoint saved with ``N`` shards restores as
    an ``M``-shard service for any ``M`` (growing, shrinking, or a
    non-power-of-two count) — the restored deployment is elastically
    resharded before it is returned, so every retained item sits on the
    shard its key hashes to under ``M`` and total weight is conserved (see
    :meth:`~repro.service.service.SamplerService.reshard`).

    The paired checkpoint of a WAL directory is not a directory
    checkpoint: :func:`~repro.service.wal.recover_service` restores it,
    together with the batches logged behind it.
    """
    from repro.service.service import SamplerService

    state = load_checkpoint(directory)
    return SamplerService.from_state_dict(
        state,
        sampler_factory,
        key_fn=key_fn,
        executor=executor,
        num_shards=num_shards,
    )


# ----------------------------------------------------------------------
# the paired checkpoint: the base record of a WAL's log
# ----------------------------------------------------------------------
_BASE = struct.Struct("<QI")  # JSON length, array count


def save_service_delta(
    scalar_state: dict[str, Any],
    shard_states: dict[int, dict[str, Any]],
    wal: WriteAheadLog,
    watermark: int,
) -> None:
    """Write a service cut as the paired checkpoint of ``wal``.

    The cut — ``scalar_state`` plus each active shard's state, taken at
    ``watermark``, the global sequence number of the last batch it holds
    (``-1`` before any batch) — becomes the base record of a fresh log
    segment (:meth:`~repro.service.wal.WriteAheadLog.truncate`). Its bytes
    are the tree as compact JSON, every array replaced by a reference
    exactly as in a directory checkpoint's manifest, followed by the arrays
    in the log's pickle-free payload encoding.
    """
    arrays: dict[str, np.ndarray] = {}
    tree = _encode(
        {**scalar_state, "shards": {str(k): v for k, v in sorted(shard_states.items())}},
        arrays,
        path="$",
    )
    text = json.dumps(tree, separators=(",", ":")).encode("utf-8")
    chunks: list[bytes | memoryview] = [_BASE.pack(len(text), len(arrays)), text]
    for array in arrays.values():
        encoding, payload = _encode_payload(array)
        chunks += [bytes((encoding,)), *payload]
    wal.truncate(watermark, chunks, scalar_state["num_shards"])


def load_service_delta(wal_dir: str | os.PathLike) -> tuple[dict[str, Any], int]:
    """Load the paired checkpoint of a WAL directory: ``(state_dict, watermark)``.

    Reads only the log's base record. A directory without a log raises
    :class:`MissingCheckpointError`; a damaged or undecodable base record
    raises :class:`~repro.service.wal.WALError` naming the file.
    """
    path = os.path.join(os.fspath(wal_dir), _LOG_NAME)
    if not os.path.exists(path):
        raise MissingCheckpointError(f"no WAL log at {path}")
    scan = read_log_records(path, strict=True, base_only=True)
    body = scan.base
    if body is None:
        raise WALError(f"{path}: the log holds no base record")
    where = f"{path}: base record"
    try:
        text_length, count = _BASE.unpack_from(body, 0)
        offset = _BASE.size + text_length
        tree = json.loads(bytes(body[_BASE.size : offset]).decode("utf-8"))
        arrays: dict[str, np.ndarray] = {}
        for index in range(count):
            arrays[f"a{index}"], offset = _decode_payload(
                body[offset], body, offset + 1, where
            )
        if offset != len(body):
            raise ValueError(f"{len(body) - offset} bytes past its {count} arrays")
        return _decode(tree, arrays), scan.watermark
    except (ValueError, KeyError, IndexError, TypeError, struct.error) as error:
        raise WALError(f"{where} is undecodable ({error})") from error
