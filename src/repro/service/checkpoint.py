"""Pickle-free directory checkpoints for samplers and the sampler service.

A checkpoint is a directory with two files:

* ``manifest.json`` — the snapshot's tree of scalars and containers, with
  every NumPy array replaced by a tagged reference, plus the name of the
  array archive it belongs to;
* ``arrays-<token>.npz`` — the referenced numeric arrays, stored losslessly
  in NumPy's native format under a unique name per save.

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
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zipfile
import zlib
from typing import Any

import numpy as np

from repro.core.base import CHECKPOINT_MANIFEST_VERSION
from repro.service.wal import _fault

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


def _fsync_directory(directory: str | os.PathLike) -> None:
    """Make ``directory``'s entries (created, renamed files) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_checkpoint(
    state: dict[str, Any], directory: str | os.PathLike, fsync: bool = False
) -> None:
    """Persist a snapshot mapping (``state_dict()`` output) to ``directory``.

    Crash-safe for a single writer overwriting a previous checkpoint in the
    same directory: the array archive is written under a fresh unique name,
    the manifest (which names its archive) is swapped in atomically via
    ``os.replace``, and only then are superseded archives garbage-collected.
    Interrupting the save at any point leaves a loadable checkpoint — the
    old one until the manifest swap, the new one after. That covers a
    process crash; with ``fsync=True`` it also covers power loss: both
    files are fsynced before their swaps, and the directory after.
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
            np.savez_compressed(fh, **arrays)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
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
            json.dump(manifest, fh, indent=1)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(manifest_tmp, os.path.join(directory, _MANIFEST_NAME))
        if fsync:
            _fsync_directory(directory)
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

    Both checkpoint layouts load transparently: the classic monolithic
    directory written by :func:`save_service`, and the *delta* layout
    written by :func:`save_service_delta` (one sub-checkpoint per shard,
    as produced by a WAL-enabled service — note that loading a delta
    checkpoint alone recovers the service only *up to its watermark*; use
    :func:`~repro.service.wal.recover_service` to also replay the WAL
    tail).
    """
    from repro.service.service import SamplerService

    if os.path.exists(os.path.join(directory, _DELTA_MANIFEST_NAME)):
        state, _ = load_service_delta(directory)
    else:
        state = load_checkpoint(directory)
    return SamplerService.from_state_dict(
        state,
        sampler_factory,
        key_fn=key_fn,
        executor=executor,
        num_shards=num_shards,
    )


# ----------------------------------------------------------------------
# delta checkpoints (incremental per-shard service snapshots)
# ----------------------------------------------------------------------
_DELTA_MANIFEST_NAME = "MANIFEST.json"
_DELTA_KIND = "service-delta"
_SERVICE_PREFIX = "service-"
_SHARD_PREFIX = "shard-"


def _shard_dir_prefix(shard_id: int) -> str:
    return f"{_SHARD_PREFIX}{int(shard_id):05d}-"


def save_service_delta(
    scalar_state: dict[str, Any],
    shard_states: dict[int, dict[str, Any]],
    directory: str | os.PathLike,
    watermark: int,
    dirty: set[int] | None = None,
    fsync: bool = False,
) -> None:
    """Write an incremental service checkpoint, rewriting only dirty shards.

    The delta layout keeps one sub-checkpoint directory per active shard
    (``shard-<id>-<token>/``) plus one for the service's scalar state
    (``service-<token>/``, always rewritten — it is tiny), all named by a
    top-level ``MANIFEST.json``. A save rewrites the sub-checkpoints of the
    shards in ``dirty`` (plus any shard the previous manifest did not know),
    re-references the rest untouched, and swaps the new manifest in with an
    atomic ``os.replace`` — the same crash-safety protocol as
    :func:`save_checkpoint`, extended over a directory tree: a crash at any
    point leaves the previous delta checkpoint fully loadable. Superseded
    sub-checkpoints are garbage-collected after the swap.

    ``watermark`` is the global sequence number of the last batch the
    snapshot includes — the WAL truncation point; ``-1`` for a snapshot
    taken before any batch. ``dirty=None`` rewrites every shard (a full
    save in delta clothing).

    ``fsync=True`` (a WAL under the ``"always"`` policy) makes the save
    durable against power loss before the log is truncated behind it:
    every rewritten sub-checkpoint's files and directory are fsynced, and
    the checkpoint directory too, before the manifest swap (the manifest
    itself is always fsynced), and the directory again after it.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, _DELTA_MANIFEST_NAME)
    previous: dict[str, str] = {}
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                old_manifest = json.load(fh)
            previous = dict(old_manifest.get("shards", {}))
        except (ValueError, OSError, AttributeError):
            # A damaged previous manifest cannot tell us which shard dirs
            # are current, so rewrite everything — correctness over reuse.
            previous = {}
    if dirty is None:
        rewrite = set(shard_states)
    else:
        rewrite = {
            shard_id
            for shard_id in shard_states
            if shard_id in dirty or str(shard_id) not in previous
        }

    shard_dirs: dict[str, str] = {}
    for shard_id, state in sorted(shard_states.items()):
        if shard_id in rewrite:
            shard_dir = tempfile.mkdtemp(
                dir=directory, prefix=_shard_dir_prefix(shard_id)
            )
            save_checkpoint(state, shard_dir, fsync=fsync)
            _fault(f"ckpt.shard-dir:{shard_id}")
            shard_dirs[str(shard_id)] = os.path.basename(shard_dir)
        else:
            shard_dirs[str(shard_id)] = previous[str(shard_id)]

    service_dir = tempfile.mkdtemp(dir=directory, prefix=_SERVICE_PREFIX)
    save_checkpoint(scalar_state, service_dir, fsync=fsync)
    _fault("ckpt.service-dir")
    if fsync:
        _fsync_directory(directory)

    manifest = {
        "manifest_version": CHECKPOINT_MANIFEST_VERSION,
        "kind": _DELTA_KIND,
        "watermark": int(watermark),
        "service": os.path.basename(service_dir),
        "shards": shard_dirs,
    }
    fd, manifest_tmp = tempfile.mkstemp(dir=directory, prefix="MANIFEST-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        _fault("ckpt.manifest-swap")
        os.replace(manifest_tmp, manifest_path)
        if fsync:
            _fsync_directory(directory)
    except BaseException:
        if os.path.exists(manifest_tmp):
            os.unlink(manifest_tmp)
        raise

    # The new manifest is the only live reference; drop every sub-directory
    # (and stray manifest temp) it does not name. Best effort, like the
    # classic GC — leftover debris never breaks a load.
    _fault("ckpt.gc")
    live = {manifest["service"], *shard_dirs.values()}
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if os.path.isdir(path) and (
            name.startswith(_SERVICE_PREFIX) or name.startswith(_SHARD_PREFIX)
        ):
            if name not in live:
                shutil.rmtree(path, ignore_errors=True)
        elif name.startswith("MANIFEST-") and name.endswith(".tmp"):
            try:
                os.unlink(path)
            except OSError:
                pass


def load_service_delta(directory: str | os.PathLike) -> tuple[dict[str, Any], int]:
    """Load a delta checkpoint; return ``(service state_dict, watermark)``.

    Every shard sub-checkpoint is probed before anything is raised: a
    partially-written or partially-copied delta directory reports **all**
    missing or damaged shard checkpoints in one :class:`CheckpointError`
    (each with its path and failure), instead of failing on the first
    absent archive — one error message tells the operator the full extent
    of the damage.
    """
    directory = os.fspath(directory)
    manifest_path = os.path.join(directory, _DELTA_MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise MissingCheckpointError(f"no delta-checkpoint manifest at {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as error:
            raise CheckpointError(
                f"corrupt delta-checkpoint manifest {manifest_path}: not valid "
                f"JSON ({error}); the checkpoint was truncated or partially "
                "copied"
            ) from error
    if (
        not isinstance(manifest, dict)
        or manifest.get("kind") != _DELTA_KIND
        or "service" not in manifest
        or "shards" not in manifest
        or "watermark" not in manifest
    ):
        raise CheckpointError(
            f"corrupt delta-checkpoint manifest {manifest_path}: expected a "
            f"mapping with kind={_DELTA_KIND!r} and 'service', 'shards', "
            "'watermark' keys"
        )
    _check_manifest_version(manifest, manifest_path)

    problems: list[str] = []
    scalar_state: dict[str, Any] | None = None
    service_dir = os.path.join(directory, manifest["service"])
    try:
        scalar_state = load_checkpoint(service_dir)
    except CheckpointError as error:
        problems.append(f"service state {service_dir}: {error}")

    shards: dict[str, dict[str, Any]] = {}
    for shard_id, dirname in sorted(
        manifest["shards"].items(), key=lambda pair: int(pair[0])
    ):
        shard_dir = os.path.join(directory, dirname)
        try:
            shards[shard_id] = load_checkpoint(shard_dir)
        except MissingCheckpointError:
            problems.append(
                f"shard {shard_id}: checkpoint {shard_dir} is missing (named "
                f"by {manifest_path})"
            )
        except CheckpointError as error:
            problems.append(f"shard {shard_id}: stale or damaged checkpoint — {error}")
    if problems:
        details = "\n  - ".join(problems)
        raise CheckpointError(
            f"delta checkpoint {directory} is incomplete: "
            f"{len(problems)} of {len(manifest['shards']) + 1} sub-checkpoints "
            f"unreadable; the directory is crash debris or a partial copy.\n"
            f"  - {details}"
        )
    assert scalar_state is not None
    state = dict(scalar_state)
    state["shards"] = shards
    return state, int(manifest["watermark"])
