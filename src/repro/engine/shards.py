"""Shard work units for the sampler stack.

These module-level functions are the task payloads the engine backends
run. The in-process task (:func:`ingest_shard_inplace`) ingests a
sub-stream into a live shard sampler on the serial and thread backends. The
rest run in the process backend's persistent workers, so they must be
importable by a worker process (no closures) and take picklable arguments.
The discipline mirrors a real cluster: what crosses the boundary is shard
*state* — the pickle-free ``state_dict()`` snapshot of scalars and NumPy
arrays every sampler implements, shipped once on attach and back on
snapshot or detach — plus the per-batch array frames, never live objects
or code.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.base import Sampler, SamplerSnapshotView

__all__ = [
    "ShardTask",
    "ingest_shard_inplace",
    "merge_samples",
    "group_by_destination",
    "restore_sampler",
    "snapshot_sampler",
    "service_ingest_routed",
    "service_snapshot_views",
]

#: One shard's work unit: ``(sampler, batches, times)``. ``times`` may be
#: ``None`` for the default ``t+1, t+2, ...`` arrival clock.
ShardTask = tuple[Any, Sequence[Any], Sequence[float] | None]


def ingest_shard_inplace(task: ShardTask) -> None:
    """Ingest a sub-stream into a live shard sampler (serial/thread backends).

    The sampler is mutated in place; per-shard samplers own disjoint state
    and private RNG streams, so concurrent execution across shards is safe
    and deterministic.
    """
    sampler, batches, times = task
    sampler.process_stream(batches, times=times)
    return None


def restore_sampler(state: dict[str, Any]) -> Sampler:
    """Transport attach hook: rebuild a resident shard sampler from its snapshot."""
    return Sampler.from_state_dict(state)


def snapshot_sampler(sampler: Sampler) -> dict[str, Any]:
    """Transport snapshot/detach hook: a resident shard sampler's snapshot."""
    return sampler.state_dict()


def service_ingest_routed(
    residents: dict[Any, Any],
    payload: np.ndarray,
    time: float,
    service_id: int,
    shard_sizes: Sequence[tuple[int, int]],
    profile: bool = False,
) -> dict[int, int] | tuple[dict[int, int], float]:
    """Worker-side ingest of one pre-routed frame (the fused transport path).

    The driver hashes and buckets the batch once, then scatters *only this
    worker's items* into the ring, grouped by shard in ascending shard
    order; ``shard_sizes`` lists ``(shard_id, count)`` in that same order,
    so each shard's sub-batch is a zero-copy slice of the frame. There is
    no worker-side hashing and no per-shard selection scan — the worker
    just walks the slices. Sub-batch
    contents and ingestion order are exactly those of the serial path, so
    trajectories stay bit-identical.

    Returns ``{shard_id: item_count}`` (the driver tracks shard activation
    from the counts without blocking the pipeline); with ``profile=True``
    the per-frame ingest wall time rides along for the service's
    phase-breakdown hook.
    """
    begin = perf_counter() if profile else 0.0
    counts: dict[int, int] = {}
    offset = 0
    for shard_id, count in shard_sizes:
        sub_batch = payload[offset : offset + count]
        offset += count
        residents[("svc", service_id, shard_id)].process_stream(
            [sub_batch], times=[time]
        )
        counts[int(shard_id)] = int(count)
    if profile:
        return counts, perf_counter() - begin
    return counts


def service_snapshot_views(
    residents: dict[Any, Any],
    service_id: int,
    include_items: bool = True,
    include_state: bool = False,
) -> dict[int, SamplerSnapshotView]:
    """Worker-side snapshot marker: publish CoW cuts of this worker's shards.

    The driver enqueues this function once per worker *behind* every batch
    dispatched so far (FIFO command pipes), so by the time it runs each
    resident shard has processed exactly the batches up to the driver's
    committed watermark — the per-worker results therefore assemble into a
    single consistent service-wide cut, with no ``drain()`` barrier and with
    later batches free to queue up behind the marker.

    All resident shards of the service are enumerated worker-side (not just
    the ones the driver has seen acks for), so shards activated by still
    unacknowledged batches are part of the cut. Shards that have ingested
    nothing yet (pristine standbys) are skipped — they hold no sampled data
    and are not part of the service's active set.

    Returns ``{shard_id: view}``; views are pure data (read-only arrays or
    tuples plus scalars) and cross the ack pipe without referencing live
    worker state.
    """
    owned = sorted(
        key[2]
        for key in residents
        if isinstance(key, tuple) and key[:2] == ("svc", service_id)
    )
    views: dict[int, SamplerSnapshotView] = {}
    for shard_id in owned:
        sampler = residents[("svc", service_id, shard_id)]
        if sampler.batches_seen == 0:
            continue
        views[int(shard_id)] = sampler.snapshot_view(
            include_items=include_items, include_state=include_state
        )
    return views


def merge_samples(samples: Iterable[Sequence[Any]]) -> list[Any]:
    """Driver-side merge: concatenate per-partition samples in partition order."""
    merged: list[Any] = []
    for sample in samples:
        merged.extend(sample)
    return merged


def group_by_destination(
    items: Sequence[Any], destinations: Sequence[int]
) -> dict[int, list[Any]]:
    """Group planned insert items by their destination partition.

    The single implementation of the plan-phase grouping whose ordering is
    load-bearing for the distributed layer's bit-for-bit trajectory
    guarantee: destinations appear in first-seen order and each
    destination's items keep their original relative order, matching the
    append order of the pre-engine per-item insert loop exactly.
    """
    grouped: dict[int, list[Any]] = {}
    for item, destination in zip(items, destinations):
        grouped.setdefault(destination, []).append(item)
    return grouped
