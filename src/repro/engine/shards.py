"""Shard work units for the sampler stack.

These module-level functions are what the shard hosts run on the service's
behalf: build a shard's sampler, ingest a window of pre-routed sub-batches
(:func:`service_ingest_window`), publish snapshot views, and the
attach/snapshot hooks built on the ``state_dict()`` protocol. The process
backend's persistent workers run them too, so they must be importable by a
worker process (no closures) and take picklable arguments. The discipline
mirrors a real cluster: what crosses the boundary is shard *state* — the
pickle-free ``state_dict()`` snapshot of scalars and NumPy arrays every
sampler implements, shipped once on attach and back on snapshot or detach —
plus the per-batch array frames, never live objects or code.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.base import Sampler, SamplerSnapshotView
from repro.core.random_utils import generator_from_state

__all__ = [
    "build_shard_sampler",
    "merge_samples",
    "group_by_destination",
    "restore_sampler",
    "snapshot_sampler",
    "service_ingest_window",
    "service_snapshot_views",
]


def build_shard_sampler(
    factory: Callable[[np.random.Generator], Any], rng_state: dict[str, Any]
) -> Sampler:
    """A fresh shard sampler: ``factory`` called on a new generator at ``rng_state``.

    Every call hands the factory its own copy of the shard's reserved
    stream, so nothing the factory or its sampler draws moves the stream
    itself. Refuses a factory that does not build a
    :class:`~repro.core.base.Sampler`.
    """
    sampler = factory(generator_from_state(rng_state))
    if not isinstance(sampler, Sampler):
        raise TypeError(
            "sampler_factory must return a repro.core.base.Sampler, "
            f"got {type(sampler).__name__}"
        )
    return sampler


def restore_sampler(state: dict[str, Any]) -> Sampler:
    """Transport attach hook: rebuild a resident shard sampler from its snapshot."""
    return Sampler.from_state_dict(state)


def snapshot_sampler(sampler: Sampler) -> dict[str, Any]:
    """Transport snapshot/detach hook: a resident shard sampler's snapshot."""
    return sampler.state_dict()


def service_ingest_window(
    residents: dict[Any, Any],
    payload: np.ndarray | None,
    entries: Sequence[tuple[float, Sequence[tuple[Any, ...]]]],
    service_id: int,
) -> tuple[dict[int, int], float]:
    """Ingest one window of pre-routed batches into the hosted shards.

    The driver routes each batch once and stages its per-shard sub-batches.
    On the process backend a worker's runs lie back to back in ``payload``:
    per batch, in arrival order, its shards' items grouped in ascending
    shard order, and ``entries`` holds one ``(time, [(shard_id, count),
    ...])`` per staged batch in the same order, so each sub-batch is a
    zero-copy slice of the frame — no worker-side hashing and no per-shard
    selection scan. In process there is no frame (``payload`` is ``None``)
    and each entry lists the sub-batches' rows themselves, ``(shard_id,
    rows, ...)``. A planned sub-batch carries a third field, ``arrivals``:
    its rows are the ones the driver accepted out of ``arrivals`` (possibly
    none of them). Each shard then ingests its sub-batches in one
    ``ingest_stream`` call at the batches' arrival times, so every backend
    feeds every shard the same sub-streams and trajectories stay
    bit-identical.

    Returns ``({shard_id: arrivals}, seconds)``: the items routed to each
    shard, the accepted ones or not (the driver tracks shard activation
    from the counts without blocking the pipeline), and the window's ingest
    wall time, which the service reports as its ``worker_ingest`` phase.
    """
    begin = perf_counter()
    streams: dict[int, tuple[list[np.ndarray], list[float], list[int | None]]] = {}
    counts: dict[int, int] = {}
    offset = 0
    for time, sub_batches in entries:
        for shard_id, rows, *plan in sub_batches:
            if payload is not None:
                rows, offset = payload[offset : offset + rows], offset + rows
            planned = plan[0] if plan else None
            batches, times, arrivals = streams.setdefault(shard_id, ([], [], []))
            batches.append(rows)
            times.append(time)
            arrivals.append(planned)
            counts[shard_id] = counts.get(shard_id, 0) + (
                len(rows) if planned is None else planned
            )
    for shard_id, (batches, times, arrivals) in streams.items():
        residents[("svc", service_id, shard_id)].ingest_stream(
            batches, times=times, arrivals=arrivals
        )
    return counts, perf_counter() - begin


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
