"""The three workloads: inputs from a seed, the measured loop, and the checks.

Every workload drives the public :class:`~repro.service.SamplerService` API
with R-TBS, n = 10k split over 8 shards, lambda = 0.07 and int64 items (see
``perfbench/README.md`` for why each one exists). A run is one or two
*phases* — set-up, the measured loop, and for ``durable-100k`` a simulated
crash and recovery — followed by an untraced serial reference run that the
final sample must match bit for bit.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, ContextManager

import numpy as np

import repro.service.wal as wal_module
from repro.core import RTBS
from repro.service import ReplicationConfig, SamplerService, shard_ids_for_keys

from perfbench.measure import peak_rss_mb, percentile
from perfbench.tracing import Tracer, installed, layer_targets

N_TOTAL = 10_000
NUM_SHARDS = 8
SHARD_CAPACITY = N_TOTAL // NUM_SHARDS
LAMBDA = 0.07
#: ``live-1k`` reads the full sample after every this many batches.
READ_EVERY = 10
#: ``durable-100k``'s reader polls ``stats()`` on this fixed schedule.
READ_HZ = 100.0
READ_STALENESS = 8
#: Batches ingested after the last checkpoint before the simulated crash.
TAIL_BATCHES = 8
#: The reference run's ingest window: it divides neither the 64-batch calls
#: nor the service's default window, nor is it the per-batch path.
REFERENCE_WINDOW = 7
#: Step between the key-pool offsets of consecutive batches (a prime, so
#: batches draw from scattered stretches of the pool).
_KEY_STRIDE = 104_729
_SEED_TAG = 0x7B5


def make_sampler(rng: np.random.Generator) -> RTBS:
    """The per-shard sampler: R-TBS holding an eighth of the n = 10k budget."""
    return RTBS(n=SHARD_CAPACITY, lambda_=LAMBDA, rng=rng)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    batch_size: int
    #: Batches per ingest call; 1 means one ``ingest_batch`` call per batch.
    batches_per_call: int
    #: WAL, replication, checkpoints, a stats reader and crash recovery.
    durable: bool = False
    #: Explicit routing keys drawn Zipf-skewed over this many users (0: the
    #: items route on themselves). The key pool holds one draw per user.
    users: int = 0
    #: Set-ups per phase; ``setup_s`` is their median.
    setups: int = 101
    #: The loop runs at least this many calls, so the median has its tail.
    min_calls: int = 20


WORKLOADS: dict[str, Workload] = {
    "bulk-100k": Workload("bulk-100k", "serial", 100_000, 64),
    "live-1k": Workload("live-1k", "serial", 1_000, 1, min_calls=200),
    "durable-100k": Workload(
        "durable-100k", "process", 100_000, 64, durable=True, users=1 << 20, setups=41
    ),
}


def zipf_keys(rng: np.random.Generator, users: int, count: int) -> np.ndarray:
    """``count`` user ids drawn with P(rank r) proportional to 1/r over ``users``.

    Which id each rank has is fixed for the workload, not drawn from the
    run's seed: the hot users, and so the shard loads they skew, stay the
    same from seed to seed, and only the order of arrivals changes.
    """
    cdf = np.cumsum(1.0 / np.arange(1, users + 1, dtype=np.float64))
    cdf /= cdf[-1]
    ranks = np.minimum(np.searchsorted(cdf, rng.random(count), side="right"), users - 1)
    # Hot users get arbitrary ids, not the smallest ones.
    population = np.random.default_rng([_SEED_TAG, users]).permutation(users)
    return population.astype(np.int64)[ranks]


class Inputs:
    """A workload's batches and keys, a pure function of the seed.

    Items are distinct int64 event ids (sequence numbers scrambled by a
    seeded mask). Keys, where used, are slices of one seeded Zipf pool.
    Batch ``i`` is built on demand, so a run of any length holds only the
    batches of the call in flight.
    """

    def __init__(self, seed: int, workload: Workload) -> None:
        rng = np.random.default_rng([_SEED_TAG, seed])
        self.batch_size = workload.batch_size
        # Bit 61 always set: every item is a three-digit Python int, so the
        # cost of materializing a sample does not depend on the seed.
        self._mask = np.int64((1 << 61) | int(rng.integers(0, 1 << 61)))
        self._keys = (
            zipf_keys(rng, workload.users, workload.users) if workload.users else None
        )

    def items(self, index: int) -> np.ndarray:
        size = self.batch_size
        ids = np.arange(index * size, (index + 1) * size, dtype=np.int64)
        ids ^= self._mask
        return ids

    def shard_shares(self) -> list[float] | None:
        """Each shard's share of the key pool: how uneven the shard loads are."""
        if self._keys is None:
            return None
        shards = shard_ids_for_keys(self._keys, NUM_SHARDS)
        counts = np.bincount(shards, minlength=NUM_SHARDS)
        return [round(float(count) / len(shards), 4) for count in counts]

    def keys(self, index: int) -> np.ndarray | None:
        if self._keys is None:
            return None
        size = self.batch_size
        start = (index * _KEY_STRIDE) % (len(self._keys) - size + 1)
        return self._keys[start : start + size]


@dataclass
class Phase:
    """What one set-up plus measured loop observed."""

    setup_s: list[float] = field(default_factory=list)
    ingest_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    checkpoint_s: list[float] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    lag_batches: list[int] = field(default_factory=list)
    #: Items and batches ingested by the measured calls.
    items: int = 0
    batches: int = 0
    calls: int = 0
    reads_due: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Invariant breaches seen by reads during the loop.
    violations: list[str] = field(default_factory=list)
    #: Wall time of the measured loop.
    wall_s: float = 0.0
    #: The final committed state (see :func:`cut_of`).
    cut: dict[str, Any] | None = None
    recovered_matches: bool | None = None
    #: Writer-thread time the measured loop spent inside service operations, and
    #: the part of it that layer spans cover (traced phases only).
    loop_ops_s: float = 0.0
    loop_layer_s: float = 0.0
    #: Peak resident memory of each worker process, read before the pool closed.
    worker_peak_mb: list[float] = field(default_factory=list)


def _untraced(name: str) -> ContextManager[None]:
    return nullcontext()


def _attempt(phase: Phase, what: str, operation: Callable[[], Any]) -> tuple[bool, Any]:
    """Run one counted operation; whatever it raises is counted, never propagated.

    Returns whether it succeeded and what it returned. A failure leaves the
    run's state unknown, so its checks then mark the run incorrect.
    """
    phase.attempted += 1
    try:
        return True, operation()
    except Exception as error:
        phase.failed += 1
        phase.errors.append(f"{what}: {error!r}")
        return False, None


def cut_of(service: SamplerService) -> dict[str, Any]:
    """The service's committed state: clock plus every shard's sample and weights."""
    snap = service.snapshot()
    return {
        "batches_seen": service.batches_seen,
        "time": snap.time,
        "shards": {
            shard_id: (
                np.array(view.items, copy=True),
                float(view.total_weight),
                float(view.expected_size),
                int(view.sample_size),
                float(view.time),
            )
            for shard_id, view in snap.views.items()
        },
    }


def same_cut(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Bit-identical samples, weights and clocks."""
    if (a["batches_seen"], a["time"]) != (b["batches_seen"], b["time"]):
        return False
    if sorted(a["shards"]) != sorted(b["shards"]):
        return False
    for shard_id, (items, *scalars) in a["shards"].items():
        other_items, *other_scalars = b["shards"][shard_id]
        if items.dtype != other_items.dtype or not np.array_equal(items, other_items):
            return False
        if scalars != other_scalars:
            return False
    return True


def within_capacity(cut: dict[str, Any]) -> bool:
    """Every shard holds C_t <= n/8 and at most n/8 realized items."""
    return all(
        expected <= SHARD_CAPACITY + 1e-9 and size <= SHARD_CAPACITY
        for _, _, expected, size, _ in cut["shards"].values()
    )


def weight_matches(cut: dict[str, Any], batch_size: int) -> bool:
    """Total weight equals the closed form sum_i |B_i| e^{-lambda (t - t_i)}.

    Batches arrive at t_i = 1, 2, ..., m; a shard that sat out the last
    batches is decayed to the service clock before summing.
    """
    batches, now = cut["batches_seen"], cut["time"]
    if now != float(batches):
        return False
    ages = now - np.arange(1, batches + 1, dtype=np.float64)
    closed = math.fsum(batch_size * np.exp(-LAMBDA * ages))
    observed = math.fsum(
        weight * math.exp(-LAMBDA * (now - shard_time))
        for _, weight, _, _, shard_time in cut["shards"].values()
    )
    return math.isclose(observed, closed, rel_tol=1e-9)


class _Reader(threading.Thread):
    """Open-loop ``stats()`` poller on a fixed schedule.

    Read ``k`` is due at ``start + k / READ_HZ`` whether or not earlier
    reads finished on time; a stall makes the reads behind it late, and
    each read's latency is timed from when it was due.
    """

    def __init__(
        self, service: SamplerService, start: float, tracer: Tracer | None
    ) -> None:
        super().__init__(name="perfbench-reader", daemon=True)
        self._service = service
        self._start = start
        self._tracer = tracer
        self._stop_event = threading.Event()
        self.phase = Phase()

    def run(self) -> None:
        op: Callable[[str], ContextManager[None]] = _untraced
        if self._tracer is not None:
            self._tracer.set_role("reader")
            op = self._tracer.operation
        phase = self.phase
        period = 1.0 / READ_HZ
        due = self._start
        while not self._stop_event.is_set():
            wait = due - perf_counter()
            if wait > 0 and self._stop_event.wait(wait):
                break
            phase.lateness_s.append(perf_counter() - due)
            phase.attempted += 1
            try:
                with op("read"):
                    stats = self._service.stats(max_staleness_batches=READ_STALENESS)
            # A reader must keep polling whatever one read raises; the
            # failure is counted and reported, never dropped.
            except Exception as error:
                phase.failed += 1
                phase.errors.append(f"stats: {error!r}")
            else:
                phase.read_s.append(perf_counter() - due)
                replication = stats["durability"]["replication"]
                phase.lag_batches.append(int(replication["standby_lag_batches"]))
                for shard_id, shard in stats["shards"].items():
                    if (
                        shard["items"] > SHARD_CAPACITY
                        or shard["expected_sample_size"] > SHARD_CAPACITY + 1e-9
                    ):
                        phase.violations.append(f"shard {shard_id} over capacity")
            due += period

    def stop(self) -> None:
        stopped = perf_counter()
        self._stop_event.set()
        self.join(timeout=60)
        if self.is_alive():
            raise RuntimeError("the stats reader did not stop")
        self.phase.reads_due = int((stopped - self._start) * READ_HZ) + 1


def _build(workload: Workload, seed: int, wal_dir: Path | None) -> SamplerService:
    return SamplerService(
        make_sampler,
        NUM_SHARDS,
        rng=seed,
        executor=workload.backend,
        wal_dir=wal_dir,
        replication=ReplicationConfig() if workload.durable else None,
    )


def _set_up(
    workload: Workload, inputs: Inputs, seed: int, workdir: Path, phase: Phase
) -> SamplerService:
    """Build a service and ingest batch 0, timing it into ``phase.setup_s``.

    A set-up is timed from construction (pool spawn, WAL creation and the
    initial checkpoint included) until the first batch is acknowledged.
    """
    wal_dir = workdir / f"wal-{len(phase.setup_s)}" if workload.durable else None
    start = perf_counter()
    service = _build(workload, seed, wal_dir)
    try:
        service.ingest_batch(inputs.items(0), keys=inputs.keys(0))
    except BaseException:
        service.close()
        raise
    phase.setup_s.append(perf_counter() - start)
    return service


def _call_inputs(
    inputs: Inputs, first: int, count: int
) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
    batches = [inputs.items(index) for index in range(first, first + count)]
    if inputs.keys(first) is None:
        return batches, None
    return batches, [inputs.keys(index) for index in range(first, first + count)]


def _read_sample(
    service: SamplerService, phase: Phase, op: Callable[[str], ContextManager[None]]
) -> None:
    """One full-sample read, the way a model manager fetches its training set."""

    def read() -> list:
        with op("read"):
            start = perf_counter()
            items = service.snapshot().sample_items()
            phase.read_s.append(perf_counter() - start)
        return items

    ok, items = _attempt(phase, "read", read)
    if ok and len(items) > N_TOTAL:
        phase.violations.append(f"read {len(items)} items, more than n = {N_TOTAL}")


def _loop(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    workdir: Path,
    service: SamplerService,
    phase: Phase,
    seconds: float | None,
    calls: int | None,
    tracer: Tracer | None,
) -> int:
    """The measured closed loop; returns the index of the next batch.

    After each call, until ``workload.setups`` set-ups are timed, one more
    service is set up and closed again. How fast a shared machine runs
    changes from second to second: set-ups taken back to back, within half
    a second, all see the same state, while set-ups spread over the loop
    sample all of it. Their time is added to the loop's deadline, so they
    take no calls away.
    """
    op = tracer.operation if tracer is not None else _untraced
    per_call = workload.batches_per_call
    index = 1  # batch 0 was acknowledged during set-up
    gc.collect()
    start = perf_counter()
    deadline = start + seconds if seconds is not None else math.inf
    reader = _Reader(service, start, tracer) if workload.durable else None
    if reader is not None:
        reader.start()
    try:
        while True:
            if calls is not None:
                if phase.calls >= calls:
                    break
            elif perf_counter() >= deadline and phase.calls >= workload.min_calls:
                break
            batches, keys = _call_inputs(inputs, index, per_call)

            def ingest() -> None:
                with op("ingest"):
                    began = perf_counter()
                    if per_call == 1:
                        service.ingest_batch(batches[0], keys=keys[0] if keys else None)
                    else:
                        service.ingest(batches, keys=keys)
                        if workload.durable:
                            service.flush()
                    phase.ingest_s.append(perf_counter() - began)

            # A failed write or checkpoint leaves the stream's state unknown:
            # the loop stops and the checks mark the run incorrect.
            if not _attempt(phase, "ingest", ingest)[0]:
                break
            del batches, keys
            phase.items += per_call * inputs.batch_size
            phase.batches += per_call
            phase.calls += 1
            index += per_call
            if workload.durable:

                def checkpoint() -> None:
                    with op("checkpoint"):
                        began = perf_counter()
                        service.checkpoint()
                        phase.checkpoint_s.append(perf_counter() - began)

                if not _attempt(phase, "checkpoint", checkpoint)[0]:
                    break
            elif per_call == 1 and index % READ_EVERY == 0:
                _read_sample(service, phase, op)
            if len(phase.setup_s) < workload.setups:

                def set_up_and_close() -> None:
                    _set_up(workload, inputs, seed, workdir, phase).close()

                began = perf_counter()
                if not _attempt(phase, "set-up", set_up_and_close)[0]:
                    break
                deadline += perf_counter() - began
        phase.wall_s = perf_counter() - start
        if tracer is not None:
            seconds_by_span, _, _ = tracer.totals(roles=("writer",))
            for (operation, span), value in seconds_by_span.items():
                if operation not in ("ingest", "read", "checkpoint"):
                    continue
                if span == "wall":
                    phase.loop_ops_s += value
                elif "." in span:
                    phase.loop_layer_s += value
    finally:
        if reader is not None:
            reader.stop()
            _merge_reader(phase, reader.phase)
    return index


def _merge_reader(phase: Phase, reads: Phase) -> None:
    phase.read_s += reads.read_s
    phase.lateness_s += reads.lateness_s
    phase.lag_batches += reads.lag_batches
    phase.reads_due += reads.reads_due
    phase.attempted += reads.attempted
    phase.failed += reads.failed
    phase.errors += reads.errors
    phase.violations += reads.violations


def _crash_and_recover(
    workload: Workload,
    inputs: Inputs,
    service: SamplerService,
    phase: Phase,
    index: int,
    workdir: Path,
    tracer: Tracer | None,
) -> SamplerService | None:
    """Leave an un-checkpointed tail, copy the WAL as a crash would, recover it.

    Returns ``None`` when the tail or the recovery raised.
    """
    op = tracer.operation if tracer is not None else _untraced
    batches, keys = _call_inputs(inputs, index, TAIL_BATCHES)
    crash_dir = workdir / "crashed"

    def tail() -> None:
        with op("tail"):
            service.ingest(batches, keys=keys)
            service.flush()
        shutil.copytree(service.wal_dir, crash_dir)

    def recover() -> SamplerService:
        with op("recover"):
            began = perf_counter()
            recovered = wal_module.recover_service(crash_dir, make_sampler)
            phase.recover_s.append(perf_counter() - began)
        return recovered

    if not _attempt(phase, "crash tail", tail)[0]:
        return None
    return _attempt(phase, "recover", recover)[1]


def _worker_peaks_mb(service: SamplerService) -> list[float]:
    """Each worker process's peak resident memory (``VmHWM``), in MB."""
    peaks = []
    for pid in service.check_health().get("worker_pids", []):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]) * 1024 / 1e6)
        except OSError:
            continue
    return peaks


def run_phase(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    workdir: Path,
    seconds: float | None = None,
    calls: int | None = None,
    tracer: Tracer | None = None,
) -> Phase:
    """Set up, run the measured loop (for ``seconds`` or exactly ``calls``), close.

    With a ``tracer`` every layer is wrapped for the loop and the recovery,
    and unwrapped again before this returns.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    phase = Phase()
    ok, service = _attempt(
        phase, "set-up", lambda: _set_up(workload, inputs, seed, workdir, phase)
    )
    if not ok:
        return phase
    recovered: SamplerService | None = None
    try:
        wrapping = installed(tracer, layer_targets()) if tracer else nullcontext()
        with wrapping:
            if tracer is not None:
                tracer.set_role("writer")
            index = _loop(
                workload, inputs, seed, workdir, service, phase, seconds, calls, tracer
            )
            if workload.durable and not phase.failed:
                recovered = _crash_and_recover(
                    workload, inputs, service, phase, index, workdir, tracer
                )
        phase.worker_peak_mb = _worker_peaks_mb(service)
        phase.cut = _attempt(phase, "final read", lambda: cut_of(service))[1]
        if recovered is not None and phase.cut is not None:
            recovered_cut = _attempt(phase, "recovered read", lambda: cut_of(recovered))[1]
            phase.recovered_matches = recovered_cut is not None and same_cut(
                recovered_cut, phase.cut
            )
    finally:
        if recovered is not None:
            recovered.close()
        service.close()
    return phase


def reference_cut(
    workload: Workload, inputs: Inputs, seed: int, batches: int
) -> dict[str, Any]:
    """The same stream through an untraced serial service, windowed differently.

    The whole stream goes through one windowed ``ingest`` of
    :data:`REFERENCE_WINDOW` batches, so its ``process_stream`` calls group
    the batches differently from every measured path.
    """
    service = SamplerService(make_sampler, NUM_SHARDS, rng=seed)
    try:
        keys = (inputs.keys(index) for index in range(batches)) if workload.users else None
        service.ingest(
            (inputs.items(index) for index in range(batches)),
            keys=keys,
            window=REFERENCE_WINDOW,
        )
        return cut_of(service)
    finally:
        service.close()


def _checks(
    workload: Workload, phase: Phase, reference: dict[str, Any] | None
) -> dict[str, bool]:
    cut = phase.cut
    checks = {
        "no_failed_operations": phase.failed == 0,
        "reads_within_capacity": not phase.violations,
        "shards_within_capacity": cut is not None and within_capacity(cut),
        "total_weight_closed_form": cut is not None
        and weight_matches(cut, workload.batch_size),
        "matches_serial_reference": None not in (cut, reference)
        and same_cut(cut, reference),
    }
    if workload.durable:
        checks["recovered_matches_live"] = bool(phase.recovered_matches)
    return checks


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
#: The end-to-end metrics every workload reports (untraced run). Latency
#: percentiles are in the report instead (see ``perfbench/README.md``): a
#: percentile of call times flips between the modes of a shared machine,
#: while the mean behind ``items_per_s`` moves smoothly.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> (unit, operation, spans).
#: Times are self times summed over the spans, divided by the operation's
#: count (batches for ``ingest``, reads, checkpoints, recoveries); a layer a
#: workload never calls reads 0.
_LAYER_TIMES: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "routing.hash_ms": ("ms/batch", "ingest", ("routing.hash",)),
    "routing.group_ms": ("ms/batch", "ingest", ("routing.group",)),
    "core.process_stream_ms": ("ms/batch", "ingest", ("core.process_stream",)),
    "service.ingest_self_ms": ("ms/batch", "ingest", ("service.ingest", "service.flush")),
    "wal.append_ms": ("ms/batch", "ingest", ("wal.append",)),
    "wal.flush_ms": ("ms/batch", "ingest", ("wal.flush",)),
    "transport.apply_ms": ("ms/batch", "ingest", ("transport.apply",)),
    "transport.drain_ms": ("ms/batch", "ingest", ("transport.drain",)),
    "replication.catch_up_ms": ("ms/batch", "ingest", ("replication.catch_up",)),
    "replication.check_ms": ("ms/batch", "ingest", ("replication.check",)),
    "service.snapshot_ms": (
        "ms/read",
        "read",
        ("service.snapshot", "service.stats", "service.materialize"),
    ),
    "transport.snapshot_ms": ("ms/read", "read", ("transport.snapshot",)),
    "checkpoint.save_ms": ("ms/ckpt", "checkpoint", ("checkpoint.save",)),
    "wal.truncate_ms": ("ms/ckpt", "checkpoint", ("wal.truncate",)),
    "service.checkpoint_self_ms": (
        "ms/ckpt",
        "checkpoint",
        ("service.checkpoint", "service.snapshot"),
    ),
    "wal.collect_replay_ms": ("ms/recover", "recover", ("wal.collect_replay",)),
    "checkpoint.load_ms": ("ms/recover", "recover", ("checkpoint.load",)),
}

PER_LAYER: dict[str, str] = {
    **{name: unit for name, (unit, _, _) in _LAYER_TIMES.items()},
    "core.calls": "calls/batch",
    "wal.appends": "appends/batch",
    "wal.bytes": "B/batch",
    "service.read_cache_hit_frac": "fraction",
    "replication.lag_batches": "batches",
    "trace.wall_ms": "ms/batch",
    "trace.layer_sum_ms": "ms/batch",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def _ms(value: float | None) -> float | None:
    return None if value is None else value * 1e3


def _throughput(phase: Phase) -> float:
    busy = sum(phase.ingest_s)
    return phase.items / busy if busy > 0 else 0.0


def end_to_end(phase: Phase, rss_mb: float) -> tuple[dict[str, float | None], dict[str, Any]]:
    """The gated metrics, and the workload-specific extras the report adds."""
    metrics = {
        "setup_s": float(np.median(phase.setup_s)) if phase.setup_s else 0.0,
        "items_per_s": _throughput(phase),
        "peak_rss_mb": rss_mb,
    }
    extras: dict[str, Any] = {
        "ingest_ms_min": _ms(min(phase.ingest_s, default=None)),
        "ingest_ms_p50": _ms(percentile(phase.ingest_s, 50)),
        "ingest_ms_p99": _ms(percentile(phase.ingest_s, 99)),
        "read_ms_p50": _ms(percentile(phase.read_s, 50)),
        "read_ms_p99": _ms(percentile(phase.read_s, 99)),
        "checkpoint_ms_p50": _ms(percentile(phase.checkpoint_s, 50)),
        "recover_s": phase.recover_s[0] if phase.recover_s else None,
        "failed_frac": phase.failed / phase.attempted if phase.attempted else 0.0,
        "setups": len(phase.setup_s),
        "ingest_calls": len(phase.ingest_s),
        "batches": phase.batches,
        "reads": len(phase.read_s),
        "checkpoints": len(phase.checkpoint_s),
        "loop_wall_s": phase.wall_s,
    }
    if phase.reads_due:
        extras.update(
            reads_due=phase.reads_due,
            reads_attempted=len(phase.lateness_s),
            reads_served=len(phase.read_s),
            lateness_ms_p50=_ms(percentile(phase.lateness_s, 50)),
            lateness_ms_max=_ms(max(phase.lateness_s, default=0.0)),
        )
    return metrics, extras


def layer_metrics(
    tracer: Tracer, traced: Phase, untraced: Phase
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, and every (operation, span) self time for the report."""
    seconds, calls, counters = tracer.totals()
    per_op = {
        "ingest": traced.batches,
        "read": len(traced.read_s),
        "checkpoint": len(traced.checkpoint_s),
        "recover": len(traced.recover_s),
    }

    def per(operation: str, value: float) -> float:
        count = per_op[operation]
        return value / count if count else 0.0

    metrics: dict[str, float] = {}
    for name, (_, operation, spans) in _LAYER_TIMES.items():
        total = sum(seconds.get((operation, span), 0.0) for span in spans)
        metrics[name] = per(operation, total) * 1e3
    metrics["core.calls"] = per("ingest", calls.get(("ingest", "core.process_stream"), 0))
    metrics["wal.appends"] = per("ingest", calls.get(("ingest", "wal.append"), 0))
    metrics["wal.bytes"] = per("ingest", counters.get(("ingest", "wal.bytes"), 0.0))
    reads = per_op["read"]
    fresh = counters.get(("read", "fresh_cuts"), 0.0)
    metrics["service.read_cache_hit_frac"] = 1.0 - fresh / reads if reads else 0.0
    metrics["replication.lag_batches"] = (
        float(np.mean(traced.lag_batches)) if traced.lag_batches else 0.0
    )
    metrics["trace.wall_ms"] = per("ingest", traced.loop_ops_s) * 1e3
    metrics["trace.layer_sum_ms"] = per("ingest", traced.loop_layer_s) * 1e3
    metrics["trace.unattributed_frac"] = (
        1.0 - traced.loop_layer_s / traced.loop_ops_s if traced.loop_ops_s else 0.0
    )
    traced_rate = _throughput(traced)
    metrics["trace.overhead_frac"] = (
        _throughput(untraced) / traced_rate - 1.0 if traced_rate else 0.0
    )
    breakdown = {
        f"{operation}/{span}": round(per(operation, value) * 1e3, 6)
        for (operation, span), value in sorted(seconds.items())
        if operation in per_op
    }
    return metrics, breakdown


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
) -> dict[str, Any]:
    """One benchmark run: the result line plus the report behind it.

    Untraced, the loop runs for ``seconds``. Traced, an untraced phase runs
    for half of it and a traced phase then replays exactly as many calls,
    so the two final samples must be identical. A traced run reports no
    ``setup_s``, so each of its phases sets up only once.
    """
    if trace:
        workload = replace(workload, setups=1)
    inputs = Inputs(seed, workload)
    rundir = workdir / f"{workload.name}-{os.getpid()}"
    report: dict[str, Any] = {}
    try:
        if trace:
            untraced = run_phase(
                workload, inputs, seed, rundir / "untraced", seconds=seconds / 2
            )
            tracer = Tracer()
            traced = run_phase(
                workload, inputs, seed, rundir / "traced", calls=untraced.calls, tracer=tracer
            )
            phases = [untraced, traced]
            metrics, report["breakdown"] = layer_metrics(tracer, traced, untraced)
            units = PER_LAYER
        else:
            untraced = run_phase(workload, inputs, seed, rundir / "run", seconds=seconds)
            phases = [untraced]
            metrics, extras = end_to_end(untraced, peak_rss_mb(untraced.worker_peak_mb))
            if workload.users:
                extras["key_share_by_shard"] = inputs.shard_shares()
            report["extras"] = extras
            units = END_TO_END
        reference = (
            None
            if untraced.cut is None
            else reference_cut(workload, inputs, seed, untraced.cut["batches_seen"])
        )
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        if workdir.is_dir() and not any(workdir.iterdir()):
            workdir.rmdir()
    checks = _checks(workload, untraced, reference)
    if trace:
        traced_checks = _checks(workload, traced, reference)
        checks.update({f"traced_{name}": ok for name, ok in traced_checks.items()})
        checks["traced_matches_untraced"] = None not in (
            untraced.cut,
            traced.cut,
        ) and same_cut(untraced.cut, traced.cut)
    report["checks"] = checks
    report["errors"] = [error for p in phases for error in p.errors]
    return {
        "correct": all(checks.values()),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
        "report": report,
    }
