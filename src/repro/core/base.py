"""Common sampler interface shared by every algorithm in :mod:`repro.core`.

The paper's setting (Section 2): items arrive in batches ``B_1, B_2, ...`` at
times ``t = 1, 2, ...`` and the sampler maintains a sample ``S_t`` of all
items seen so far. Every algorithm in this package implements the same
:class:`Sampler` interface so the experiment harness, the model-management
loop and the distributed simulator can swap them freely.

Samplers treat items as opaque payloads; identity for statistical tests is
whatever equality the caller's items define (the test-suite uses small
integers or ``(time, index)`` tuples). Batches may be any iterable; passing a
1-D :class:`numpy.ndarray` lets the vectorized samplers ingest without any
per-item conversion.

Two ingestion entry points exist:

* :meth:`Sampler.process_batch` — one batch in, current realized sample out;
* :meth:`Sampler.process_stream` — many batches in one call, amortizing time
  bookkeeping and history recording and skipping the per-batch sample
  materialization that :meth:`process_batch` performs for its return value;
  :meth:`Sampler.ingest_stream` is the same call without the final sample.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from repro.core.random_utils import ensure_rng, generator_from_state, generator_state

__all__ = [
    "Sampler",
    "SamplerSnapshotView",
    "SamplerState",
    "STATE_FORMAT_VERSION",
    "CHECKPOINT_MANIFEST_VERSION",
    "validate_batch_time",
]

#: Version tag embedded in every :meth:`Sampler.state_dict`; bump on
#: backwards-incompatible changes to the snapshot layout.
STATE_FORMAT_VERSION = 1

#: Version tag embedded in every directory checkpoint's manifest. Distinct
#: from :data:`STATE_FORMAT_VERSION`, which versions the *in-memory*
#: snapshot mapping: the manifest version covers the directory layout —
#: file naming and the manifest's own keys. A build reads only the version
#: it writes; a manifest without the field (the pre-durability version 1)
#: or with any other value is refused.
CHECKPOINT_MANIFEST_VERSION = 2


def validate_batch_time(
    previous_time: float, time: float | None, first_batch: bool
) -> tuple[float, float]:
    """Validate one batch-arrival time; return ``(new_time, elapsed)``.

    The single source of truth for the clock contract shared by the serial
    samplers, the distributed simulators, and the sampler service: the clock
    starts at 0 (the arrival time of any initial state), ``None`` means
    "previous time plus one", times are strictly increasing, and the elapsed
    gap is always the true distance from the previous time — including the
    first batch, whose gap is its full distance from the origin.
    """
    if time is None:
        time = previous_time + 1.0
    if time <= previous_time:
        if first_batch:
            raise ValueError(
                f"the first batch time must be positive (the clock starts "
                f"at {previous_time}), got {time}"
            )
        raise ValueError(
            f"batch times must be strictly increasing: got {time} after {previous_time}"
        )
    return float(time), time - previous_time


@dataclass
class SamplerState:
    """Lightweight snapshot of a sampler's bookkeeping after a batch.

    Attributes
    ----------
    time:
        Batch-arrival time of the snapshot.
    sample_size:
        Number of items in the realized sample ``S_t``.
    total_weight:
        Total decayed weight ``W_t`` of all items seen so far (``nan`` for
        samplers that do not track weights, e.g. sliding windows).
    expected_size:
        Expected sample size; equals ``C_t`` for R-TBS and the realized size
        for samplers without fractional state.
    """

    time: float
    sample_size: int
    total_weight: float = float("nan")
    expected_size: float = float("nan")
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SamplerSnapshotView:
    """A read-only, isolated cut of one sampler's observable state.

    Produced by :meth:`Sampler.snapshot_view`. The view is immutable and
    never aliases *mutable* internal state: array-backed samplers share
    their copy-on-write column arrays wrapped as non-writeable NumPy views
    (O(1) to take); container-backed samplers copy their pointers into
    tuples. Either way, later batches never change a taken view.

    Attributes
    ----------
    epoch:
        Version counter of the state the view captured (the latent-sample
        epoch for CoW samplers, ``batches_seen`` otherwise).
    time, batches_seen:
        Clock and batch counter at the cut.
    total_weight:
        ``W_t`` at the cut (``nan`` for samplers without a weight notion).
    expected_size:
        Expected realized-sample size at the cut (``C_t`` for R-TBS).
    sample_size:
        Exact realized-sample size at the cut.
    capacity:
        The sampler's configured maximum sample size, if it has one.
    items:
        Realized sample payloads (read-only array or tuple), or ``None``
        when the view was taken with ``include_items=False``.
    weights:
        Per-item arrival weights for the deterministically included (full)
        items where the sampler tracks them (read-only array), else
        ``None``.
    state:
        A full :meth:`Sampler.state_dict` snapshot when the view was taken
        with ``include_state=True``, else ``None``.
    """

    epoch: int
    time: float
    batches_seen: int
    total_weight: float
    expected_size: float
    sample_size: int
    capacity: int | None = None
    items: Any = None
    weights: Any = None
    state: dict[str, Any] | None = None

    def items_list(self) -> list[Any]:
        """The captured realized sample as a plain list."""
        if self.items is None:
            raise ValueError(
                "view was taken with include_items=False and carries no items"
            )
        if isinstance(self.items, np.ndarray):
            return self.items.tolist()
        return list(self.items)


class Sampler:
    """Abstract base class for batch-arrival stream samplers.

    Subclasses implement :meth:`_process_batch` and may override
    :meth:`sample_items`. The public entry point :meth:`process_batch`
    handles time bookkeeping (including arbitrary real-valued gaps between
    batches) and state-history recording; :meth:`process_stream` does the
    same for a whole sequence of batches in one call.

    Parameters
    ----------
    rng:
        Seed, generator, or ``None``; all randomness flows through it.
    record_history:
        When true, a :class:`SamplerState` is appended to :attr:`history`
        after every batch. Experiments use this to plot sample-size
        trajectories (Figure 1).
    """

    #: Attributes *derived* from config in ``__init__`` and therefore
    #: deliberately absent from ``state_dict()`` — restore rebuilds them.
    #: The state-dict contract lint trusts this list instead of flagging them.
    _STATE_DICT_EXEMPT: ClassVar[frozenset[str]] = frozenset()
    #: Attributes serialized under *different* ``state_dict()`` key names:
    #: maps attribute name to the tuple of keys that together capture it.
    _STATE_DICT_KEYS: ClassVar[Mapping[str, tuple[str, ...]]] = {}

    def __init__(
        self,
        rng: np.random.Generator | int | None = None,
        record_history: bool = False,
    ) -> None:
        self._rng = ensure_rng(rng)
        self._time: float = 0.0
        self._batches_seen: int = 0
        self._record_history = record_history
        self.history: list[SamplerState] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Arrival time of the most recently processed batch."""
        return self._time

    @property
    def batches_seen(self) -> int:
        """Number of batches processed so far."""
        return self._batches_seen

    @property
    def total_weight(self) -> float:
        """Total decayed weight ``W_t``; ``nan`` if the sampler has no notion of weight."""
        return float("nan")

    @property
    def expected_sample_size(self) -> float:
        """Expected size of the realized sample at the current time.

        Contract: this is a *cheap* bookkeeping query — it must not draw
        randomness, must not mutate state, and should cost O(1) for any
        sampler that tracks its size (the array-backed samplers all do).
        The base implementation falls back to :meth:`_sample_size`, which
        itself defaults to materializing the sample once; subclasses with
        fractional state (e.g. R-TBS returning ``C_t``) or an internal size
        counter should override one of the two.
        """
        return float(self._sample_size())

    def process_batch(
        self, batch: Sequence[Any] | Iterable[Any] | np.ndarray, time: float | None = None
    ) -> list[Any]:
        """Ingest one arriving batch and return the new realized sample.

        Parameters
        ----------
        batch:
            The arriving items (may be empty). Lists and 1-D NumPy arrays
            are passed to the sampler unchanged; other iterables are
            materialized first.
        time:
            Wall-clock arrival time. Defaults to the previous time plus one,
            matching the paper's integer batch sequence; arbitrary increasing
            real values are accepted (Section 2's extension).
        """
        items = self._coerce_batch(batch)
        elapsed = self._advance_time(time)
        self._process_batch(items, elapsed)
        sample = self.sample_items()
        if self._record_history:
            self.history.append(
                SamplerState(
                    time=self._time,
                    sample_size=len(sample),
                    total_weight=self.total_weight,
                    expected_size=self.expected_sample_size,
                )
            )
        return sample

    def process_stream(
        self,
        batches: Iterable[Sequence[Any] | Iterable[Any] | np.ndarray],
        times: Iterable[float] | None = None,
        arrivals: Iterable[int | None] | None = None,
    ) -> list[Any]:
        """Bulk-ingest a sequence of batches and return the final realized sample.

        :meth:`ingest_stream` followed by :meth:`sample_items`; see the
        former for the arguments.
        """
        self.ingest_stream(batches, times=times, arrivals=arrivals)
        return self.sample_items()

    def ingest_stream(
        self,
        batches: Iterable[Sequence[Any] | Iterable[Any] | np.ndarray],
        times: Iterable[float] | None = None,
        arrivals: Iterable[int | None] | None = None,
    ) -> None:
        """Bulk-ingest a sequence of batches; build no sample.

        Equivalent to calling :meth:`process_batch` on each batch in order,
        but without materializing the realized sample after any batch — a
        caller that wants it calls :meth:`sample_items` (or
        :meth:`process_stream` does). History recording (when enabled)
        still captures one :class:`SamplerState` per batch, using the O(1)
        :meth:`_sample_size` hook instead of a full materialization.

        Parameters
        ----------
        batches:
            Iterable of batches (lists, arrays, or any iterables of items).
        times:
            Optional iterable of arrival times, consumed in lockstep with
            ``batches``; when omitted, batches arrive at ``t+1, t+2, ...``.
        arrivals:
            Optional iterable, in lockstep with ``batches``, of *planned*
            batches: an entry ``k`` says the batch arrived with ``k`` items
            and a driver already chose which of them the sampler accepts,
            so the batch holds only those (the sharded service plans R-TBS
            shards this way; see :func:`repro.core.rtbs.rtbs_step`). An
            entry ``None`` (or no ``arrivals`` at all) is an ordinary batch.
            Only :class:`~repro.core.rtbs.RTBS` takes planned batches.
        """
        time_iter = iter(times) if times is not None else None
        arrival_iter = iter(arrivals) if arrivals is not None else None
        for batch in batches:
            items = self._coerce_batch(batch)
            if time_iter is None:
                time = None
            else:
                try:
                    time = next(time_iter)
                except StopIteration:
                    raise ValueError(
                        "times iterable exhausted before batches; provide one "
                        "arrival time per batch or omit times entirely"
                    ) from None
            planned = None
            if arrival_iter is not None:
                try:
                    planned = next(arrival_iter)
                except StopIteration:
                    raise ValueError(
                        "arrivals iterable exhausted before batches; provide "
                        "one arrival count (or None) per batch"
                    ) from None
            if planned is None:
                self._process_batch(items, self._advance_time(time))
            else:
                self._process_thinned(items, int(planned), time)
            if self._record_history:
                self.history.append(
                    SamplerState(
                        time=self._time,
                        sample_size=self._sample_size(),
                        total_weight=self.total_weight,
                        expected_size=self.expected_sample_size,
                    )
                )

    def sample_items(self) -> list[Any]:
        """Return the current realized sample ``S_t`` as a list."""
        raise NotImplementedError

    def snapshot_view(
        self, include_items: bool = True, include_state: bool = False
    ) -> SamplerSnapshotView:
        """A read-only, isolated cut ``(epoch, clock, W_t, items, weights)``.

        Contract (the pure-read invariant, lint-enforced): taking a view
        draws no randomness and mutates nothing, and the returned view stays
        valid — bit-for-bit — no matter how many batches are ingested
        afterwards.

        This base implementation is the deep fallback: it materializes the
        realized sample into a tuple (and, with ``include_state=True``, a
        full :meth:`state_dict`), so every sampler gets correct isolation.
        Array-backed samplers override it with O(1) copy-on-write views that
        share their immutable column arrays instead of copying.

        Parameters
        ----------
        include_items:
            When false, skip capturing the realized sample — the view
            carries only scalar bookkeeping, which is what high-frequency
            stats polling needs.
        include_state:
            When true, also capture a full restorable :meth:`state_dict`
            (used by snapshot-based checkpointing and replica capture).
        """
        items: tuple[Any, ...] | None = None
        if include_items:
            items = tuple(self.sample_items())
        return SamplerSnapshotView(
            epoch=self._batches_seen,
            time=self._time,
            batches_seen=self._batches_seen,
            total_weight=self.total_weight,
            expected_size=self.expected_sample_size,
            sample_size=len(items) if items is not None else self._sample_size(),
            capacity=getattr(self, "n", None),
            items=items,
            weights=None,
            state=self.state_dict() if include_state else None,
        )

    def __len__(self) -> int:
        return self._sample_size()

    # ------------------------------------------------------------------
    # snapshot / restore protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """A complete, restorable snapshot of this sampler.

        The snapshot captures everything needed for
        :meth:`from_state_dict` to resume the *exact* same trajectory:
        configuration, time bookkeeping, the RNG bit-generator state, the
        recorded history, and the algorithm-specific payload state
        (:meth:`_payload_state`). The returned mapping contains only plain
        Python scalars/containers and NumPy arrays, so
        :mod:`repro.service.checkpoint` can persist it without pickle.
        """
        return {
            "format_version": STATE_FORMAT_VERSION,
            "sampler_type": type(self).__name__,
            "config": self._config_state(),
            "time": float(self._time),
            "batches_seen": int(self._batches_seen),
            "rng_state": generator_state(self._rng),
            "record_history": bool(self._record_history),
            "history": [asdict(state) for state in self.history],
            "payload": self._payload_state(),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "Sampler":
        """Reconstruct a sampler from a :meth:`state_dict` snapshot.

        Called on a concrete class (``RTBS.from_state_dict(...)``) the
        snapshot must describe that class; called on :class:`Sampler` itself
        the target class is resolved from the snapshot's ``sampler_type``
        via the registry in :mod:`repro.core`. The restored sampler
        continues the exact ``W_t``/``C_t``/sample trajectory of the
        original: same time bookkeeping, same RNG stream, same stored items.
        """
        version = state.get("format_version")
        if version != STATE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported sampler state format {version!r}; "
                f"this build reads version {STATE_FORMAT_VERSION}"
            )
        name = state["sampler_type"]
        if cls is Sampler:
            from repro.core import resolve_sampler_type

            target = resolve_sampler_type(name)
        else:
            target = cls
            if target.__name__ != name:
                raise ValueError(
                    f"snapshot describes a {name!r} sampler, not {target.__name__!r}; "
                    "restore via Sampler.from_state_dict to dispatch on the stored type"
                )
        sampler = target(**target._config_kwargs(state["config"]))
        sampler._time = float(state["time"])
        sampler._batches_seen = int(state["batches_seen"])
        sampler._rng = generator_from_state(state["rng_state"])
        sampler._record_history = bool(state.get("record_history", False))
        sampler.history = [SamplerState(**entry) for entry in state.get("history", [])]
        sampler._restore_payload(state["payload"])
        return sampler

    def _config_state(self) -> dict[str, Any]:
        """Constructor configuration as a JSON-able mapping.

        Must contain exactly the keyword arguments (other than ``rng`` and
        ``record_history``) needed to rebuild an equivalent empty sampler;
        :meth:`_config_kwargs` is its inverse.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the snapshot protocol"
        )

    @classmethod
    def _config_kwargs(cls, config: dict[str, Any]) -> dict[str, Any]:
        """Translate a stored config mapping back into constructor kwargs."""
        return dict(config)

    def _payload_state(self) -> dict[str, Any]:
        """Algorithm-specific dynamic state (sample contents, weights, ...).

        Values must be plain scalars/containers or NumPy arrays; no live
        object references, so mutating the running sampler never corrupts a
        taken snapshot.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the snapshot protocol"
        )

    def _restore_payload(self, payload: dict[str, Any]) -> None:
        """Install a :meth:`_payload_state` mapping into this sampler."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the snapshot protocol"
        )

    # ------------------------------------------------------------------
    # resharding protocol
    # ------------------------------------------------------------------
    def reshard_items(self) -> np.ndarray:
        """All physically retained item payloads, in the sampler's canonical order.

        The first half of the resharding protocol
        (:mod:`repro.core.resharding`): the caller computes a destination
        partition for each returned payload (by hashing its routing key)
        and feeds the destinations to :meth:`reshard_split`. The order is
        sampler-specific but must match the order :meth:`reshard_split`
        interprets; samplers with fractional state list full items first,
        then the partial item.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support resharding (no "
            "reshard_items/reshard_split/reshard_absorb implementation)"
        )

    def reshard_split(
        self, destinations: np.ndarray, num_parts: int
    ) -> dict[int, dict[str, Any]]:
        """Partition retained state into per-destination *pieces*.

        ``destinations`` is parallel to :meth:`reshard_items` and maps each
        retained payload to a destination in ``[0, num_parts)``. Returns a
        mapping ``{destination: piece}`` where each piece is an in-memory,
        algorithm-specific mapping carrying the routed payloads plus that
        destination's share of the sampler's aggregate bookkeeping
        (``W_t``, stream counters, ...), such that the shares sum to the
        source's aggregates. Pieces are consumed by :meth:`reshard_absorb`
        on a freshly built sampler of the same type; they are never
        persisted.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support resharding (no "
            "reshard_items/reshard_split/reshard_absorb implementation)"
        )

    def reshard_absorb(self, pieces: list[dict[str, Any]]) -> None:
        """Install the union of routed pieces into this freshly built sampler.

        ``pieces`` come from :meth:`reshard_split` calls on source samplers
        of the same type (listed in ascending source-shard order), all
        synchronized to a common clock. Any randomness the merge needs
        (fractional-item folding, capacity-overflow subsampling) is drawn
        from this sampler's private RNG, so the merge is deterministic per
        destination. Called on a sampler that has seen no data; the
        caller fixes up ``_time``/``_batches_seen`` afterwards.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support resharding (no "
            "reshard_items/reshard_split/reshard_absorb implementation)"
        )

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _process_batch(self, items: Sequence[Any] | np.ndarray, elapsed: float) -> None:
        """Update internal state for a batch that arrived ``elapsed`` after the last.

        When this hook runs, :attr:`time` already reflects the arrival time
        of the batch being processed. ``items`` is a list or a 1-D NumPy
        array; implementations must not hold on to the container itself
        (callers may reuse it), only to the item payloads.
        """
        raise NotImplementedError

    def _process_thinned(
        self, items: Sequence[Any] | np.ndarray, arrivals: int, time: float | None
    ) -> None:
        """Update for a planned batch: ``items`` are the accepted ones of ``arrivals``.

        Unlike :meth:`_process_batch`, this hook advances the clock itself
        (:meth:`_advance_time`), and only once it has checked the plan, so
        a refused plan leaves the sampler untouched. Only
        :class:`~repro.core.rtbs.RTBS` lets a driver thin its batches.
        """
        raise NotImplementedError(f"{type(self).__name__} takes no planned batches")

    def _sample_size(self) -> int:
        """Size of the current realized sample.

        Defaults to materializing the sample; array-backed samplers override
        this with an O(1) length query so history recording and
        :attr:`expected_sample_size` stay cheap at large capacities.
        """
        return len(self.sample_items())

    # ------------------------------------------------------------------
    # shared internals
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_batch(batch: Sequence[Any] | Iterable[Any] | np.ndarray) -> Sequence[Any]:
        """Normalize a batch to a random-access container without copying arrays."""
        if isinstance(batch, np.ndarray) or isinstance(batch, list):
            return batch
        return list(batch)

    def _advance_time(self, time: float | None) -> float:
        """Validate and apply a batch-arrival time; return the elapsed gap.

        The sampler clock starts at 0 (the arrival time of any initial
        sample), so the first batch's elapsed time is its full distance from
        the origin: a first batch at explicit time ``t`` decays pre-loaded
        state by ``e^{-lambda t}``, not by one unit. Times must be strictly
        increasing, which for the first batch means strictly positive.
        """
        self._time, elapsed = validate_batch_time(
            self._time, time, first_batch=self._batches_seen == 0
        )
        self._batches_seen += 1
        return elapsed
