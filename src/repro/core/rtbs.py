"""R-TBS — Reservoir-based Time-Biased Sampling (Algorithm 2).

R-TBS is the paper's main contribution: the first sampling scheme that
simultaneously

* enforces the exponential appearance-probability criterion (1) at all times,
* guarantees the sample never exceeds a maximum size ``n``, and
* handles unknown, arbitrarily varying data arrival rates.

The algorithm maintains a *latent* (fractional) sample whose sample weight
``C_t = min(n, W_t)`` tracks the total decayed weight ``W_t`` of all items
seen so far, using :func:`repro.core.latent.downsample` (Algorithm 3) to decay
the sample and stochastic rounding to accept new items when saturated.
Theorem 4.2 shows the invariant ``Pr[i in S_t] = (C_t / W_t) w_t(i)`` holds
for every item, and Theorems 4.3/4.4 show R-TBS maximizes expected sample
size when unsaturated and minimizes sample-size variance.

This implementation is vectorized: the latent sample is array-backed
(:class:`repro.core.latent.LatentSample`), so batch acceptance, reservoir
eviction, and downsampling are whole-array NumPy operations. Per-batch cost
is therefore dominated by a few fancy-indexing passes over at most ``n``
items, independent of how the batch is represented — feeding 1-D NumPy
arrays as batches avoids per-item conversion entirely.

**Underfull states.** Algorithm 2 maintains the invariant ``C_t = min(n,
W_t)``. Elastic resharding (:mod:`repro.core.resharding`) can transiently
break it: re-homing a shard's items under a new key→shard map conserves
both the latent weight and the history weight exactly, but a destination
may inherit more history weight than latent weight (``C < min(n, W)`` — it
received, say, half the items of a saturated source but also half its
``W``). This implementation tolerates such *underfull* states: the latent
sample decays by its own weight, arriving items are accepted at the
saturated rate ``n / W`` (with overshoot handled by Algorithm 3), and the
sample grows back toward ``C = min(n, W)``. On the invariant states
Algorithm 2 produces, the update is bit-for-bit the classic one.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.core.arrays import as_item_array, concat_items
from repro.core.base import Sampler, SamplerSnapshotView, validate_batch_time
from repro.core.latent import LatentSample, downsample, merge_latent_samples
from repro.core.random_utils import choose_indices, stochastic_round

__all__ = [
    "RTBS",
    "RTBSPlanState",
    "RTBSStep",
    "SAMPLING_VERSION",
    "rtbs_step",
]

#: Version of the random draws behind a sampled trajectory: which stream
#: draws what, in which order (docs/CONTRACTS.md). Bumped whenever a fixed
#: seed starts producing a different sample; service checkpoints record it.
#: Version 2: a saturated R-TBS step overwrites its victims in place, and a
#: service shard's acceptance (how many arrivals enter, and which) is
#: drawn by the driver from a per-batch plan stream.
SAMPLING_VERSION = 2

_WEIGHT_EPSILON = 1e-12
_WEIGHT_TOLERANCE = 1e-9

# The four branches of Algorithm 2's batch step (see :func:`rtbs_step`).
#: Previously unsaturated (``W < n``): every arrival enters.
UNSATURATED = 0
#: Saturated, but the batch cannot refill the reservoir: every arrival enters.
UNDERSHOOT = 1
#: Saturated with ``C = n``: ``StochRound(B n / W)`` arrivals replace victims.
SATURATED = 2
#: Saturated with ``C < n`` (post-reshard): arrivals enter at the rate ``n / W``.
UNDERFULL = 3


def _downsampled(weight: float, target: float) -> float:
    """The weight :func:`~repro.core.latent.downsample` leaves (it keeps ``weight`` within tolerance)."""
    return weight if abs(target - weight) <= _WEIGHT_TOLERANCE else float(target)


def _capped(weight: float, n: int) -> float:
    """The weight after Algorithm 2's overshoot step brings it down to ``n``."""
    return _downsampled(weight, float(n)) if weight > n else weight


class RTBSPlanState(NamedTuple):
    """The scalars of one R-TBS sampler a driver plans its batches from."""

    n: int
    lambda_: float
    #: ``W_t``, the total decayed weight.
    total_weight: float
    #: ``C_t``, the latent sample's weight.
    sample_weight: float
    #: Arrival time of the sampler's last batch.
    time: float


class RTBSStep(NamedTuple):
    """One batch's scalar bookkeeping under Algorithm 2 (see :func:`rtbs_step`)."""

    #: One of ``UNSATURATED``, ``UNDERSHOOT``, ``SATURATED``, ``UNDERFULL``.
    branch: int
    #: ``W_t`` after the batch.
    total_weight: float
    #: ``C_t`` after the batch; in the thinning branches, before the accepted
    #: arrivals enter (:meth:`settled_weight` adds them).
    sample_weight: float
    #: The weight the latent sample decays to before the arrivals enter
    #: (accept-all branches; ``0`` empties it), else ``nan``.
    target: float

    @property
    def thinned(self) -> bool:
        """Whether only ``StochRound(B n / W)`` of the ``B`` arrivals enter."""
        return self.branch >= SATURATED

    @property
    def empties(self) -> bool:
        """Whether the sample decays to nothing before the arrivals enter."""
        return self.target <= _WEIGHT_EPSILON

    def acceptance(self, rng: np.random.Generator, arrivals: int, n: int) -> int:
        """Draw how many of ``arrivals`` enter in a thinning branch (one draw)."""
        accepted = stochastic_round(rng, arrivals * n / self.total_weight)
        if self.branch == SATURATED:
            return min(accepted, arrivals, n)
        return min(accepted, arrivals)

    def settled_weight(self, accepted: int, n: int) -> float:
        """``C_t`` after the batch, once ``accepted`` arrivals entered."""
        if self.branch == UNDERFULL:
            return _capped(self.sample_weight + accepted, n)
        return self.sample_weight


def rtbs_step(
    total_weight: float,
    sample_weight: float,
    n: int,
    lambda_: float,
    elapsed: float,
    arrivals: int,
) -> RTBSStep:
    """Advance R-TBS's scalars ``(W, C)`` over one batch of ``arrivals`` items.

    A pure function of its arguments, with exactly the float operations
    :class:`RTBS` performs on its latent sample, so a driver that mirrors
    a shard's ``W``, ``C`` and clock with it plans the shard's batches
    from the same numbers the shard itself holds, and D-R-TBS
    (:class:`~repro.distributed.drtbs.DistributedRTBS`) steps its master's
    ``W`` and ``C`` with it. It goes through
    Algorithm 2's four branches: unsaturated, undershoot, classic
    saturated and the post-reshard underfull state.
    """
    decay = math.exp(-lambda_ * elapsed)
    if total_weight < n:
        new_weight = total_weight * decay
        target = sample_weight * decay
        kept = _downsampled(sample_weight, target) if target > _WEIGHT_EPSILON else 0.0
        if new_weight <= _WEIGHT_EPSILON:
            new_weight = 0.0
        return RTBSStep(
            UNSATURATED, new_weight + arrivals, _capped(kept + arrivals, n), target
        )
    weight = total_weight * decay + arrivals
    if weight >= n:
        branch = SATURATED if sample_weight == float(n) else UNDERFULL
        return RTBSStep(branch, weight, sample_weight, math.nan)
    if sample_weight == float(n):
        target = weight - arrivals
    else:
        # Underfull: the latent sample can only decay by its own weight
        # (there is no item mass beyond C to shrink from).
        target = sample_weight * decay
    kept = _downsampled(sample_weight, target) if target > _WEIGHT_EPSILON else 0.0
    return RTBSStep(UNDERSHOOT, weight, _capped(kept + arrivals, n), target)


class RTBS(Sampler):
    """Reservoir-based time-biased sampler with decay rate ``lambda_`` and capacity ``n``.

    Parameters
    ----------
    n:
        Maximum sample size (the reservoir capacity).
    lambda_:
        Exponential decay rate (per unit of batch time); ``0`` reduces R-TBS
        to bounded uniform-over-time sampling.
    initial_items:
        Optional initial sample ``S_0`` (at most ``n`` items), each with
        weight 1 at time 0.
    rng, record_history:
        See :class:`repro.core.base.Sampler`.

    Examples
    --------
    >>> sampler = RTBS(n=3, lambda_=0.5, rng=0)
    >>> _ = sampler.process_batch(["a", "b"])
    >>> sample = sampler.process_batch(["c", "d", "e", "f"])
    >>> len(sample) <= 3
    True
    """

    def __init__(
        self,
        n: int,
        lambda_: float,
        initial_items: list[Any] | None = None,
        rng: np.random.Generator | int | None = None,
        record_history: bool = False,
    ) -> None:
        super().__init__(rng=rng, record_history=record_history)
        if n <= 0:
            raise ValueError(f"maximum sample size must be positive, got {n}")
        if lambda_ < 0:
            raise ValueError(f"decay rate must be non-negative, got {lambda_}")
        initial = as_item_array(initial_items)
        if len(initial) > n:
            raise ValueError(
                f"initial sample has {len(initial)} items but the capacity is {n}"
            )
        self.n = int(n)
        self.lambda_ = float(lambda_)
        self._latent = LatentSample.from_full_items(initial, timestamp=0.0)
        self._total_weight = float(len(initial))
        # Outcome of the partial item's coin flip for the current realized
        # sample; redrawn after every batch so sample_items() is stable
        # between batches and O(1) bookkeeping stays possible.
        self._include_partial = False

    # ------------------------------------------------------------------
    # Sampler interface
    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> float:
        """Total decayed weight ``W_t`` of all items seen so far."""
        return self._total_weight

    @property
    def sample_weight(self) -> float:
        """Sample weight ``C_t = min(n, W_t)`` (the expected sample size)."""
        return self._latent.weight

    @property
    def expected_sample_size(self) -> float:
        """``C_t`` — an O(1) query on the latent sample's bookkeeping."""
        return self._latent.weight

    @property
    def is_saturated(self) -> bool:
        """Whether the reservoir currently holds its maximum expected size ``n``."""
        return self._total_weight >= self.n

    @property
    def latent(self) -> LatentSample:
        """The current latent (fractional) sample; treat as read-only."""
        return self._latent

    def sample_items(self) -> list[Any]:
        return self._latent.materialize(self._include_partial)

    def sample_ages(self) -> np.ndarray:
        """Ages ``t - t_i`` of the current full items (vectorized, for analysis)."""
        return self._time - self._latent.item_timestamps

    def _sample_size(self) -> int:
        return self._latent.full_count + (1 if self._include_partial else 0)

    def snapshot_view(
        self, include_items: bool = True, include_state: bool = False
    ) -> SamplerSnapshotView:
        """An O(1) copy-on-write cut sharing the latent sample's frozen columns.

        ``items`` is the realized sample (full items, then the partial item
        if this batch's coin included it) and ``weights`` are the arrival
        weights of the full items, both as read-only views over the live
        column arrays — no copies, and later batches replace the columns
        rather than mutating them, so the cut stays stable.
        """
        frozen = self._latent.freeze()
        items: np.ndarray | None = None
        weights: np.ndarray | None = None
        if include_items:
            items = frozen.items_array(self._include_partial)
            weights = frozen.full_weights
        return SamplerSnapshotView(
            epoch=frozen.epoch,
            time=self._time,
            batches_seen=self._batches_seen,
            total_weight=self._total_weight,
            expected_size=frozen.weight,
            sample_size=frozen.full_count + (1 if self._include_partial else 0),
            capacity=self.n,
            items=items,
            weights=weights,
            state=self.state_dict() if include_state else None,
        )

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def _config_state(self) -> dict[str, Any]:
        return {"n": self.n, "lambda_": self.lambda_}

    def _payload_state(self) -> dict[str, Any]:
        return {
            "latent": self._latent.state_dict(),
            "total_weight": float(self._total_weight),
            "include_partial": bool(self._include_partial),
        }

    def _restore_payload(self, payload: dict[str, Any]) -> None:
        self._latent = LatentSample.from_state_dict(payload["latent"])
        self._total_weight = float(payload["total_weight"])
        self._include_partial = bool(payload["include_partial"])

    # ------------------------------------------------------------------
    # resharding
    # ------------------------------------------------------------------
    def reshard_items(self) -> np.ndarray:
        """Retained payloads in canonical order: full items, then the partial."""
        return concat_items(
            self._latent.full_array, self._latent._partial.payloads
        )

    def reshard_split(self, destinations: np.ndarray, num_parts: int) -> dict[int, dict[str, Any]]:
        """Split the latent sample (and ``W_t``) by destination.

        Each destination's piece carries a valid latent fragment plus its
        share of the history weight, apportioned so every fragment keeps the
        source's ``W/C`` saturation ratio — fragments of one source sum back
        to exactly ``W_t``, so resharding conserves total weight. A source
        with history weight but no latent mass (itself a degenerate
        post-reshard state) spreads its ``W_t`` evenly over all
        destinations.
        """
        destinations = np.asarray(destinations, dtype=np.int64)
        full_count = self._latent.full_count
        partial_destination = (
            int(destinations[full_count]) if len(destinations) > full_count else None
        )
        fragments = self._latent.split(destinations[:full_count], partial_destination)
        weight = self._latent.weight
        if weight > 0.0:
            ratio = self._total_weight / weight
            return {
                destination: {
                    "latent": fragment,
                    "weight_share": fragment.weight * ratio,
                }
                for destination, fragment in fragments.items()
            }
        share = self._total_weight / num_parts
        return {
            destination: {"latent": LatentSample.empty(), "weight_share": share}
            for destination in range(num_parts)
        }

    def reshard_absorb(self, pieces: list[dict]) -> None:
        """Merge routed latent fragments; restore ``C <= min(n, W)``.

        The merged latent weight may exceed the capacity (keys skewed onto
        this destination, or a shrink of a saturated deployment), in which
        case Algorithm 3 downsamples it to ``n`` — exactly the overshoot
        handling of Algorithm 2. It may also fall short of ``min(n, W)``
        (growing a saturated deployment), leaving the tolerated underfull
        state this sampler refills from (see the module docstring).
        """
        merged = merge_latent_samples([piece["latent"] for piece in pieces], self._rng)
        if merged.weight > self.n:
            merged = downsample(merged, float(self.n), self._rng)
        self._latent = merged
        # W is the sum of the sources' conserved shares; it can trail the
        # merged latent weight by float rounding only, never materially.
        self._total_weight = max(
            float(sum(piece["weight_share"] for piece in pieces)), merged.weight
        )
        self._include_partial = (
            self._latent.has_partial and self._rng.random() < self._latent.fraction
        )

    def theoretical_inclusion_probability(self, item_age: float) -> float:
        """Invariant (4): probability that an item of the given age is in the sample."""
        if item_age < 0:
            raise ValueError(f"item age must be non-negative, got {item_age}")
        if self._total_weight <= 0:
            return 0.0
        weight = math.exp(-self.lambda_ * item_age)
        return min(1.0, (self._latent.weight / self._total_weight) * weight)

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def plan_state(self) -> RTBSPlanState:
        """The scalars a driver needs to plan this sampler's next batches."""
        return RTBSPlanState(
            self.n, self.lambda_, self._total_weight, self._latent.weight, self._time
        )

    def _process_batch(self, items: Sequence[Any] | np.ndarray, elapsed: float) -> None:
        batch = as_item_array(items)
        step = rtbs_step(
            self._total_weight, self._latent.weight, self.n, self.lambda_, elapsed, len(batch)
        )
        if step.thinned:
            # Stand-alone, the sampler draws its own acceptance: how many
            # arrivals enter, then which ones.
            accepted = step.acceptance(self._rng, len(batch), self.n)
            batch = batch[choose_indices(self._rng, len(batch), accepted)]
        self._apply(step, batch)

    def _process_thinned(
        self, items: Sequence[Any] | np.ndarray, arrivals: int, time: float | None
    ) -> None:
        """Apply a batch a driver already thinned (see :meth:`Sampler.ingest_stream`).

        ``items`` are the accepted arrivals of a batch of ``arrivals``. In
        the two thinning branches they enter as they are (the driver drew
        how many and which); in the accept-all branches they must be the
        whole batch. A plan that disagrees with this state is refused
        before the clock moves.
        """
        batch = as_item_array(items)
        _, elapsed = validate_batch_time(
            self._time, time, first_batch=self._batches_seen == 0
        )
        step = rtbs_step(
            self._total_weight, self._latent.weight, self.n, self.lambda_, elapsed, arrivals
        )
        limit = min(arrivals, self.n) if step.thinned else arrivals
        if len(batch) > limit or (not step.thinned and len(batch) != arrivals):
            raise ValueError(
                f"a plan of {len(batch)} accepted items for {arrivals} arrivals "
                f"disagrees with this sampler's state (W={self._total_weight}, "
                f"C={self._latent.weight}, n={self.n})"
            )
        self._advance_time(time)
        self._apply(step, batch)

    def _apply(self, step: RTBSStep, rows: np.ndarray) -> None:
        """Install one batch's accepted ``rows`` under the bookkeeping ``step``."""
        self._total_weight = step.total_weight
        if step.branch == SATURATED:
            # Classic saturated step: the accepted items overwrite as many
            # uniformly chosen victims (bit-for-bit Algorithm 2's Sample).
            if len(rows):
                victims = choose_indices(self._rng, self._latent.full_count, len(rows))
                self._latent = self._latent.with_replaced_full(
                    victims, rows, timestamp=self._time
                )
        elif step.branch == UNDERFULL:
            # Underfull (post-reshard): fewer than n items are stored even
            # though W >= n. Arrivals enter at the saturated rate n / W, so
            # the sample refills toward C = n; overshoot is settled below.
            if len(rows):
                self._latent = self._latent.with_appended_full(rows, timestamp=self._time)
        else:
            # Accept-all branches: the latent sample decays to the step's
            # target (by its own weight — identical to decaying by W on
            # invariant states, where C == W bit for bit), then every
            # arriving item enters as a full item.
            if step.empties:
                self._latent = self._emptied()
            else:
                self._latent = downsample(self._latent, step.target, self._rng)
            self._latent = self._latent.with_appended_full(rows, timestamp=self._time)
        if self._latent.weight > self.n:
            # Overshoot: one extra round of downsampling brings the weight to n.
            self._latent = downsample(self._latent, float(self.n), self._rng)
        self._latent.check_invariants()
        # Realize the partial item's coin flip for this batch's sample
        # (equation (2)); the full items are realized implicitly.
        self._include_partial = (
            self._latent.has_partial and self._rng.random() < self._latent.fraction
        )

    def _emptied(self) -> LatentSample:
        """A fresh empty latent sample tagged as the successor of the current one."""
        emptied = LatentSample.empty()
        emptied._epoch = self._latent.epoch + 1
        return emptied
