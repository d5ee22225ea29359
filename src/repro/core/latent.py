"""Fractional ("latent") samples and the downsampling procedure of Algorithm 3.

A latent sample ``L = (A, pi, C)`` consists of a set ``A`` of *full* items, a
set ``pi`` containing at most one *partial* item, and a real-valued sample
weight ``C`` with ``|A| = floor(C)``. The realized sample ``S`` is obtained
by taking every full item and including the partial item with probability
``frac(C)`` (equation (2) of the paper), so ``E[|S|] = C``.

:func:`downsample` implements Algorithm 3: given a latent sample of weight
``C`` and a target weight ``0 < C' < C`` it produces a latent sample of
weight ``C'`` such that every item's realized inclusion probability is scaled
by exactly ``C'/C`` (Theorem 4.1). R-TBS relies on this to preserve the
appearance-probability invariant (4) under decay.

:meth:`LatentSample.split` and :func:`merge_latent_samples` are the
re-partitioning primitives behind elastic resharding: a latent sample is
split into per-destination latent fragments (each a valid latent sample
whose weight is its full-item count plus the source's fractional part if
the partial item routed there), and fragments from many sources merge back
into one latent sample using the same stratified partial-item combination
the paper's D-R-TBS merge/subsample machinery relies on — two fractional
items of inclusion probability ``f1`` and ``f2`` combine into one partial
of fraction ``f1 + f2`` (keeping either with probability proportional to
its fraction) when ``f1 + f2 < 1``, or promote one of the two to a full
item (with the marginal-preserving probabilities) when ``f1 + f2 >= 1``.
Every item's realized inclusion probability is preserved exactly through a
split followed by a merge.

Storage is array-backed: payloads live in a 1-D NumPy array with parallel
``float64`` arrays of per-item arrival weights and arrival timestamps, so
Algorithm 3's ``Sample(A, m)``/``Swap1``/``Move1`` primitives are fancy-index
operations over whole arrays rather than per-item Python loops. The list
facade (:attr:`LatentSample.full` / :attr:`LatentSample.partial`) is
preserved for callers that want plain Python objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.core.arrays import as_item_array, concat_items, empty_item_array, readonly_view
from repro.core.random_utils import choose_indices, ensure_rng

__all__ = [
    "DownsamplePlan",
    "FrozenLatentView",
    "LatentSample",
    "downsample",
    "downsample_plan",
    "merge_latent_samples",
]

_WEIGHT_TOLERANCE = 1e-9


def _frac(x: float) -> float:
    """Fractional part of ``x``, snapping values within tolerance of an integer to 0."""
    f = x - math.floor(x)
    if f < _WEIGHT_TOLERANCE or f > 1.0 - _WEIGHT_TOLERANCE:
        return 0.0
    return f


def _floor(x: float) -> int:
    """Floor of ``x`` that treats values within tolerance of an integer as that integer."""
    nearest = round(x)
    if abs(x - nearest) < _WEIGHT_TOLERANCE:
        return int(nearest)
    return int(math.floor(x))


def _meta_array(values: Sequence[float] | np.ndarray | None, count: int, default: float) -> np.ndarray:
    """A ``float64`` metadata array of length ``count`` (filled with ``default`` if absent)."""
    if values is None:
        return np.full(count, default, dtype=np.float64)
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) != count:
        raise ValueError(f"metadata array has length {len(arr)}, expected {count}")
    return arr


@dataclass(frozen=True)
class FrozenLatentView:
    """An immutable, array-backed view of a :class:`LatentSample` at one epoch.

    :meth:`LatentSample.freeze` is O(1): every mutating operation on a latent
    sample already produces *fresh* column arrays (copy-on-write at column
    granularity — only the columns an operation touches are rebuilt), so a
    frozen view can share the live columns safely. The shared columns are
    wrapped in non-writeable NumPy views, and :attr:`epoch` records which
    version of the sample the view captured: any subsequent mutation replaces
    the columns on the live sample and bumps its epoch, leaving the frozen
    view untouched.
    """

    epoch: int
    weight: float
    full_payloads: np.ndarray
    full_weights: np.ndarray
    full_timestamps: np.ndarray
    partial_payloads: np.ndarray
    partial_weights: np.ndarray
    partial_timestamps: np.ndarray

    @property
    def full_count(self) -> int:
        """Number of full items, i.e. ``floor(C)``."""
        return len(self.full_payloads)

    @property
    def has_partial(self) -> bool:
        """Whether the frozen sample holds a partial item."""
        return len(self.partial_payloads) > 0

    @property
    def fraction(self) -> float:
        """``frac(C)`` — the inclusion probability of the partial item."""
        return _frac(self.weight)

    def materialize(self, include_partial: bool) -> list[Any]:
        """The realized sample as a list, given the partial item's coin flip."""
        sample: list[Any] = self.full_payloads.tolist()
        if include_partial and len(self.partial_payloads):
            sample.append(self.partial_payloads[0])
        return sample

    def items_array(self, include_partial: bool) -> np.ndarray:
        """The realized payloads as a read-only array (full items first)."""
        if include_partial and len(self.partial_payloads):
            return readonly_view(concat_items(self.full_payloads, self.partial_payloads))
        return self.full_payloads


class _Items:
    """A column group: parallel (payloads, weights, timestamps) arrays."""

    __slots__ = ("payloads", "weights", "timestamps")

    def __init__(self, payloads: np.ndarray, weights: np.ndarray, timestamps: np.ndarray) -> None:
        self.payloads = payloads
        self.weights = weights
        self.timestamps = timestamps

    @classmethod
    def build(
        cls,
        payloads: Any,
        weights: Sequence[float] | np.ndarray | None = None,
        timestamps: Sequence[float] | np.ndarray | None = None,
    ) -> "_Items":
        arr = as_item_array(payloads)
        return cls(arr, _meta_array(weights, len(arr), 1.0), _meta_array(timestamps, len(arr), 0.0))

    def __len__(self) -> int:
        return len(self.payloads)

    def take(self, indices: np.ndarray) -> "_Items":
        return _Items(self.payloads[indices], self.weights[indices], self.timestamps[indices])

    def drop_index(self, index: int) -> "_Items":
        mask = np.ones(len(self.payloads), dtype=bool)
        mask[index] = False
        return _Items(self.payloads[mask], self.weights[mask], self.timestamps[mask])

    def concat(self, other: "_Items") -> "_Items":
        return _Items(
            concat_items(self.payloads, other.payloads),
            np.concatenate([self.weights, other.weights]),
            np.concatenate([self.timestamps, other.timestamps]),
        )

    def copy(self) -> "_Items":
        return _Items(self.payloads.copy(), self.weights.copy(), self.timestamps.copy())

    @classmethod
    def empty(cls) -> "_Items":
        return cls(empty_item_array(), np.empty(0), np.empty(0))


class LatentSample:
    """A fractional sample ``(A, pi, C)`` backed by parallel NumPy arrays.

    Parameters
    ----------
    full:
        The full items ``A`` (list, sequence, or 1-D array); each appears in
        the realized sample with probability 1.
    partial:
        Zero or one partial item; it appears in the realized sample with
        probability ``frac(weight)``.
    weight:
        The sample weight ``C``. Invariant: ``len(full) == floor(C)`` and a
        partial item exists iff ``frac(C) > 0``.
    full_weights, full_timestamps, partial_weights, partial_timestamps:
        Optional parallel per-item metadata (arrival weight, default 1.0, and
        arrival timestamp, default 0.0). They travel with the payloads through
        every downsampling/eviction operation.

    Mutating operations are copy-on-write: they build fresh column arrays for
    the columns they touch and return a *new* latent sample whose
    :attr:`epoch` is one past the source's, so a view taken with
    :meth:`freeze` stays valid (and cheap) across later mutations.
    """

    __slots__ = ("_full", "_partial", "weight", "_epoch")

    def __init__(
        self,
        full: Any = None,
        partial: Any = None,
        weight: float = 0.0,
        *,
        full_weights: Sequence[float] | np.ndarray | None = None,
        full_timestamps: Sequence[float] | np.ndarray | None = None,
        partial_weights: Sequence[float] | np.ndarray | None = None,
        partial_timestamps: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        self._full = (
            full if isinstance(full, _Items) else _Items.build(full, full_weights, full_timestamps)
        )
        self._partial = (
            partial
            if isinstance(partial, _Items)
            else _Items.build(partial, partial_weights, partial_timestamps)
        )
        self.weight = float(weight)
        self._epoch = 0

    # ------------------------------------------------------------------
    # constructors and invariants
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "LatentSample":
        """An empty latent sample of weight 0."""
        return cls(_Items.empty(), _Items.empty(), 0.0)

    @classmethod
    def from_full_items(cls, items: Any, timestamp: float = 0.0) -> "LatentSample":
        """A latent sample containing the given items as full items (integral weight)."""
        arr = as_item_array(items, copy=True)
        columns = _Items(
            arr, np.ones(len(arr)), np.full(len(arr), float(timestamp), dtype=np.float64)
        )
        return cls(columns, _Items.empty(), float(len(arr)))

    def check_invariants(self) -> None:
        """Raise :class:`ValueError` if the latent-sample invariants are violated."""
        if self.weight < -_WEIGHT_TOLERANCE:
            raise ValueError(f"latent sample weight must be non-negative, got {self.weight}")
        if len(self._partial) > 1:
            raise ValueError("a latent sample holds at most one partial item")
        expected_full = _floor(self.weight)
        if len(self._full) != expected_full:
            raise ValueError(
                f"latent sample with weight {self.weight} must have {expected_full} "
                f"full items, found {len(self._full)}"
            )
        has_frac = _frac(self.weight) > 0.0
        if has_frac and not len(self._partial):
            raise ValueError(
                f"latent sample with fractional weight {self.weight} is missing a partial item"
            )
        if not has_frac and len(self._partial):
            raise ValueError(
                f"latent sample with integral weight {self.weight} must not hold a partial item"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def full(self) -> list[Any]:
        """The full items ``A`` as a plain list (materialized view)."""
        return self._full.payloads.tolist()

    @property
    def partial(self) -> list[Any]:
        """The partial item as a list of length 0 or 1 (materialized view)."""
        return self._partial.payloads.tolist()

    @property
    def full_array(self) -> np.ndarray:
        """The full-item payload array; treat as read-only."""
        return self._full.payloads

    @property
    def item_weights(self) -> np.ndarray:
        """Per-item arrival weights parallel to :attr:`full_array`; treat as read-only."""
        return self._full.weights

    @property
    def item_timestamps(self) -> np.ndarray:
        """Per-item arrival timestamps parallel to :attr:`full_array`; treat as read-only."""
        return self._full.timestamps

    @property
    def full_count(self) -> int:
        """Number of full items, i.e. ``floor(C)`` — an O(1) query."""
        return len(self._full)

    @property
    def has_partial(self) -> bool:
        """Whether a partial item is currently stored."""
        return len(self._partial) > 0

    @property
    def footprint(self) -> int:
        """Number of items physically stored (``floor(C)`` or ``floor(C)+1``)."""
        return len(self._full) + len(self._partial)

    @property
    def fraction(self) -> float:
        """``frac(C)`` — the inclusion probability of the partial item."""
        return _frac(self.weight)

    @property
    def epoch(self) -> int:
        """Version counter: bumped each time a mutating op derives a new sample."""
        return self._epoch

    def items(self) -> list[Any]:
        """All stored items, full items first, then the partial item if any."""
        return self._full.payloads.tolist() + self._partial.payloads.tolist()

    def decayed_item_weights(self, lambda_: float, now: float) -> np.ndarray:
        """Vectorized per-item decayed weights ``w_i e^{-lambda (now - t_i)}``."""
        return self._full.weights * np.exp(-lambda_ * (now - self._full.timestamps))

    def materialize(self, include_partial: bool) -> list[Any]:
        """The realized sample as a list, given the partial item's coin flip."""
        sample = self._full.payloads.tolist()
        if include_partial and len(self._partial):
            sample.append(self._partial.payloads[0])
        return sample

    def realize(self, rng: np.random.Generator | int | None = None) -> list[Any]:
        """Draw a realized sample ``S`` from this latent sample (equation (2))."""
        rng = ensure_rng(rng)
        include = bool(len(self._partial)) and rng.random() < self.fraction
        return self.materialize(include)

    def copy(self) -> "LatentSample":
        """Shallow copy (items shared, containers new, same epoch — content is identical)."""
        duplicate = LatentSample(self._full.copy(), self._partial.copy(), self.weight)
        duplicate._epoch = self._epoch
        return duplicate

    def freeze(self) -> FrozenLatentView:
        """An immutable view of the current version — O(1), no column copies.

        The view shares the live column arrays (safe because mutations are
        copy-on-write and never write in place) wrapped as non-writeable
        NumPy views, tagged with the current :attr:`epoch`.
        """
        return FrozenLatentView(
            epoch=self._epoch,
            weight=self.weight,
            full_payloads=readonly_view(self._full.payloads),
            full_weights=readonly_view(self._full.weights),
            full_timestamps=readonly_view(self._full.timestamps),
            partial_payloads=readonly_view(self._partial.payloads),
            partial_weights=readonly_view(self._partial.weights),
            partial_timestamps=readonly_view(self._partial.timestamps),
        )

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """All columns plus the sample weight as fresh arrays (no aliasing)."""
        return {
            "weight": float(self.weight),
            "full_payloads": self._full.payloads.copy(),
            "full_weights": self._full.weights.copy(),
            "full_timestamps": self._full.timestamps.copy(),
            "partial_payloads": self._partial.payloads.copy(),
            "partial_weights": self._partial.weights.copy(),
            "partial_timestamps": self._partial.timestamps.copy(),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "LatentSample":
        """Rebuild a latent sample from :meth:`state_dict` and check invariants."""
        full = _Items(
            as_item_array(state["full_payloads"], copy=True),
            np.asarray(state["full_weights"], dtype=np.float64).copy(),
            np.asarray(state["full_timestamps"], dtype=np.float64).copy(),
        )
        partial = _Items(
            as_item_array(state["partial_payloads"], copy=True),
            np.asarray(state["partial_weights"], dtype=np.float64).copy(),
            np.asarray(state["partial_timestamps"], dtype=np.float64).copy(),
        )
        restored = cls(full, partial, float(state["weight"]))
        restored.check_invariants()
        return restored

    # ------------------------------------------------------------------
    # array-native builders (used by the vectorized samplers)
    # ------------------------------------------------------------------
    def with_appended_full(
        self,
        items: Any,
        timestamp: float = 0.0,
        item_weights: Sequence[float] | np.ndarray | None = None,
    ) -> "LatentSample":
        """A new latent sample with ``items`` appended as full items.

        The sample weight grows by ``len(items)``; the partial item (if any)
        is carried over unchanged. This is the unsaturated-arrival primitive
        of Algorithm 2 expressed as one array concatenation.
        """
        arr = as_item_array(items)
        appended = _Items(
            arr,
            _meta_array(item_weights, len(arr), 1.0),
            np.full(len(arr), float(timestamp), dtype=np.float64),
        )
        grown = LatentSample(
            self._full.concat(appended), self._partial.copy(), self.weight + len(arr)
        )
        grown._epoch = self._epoch + 1
        return grown

    def with_replaced_full(
        self, slots: np.ndarray, items: Any, timestamp: float = 0.0
    ) -> "LatentSample":
        """A new latent sample with the full items at ``slots`` overwritten by ``items``.

        The replacements enter with arrival weight 1 at ``timestamp``; the
        sample weight and the partial item are unchanged. This is the
        saturated-arrival primitive of Algorithm 2 — a victim per accepted
        item — as one copy of each column plus one scatter, so its cost
        does not depend on how many items survive.
        """
        arr = as_item_array(items)
        payloads = self._full.payloads
        payloads = payloads.astype(np.result_type(payloads, arr), copy=True)
        payloads[slots] = arr
        weights = self._full.weights.copy()
        weights[slots] = 1.0
        timestamps = self._full.timestamps.copy()
        timestamps[slots] = float(timestamp)
        replaced = LatentSample(
            _Items(payloads, weights, timestamps), self._partial, self.weight
        )
        replaced._epoch = self._epoch + 1
        return replaced

    # ------------------------------------------------------------------
    # resharding primitives
    # ------------------------------------------------------------------
    def split(
        self,
        full_destinations: np.ndarray,
        partial_destination: int | None,
    ) -> dict[int, "LatentSample"]:
        """Re-partition this latent sample into per-destination fragments.

        ``full_destinations[i]`` names the destination of the ``i``-th full
        item (parallel to :attr:`full_array`); ``partial_destination`` names
        the destination of the partial item (required iff one is stored).
        Each returned fragment is itself a valid latent sample: its weight
        is its full-item count, plus ``frac(C)`` for the one fragment that
        received the partial item. Fragment weights therefore sum to ``C``
        exactly, and every item keeps its realized inclusion probability
        (full items stay full; the partial item keeps its fraction).
        """
        full_destinations = np.asarray(full_destinations, dtype=np.int64)
        if len(full_destinations) != len(self._full):
            raise ValueError(
                f"{len(full_destinations)} destinations for "
                f"{len(self._full)} full items"
            )
        pieces: dict[int, LatentSample] = {}
        for destination in np.unique(full_destinations):
            idx = np.flatnonzero(full_destinations == destination)
            pieces[int(destination)] = LatentSample(
                self._full.take(idx), _Items.empty(), float(len(idx))
            )
        if self.has_partial:
            if partial_destination is None:
                raise ValueError("a partial item is stored but has no destination")
            if self.fraction > 0.0:
                target = int(partial_destination)
                base = pieces.get(target, LatentSample.empty())
                pieces[target] = LatentSample(
                    base._full, self._partial.copy(), base.weight + self.fraction
                )
        for piece in pieces.values():
            piece._epoch = self._epoch + 1
            piece.check_invariants()
        return pieces


# ----------------------------------------------------------------------
# Algorithm 3
# ----------------------------------------------------------------------
class DownsamplePlan(NamedTuple):
    """Algorithm 3's decision for one downsampling (see :func:`downsample_plan`).

    Applied in one order by every caller: the promotion if
    :attr:`promote_first`, then the deletions, then the promotion otherwise,
    then the partial slot is emptied unless :attr:`keep_partial`. The
    position draws (which items go) stay with the caller.
    """

    #: How many uniformly random full items are deleted.
    deletions: int
    #: Whether a uniformly random full item moves to the partial slot.
    promote: bool
    #: On a promotion, whether the old partial item rejoins the full items
    #: (``Swap1``) rather than being dropped (``Move1``).
    swap: bool
    #: Whether the promotion comes before the deletions (``floor(C') == 0``).
    promote_first: bool
    #: Whether a partial item survives (``frac(C') > 0``).
    keep_partial: bool


def downsample_plan(
    rng: np.random.Generator, weight: float, target_weight: float
) -> DownsamplePlan | None:
    """Algorithm 3's decision for downsampling weight ``C`` to ``C'``, from one draw ``u``.

    Returns ``None`` (and draws nothing) when ``C'`` is within tolerance of
    ``C``: the sample is kept as it is.

    Raises
    ------
    ValueError
        If ``target_weight`` is not in ``(0, C)``.
    """
    if target_weight <= 0:
        raise ValueError(f"target weight must be positive, got {target_weight}")
    if target_weight >= weight - _WEIGHT_TOLERANCE:
        if abs(target_weight - weight) <= _WEIGHT_TOLERANCE:
            return None
        raise ValueError(
            f"target weight {target_weight} must be smaller than the current weight {weight}"
        )
    frac_c = _frac(weight)
    frac_cprime = _frac(target_weight)
    floor_c = _floor(weight)
    floor_cprime = _floor(target_weight)
    keep_partial = frac_cprime > 0.0
    u = rng.random()

    if floor_cprime == 0:
        # No full items are retained; only a partial item survives. With no
        # current partial (frac_c == 0) a full item *must* become the partial:
        # gating that on ``u > 0`` would, on the measure-zero draw u == 0.0,
        # emit a sample with positive fractional weight and no partial item.
        promote = frac_c <= 0.0 or u > frac_c / weight
        deletions = floor_c - 1 if promote else floor_c
        return DownsamplePlan(deletions, promote, False, True, keep_partial)
    if floor_cprime == floor_c:
        # No items are deleted; the partial item may be promoted to full.
        keep_probability = (1.0 - (target_weight / weight) * frac_c) / (1.0 - frac_cprime)
        return DownsamplePlan(0, u > keep_probability, True, False, keep_partial)
    # 0 < floor(C') < floor(C): some full items are deleted.
    if frac_c > 0.0 and u <= (target_weight / weight) * frac_c:
        return DownsamplePlan(floor_c - floor_cprime, True, True, False, keep_partial)
    return DownsamplePlan(floor_c - floor_cprime - 1, True, False, False, keep_partial)


def _promote(
    rng: np.random.Generator, full: _Items, partial: _Items, swap: bool
) -> tuple[_Items, _Items]:
    """``Swap1``/``Move1``: a random full item becomes the partial item.

    The old partial item rejoins the full items under ``Swap1`` (``swap``)
    and is dropped under ``Move1``.
    """
    if not len(full):
        raise ValueError("promoting to the partial slot requires at least one full item")
    index = int(rng.integers(len(full)))
    chosen = full.take(np.array([index]))
    rest = full.drop_index(index)
    return (rest.concat(partial) if swap else rest), chosen


def _subsample(rng: np.random.Generator, columns: _Items, size: int) -> _Items:
    """``Sample(A, m)``: a uniform random subset as one fancy-indexing pass."""
    if size >= len(columns):
        return columns
    return columns.take(choose_indices(rng, len(columns), size))


def downsample(
    latent: LatentSample,
    target_weight: float,
    rng: np.random.Generator | int | None = None,
) -> LatentSample:
    """Downsample a latent sample to a smaller target weight (Algorithm 3).

    Produces a new latent sample ``L' = (A', pi', C')`` with
    ``C' = target_weight`` such that ``Pr[i in S'] = (C'/C) Pr[i in S]`` for
    every item ``i`` of the input (Theorem 4.1). The input is not modified.
    The decision is :func:`downsample_plan`'s; all item movement is
    whole-array selection, so the cost is a handful of NumPy operations
    regardless of how many items are deleted.

    Raises
    ------
    ValueError
        If ``target_weight`` is not in ``(0, C)``.
    """
    rng = ensure_rng(rng)
    plan = downsample_plan(rng, latent.weight, target_weight)
    if plan is None:
        return latent.copy()
    full = latent._full
    partial = latent._partial
    if plan.promote and plan.promote_first:
        full, partial = _promote(rng, full, partial, plan.swap)
    full = _subsample(rng, full, len(full) - plan.deletions)
    if plan.promote and not plan.promote_first:
        full, partial = _promote(rng, full, partial, plan.swap)
    if not plan.keep_partial:
        partial = _Items.empty()

    result = LatentSample(full, partial, float(target_weight))
    result._epoch = latent._epoch + 1
    result.check_invariants()
    return result


def merge_latent_samples(
    pieces: Sequence[LatentSample],
    rng: np.random.Generator | int | None = None,
) -> LatentSample:
    """Merge latent samples into one, preserving every item's inclusion probability.

    The inverse of :meth:`LatentSample.split`, and the stratified merge the
    D-R-TBS machinery uses when sub-samples are combined: full items are
    concatenated in piece order, and the pieces' partial items (at most one
    each, with fractions ``f_i``) are folded pairwise —

    * ``f1 + f2 < 1``: one survivor stays partial with fraction
      ``f1 + f2``, chosen with probability proportional to its own
      fraction, so ``Pr[item kept realized] = f_i`` exactly;
    * ``f1 + f2 >= 1``: one item is *promoted* to full (item 1 with the
      marginal-preserving probability ``(1 - f2) / ((1 - f1) + (1 - f2))``)
      and the other stays partial with fraction ``f1 + f2 - 1``.

    The merged weight is the merged full count plus the surviving fraction,
    which equals the sum of the piece weights up to floating-point
    tolerance. Draws come from ``rng`` in piece order, so the merge is
    deterministic for a fixed generator state.
    """
    rng = ensure_rng(rng)
    full = _Items.empty()
    partial = _Items.empty()
    fraction = 0.0
    for piece in pieces:
        full = full.concat(piece._full)
        if not piece.has_partial or piece.fraction <= 0.0:
            continue
        incoming = piece._partial.copy()
        incoming_fraction = piece.fraction
        if not len(partial):
            partial, fraction = incoming, incoming_fraction
            continue
        combined = fraction + incoming_fraction
        if combined < 1.0 - _WEIGHT_TOLERANCE:
            if rng.random() < incoming_fraction / combined:
                partial = incoming
            fraction = combined
        else:
            # Promote one of the two to full; the other keeps the excess.
            promote_current = rng.random() < (1.0 - incoming_fraction) / (
                (1.0 - fraction) + (1.0 - incoming_fraction)
            )
            if promote_current:
                full = full.concat(partial)
                partial = incoming
            else:
                full = full.concat(incoming)
            fraction = combined - 1.0
            if not (_WEIGHT_TOLERANCE < fraction < 1.0 - _WEIGHT_TOLERANCE):
                fraction = 0.0
                partial = _Items.empty()
    if fraction == 0.0 and len(partial):
        partial = _Items.empty()
    merged = LatentSample(full, partial, float(len(full)) + fraction)
    merged._epoch = max((piece._epoch for piece in pieces), default=0) + 1
    merged.check_invariants()
    return merged
