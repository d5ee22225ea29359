"""Regression tests for edge defects surfaced by the strict-typing pass.

Each test pins one fix:

* ``downsample`` below weight 1 from an integral-weight sample must always
  promote a full item to partial — the old ``u > 0.0`` gate skipped the
  swap on the measure-zero draw ``u == 0.0`` and produced an
  invariant-violating sample (positive fractional weight, no partial item).
* every outcome of :func:`downsample_plan` — no promotion, ``Move1``
  before the deletions, ``Swap1`` or ``Move1`` after them, the partial
  slot emptied — leaves ``floor(C')`` full items and a partial item iff
  ``frac(C') > 0``, whatever the forced first draw ``u``.
* ``LatentSample.split`` validates the partial destination inside the
  ``has_partial`` branch (Optional narrowing); behavior is unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.latent import (
    DownsamplePlan,
    LatentSample,
    _floor,
    _frac,
    downsample,
    downsample_plan,
)
from tests.conftest import ForcedFirstDraw


# (weight C, target C', forced u, the plan Algorithm 3 must make). Each
# sample holds floor(C) full items 0, 1, ... and, iff frac(C) > 0, the
# partial item "p".
_PLAN_OUTCOMES = {
    "no-promotion": (1.5, 0.25, 0.0, DownsamplePlan(1, False, False, True, True)),
    "move1-before-deletions": (2.0, 0.5, 0.0, DownsamplePlan(1, True, False, True, True)),
    "move1-before-deletions-with-partial": (
        3.5, 0.5, 0.99, DownsamplePlan(2, True, False, True, True)
    ),
    "swap1-no-deletions": (2.5, 2.25, 0.99, DownsamplePlan(0, True, True, False, True)),
    "swap1-after-deletions": (3.5, 1.5, 0.0, DownsamplePlan(2, True, True, False, True)),
    "move1-after-deletions": (3.5, 1.5, 0.99, DownsamplePlan(1, True, False, False, True)),
    "partial-emptied": (3.0, 2.0, 0.0, DownsamplePlan(0, True, False, False, False)),
}


def _latent_of_weight(weight: float) -> LatentSample:
    partial = ["p"] if _frac(weight) > 0 else []
    return LatentSample(list(range(_floor(weight))), partial, weight)


class TestDownsampleZeroDraw:
    @pytest.mark.parametrize("outcome", list(_PLAN_OUTCOMES))
    def test_plan_outcome_leaves_a_valid_latent_sample(self, outcome: str) -> None:
        weight, target, u, expected = _PLAN_OUTCOMES[outcome]
        plan = downsample_plan(ForcedFirstDraw(u), weight, target)
        assert plan == expected
        # The plan's counts alone leave floor(C') full items, and a partial
        # item iff frac(C') > 0.
        had_partial = _frac(weight) > 0
        full = _floor(weight) - plan.deletions - plan.promote
        full += plan.promote and plan.swap and had_partial
        assert full == _floor(target)
        assert (plan.keep_partial and (plan.promote or had_partial)) == (_frac(target) > 0)
        # Applying it moves the items accordingly.
        result = downsample(_latent_of_weight(weight), target, rng=ForcedFirstDraw(u, seed=5))
        assert result.full_count == _floor(target)
        assert result.has_partial == (_frac(target) > 0)
        if had_partial:
            # Swap1 returns the old partial item to the full items; Move1
            # drops it; without a promotion it stays partial if one survives.
            survives = plan.swap if plan.promote else plan.keep_partial
            assert ("p" in result.items()) == survives

    def test_plan_within_tolerance_is_none_and_draws_nothing(self) -> None:
        rng = ForcedFirstDraw(0.5)
        assert downsample_plan(rng, 3.0, 3.0 - 1e-10) is None
        assert rng._pending == 0.5

    def test_integral_weight_below_one_swaps_even_on_zero_draw(self) -> None:
        # weight 2.0 (no partial), target 0.5: the result *must* hold exactly
        # one partial item. With u == 0.0 the old code kept the (empty)
        # partial and crashed in check_invariants.
        latent = LatentSample.from_full_items([10, 20])
        result = downsample(latent, 0.5, rng=ForcedFirstDraw(0.0))
        assert result.weight == pytest.approx(0.5)
        assert result.has_partial
        assert result.fraction == pytest.approx(0.5)
        assert len(result.full_array) == 0
        assert result.partial[0] in (10, 20)

    def test_zero_draw_matches_nonzero_draw_distribution_support(self) -> None:
        latent = LatentSample.from_full_items([10, 20])
        forced = downsample(latent, 0.5, rng=ForcedFirstDraw(0.0, seed=7))
        organic = downsample(latent, 0.5, rng=ForcedFirstDraw(0.5, seed=7))
        # Same RNG consumption on both paths: the swap draw comes second.
        assert forced.partial == organic.partial

    def test_existing_partial_kept_on_zero_draw(self) -> None:
        # With a real partial present, u == 0.0 keeps it — unchanged behavior.
        base = LatentSample.from_full_items([1, 2])
        with_partial = downsample(base, 1.5, rng=ForcedFirstDraw(0.9))
        assert with_partial.has_partial
        kept = downsample(with_partial, 0.25, rng=ForcedFirstDraw(0.0))
        assert kept.has_partial
        assert kept.partial == with_partial.partial


class TestSplitPartialDestination:
    def test_partial_without_destination_still_raises(self) -> None:
        latent = downsample(
            LatentSample.from_full_items([1, 2, 3]),
            2.5,
            rng=np.random.default_rng(3),
        )
        assert latent.has_partial
        with pytest.raises(ValueError, match="partial item.*no destination"):
            latent.split(np.array([0, 1], dtype=np.int64), None)

    def test_no_partial_accepts_none_destination(self) -> None:
        latent = LatentSample.from_full_items([1, 2, 3])
        pieces = latent.split(np.array([0, 1, 0], dtype=np.int64), None)
        assert sorted(pieces) == [0, 1]
        assert sum(piece.weight for piece in pieces.values()) == pytest.approx(3.0)
