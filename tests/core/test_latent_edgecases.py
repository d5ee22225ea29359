"""Regression tests for edge defects surfaced by the strict-typing pass.

Each test pins one fix:

* ``downsample`` below weight 1 from an integral-weight sample must always
  promote a full item to partial — the old ``u > 0.0`` gate skipped the
  swap on the measure-zero draw ``u == 0.0`` and produced an
  invariant-violating sample (positive fractional weight, no partial item).
* ``LatentSample.split`` validates the partial destination inside the
  ``has_partial`` branch (Optional narrowing); behavior is unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.latent import LatentSample, downsample
from tests.conftest import ForcedFirstDraw


class TestDownsampleZeroDraw:
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
