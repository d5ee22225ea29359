"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(20180129)


class ForcedFirstDraw(np.random.Generator):
    """A real Generator whose first scalar ``random()`` returns a chosen value.

    That first call does not advance the underlying stream.
    """

    def __init__(self, first: float, seed: int = 0) -> None:
        super().__init__(np.random.PCG64(seed))
        self._pending: float | None = first

    def random(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        if self._pending is not None and not args and not kwargs:
            value, self._pending = self._pending, None
            return value
        return super().random(*args, **kwargs)


def make_batches(num_batches: int, batch_size: int) -> list[list[tuple[int, int]]]:
    """Batches of identifiable items ``(batch_index, position)`` (1-based batches)."""
    return [
        [(batch_index, position) for position in range(batch_size)]
        for batch_index in range(1, num_batches + 1)
    ]


def empirical_inclusion_by_batch(samples: list[list[tuple[int, int]]], num_batches: int,
                                 batch_size: int) -> np.ndarray:
    """Fraction of each batch's items present in the final sample, averaged over trials.

    ``samples`` holds one final sample per independent trial; items must be
    ``(batch_index, position)`` tuples as produced by :func:`make_batches`.
    """
    counts = np.zeros(num_batches)
    for sample in samples:
        per_batch = np.zeros(num_batches)
        for batch_index, _ in sample:
            per_batch[batch_index - 1] += 1
        counts += per_batch / batch_size
    return counts / len(samples)
