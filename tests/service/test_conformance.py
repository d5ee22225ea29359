"""Per-shard statistical conformance of the sharded R-TBS service.

Bit-identity across backends and through recovery says every run draws the
same numbers; it cannot say the numbers are the right ones. These tests
check the paper's guarantees on the service's shards directly, so a wrong
order of draws (a biased acceptance plan, non-uniform victims) fails here:

* Theorem 4.2, per shard: an item of batch ``i`` is in shard ``s``'s sample
  with probability ``(C_t / W_t) e^{-lambda (t - i)}``, computed from that
  shard's own arrival counts (:func:`rtbs_appearance_probability`). Checked
  per (shard, batch), and per quarter of each batch's arrival order — the
  driver picks which arrivals a saturated shard accepts, and a plan that
  favoured early or late positions would show there;
* the bound ``C_t <= n`` per shard after every batch, ``C_t`` equal to its
  closed form ``min(n, W_t)``, and the mean realized sample size equal to
  the mean ``C_t``.

Counts are summed over seeded runs and compared with a 5-sigma tolerance,
using the binomial variance (conservative: a bounded sample's inclusions
are negatively correlated), so the suite is deterministic. Uniform keys and
a Zipf-skewed key pool run on the serial and process backends, plus one
case through ``recover_service`` and one through a forced ``failover()``. ``REPRO_CONFORMANCE_EXHAUSTIVE=1`` runs
many more seeds. Equal retention *across* shards under skewed keys is a
property of a coordinated global sample and is not asserted here.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np
import pytest

from repro.core import RTBS
from repro.core.analysis import rtbs_appearance_probability, rtbs_expected_size
from repro.service import (
    ReplicationConfig,
    SamplerService,
    recover_service,
    shard_ids_for_keys,
)

EXHAUSTIVE = os.environ.get("REPRO_CONFORMANCE_EXHAUSTIVE", "") not in ("", "0")

NUM_SHARDS = 8
SHARD_CAPACITY = 100
LAMBDA = 0.1
NUM_BATCHES = 40
BATCH_SIZE = 1_600
#: Item ids encode their batch and arrival position:
#: ``(run * NUM_BATCHES + batch) * _BATCH_STRIDE + position``.
_BATCH_STRIDE = 1 << 20
QUARTERS = 4
SIGMAS = 5.0
SEEDS = {"serial": 200 if EXHAUSTIVE else 24, "process:2": 24 if EXHAUSTIVE else 3}


def make_sampler(rng: np.random.Generator) -> RTBS:
    return RTBS(n=SHARD_CAPACITY, lambda_=LAMBDA, rng=rng)


def zipf_pool(users: int = 4_096) -> np.ndarray:
    """Per-draw user ids with P(rank r) proportional to 1/r (fixed, seed-free)."""
    weights = 1.0 / np.arange(1, users + 1, dtype=np.float64)
    rng = np.random.default_rng(77)
    return rng.choice(users, size=1 << 16, p=weights / weights.sum()).astype(np.int64)


def stream(seed: int, skewed: bool) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
    """One run's batches and, when skewed, Zipf keys.

    Item ids are distinct across runs too, so uniform keys (items routing
    on themselves) spread differently in every run.
    """
    rng = np.random.default_rng([seed, 5])
    offset = seed * NUM_BATCHES * _BATCH_STRIDE
    batches = [
        offset + index * _BATCH_STRIDE + np.arange(BATCH_SIZE, dtype=np.int64)
        for index in range(NUM_BATCHES)
    ]
    if not skewed:
        return batches, None
    pool = zipf_pool()
    return batches, [
        pool[rng.integers(0, len(pool), size=BATCH_SIZE)] for _ in range(NUM_BATCHES)
    ]


class Tally:
    """Observed and expected retention, summed over runs."""

    def __init__(self) -> None:
        shape = (NUM_SHARDS, NUM_BATCHES, QUARTERS)
        self.observed = np.zeros(shape)
        self.expected = np.zeros(shape)
        self.variance = np.zeros(shape)
        self.sizes: list[float] = []
        self.weights: list[float] = []

    def add(self, service: SamplerService, arrivals: np.ndarray, quarter_arrivals: np.ndarray) -> None:
        """Score one finished run; ``arrivals[s, i]`` items of batch ``i`` went to ``s``."""
        snapshot = service.snapshot()
        for shard_id, view in snapshot.views.items():
            counts = arrivals[shard_id].tolist()
            expected_c = rtbs_expected_size(counts, LAMBDA, SHARD_CAPACITY)
            assert view.expected_size <= SHARD_CAPACITY + 1e-9
            assert math.isclose(view.expected_size, expected_c, rel_tol=1e-9)
            self.sizes.append(view.sample_size)
            self.weights.append(view.expected_size)
            items = np.asarray(view.items, dtype=np.int64)
            batch_of = (items // _BATCH_STRIDE) % NUM_BATCHES
            quarter_of = (items % _BATCH_STRIDE) * QUARTERS // BATCH_SIZE
            np.add.at(self.observed[shard_id], (batch_of, quarter_of), 1)
            for index in range(NUM_BATCHES):
                p = rtbs_appearance_probability(counts, LAMBDA, SHARD_CAPACITY, index + 1)
                routed = quarter_arrivals[shard_id, index]
                self.expected[shard_id, index] += routed * p
                self.variance[shard_id, index] += routed * p * (1.0 - p)

    def check(self) -> None:
        def within(observed, expected, variance, where):
            spread = SIGMAS * math.sqrt(max(variance, 1e-12)) + 1e-9
            assert abs(observed - expected) <= spread, (
                f"{where}: retained {observed:.0f}, expected {expected:.1f} "
                f"(sigma {math.sqrt(variance):.2f})"
            )

        for shard_id in range(NUM_SHARDS):
            for index in range(NUM_BATCHES):
                within(
                    self.observed[shard_id, index].sum(),
                    self.expected[shard_id, index].sum(),
                    self.variance[shard_id, index].sum(),
                    f"shard {shard_id}, batch {index + 1}",
                )
        for quarter in range(QUARTERS):
            within(
                self.observed[..., quarter].sum(),
                self.expected[..., quarter].sum(),
                self.variance[..., quarter].sum(),
                f"arrival-order quarter {quarter}",
            )
        # Realized sizes are floor(C) or ceil(C): each deviates from C by
        # less than one, with variance at most 1/4.
        sizes, weights = np.asarray(self.sizes), np.asarray(self.weights)
        assert abs(sizes.mean() - weights.mean()) <= SIGMAS * 0.5 / math.sqrt(len(sizes))


def ingest_checked(
    service: SamplerService,
    batches: list[np.ndarray],
    keys: list[np.ndarray] | None,
    first: int,
    arrivals: np.ndarray,
) -> None:
    """Ingest batches one by one, checking counts and the capacity bound."""
    for index in range(first, first + len(batches)):
        batch = batches[index - first]
        batch_keys = None if keys is None else keys[index - first]
        counts = service.ingest_batch(batch, keys=batch_keys)
        for shard_id, count in counts.items():
            arrivals[shard_id, index] = count
        stats = service.stats()
        for shard in stats["shards"].values():
            assert shard["items"] <= SHARD_CAPACITY
            assert shard["expected_sample_size"] <= SHARD_CAPACITY + 1e-9
    assert arrivals.sum() == BATCH_SIZE * (first + len(batches))


def route_quarters(batches, keys) -> np.ndarray:
    """``[s, i, q]``: items of quarter ``q`` of batch ``i``'s arrival order routed to ``s``."""
    quarters = np.zeros((NUM_SHARDS, NUM_BATCHES, QUARTERS))
    for index, batch in enumerate(batches):
        shard_ids = shard_ids_for_keys(batch if keys is None else keys[index], NUM_SHARDS)
        quarter = (batch % _BATCH_STRIDE) * QUARTERS // BATCH_SIZE
        np.add.at(quarters[:, index], (shard_ids, quarter), 1)
    return quarters


def run(seed: int, skewed: bool, backend: str, tally: Tally) -> None:
    batches, keys = stream(seed, skewed)
    arrivals = np.zeros((NUM_SHARDS, NUM_BATCHES), dtype=np.int64)
    with SamplerService(make_sampler, NUM_SHARDS, rng=seed, executor=backend) as service:
        quarters = route_quarters(batches, keys)
        ingest_checked(service, batches, keys, 0, arrivals)
        assert np.array_equal(arrivals, quarters.sum(axis=2))
        tally.add(service, arrivals, quarters)


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "zipf"])
@pytest.mark.parametrize("backend", ["serial", "process:2"])
def test_per_shard_retention_matches_theorem_4_2(backend, skewed):
    tally = Tally()
    for seed in range(SEEDS[backend]):
        run(1_000 + seed, skewed, backend, tally)
    tally.check()


def test_retention_after_recovery(tmp_path):
    """Crash mid-stream (the WAL copied as a crash leaves it), recover, finish."""
    tally = Tally()
    half = NUM_BATCHES // 2
    for seed in range(SEEDS["serial"] // 2):
        batches, keys = stream(2_000 + seed, skewed=True)
        arrivals = np.zeros((NUM_SHARDS, NUM_BATCHES), dtype=np.int64)
        wal_dir = tmp_path / f"wal-{seed}"
        crashed = tmp_path / f"crashed-{seed}"
        service = SamplerService(make_sampler, NUM_SHARDS, rng=seed, wal_dir=wal_dir)
        quarters = route_quarters(batches, keys)
        try:
            ingest_checked(service, batches[:half], keys[:half], 0, arrivals)
            service.checkpoint()
            ingest_checked(
                service, batches[half : half + 5], keys[half : half + 5], half, arrivals
            )
            shutil.copytree(wal_dir, crashed)
        finally:
            service.close()
        recovered = recover_service(crashed, make_sampler)
        try:
            assert recovered.batches_seen == half + 5
            ingest_checked(
                recovered, batches[half + 5 :], keys[half + 5 :], half + 5, arrivals
            )
            tally.add(recovered, arrivals, quarters)
        finally:
            recovered.close()
    tally.check()


def test_retention_after_failover(tmp_path):
    """Promote the warm standby mid-stream (a fresh worker pool), then finish."""
    tally = Tally()
    half = NUM_BATCHES // 2
    for seed in range(SEEDS["process:2"]):
        batches, keys = stream(3_000 + seed, skewed=True)
        arrivals = np.zeros((NUM_SHARDS, NUM_BATCHES), dtype=np.int64)
        quarters = route_quarters(batches, keys)
        with SamplerService(
            make_sampler,
            NUM_SHARDS,
            rng=seed,
            executor="process:2",
            wal_dir=tmp_path / f"wal-{seed}",
            replication=ReplicationConfig(),
        ) as service:
            ingest_checked(service, batches[:half], keys[:half], 0, arrivals)
            service.failover()
            ingest_checked(service, batches[half:], keys[half:], half, arrivals)
            assert service.stats()["durability"]["replication"]["failovers"] == 1
            tally.add(service, arrivals, quarters)
    tally.check()
