"""Regenerate the golden per-batch trajectories for the distributed algorithms.

The JSON written by this script pins the exact ``W_t``/``C_t``/runtime
trajectories (and, for D-T-TBS, sample-size trajectories and final samples)
of D-R-TBS and D-T-TBS at fixed seeds. ``test_golden_trajectories.py``
asserts that the current implementations reproduce these numbers bit for
bit, so any refactor of the distributed execution path — such as moving the
data-movement stages onto :mod:`repro.engine` — is proven
trajectory-preserving.

The file was generated from the pre-engine implementations (PR 2 state) and
must only be regenerated when a *deliberate, documented* statistical change
is made:

    PYTHONPATH=src python tests/distributed/generate_golden_trajectories.py
"""

from __future__ import annotations

import json
import os
from typing import Callable, Generator

from repro.distributed.batches import DistributedBatch
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.drtbs import DistributedRTBS
from repro.distributed.dttbs import DistributedTTBS

OUTPUT = os.path.join(os.path.dirname(__file__), "data", "golden_trajectories.json")

DRTBS_VARIANTS = {
    "dist-cp": dict(reservoir="copartitioned", decisions="distributed", join="colocated"),
    "cent-cp": dict(reservoir="copartitioned", decisions="centralized", join="colocated"),
    "cent-kv-cj": dict(reservoir="kvstore", decisions="centralized", join="colocated"),
    "cent-kv-rj": dict(reservoir="kvstore", decisions="centralized", join="repartition"),
}


def _items(batch_index: int, size: int) -> list[str]:
    # Strings survive the JSON round trip unchanged (tuples would come back
    # as lists), keeping golden-sample comparison exact.
    return [f"{batch_index}:{position}" for position in range(size)]


def _irregular_times(count: int) -> list[float]:
    # Strictly increasing, non-unit gaps: exercises the true-gap decay path.
    times, t = [], 0.0
    for index in range(count):
        t += 0.5 + (index % 3) * 0.75
        times.append(t)
    return times


def drtbs_steps(
    variant: str,
    *,
    materialized: bool,
    num_batches: int,
    batch_size: int,
    n: int,
    lambda_: float,
    workers: int,
    seed: int,
    irregular_times: bool = False,
) -> Generator[None, None, dict]:
    """Run D-R-TBS one batch per step; the generator returns the record."""
    cluster = SimulatedCluster(num_workers=workers)
    algorithm = DistributedRTBS(
        n=n, lambda_=lambda_, cluster=cluster, rng=seed, **DRTBS_VARIANTS[variant]
    )
    times = _irregular_times(num_batches) if irregular_times else [None] * num_batches
    total_weights, sample_weights, full_counts, runtimes = [], [], [], []
    for batch_index in range(1, num_batches + 1):
        if materialized:
            batch = DistributedBatch.from_items(
                _items(batch_index, batch_size), workers, batch_id=batch_index
            )
        else:
            batch = DistributedBatch.virtual(batch_size, workers, batch_id=batch_index)
        runtime = algorithm.process_batch(batch, time=times[batch_index - 1])
        total_weights.append(algorithm.total_weight)
        sample_weights.append(algorithm.sample_weight)
        full_counts.append(algorithm.full_item_count())
        runtimes.append(runtime)
        yield
    record = {
        "total_weight": total_weights,
        "sample_weight": sample_weights,
        "full_item_count": full_counts,
        "runtime": runtimes,
    }
    if materialized:
        record["final_sample"] = sorted(algorithm.sample_items())
    return record


def dttbs_steps(
    *,
    materialized: bool,
    num_batches: int,
    batch_size: int,
    n: int,
    lambda_: float,
    workers: int,
    seed: int,
    irregular_times: bool = False,
) -> Generator[None, None, dict]:
    """Run D-T-TBS one batch per step; the generator returns the record."""
    cluster = SimulatedCluster(num_workers=workers)
    algorithm = DistributedTTBS(
        n=n,
        lambda_=lambda_,
        mean_batch_size=batch_size,
        cluster=cluster,
        rng=seed,
    )
    times = _irregular_times(num_batches) if irregular_times else [None] * num_batches
    sizes, runtimes = [], []
    for batch_index in range(1, num_batches + 1):
        if materialized:
            batch = DistributedBatch.from_items(
                _items(batch_index, batch_size), workers, batch_id=batch_index
            )
        else:
            batch = DistributedBatch.virtual(batch_size, workers, batch_id=batch_index)
        runtime = algorithm.process_batch(batch, time=times[batch_index - 1])
        sizes.append(algorithm.sample_size())
        runtimes.append(runtime)
        yield
    record = {"sample_size": sizes, "runtime": runtimes}
    if materialized:
        record["final_sample"] = sorted(algorithm.sample_items())
    return record


def run_to_end(steps: Generator[None, None, dict]) -> dict:
    """Drive a ``*_steps`` run through every batch and return its record."""
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


def drtbs_trajectory(variant: str, **params) -> dict:
    return run_to_end(drtbs_steps(variant, **params))


def dttbs_trajectory(**params) -> dict:
    return run_to_end(dttbs_steps(**params))


DRTBS_MATERIALIZED = dict(
    materialized=True, num_batches=30, batch_size=25, n=40, lambda_=0.25, workers=4, seed=3
)
DRTBS_VIRTUAL = dict(
    materialized=False, num_batches=25, batch_size=10_000, n=5_000, lambda_=0.1, workers=4, seed=7
)

# (algorithm, golden key) -> (steps function, its arguments), in file order.
GOLDEN_RUNS: dict[tuple[str, str], tuple[Callable[..., Generator[None, None, dict]], dict]] = {}
for _variant in DRTBS_VARIANTS:
    GOLDEN_RUNS["drtbs", f"{_variant}-materialized"] = (
        drtbs_steps,
        dict(variant=_variant, **DRTBS_MATERIALIZED),
    )
    GOLDEN_RUNS["drtbs", f"{_variant}-virtual"] = (
        drtbs_steps,
        dict(variant=_variant, **DRTBS_VIRTUAL),
    )
GOLDEN_RUNS["drtbs", "dist-cp-materialized-gaps"] = (
    drtbs_steps,
    dict(
        variant="dist-cp",
        materialized=True,
        num_batches=20,
        batch_size=30,
        n=35,
        lambda_=0.3,
        workers=3,
        seed=11,
        irregular_times=True,
    ),
)
GOLDEN_RUNS["dttbs", "materialized"] = (
    dttbs_steps,
    dict(materialized=True, num_batches=30, batch_size=20, n=50, lambda_=0.2, workers=3, seed=2),
)
GOLDEN_RUNS["dttbs", "materialized-gaps"] = (
    dttbs_steps,
    dict(
        materialized=True,
        num_batches=20,
        batch_size=25,
        n=60,
        lambda_=0.15,
        workers=4,
        seed=9,
        irregular_times=True,
    ),
)
GOLDEN_RUNS["dttbs", "virtual"] = (
    dttbs_steps,
    dict(
        materialized=False,
        num_batches=25,
        batch_size=10_000,
        n=1_000,
        lambda_=0.07,
        workers=4,
        seed=0,
    ),
)


def generate() -> dict:
    golden: dict = {"drtbs": {}, "dttbs": {}}
    for (algorithm, key), (steps, params) in GOLDEN_RUNS.items():
        golden[algorithm][key] = run_to_end(steps(**params))
    return golden


if __name__ == "__main__":
    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUTPUT}")
