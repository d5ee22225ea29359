"""Bit-for-bit trajectory regression tests for the distributed algorithms.

The golden file pins the exact per-batch ``W_t``/``C_t``/runtime numbers
(and final samples) produced by the pre-engine D-R-TBS/D-T-TBS
implementations at fixed seeds. The engine refactor moved the data-movement
stages onto :mod:`repro.engine` executors; these tests prove the move
changed *nothing* statistically: every master RNG draw, every worker stream,
and every priced stage is identical under the simulated backend.

Regenerate the goldens only for a deliberate statistical change:
``PYTHONPATH=src python tests/distributed/generate_golden_trajectories.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from tests.distributed.generate_golden_trajectories import (
    DRTBS_VARIANTS,
    GOLDEN_RUNS,
    OUTPUT,
    drtbs_trajectory,
    dttbs_trajectory,
)


@pytest.fixture(scope="module")
def golden() -> dict:
    if not os.path.exists(OUTPUT):
        pytest.fail(f"golden trajectory file missing: {OUTPUT}")
    with open(OUTPUT, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _assert_bit_identical(actual: dict, expected: dict, label: str) -> None:
    assert set(actual) == set(expected), label
    for key in expected:
        # Exact equality, including every float: JSON round-trips Python
        # floats through repr, which is lossless.
        assert actual[key] == expected[key], f"{label}: {key} trajectory diverged"


@pytest.mark.parametrize("variant", list(DRTBS_VARIANTS))
def test_drtbs_materialized_trajectories_are_bit_identical(golden, variant):
    actual = drtbs_trajectory(
        variant,
        materialized=True,
        num_batches=30,
        batch_size=25,
        n=40,
        lambda_=0.25,
        workers=4,
        seed=3,
    )
    _assert_bit_identical(
        actual, golden["drtbs"][f"{variant}-materialized"], f"{variant}-materialized"
    )


@pytest.mark.parametrize("variant", list(DRTBS_VARIANTS))
def test_drtbs_virtual_trajectories_are_bit_identical(golden, variant):
    actual = drtbs_trajectory(
        variant,
        materialized=False,
        num_batches=25,
        batch_size=10_000,
        n=5_000,
        lambda_=0.1,
        workers=4,
        seed=7,
    )
    _assert_bit_identical(
        actual, golden["drtbs"][f"{variant}-virtual"], f"{variant}-virtual"
    )


def test_drtbs_irregular_gap_trajectory_is_bit_identical(golden):
    actual = drtbs_trajectory(
        "dist-cp",
        materialized=True,
        num_batches=20,
        batch_size=30,
        n=35,
        lambda_=0.3,
        workers=3,
        seed=11,
        irregular_times=True,
    )
    _assert_bit_identical(
        actual, golden["drtbs"]["dist-cp-materialized-gaps"], "dist-cp-gaps"
    )


def test_dttbs_materialized_trajectory_is_bit_identical(golden):
    actual = dttbs_trajectory(
        materialized=True,
        num_batches=30,
        batch_size=20,
        n=50,
        lambda_=0.2,
        workers=3,
        seed=2,
    )
    _assert_bit_identical(actual, golden["dttbs"]["materialized"], "dttbs-materialized")


def test_dttbs_irregular_gap_trajectory_is_bit_identical(golden):
    actual = dttbs_trajectory(
        materialized=True,
        num_batches=20,
        batch_size=25,
        n=60,
        lambda_=0.15,
        workers=4,
        seed=9,
        irregular_times=True,
    )
    _assert_bit_identical(actual, golden["dttbs"]["materialized-gaps"], "dttbs-gaps")


def test_dttbs_virtual_trajectory_is_bit_identical(golden):
    actual = dttbs_trajectory(
        materialized=False,
        num_batches=25,
        batch_size=10_000,
        n=1_000,
        lambda_=0.07,
        workers=4,
        seed=0,
    )
    _assert_bit_identical(actual, golden["dttbs"]["virtual"], "dttbs-virtual")



# Each golden run paired with the next one in file order, so every run is
# advanced in lockstep with a run of a different configuration.
_PAIRED_RUNS = list(zip(GOLDEN_RUNS, list(GOLDEN_RUNS)[1:] + list(GOLDEN_RUNS)[:1]))


@pytest.mark.parametrize(
    "run, companion", _PAIRED_RUNS, ids=[f"{a}-{key}" for (a, key), _ in _PAIRED_RUNS]
)
def test_lockstep_instances_keep_separate_state(golden, run, companion):
    """Algorithm state lives on the instance, never in module-level tables.

    Two runs on their own clusters are advanced one batch at a time, in
    turn, in the same process. Any state shared between instances — a
    module-level registry, a class-level buffer, a common random stream —
    would make at least one of them leave its golden trajectory.
    """
    steps = {name: GOLDEN_RUNS[name][0](**GOLDEN_RUNS[name][1]) for name in (run, companion)}
    records: dict = {}
    while len(records) < len(steps):
        for name, generator in steps.items():
            if name in records:
                continue
            try:
                next(generator)
            except StopIteration as done:
                records[name] = done.value
    for algorithm, key in (run, companion):
        _assert_bit_identical(
            records[algorithm, key], golden[algorithm][key], f"{algorithm}-{key}-lockstep"
        )
