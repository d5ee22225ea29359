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


class TestProcessBackendEquivalence:
    """The persistent-worker process backend must reproduce the goldens too.

    Reservoir partitions (D-R-TBS) and worker sample partitions (D-T-TBS)
    live *resident* in the transport workers; the master's plan draws and
    the workers' private streams are unchanged, so every ``W_t``/``C_t``/
    sample trajectory — and every priced runtime — is bit-identical to the
    serial backend. (The golden suite previously had to skip the process
    backend entirely: closure tasks could not cross a process boundary.)
    """

    @pytest.mark.parametrize("variant", list(DRTBS_VARIANTS))
    def test_drtbs_on_process_backend_matches_golden(self, golden, variant):
        from repro.engine import ProcessPoolExecutor

        with ProcessPoolExecutor(2) as backend:
            actual = drtbs_trajectory(
                variant,
                materialized=True,
                num_batches=30,
                batch_size=25,
                n=40,
                lambda_=0.25,
                workers=4,
                seed=3,
                backend=backend,
            )
        _assert_bit_identical(
            actual,
            golden["drtbs"][f"{variant}-materialized"],
            f"{variant}-process",
        )

    def test_drtbs_on_an_uneven_process_pool_matches_golden(self, golden):
        # Four partitions on three workers: one worker hosts two of them.
        from repro.engine import ProcessPoolExecutor

        with ProcessPoolExecutor(3) as backend:
            actual = drtbs_trajectory(
                "cent-kv-rj",
                materialized=True,
                num_batches=30,
                batch_size=25,
                n=40,
                lambda_=0.25,
                workers=4,
                seed=3,
                backend=backend,
            )
        _assert_bit_identical(
            actual, golden["drtbs"]["cent-kv-rj-materialized"], "cent-kv-rj-3-procs"
        )

    def test_dttbs_on_a_single_process_worker_matches_golden(self, golden):
        # Every worker sample partition resident in the one process.
        from repro.engine import ProcessPoolExecutor

        with ProcessPoolExecutor(1) as backend:
            actual = dttbs_trajectory(
                materialized=True,
                num_batches=30,
                batch_size=20,
                n=50,
                lambda_=0.2,
                workers=3,
                seed=2,
                backend=backend,
            )
        _assert_bit_identical(actual, golden["dttbs"]["materialized"], "dttbs-1-proc")

    def test_drtbs_irregular_gaps_on_process_backend(self, golden):
        from repro.engine import ProcessPoolExecutor

        with ProcessPoolExecutor(2) as backend:
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
                backend=backend,
            )
        _assert_bit_identical(
            actual, golden["drtbs"]["dist-cp-materialized-gaps"], "dist-cp-gaps-process"
        )

    def test_dttbs_on_process_backend_matches_golden(self, golden):
        from repro.engine import ProcessPoolExecutor

        with ProcessPoolExecutor(2) as backend:
            actual = dttbs_trajectory(
                materialized=True,
                num_batches=30,
                batch_size=20,
                n=50,
                lambda_=0.2,
                workers=3,
                seed=2,
                backend=backend,
            )
        _assert_bit_identical(actual, golden["dttbs"]["materialized"], "dttbs-process")

    def test_dttbs_virtual_on_process_backend_matches_golden(self, golden):
        # Virtual batches carry only counts; the updates stay driver-side
        # (same draw order) but the priced stages are charged identically.
        from repro.engine import ProcessPoolExecutor

        with ProcessPoolExecutor(2) as backend:
            actual = dttbs_trajectory(
                materialized=False,
                num_batches=25,
                batch_size=10_000,
                n=1_000,
                lambda_=0.07,
                workers=4,
                seed=0,
                backend=backend,
            )
        _assert_bit_identical(actual, golden["dttbs"]["virtual"], "dttbs-virtual-process")
