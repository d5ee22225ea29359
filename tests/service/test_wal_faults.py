"""Crash-at-any-point recovery: the durability layer's central property.

A child process runs the canonical durable-ingest workload and is
``SIGKILL``\\ ed at an injected failpoint — mid-WAL-append, mid-flush,
mid-fsync, at every step of a checkpoint's segment swap. The parent
recovers from the child's WAL directory, feeds the batches the recovered
clock says are still owed, and asserts the final state is
**bit-identical** to the uninterrupted golden run — and that the next
checkpoint is too. Crash points are drawn from fixed seeds (the CI matrix)
across all three executor backends; ``REPRO_FAULT_EXHAUSTIVE=1`` sweeps
*every* failpoint of the serial workload instead, under both the ``"os"``
and ``"always"`` policies.
"""

from __future__ import annotations

import os
import re
import signal
from pathlib import Path

import numpy as np
import pytest

import repro.service.checkpoint as checkpoint_module
import repro.service.wal as wal_module
from repro.service import SamplerService, load_service_delta
from repro.service.wal import read_log_records

from tests.faults import (
    CKPT_EVERY,
    EMPTY_BATCH_INDEX,
    NUM_BATCHES,
    assert_states_equal,
    count_failpoints,
    crash_workload,
    golden_state,
    make_factory,
    recover_and_finish,
)


@pytest.fixture(scope="module")
def golden():
    return golden_state()


@pytest.fixture(scope="module")
def failpoint_sites(tmp_path_factory):
    sites = count_failpoints(str(tmp_path_factory.mktemp("failpoint-count")))
    assert len(sites) > 50, "workload passes through suspiciously few failpoints"
    return sites


def _run_case(
    tmp_path,
    backend,
    golden,
    crash_index=None,
    site_prefix=None,
    occurrence=1,
    fsync="os",
):
    wal_dir = str(tmp_path / "wal")
    exitcode = crash_workload(
        wal_dir,
        backend,
        fsync=fsync,
        crash_index=crash_index,
        site_prefix=site_prefix,
        occurrence=occurrence,
    )
    # -SIGKILL when the failpoint fired; 0 when the chosen point lies past
    # the workload's end (then recovery is from a cleanly closed log). A
    # named site must fire: one the workload never reaches tests nothing.
    if site_prefix is not None:
        assert exitcode == -signal.SIGKILL, (site_prefix, occurrence, exitcode)
    assert exitcode in (0, -signal.SIGKILL), exitcode
    _check_recovery(wal_dir, backend, golden, fsync)


def _check_recovery(wal_dir, backend, golden, fsync="os"):
    service = recover_and_finish(wal_dir, backend, fsync=fsync)
    try:
        assert_states_equal(service.state_dict(), golden)
        # The *next* checkpoint must also be bit-identical: write it, load
        # it back, and compare the restored service's snapshot (restoring
        # normalizes JSON round-trip types exactly as any recovery would).
        service.checkpoint()
        state, watermark = load_service_delta(wal_dir)
        assert watermark == NUM_BATCHES - 1
        restored = SamplerService.from_state_dict(state, make_factory())
        assert_states_equal(restored.state_dict(), golden)
    finally:
        service.close()


# The fixed CI seed matrix: more serial draws (cheapest), a few on the
# process backend. Each seed maps to one crash point via its own RNG, so
# the matrix is stable run to run and machine to machine.
SEED_MATRIX = (
    [(None, seed) for seed in (11, 12, 13, 14, 15, 16, 21, 22, 23, 24)]
    + [("process:2", seed) for seed in (31, 32, 33)]
)


@pytest.mark.parametrize(
    "backend,seed",
    SEED_MATRIX,
    ids=[f"{backend or 'serial'}-seed{seed}" for backend, seed in SEED_MATRIX],
)
def test_crash_at_random_point_recovers_bit_identically(
    tmp_path, golden, failpoint_sites, backend, seed
):
    rng = np.random.default_rng(seed)
    crash_index = int(rng.integers(1, len(failpoint_sites) + 1))
    _run_case(tmp_path, backend, golden, crash_index=crash_index)


# Semantically chosen crash moments, pinned by site name so they stay
# meaningful as the failpoint count drifts. fsync="always" runs exercise
# the mid-fsync window the "os" policy never enters.
NAMED_SITES = [
    ("wal.append:batches.wal", 1, "os"),
    ("wal.append:batches.wal", EMPTY_BATCH_INDEX + 1, "os"),
    ("wal.append:batches.wal", NUM_BATCHES, "os"),
    ("wal.flush", 5, "os"),
    ("wal.fsync", 1, "always"),
    ("wal.fsync", 9, "always"),
    # Mid-construction, before the first segment is swapped in: nothing
    # was ever durable, so the deployment restarts from scratch.
    ("wal.segment-write", 1, "os"),
    ("wal.segment-replace", 1, "always"),
    # Construction's swap landed: the empty deployment recovers.
    ("wal.segment-dirsync", 1, "os"),
    # Mid-fsync of the first checkpoint after construction; just before
    # and just after its swap, see
    # test_crash_around_the_swap_recovers_one_whole_segment.
    ("wal.segment-fsync", 2, "always"),
]


@pytest.mark.parametrize(
    "site,occurrence,fsync",
    NAMED_SITES,
    ids=[f"{site}-{occurrence}-{fsync}" for site, occurrence, fsync in NAMED_SITES],
)
def test_crash_at_named_site_recovers_bit_identically(
    tmp_path, golden, site, occurrence, fsync
):
    _run_case(
        tmp_path, None, golden, site_prefix=site, occurrence=occurrence, fsync=fsync
    )


@pytest.mark.parametrize(
    "site,files,watermark",
    [
        ("wal.segment-replace", ["batches.wal", "batches.wal.tmp"], -1),
        ("wal.segment-dirsync", ["batches.wal"], CKPT_EVERY - 1),
    ],
    ids=["before", "after"],
)
def test_crash_around_the_swap_recovers_one_whole_segment(
    tmp_path, golden, site, files, watermark
):
    """A crash on either side of a checkpoint's swap leaves one whole log.

    Before it, the old segment is the log: construction's base and every
    batch since. After it, the new one: the checkpoint's base and no batch.
    Either recovers to the same committed state.
    """
    wal_dir = str(tmp_path / "wal")
    exitcode = crash_workload(wal_dir, None, site_prefix=site, occurrence=2)
    assert exitcode == -signal.SIGKILL
    assert sorted(os.listdir(wal_dir)) == files
    scan = read_log_records(os.path.join(wal_dir, "batches.wal"), strict=True)
    assert scan.watermark == watermark
    assert [record.seq for record in scan.records] == list(
        range(watermark + 1, CKPT_EVERY)
    )
    _check_recovery(wal_dir, None, golden)


@pytest.mark.skipif(
    not os.environ.get("REPRO_FAULT_EXHAUSTIVE"),
    reason="set REPRO_FAULT_EXHAUSTIVE=1 to sweep every failpoint (slow)",
)
@pytest.mark.parametrize("fsync", ["os", "always"])
def test_exhaustive_crash_sweep_serial(tmp_path, golden, fsync):
    sites = count_failpoints(str(tmp_path / "count"), fsync=fsync)
    for crash_index in range(1, len(sites) + 1):
        case_dir = tmp_path / f"crash-{crash_index}"
        case_dir.mkdir()
        _run_case(case_dir, None, golden, crash_index=crash_index, fsync=fsync)


def _site_prefix(site: str) -> str:
    return site.split(":", 1)[0]


def test_every_declared_failpoint_is_reached(tmp_path, failpoint_sites):
    """The sweeps reach every failpoint the durability layer declares.

    A failpoint no workload passes through is a crash window no test ever
    opens; the union of the ``"os"`` and ``"always"`` runs must cover them
    all (only ``"always"`` fsyncs the log per batch).
    """
    declared = {
        _site_prefix(site)
        for module in (wal_module, checkpoint_module)
        for site in re.findall(r'_fault\(f?"([^"{]+)', Path(module.__file__).read_text())
    }
    always = count_failpoints(str(tmp_path), fsync="always")
    reached = {_site_prefix(site) for site in [*failpoint_sites, *always]}
    assert declared == reached


def test_replay_lag_is_bounded_by_checkpoint_cadence(tmp_path, golden, failpoint_sites):
    """Crash at the very last failpoint: replay covers at most one cadence."""
    wal_dir = str(tmp_path / "wal")
    exitcode = crash_workload(wal_dir, None, crash_index=len(failpoint_sites))
    assert exitcode in (0, -signal.SIGKILL)
    service = recover_and_finish(wal_dir, None)
    try:
        # recover_and_finish already asserts the lag bound; the end state
        # must still be golden.
        assert service.batches_seen == NUM_BATCHES
        assert_states_equal(service.state_dict(), golden)
    finally:
        service.close()
