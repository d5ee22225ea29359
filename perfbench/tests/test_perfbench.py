"""Tests of the benchmark harness itself, on seconds-long workload variants.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import measure, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


def tiny(workload: workloads.Workload) -> workloads.Workload:
    """A variant of ``workload`` that runs in about a second."""
    return replace(
        workload,
        batch_size=100 if workload.batches_per_call == 1 else 2_000,
        batches_per_call=min(workload.batches_per_call, 4),
        # At least one batch's worth of keys, so every batch slices the pool.
        users=1 << 13 if workload.users else 0,
        setups=3,
    )


def _bindings() -> list[tuple[object, str, object]]:
    """What every traced attribute's owner holds itself (``None``: inherited)."""
    return [
        (target.owner, target.attr, vars(target.owner).get(target.attr))
        for target in tracing.layer_targets()
    ]


def _assert_same_bindings(before: list, after: list) -> None:
    assert len(before) == len(after)
    for (owner, attr, original), (_, _, now) in zip(before, after):
        assert now is original, f"{owner!r}.{attr} was not restored"


def test_traced_run_restores_every_wrapper(tmp_path: Path) -> None:
    before = _bindings()
    result = workloads.run(
        tiny(workloads.WORKLOADS["durable-100k"]),
        seed=3,
        seconds=0.2,
        trace=True,
        workdir=tmp_path / "work",
    )
    assert result["correct"], result["report"]["checks"]
    _assert_same_bindings(before, _bindings())


def test_wrappers_are_installed_then_restored_when_the_block_raises() -> None:
    targets = tracing.layer_targets()
    before = _bindings()
    with pytest.raises(RuntimeError, match="inside"):
        with tracing.installed(tracing.Tracer(), targets):
            for target in targets:
                assert getattr(target.owner, target.attr).__wrapped__ is not None
            raise RuntimeError("raised inside the traced block")
    _assert_same_bindings(before, _bindings())


def test_spans_split_self_time_between_nested_layers() -> None:
    tracer = tracing.Tracer()

    def inner() -> None:
        pass

    outer_target = tracing.Target(object, "outer", "layer.outer")
    inner_target = tracing.Target(object, "inner", "layer.inner")
    traced_inner = tracer.wrap(inner_target, inner)
    traced_outer = tracer.wrap(outer_target, lambda: [traced_inner() for _ in range(3)])
    with tracer.operation("ingest"):
        traced_outer()
    seconds, calls, _ = tracer.totals()
    assert calls[("ingest", "layer.outer")] == 1
    assert calls[("ingest", "layer.inner")] == 3
    covered = sum(seconds[("ingest", span)] for span in ("layer.outer", "layer.inner", "bench"))
    assert covered == pytest.approx(seconds[("ingest", "wall")], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("count", [1, 9, 19, 20, 21, 99, 100, 999, 1000, 1500])
@pytest.mark.parametrize("q", [50, 90, 99])
def test_percentile_has_ten_samples_beyond_it(count: int, q: int) -> None:
    values = np.random.default_rng(count).permutation(count).astype(float)
    result = measure.percentile(values, q)
    rank = -(-q * count // 100)
    if count - rank < measure.MIN_BEYOND:
        assert result is None
    else:
        assert result is not None
        assert int(np.sum(values > result)) >= measure.MIN_BEYOND


def test_percentile_thresholds() -> None:
    assert measure.percentile(range(19), 50) is None
    assert measure.percentile(range(20), 50) == 9.0
    assert measure.percentile(range(999), 99) is None
    assert measure.percentile(range(1000), 99) == 989.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_generates_byte_identical_inputs(name: str) -> None:
    workload = tiny(workloads.WORKLOADS[name])
    first, second = workloads.Inputs(7, workload), workloads.Inputs(7, workload)
    other = workloads.Inputs(8, workload)
    for index in (0, 1, 17, 4_096):
        assert first.items(index).tobytes() == second.items(index).tobytes()
        assert first.items(index).tobytes() != other.items(index).tobytes()
        keys = first.keys(index)
        if workload.users:
            assert keys.tobytes() == second.keys(index).tobytes()
            assert keys.tobytes() != other.keys(index).tobytes()
        else:
            assert keys is None


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name: str, trace: bool, tmp_path: Path) -> None:
    result = workloads.run(
        tiny(workloads.WORKLOADS[name]),
        seed=5,
        seconds=0.2,
        trace=trace,
        workdir=tmp_path / "work",
    )
    assert result["correct"], result["report"]["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {metric: entry["unit"] for metric, entry in result["metrics"].items()} == expected
    assert all(isinstance(entry["value"], float) for entry in result["metrics"].values())
    if not trace:
        assert result["report"]["extras"]["setups"] == 3
    assert not (tmp_path / "work").exists()


def _child_pids() -> list[int]:
    """Processes whose parent is this one, read from ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited while listed
            continue
        # Field 4 is the parent pid; the command name before it may hold spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            children.append(int(entry.name))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_process_backend_run_leaves_no_child_process(tmp_path: Path) -> None:
    result = workloads.run(
        tiny(workloads.WORKLOADS["durable-100k"]),
        seed=5,
        seconds=0.2,
        trace=False,
        workdir=tmp_path / "work",
    )
    assert result["correct"], result["report"]["checks"]
    measure.stop_child_processes()
    assert _child_pids() == []


def _raise(*args: object, **kwargs: object) -> None:
    raise OSError("injected failure")


_set_up_checkpoint = workloads.SamplerService.checkpoint


def _raise_after_set_up(
    service: workloads.SamplerService, *args: object, **kwargs: object
) -> None:
    """Checkpoint as usual during set-up, then fail in the measured loop."""
    if service.batches_seen > 1:
        _raise()
    _set_up_checkpoint(service, *args, **kwargs)


@pytest.mark.parametrize(
    "owner, attr, replacement, what",
    [
        (workloads.SamplerService, "checkpoint", _raise_after_set_up, "checkpoint"),
        (workloads.wal_module, "recover_service", _raise, "recover"),
        (workloads, "_build", _raise, "set-up"),
    ],
)
def test_an_operation_that_raises_is_counted_and_the_run_still_reports(
    owner: object,
    attr: str,
    replacement: object,
    what: str,
    tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(owner, attr, replacement)
    result = workloads.run(
        tiny(workloads.WORKLOADS["durable-100k"]),
        seed=5,
        seconds=0.2,
        trace=False,
        workdir=tmp_path / "work",
    )
    assert not result["correct"]
    assert result["failed"] == 1
    assert [error.split(":")[0] for error in result["report"]["errors"]] == [what]
    assert set(result["metrics"]) == set(workloads.END_TO_END)


def test_checks_reject_a_wrong_final_state() -> None:
    items = np.arange(5, dtype=np.int64)
    cut = {
        "batches_seen": 2,
        "time": 2.0,
        "shards": {0: (items, 10.0 * np.exp(-workloads.LAMBDA) + 10.0, 5.0, 5, 2.0)},
    }
    assert workloads.weight_matches(cut, batch_size=10)
    assert workloads.within_capacity(cut)
    assert workloads.same_cut(cut, cut)
    heavier = {**cut, "shards": {0: (items, 21.0, 5.0, 5, 2.0)}}
    assert not workloads.weight_matches(heavier, batch_size=10)
    assert not workloads.same_cut(cut, heavier)
    changed = {**cut, "shards": {0: (items + 1, *cut["shards"][0][1:])}}
    assert not workloads.same_cut(cut, changed)
    full = workloads.SHARD_CAPACITY + 1
    over = {**cut, "shards": {0: (items, 1.0, float(full), full, 2.0)}}
    assert not workloads.within_capacity(over)


def test_benchmark_json_names_what_the_harness_prints() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [entry["name"] for entry in spec["workloads"]]
    assert gated == [name for name in workloads.WORKLOADS if name in gated]
    assert len(gated) >= 2
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
