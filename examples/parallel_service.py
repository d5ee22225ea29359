"""Sharded, executor-parallel model management end to end.

The paper's Sections 1 and 6 advocate keeping a model fresh by retraining on
a temporally-biased sample. This example runs that loop at service scale:

1. a :class:`~repro.service.SamplerService` hash-routes each arriving item
   (by its feature tuple) to one of four R-TBS shards and fans the per-shard
   updates out through a pluggable :mod:`repro.engine` executor backend;
2. the :class:`~repro.ml.ModelManager` drives its usual test-then-train loop
   against the service's Sampler-compatible facade — the training set is the
   union of the shard samples;
3. the service's ``stats()`` endpoint reports per-shard fill, weight and
   clocks, the observability a long-running deployment needs;
4. the same stream is ingested through the serial and process backends to
   show the engine's determinism contract: the backend changes where shard
   work runs, never what it computes.

Run with:  python examples/parallel_service.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import RTBS, SamplerService, get_executor
from repro.experiments.reporting import format_table
from repro.ml import KNNClassifier, ModelManager, misclassification_rate
from repro.streams import BatchStream, DeterministicBatchSize, GaussianMixtureStream, SingleEventPattern

NUM_SHARDS = 4
SHARD_CAPACITY = 250  # 4 shards x 250 = a 1000-item aggregate sample
LAMBDA = 0.07
WARMUP_BATCHES = 40
EVALUATION_BATCHES = 20


def make_service(executor) -> SamplerService:
    """A fresh 4-shard R-TBS service routing items by their feature tuple."""
    return SamplerService(
        lambda rng: RTBS(n=SHARD_CAPACITY, lambda_=LAMBDA, rng=rng),
        num_shards=NUM_SHARDS,
        key_fn=lambda item: item.features,
        rng=42,
        executor=executor,
    )


def sharded_model_management() -> None:
    print(f"Sharded retraining loop: {NUM_SHARDS} R-TBS shards, process executor\n")
    generator = GaussianMixtureStream(num_classes=100, rng=7)
    stream = BatchStream(
        generator,
        pattern=SingleEventPattern(start=8, end=13),
        batch_sizes=DeterministicBatchSize(100),
        warmup_batches=WARMUP_BATCHES,
        num_batches=EVALUATION_BATCHES,
        rng=7,
    )
    batches = list(stream)

    with make_service("process:2") as service:
        manager = ModelManager(
            service, lambda: KNNClassifier(k=5), misclassification_rate
        )
        manager.warmup(batches[:WARMUP_BATCHES])
        result = manager.run(batches[WARMUP_BATCHES:])

        print(
            f"mean misclassification over {EVALUATION_BATCHES} evaluated batches: "
            f"{result.mean_loss():.1f}%  (training on {len(service.sample_items())} "
            "items drawn from the union of the shard samples)\n"
        )

        stats = service.stats()
        rows = [
            [
                shard_id,
                shard["items"],
                f"{shard['fill_fraction']:.2f}",
                f"{shard['total_weight']:.1f}",
                shard["batches_seen"],
            ]
            for shard_id, shard in sorted(stats["shards"].items())
        ]
        print("per-shard observability (service.stats()):")
        print(
            format_table(
                ["shard", "items", "fill", "W_t", "batches"], rows
            )
        )
        print()


def backend_equivalence() -> None:
    print("Engine determinism contract: one stream, two backends\n")
    batches = [np.arange(i * 10_000, (i + 1) * 10_000) for i in range(30)]
    samples: dict[str, list] = {}
    rows = []
    for spec in ("serial", "process:2"):
        with get_executor(spec) as executor:
            service = SamplerService(
                lambda rng: RTBS(n=SHARD_CAPACITY, lambda_=LAMBDA, rng=rng),
                num_shards=NUM_SHARDS,
                rng=0,
                executor=executor,
            )
            begin = time.perf_counter()
            service.ingest(batches)
            elapsed = time.perf_counter() - begin
            samples[spec] = service.sample_items()
            rows.append(
                [spec, f"{len(batches) * 10_000 / elapsed:,.0f}", len(samples[spec])]
            )
    print(format_table(["backend", "items/sec", "sample size"], rows))
    assert samples["process:2"] == samples["serial"]
    print(
        "\nboth backends produced the bit-identical merged sample "
        f"({len(samples['serial'])} items)"
    )


def main() -> None:
    sharded_model_management()
    backend_equivalence()


if __name__ == "__main__":
    main()
