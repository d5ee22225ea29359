"""repro — reproduction of "Temporally-Biased Sampling for Online Model Management".

The package is organized into seven subpackages:

* :mod:`repro.core` — the sampling algorithms (R-TBS, T-TBS and every
  baseline), plus the fractional-sample machinery and closed-form analysis.
* :mod:`repro.engine` — the execution engine: pluggable
  :class:`~repro.engine.Executor` backends (serial and process-pool), each
  hosting the service's shards behind one shard-host surface, so the
  service runs one ingest pipeline on every backend.
* :mod:`repro.service` — the production ingestion layer: a sharded
  :class:`~repro.service.SamplerService` with stable hash routing,
  per-shard ingest on any backend, and pickle-free whole-service
  checkpoint/restore.
* :mod:`repro.streams` — synthetic data-stream generators used by the
  paper's evaluation (batch-size processes, temporal mode patterns, the
  Gaussian-mixture, regression and recurring-context text workloads).
* :mod:`repro.ml` — from-scratch kNN, linear-regression and Naive-Bayes
  models, evaluation metrics (including expected shortfall), and the
  online model-management retraining loop.
* :mod:`repro.distributed` — a cost-model simulator of the paper's
  distributed D-T-TBS / D-R-TBS implementations on a Spark-like cluster.
* :mod:`repro.experiments` — runnable reproductions of every table and
  figure in the paper's evaluation section.

Quickstart
----------
>>> from repro import RTBS
>>> sampler = RTBS(n=100, lambda_=0.1, rng=42)
>>> for batch_number in range(10):
...     sample = sampler.process_batch(range(batch_number * 50, (batch_number + 1) * 50))
>>> len(sample) <= 100
True
"""

from repro.core import (
    AResSampler,
    BatchedChao,
    BatchedReservoir,
    BTBS,
    ExponentialDecay,
    LatentSample,
    RTBS,
    Sampler,
    SlidingWindow,
    TimeBasedSlidingWindow,
    TTBS,
    UniformReservoir,
    downsample,
    lambda_for_retention,
    lambda_for_survival,
)
from repro.engine import (
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    get_executor,
)
from repro.ml.retraining import ModelManager
from repro.service import SamplerService

__version__ = "1.2.0"

__all__ = [
    "AResSampler",
    "SamplerService",
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "get_executor",
    "BatchedChao",
    "BatchedReservoir",
    "BTBS",
    "ExponentialDecay",
    "LatentSample",
    "ModelManager",
    "RTBS",
    "Sampler",
    "SlidingWindow",
    "TimeBasedSlidingWindow",
    "TTBS",
    "UniformReservoir",
    "downsample",
    "lambda_for_retention",
    "lambda_for_survival",
    "__version__",
]
