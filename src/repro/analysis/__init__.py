"""Contract-enforcing static analysis for the repro codebase.

The repo rests on invariants that plain tests only catch *after* a violation
ships: bit-identical results across serial/process backends (all
randomness flows through driver-spawned RNG streams), ``state_dict()``
completeness for crash-safe WAL recovery, the versioned ``ROUTING_VERSION``
key-encoding contract, and a pickle-free trust model in the checkpoint/WAL/
transport layers. This package encodes those rules once, as AST checks, so
every change is verified mechanically — run them via ``tools/repro_lint.py``
or the ``lint`` CI job.

Layout:

* :mod:`repro.analysis.framework` — :class:`Finding`, the :class:`Rule`
  protocol, ``# repro-lint: ignore[rule] -- reason`` waivers, and
  :func:`run_lint`;
* :mod:`repro.analysis.rules` — the shipped AST rules (determinism,
  pickle-ban, error-swallowing, iter-order, state-dict, pure-read,
  env-config);
* :mod:`repro.analysis.fingerprint` — the routing-fingerprint rule and the
  AST normalizer it hashes with;
* :mod:`repro.analysis.fingerprints` — recorded golden fingerprints per
  ``ROUTING_VERSION``;
* :mod:`repro.analysis.statedict` — the *importing* completeness checker
  that round-trips every registered sampler through ``state_dict()``.

See ``docs/CONTRACTS.md`` for the contract catalogue and waiver policy.
"""

from __future__ import annotations

from repro.analysis.fingerprint import (
    RoutingFingerprintRule,
    compute_routing_fingerprint,
    routing_fingerprint_from_source,
)
from repro.analysis.fingerprints import NORMATIVE_FUNCTIONS, ROUTING_FINGERPRINTS
from repro.analysis.framework import (
    Finding,
    LintReport,
    Rule,
    SourceModule,
    load_source_module,
    module_name_for,
    run_lint,
)
from repro.analysis.rules import ALL_RULES, default_rules
from repro.analysis.statedict import check_registered_samplers, check_sampler_class

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "SourceModule",
    "load_source_module",
    "module_name_for",
    "run_lint",
    "ALL_RULES",
    "default_rules",
    "RoutingFingerprintRule",
    "compute_routing_fingerprint",
    "routing_fingerprint_from_source",
    "NORMATIVE_FUNCTIONS",
    "ROUTING_FINGERPRINTS",
    "check_registered_samplers",
    "check_sampler_class",
]
