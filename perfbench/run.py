"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk-100k --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric of a traced run. A human-readable report comes first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The run needs the program's
sources under ``src/`` next to this directory and exits with status 2
without a result when they are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_report(name: str, result: dict, machine: dict) -> None:
    print(f"perfbench {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<30} {entry['value']!s:>24} {entry['unit']}")
    report = result["report"]
    for key, value in report.get("extras", {}).items():
        print(f"  {key:<30} {value!s:>24}")
    for check, passed in report["checks"].items():
        print(f"  check {check:<24} {'ok' if passed else 'FAILED'}")
    for error in report["errors"]:
        print(f"  error {error}")
    print(json.dumps({"report": {"workload": name, "machine": machine, **report}}))


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    machine = measure.machine(ROOT, args.seed, args.seconds)
    try:
        result = workloads.run(
            workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench-work"
        )
    finally:
        measure.stop_child_processes()
    _print_report(workload.name, result, machine)
    del result["report"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
