"""The repository benchmark: one command, four workloads, a traced mode.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload serve-hits --seed 1 --seconds 12 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics on the shipped
``repro serve`` daemon and ``repro fuzz`` CLI, run as subprocesses;
``--trace 1`` replays every workload's inputs with spans around each
layer call and reports the per-layer metrics (see README.md).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` runs one short round (for the
benchmark's own tests); its figures are not measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOAD_NAMES = ("serve-hits", "serve-misses", "serve-batch", "campaign")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round, one cold start: a quick self-test")
    return parser.parse_args(argv)


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        common.require_program()
    except common.BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 2

    common.become_subreaper()
    facts = common.host_facts()
    print(f"host: {json.dumps(facts, sort_keys=True)}")
    if args.trace:
        import tracing

        outcome = tracing.run(args.workload, args.seed, smoke=args.smoke)
    else:
        import workloads

        run = workloads.WORKLOADS[args.workload]
        probe_before = common.speed_probe()
        if args.smoke:
            outcome = run(args.seed, 0.0, starts=1, max_rounds=1)
        else:
            outcome = run(args.seed, args.seconds)
        probe_after = common.speed_probe()
        outcome.facts["speed_probe_s"] = [probe_before, probe_after]

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: attempted {outcome.attempted}, "
          f"failed {outcome.failed}")
    print(f"facts: {json.dumps(outcome.facts, sort_keys=True, default=str)}")
    _print_metrics(outcome.metrics)
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(outcome.problems) > 20:
        print(f"... and {len(outcome.problems) - 20} more check failures")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        sys.exit(3)
    finally:
        common.end_all()
