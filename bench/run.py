"""Benchmark entry point: one workload, one JSON result on the last line.

    python3 bench/run.py --workload train --seed 0 --seconds 25 --trace 0

Workloads: train, eval_trained, eval_untrained (see README). With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the run also repeats its timed phase under the span tracer and the result
holds the per-layer metrics instead. The platform fingerprint is printed
on the line before the result, and both go to
``.bench_runs/<workload>-seed<n>-trace<t>/BENCH_<workload>.json`` with the
spans (``spans.csv``) of a traced run.

Exit status: 0 when every check passed, 1 when a check failed or an
operation raised (the result line then says ``"correct": false``), 2 on a
usage error or a checkout without ``src/aligndet``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import common

WORKLOAD_NAMES = ("train", "eval_trained", "eval_untrained")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        parser.error(f"--seed {args.seed} outside [0, 2^32)")
    if args.seconds < 1:
        parser.error(f"--seconds must be at least 1, got {args.seconds}")
    return args


def listed_units(trace):
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    common.pin_blas_threads()
    common.import_aligndet()
    import oracles
    import workloads

    platform = common.fingerprint()
    if platform["blas_threads"] > platform["nproc"]:
        sys.stderr.write(f"error: {platform['blas_threads']} BLAS threads on "
                         f"{platform['nproc']} CPUs\n")
        return 2
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    correct = True
    try:
        workloads.WORKLOADS[args.workload](run)
    except oracles.CheckFailed as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        correct = False
    except Exception:
        traceback.print_exc()
        correct = False
        run.failed = max(run.attempted, 1)
    metrics = run.layers if args.trace else run.metrics
    reported = {name: m["unit"] for name, m in metrics.items()}
    if correct and reported != listed_units(args.trace):
        sys.stderr.write(f"error: reported metrics {reported} differ from BENCHMARK.json\n")
        correct = False
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(run.path(f"BENCH_{args.workload}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "platform": platform, "notes": run.notes, **result}, f, indent=1)
    print("platform " + json.dumps(platform, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
