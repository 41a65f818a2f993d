"""One workload in a fresh interpreter: set up, serve, check, report.

``run.py`` starts this script; it is not meant to be run by hand.

* ``--mode prepare`` fills the checkout's model cache (training on a
  cold checkout) and exits;
* ``--mode setup`` sets the workload up, serves its first verdict and
  prints when that happened on the system-wide monotonic clock, so the
  parent can time set-up from before it started this interpreter, and
  the host-speed probe's time right after;
* ``--mode run`` does the same and then runs the workload for
  ``--seconds``, checks every verdict, and prints the result as the
  last line of its output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import hostspeed
import knobs

knobs.pin_blas_threads()  # before anything imports numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def workload_module(name: str):
    if name in ("feed", "revisit"):
        import serving

        return serving, getattr(serving, name.upper())
    if name == "page_render":
        import rendering

        return rendering, rendering.PAGE_RENDER
    raise ValueError(f"unknown workload {name!r}")


def stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing started for the pool's
    shared memory, and wait for it, so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("prepare", "setup", "run"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="stem of the run's record files")
    args = parser.parse_args(argv)

    if args.mode == "prepare":
        knobs.load_classifier(str(ROOT))
        print(json.dumps({"prepared": True}))
        return 0

    knobs.pin_cores()
    module, workload = workload_module(args.workload)
    state = workload.setup(str(ROOT))
    setup_end = time.monotonic()
    setup_probe_ms = hostspeed.probe_ms()
    resolved = knobs.resolved(**state)
    if args.mode == "setup":
        workload_teardown(workload, state)
        print(json.dumps({
            "setup_end": setup_end, "setup_probe_ms": setup_probe_ms,
        }))
        return 0

    result = module.run(
        workload, state, args.seed, args.seconds, bool(args.trace)
    )
    workload_teardown(workload, state)
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = peak_kb / 1024.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "resolved": resolved,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        **result["record"],
    }
    tracer = result.get("tracer")
    if tracer is not None:
        record["trace_digest"] = tracer.digest(result["digest_roots"])
        record["plan"] = state["classifier"].inference_plan.describe()
    if args.out:
        os.makedirs(os.path.dirname(args.out), exist_ok=True)
        with open(args.out + ".json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, default=str)
        if tracer is not None:
            tracer.dump(args.out + ".spans.jsonl")
    print("resolved: " + json.dumps(resolved, default=str))
    if "rule_disagreements" in record:
        print(
            f"rule answers whose is_ad differs from the reference:"
            f" {record['rule_disagreements']} of {result['attempted']}"
            " requests (recorded, not failed)"
        )
    if tracer is not None:
        print(record["plan"])
        overhead = record["trace_overhead"]
        verdict = "resolved" if overhead["resolved"] else (
            "UNRESOLVED: the spread between paired rounds is larger than"
            " the overhead"
        )
        print(
            f"trace overhead {overhead['overhead_frac']:+.2%} over"
            f" {overhead['pairs']} pairs (pair IQR"
            f" {overhead['pair_spread']:.2%}): {verdict}"
        )
    print(json.dumps({
        "setup_end": setup_end,
        "setup_probe_ms": setup_probe_ms,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def workload_teardown(workload, state: dict) -> None:
    teardown = getattr(workload, "teardown", None)
    if teardown is not None:
        teardown(state)
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
