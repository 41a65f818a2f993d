"""Wall-clock benchmark of PERCIVAL's served verdict path and its
in-renderer page path.

    python3 perfbench/run.py --workload feed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Workloads (see BENCHMARK.json and
perfbench/README.md): ``feed``, ``revisit``, ``page_render``.  Each runs
in a fresh interpreter; with ``--trace 0`` the last line of output is a
JSON object with every end-to-end metric, with ``--trace 1`` one with
every per-layer metric.  The benchmark exits non-zero without printing a
result when the program is missing or a workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
from knobs import BLAS_THREAD_VARS, model_cache_dir  # noqa: E402
from measure import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"

#: fresh interpreters timed from start to first verdict per run; the run's
#: own interpreter adds one more sample
SETUP_SAMPLES = 4
#: a cold checkout trains the model first
PREPARE_TIMEOUT_S = 850
SETUP_TIMEOUT_S = 60
#: a run's own deadline beyond --seconds (synthesis, oracle, reference
#: renders, the compute-model fit)
RUN_SLACK_S = 100


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    source = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                    if p]
    )
    # the model cache lives in the checkout, wherever PERCIVAL_CACHE
    # pointed before
    env["PERCIVAL_CACHE"] = str(Path(model_cache_dir(str(ROOT))).parent)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args: list, timeout: float) -> tuple:
    """Run the worker to completion: (start on the monotonic clock,
    its output lines, the JSON object on its last line)."""
    command = [sys.executable, str(WORKER)] + args
    started = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchmarkError(
            f"worker exited {done.returncode}: {' '.join(args)}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker printed nothing: {' '.join(args)}")
    return started, lines[:-1], json.loads(lines[-1])


def setup_seconds(started: float, reply: dict) -> float:
    """Start of the interpreter to its first verdict, at the reference
    host speed (the probe ran right after set-up)."""
    return (
        (reply["setup_end"] - started)
        * hostspeed.REFERENCE_MS / reply["setup_probe_ms"]
    )


def expected_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return spec, {metric["name"]: metric["unit"] for metric in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec, units = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    base = ["--workload", args.workload]
    try:
        worker(["--mode", "prepare"] + base, PREPARE_TIMEOUT_S)
        setup_s = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                started, _, reply = worker(
                    ["--mode", "setup"] + base, SETUP_TIMEOUT_S
                )
                setup_s.append(setup_seconds(started, reply))
        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        started, lines, reply = worker(
            ["--mode", "run"] + base + [
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(stem),
            ],
            args.seconds * (2.5 if args.trace else 1.0) + RUN_SLACK_S,
        )
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = reply["metrics"]
    if not args.trace:
        setup_s.append(setup_seconds(started, reply))
        metrics["setup_s"] = median(setup_s)
        lines.append(
            "setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup_s)
        )
    if set(metrics) != set(units):
        print(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(units))}",
            file=sys.stderr,
        )
        return 3
    for line in lines:
        print(line)
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(reply["correct"]),
        "attempted": int(reply["attempted"]),
        "failed": int(reply["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
