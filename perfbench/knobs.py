"""Every setting the workloads run with, pinned in one place.

Each knob the program would otherwise resolve from a ``PERCIVAL_*``
environment variable is passed explicitly, so the environment cannot
change a workload.  :func:`resolved` reports what each knob resolved to
inside the program, next to the machine facts a run depends on.
"""

from __future__ import annotations

import dataclasses
import os

#: BLAS/OpenMP pools pinned to one thread; set before numpy is imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: closed-loop clients ("tabs") of the serve workloads
TABS = 4
#: traffic traces synthesized per run (seeds derived from --seed); rounds
#: cycle through them, so one run averages over several traces
TRACES_PER_RUN = 16
#: pages of a page_render run, drawn from this many candidates
PAGES = 80
PAGE_CANDIDATES = 320
#: per-image virtual classification cost the renderer charges (§5.7)
CALIBRATED_LATENCY_MS = 11.0
#: workers of the page_render pool: what PERCIVAL_WORKERS=auto resolves
#: to on a 2-core machine
POOL_WORKERS = 1
SHARD_MIN_BATCH = 32
RESPAWN_BUDGET = 16
MEMO_CAPACITY = 4096
CASCADE_CONFIDENCE = 0.9

FEED_TRAFFIC = dict(
    frames_per_session=10, duplicate_fraction=0.3, shared_creatives=6
)
REVISIT_TRAFFIC = dict(provenance=True, revisits=3, revisit_churn=0.1)


#: the core the page_render pool worker runs on, set by :func:`pin_cores`
pool_core = None


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pin_cores() -> None:
    """Pin this process to the first core it may run on and keep the
    last for the pool worker: the two busy processes get a core each,
    and the host-speed probe can measure each of them."""
    global pool_core
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[0]})
    pool_core = cores[-1]


def pin_pool(pool) -> None:
    """Move the pool's worker processes to :data:`pool_core` (a worker
    respawned later starts on the workload's core)."""
    if pool_core is None:
        return
    for worker in pool._workers:
        os.sched_setaffinity(worker.process.pid, {pool_core})


def config():
    from repro.core.config import PercivalConfig

    return PercivalConfig(
        num_workers=0,
        precision="fp32",
        cascade_enabled=False,
        diff_enabled=False,
        calibrated_latency_ms=CALIBRATED_LATENCY_MS,
        shard_min_batch=SHARD_MIN_BATCH,
    )


def serve_settings():
    from repro.core.config import ServeSettings

    return ServeSettings(
        max_batch=16, max_wait_ms=4.0, max_depth=128, lanes=1, aging_ms=8.0
    )


def blocker(classifier, pool=None, memo_capacity: int = MEMO_CAPACITY):
    """A ``PercivalBlocker`` with the pinned latency and shard size."""
    from repro.core.blocker import PercivalBlocker

    return PercivalBlocker(
        classifier,
        calibrated_latency_ms=CALIBRATED_LATENCY_MS,
        memo_capacity=memo_capacity,
        pool=pool,
        shard_min_batch=SHARD_MIN_BATCH,
    )


def model_cache_dir(root: str) -> str:
    return os.path.join(root, ".cache", "models")


def load_classifier(root: str):
    """The reference classifier from the checkout's model cache (trains
    and fills the cache on a cold checkout), plan compiled."""
    from repro.core.modelstore import ModelStore

    classifier = ModelStore(model_cache_dir(root)).load_or_train(config())
    if classifier.inference_plan is None:
        raise RuntimeError("the reference network did not compile a plan")
    return classifier


def resolved(classifier, front=None, pool=None, blocker=None) -> dict:
    """What the pinned knobs resolved to, plus the machine facts."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "precision": classifier.effective_precision,
        "fast_path_tolerance": classifier.fast_path_tolerance,
    }
    if front is not None:
        facts["serve_settings"] = dataclasses.asdict(front.settings)
        facts["executor"] = front.use_executor
        facts["cascade"] = front.cascade is not None
        facts["diff"] = front.differ is not None
        if front.differ is not None:
            facts["diff_capacity"] = front.differ.store.capacity
        facts["chaos"] = front.chaos is not None
        facts["resilience"] = front.resilience is not None
        facts["workers"] = 0 if front.blocker.pool is None else (
            front.blocker.pool.num_workers
        )
    blocker = blocker or (front.blocker if front is not None else None)
    if blocker is not None:
        facts["shard_min_batch"] = blocker.shard_min_batch
        facts["calibrated_latency_ms"] = blocker.calibrated_latency_ms
    if pool is not None:
        facts["workers"] = pool.num_workers
        facts["pool_affinity"] = [
            sorted(os.sched_getaffinity(worker.process.pid))
            for worker in pool._workers
        ]
        facts["respawn_budget"] = pool.respawn_budget
    return facts
