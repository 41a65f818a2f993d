"""Per-layer metrics from a traced run, and the fitted compute model.

Counts and milliseconds are per traced round (one traffic trace served,
or one pass over the ``page_render`` pages), so a faster program that
fits more rounds into a run reports the same counts.  Every ``*.ms`` of a layer is that
layer's self time; :data:`SELF_TIME_METRICS` partitions the traced wall
time, so those metrics sum to ``trace.wall_ms``.
"""

from __future__ import annotations

from statistics import mean
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from measure import linear_fit, median
from tracing import END, FRAMES, NAME, PARENT, START

OPS = 13

#: the metrics whose sum is the traced wall time (each a self time)
SELF_TIME_METRICS = (
    "hashing.fingerprint.ms",
    "blocker.memo_probe.ms",
    "blocker.self_ms",
    "preprocessing.ms",
    "classifier.predict.ms",
    *(f"inference.op{index:02d}.ms" for index in range(OPS)),
    "workerpool.predict.ms",
    "cascade.route.ms",
    "cascade.feedback.ms",
    "diff.recall.ms",
    "diff.remember.ms",
    "browser.decode.ms",
    "browser.raster.ms",
    "browser.parse.ms",
    "browser.layout.ms",
    "browser.render.self_ms",
    "serve.self_ms",
)

#: metric name -> unit, in the order BENCHMARK.json lists them
UNITS: Dict[str, str] = {
    "hashing.fingerprint.calls": "count",
    "hashing.fingerprint.ms": "ms",
    "hashing.fingerprint.us_per_call": "us",
    "preprocessing.calls": "count",
    "preprocessing.frames": "count",
    "preprocessing.ms": "ms",
    "preprocessing.us_per_frame": "us",
    "inference.plan.calls": "count",
    "inference.plan.frames": "count",
    "inference.plan.ms": "ms",
    "inference.plan.us_per_frame": "us",
    **{f"inference.op{index:02d}.ms": "ms" for index in range(OPS)},
    "classifier.predict.ms": "ms",
    "blocker.decide_many.calls": "count",
    "blocker.decide_many.frames": "count",
    "blocker.batch_mean": "frames",
    "blocker.memo_hit_ratio": "ratio",
    "blocker.unique_miss_ratio": "ratio",
    "blocker.self_ms": "ms",
    "blocker.memo_probe.calls": "count",
    "blocker.memo_probe.ms": "ms",
    "workerpool.predict.calls": "count",
    "workerpool.predict.frames": "count",
    "workerpool.predict.ms": "ms",
    "workerpool.us_per_frame": "us",
    "workerpool.fallbacks": "count",
    "workerpool.respawns": "count",
    "serve.submits": "count",
    "serve.batches": "count",
    "serve.batch_mean": "frames",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.tier.diff_hits": "count",
    "serve.tier.rule_hits": "count",
    "serve.tier.memo_hits": "count",
    "serve.tier.coalesced": "count",
    "serve.tier.queued": "count",
    "serve.tier_answer_ratio": "ratio",
    "serve.self_ms": "ms",
    "cascade.route.calls": "count",
    "cascade.route.ms": "ms",
    "cascade.rule_hit_ratio": "ratio",
    "cascade.feedback.ms": "ms",
    "cascade.rules_compiled": "count",
    "cascade.invalidations": "count",
    "diff.recall.calls": "count",
    "diff.recall.ms": "ms",
    "diff.hit_ratio": "ratio",
    "diff.remember.ms": "ms",
    "browser.decode.ms": "ms",
    "browser.raster.ms": "ms",
    "browser.parse.ms": "ms",
    "browser.layout.ms": "ms",
    "browser.render.self_ms": "ms",
    "browser.images_per_page": "count",
    "compute_model.setup_ms": "ms",
    "compute_model.per_frame_ms": "ms",
    "compute_model.amortization": "ratio",
    "compute_model.hardcoded_amortization": "ratio",
    "compute_model.predicted_over_measured": "ratio",
    "trace.wall_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class SpanTotals:
    """Calls, frames and self milliseconds per span name."""

    def __init__(self, tracer) -> None:
        self.calls: Dict[str, int] = {}
        self.frames: Dict[str, int] = {}
        self.self_ms: Dict[str, float] = {}
        self.root_ms = 0.0
        for span, own in zip(tracer.spans, tracer.self_times()):
            name = span[NAME]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.frames[name] = self.frames.get(name, 0) + span[FRAMES]
            self.self_ms[name] = self.self_ms.get(name, 0.0) + own * 1e3
            if span[PARENT] < 0:
                self.root_ms += (span[END] - span[START]) * 1e3

    def ms(self, *names: str) -> float:
        return sum(self.self_ms.get(name, 0.0) for name in names)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer,
    rounds: int,
    serve: Sequence[dict] = (),
    pages: Sequence[dict] = (),
    pool_counts: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer values from the traced rounds.

    ``serve`` holds one dict of front/router/differ counters per traced
    serve round, ``pages`` one dict per traced page render.  Layers a
    workload does not run report 0.
    """
    totals = SpanTotals(tracer)
    calls, frames = totals.calls, totals.frames
    per = 1.0 / rounds
    values: Dict[str, float] = {}

    def put(name: str, value: float) -> None:
        values[name] = float(value)

    fingerprint_ms = totals.ms("hashing.fingerprint")
    put("hashing.fingerprint.calls", calls.get("hashing.fingerprint", 0) * per)
    put("hashing.fingerprint.ms", fingerprint_ms * per)
    put("hashing.fingerprint.us_per_call",
        _ratio(fingerprint_ms * 1e3, calls.get("hashing.fingerprint", 0)))

    pre_ms = totals.ms("preprocessing")
    put("preprocessing.calls", calls.get("preprocessing", 0) * per)
    put("preprocessing.frames", frames.get("preprocessing", 0) * per)
    put("preprocessing.ms", pre_ms * per)
    put("preprocessing.us_per_frame",
        _ratio(pre_ms * 1e3, frames.get("preprocessing", 0)))

    op_names = [f"inference.op{index:02d}" for index in range(OPS)]
    plan_ms = totals.ms(*op_names)
    put("inference.plan.calls", calls.get(op_names[0], 0) * per)
    put("inference.plan.frames", frames.get(op_names[0], 0) * per)
    put("inference.plan.ms", plan_ms * per)
    put("inference.plan.us_per_frame",
        _ratio(plan_ms * 1e3, frames.get(op_names[0], 0)))
    for name in op_names:
        put(f"{name}.ms", totals.ms(name) * per)
    put("classifier.predict.ms", totals.ms("classifier.predict") * per)

    decided = frames.get("blocker.decide_many", 0)
    put("blocker.decide_many.calls", calls.get("blocker.decide_many", 0) * per)
    put("blocker.decide_many.frames", decided * per)
    put("blocker.batch_mean",
        _ratio(decided, calls.get("blocker.decide_many", 0)))
    put("blocker.memo_hit_ratio",
        _ratio(tracer.counters.get("blocker.memo_hits", 0), decided))
    put("blocker.unique_miss_ratio",
        _ratio(tracer.counters.get("blocker.unique_misses", 0), decided))
    put("blocker.self_ms", totals.ms("blocker.decide_many") * per)
    put("blocker.memo_probe.calls", calls.get("blocker.memo_probe", 0) * per)
    put("blocker.memo_probe.ms", totals.ms("blocker.memo_probe") * per)

    pool_ms = totals.ms("workerpool.predict")
    pool_counts = pool_counts or {}
    put("workerpool.predict.calls", calls.get("workerpool.predict", 0) * per)
    put("workerpool.predict.frames", frames.get("workerpool.predict", 0) * per)
    put("workerpool.predict.ms", pool_ms * per)
    put("workerpool.us_per_frame",
        _ratio(pool_ms * 1e3, frames.get("workerpool.predict", 0)))
    put("workerpool.fallbacks", pool_counts.get("fallbacks", 0))
    put("workerpool.respawns", pool_counts.get("respawns", 0))

    def serve_sum(key: str) -> float:
        return sum(entry[key] for entry in serve)

    submits = serve_sum("submitted") if serve else 0
    tiers = ("diff_hits", "rule_hits", "memo_hits", "coalesced", "queued")
    put("serve.submits", submits * per)
    put("serve.batches", serve_sum("batches") * per if serve else 0)
    put("serve.batch_mean",
        _ratio(serve_sum("queued"), serve_sum("batches")) if serve else 0)
    put("serve.queue_wait_p50_ms",
        median([e["queue_wait_p50_ms"] for e in serve]) if serve else 0)
    put("serve.queue_wait_p99_ms",
        median([e["queue_wait_p99_ms"] for e in serve]) if serve else 0)
    for tier in tiers:
        put(f"serve.tier.{tier}", serve_sum(tier) * per if serve else 0)
    answered_at_tier = sum(
        serve_sum(tier) for tier in ("diff_hits", "rule_hits", "memo_hits")
    ) if serve else 0
    put("serve.tier_answer_ratio", _ratio(answered_at_tier, submits))
    put("serve.self_ms", totals.ms("serve.round") * per)

    put("cascade.route.calls", calls.get("cascade.route", 0) * per)
    put("cascade.route.ms", totals.ms("cascade.route") * per)
    put("cascade.rule_hit_ratio", _ratio(
        serve_sum("cascade_rule_hits") if serve else 0,
        serve_sum("cascade_routed") if serve else 0,
    ))
    put("cascade.feedback.ms",
        totals.ms("cascade.absorb", "cascade.reconcile") * per)
    put("cascade.rules_compiled",
        serve_sum("cascade_compiled") * per if serve else 0)
    put("cascade.invalidations",
        serve_sum("cascade_invalidations") * per if serve else 0)

    put("diff.recall.calls", calls.get("diff.recall", 0) * per)
    put("diff.recall.ms", totals.ms("diff.recall") * per)
    put("diff.hit_ratio", _ratio(
        serve_sum("diff_recall_hits") if serve else 0,
        serve_sum("diff_recalls") if serve else 0,
    ))
    put("diff.remember.ms", totals.ms("diff.remember") * per)

    for stage in ("decode", "raster", "parse", "layout"):
        put(f"browser.{stage}.ms", totals.ms(f"browser.{stage}") * per)
    put("browser.render.self_ms", totals.ms("browser.render") * per)
    put("browser.images_per_page",
        mean(page["images"] for page in pages) if pages else 0)

    put("trace.wall_ms", totals.root_ms * per)
    return values


def fit_compute_model(
    classifier,
    bitmaps: List,
    traced_batches: Sequence[tuple] = (),
    repeats: int = 5,
) -> Dict[str, float]:
    """Fit ``setup + n * per_frame`` to timed ``decide_many`` calls.

    Times batches of 1, 8, 32 and 64 distinct frames (memo cleared, so
    every frame is a miss; keys precomputed, as the serve front passes
    them) on an in-process blocker, plus any ``(frames, ms)`` batches a
    traced run recorded, and compares the hard-coded
    :class:`~repro.serve.loop.BatchComputeModel` (priced from
    ``measured_latency_ms()``) with the measured times.
    """
    from repro.core.blocker import PercivalBlocker
    from repro.serve.loop import BatchComputeModel
    from repro.utils.hashing import image_fingerprint

    import knobs

    blocker = knobs.blocker(classifier)
    sizes = (1, 8, 32, 64)
    distinct = {}
    for bitmap in bitmaps:
        distinct.setdefault(image_fingerprint(bitmap), bitmap)
        if len(distinct) == max(sizes):
            break
    else:
        raise ValueError("the compute-model fit needs 64 distinct frames")
    keys = list(distinct)
    bitmaps = list(distinct.values())
    measured = []
    for size in sizes:
        samples = []
        for _ in range(repeats):
            blocker.clear_memo()
            start = perf_counter()
            blocker.decide_many(bitmaps[:size], keys=keys[:size])
            samples.append((perf_counter() - start) * 1e3)
        measured.append((size, median(samples)))
    setup_ms, per_frame_ms = linear_fit(measured + list(traced_batches))
    latency = classifier.measured_latency_ms()
    model = BatchComputeModel.from_blocker(
        PercivalBlocker(classifier, calibrated_latency_ms=latency, pool=None)
    )
    return {
        "compute_model.setup_ms": setup_ms,
        "compute_model.per_frame_ms": per_frame_ms,
        "compute_model.amortization": _ratio(
            per_frame_ms, setup_ms + per_frame_ms
        ),
        "compute_model.hardcoded_amortization": model.AMORTIZATION,
        "compute_model.predicted_over_measured": _ratio(
            sum(model(size) for size, _ in measured),
            sum(ms for _, ms in measured),
        ),
    }
