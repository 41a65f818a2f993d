"""The ``page_render`` workload: sync-mode page loads in the renderer.

Pages from ``build_render_corpus`` render one after another with a
``PercivalBlocker`` that persists across the pages of a pass and holds a
pinned one-worker ``InferenceWorkerPool``, so pages with 32 or more new
frames shard.  Each page also renders once without PERCIVAL, right
before its PERCIVAL render, so the pair gives the page's overhead.  An
untimed baseline pass over the pages fills the network's encode cache
before anything is timed.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import List

import numpy as np

import hostspeed
import knobs
from layers import fit_compute_model, layer_metrics
from measure import median, percentile, tracing_overhead
from serving import instrument_blocker
from tracing import Tracer

import repro.browser.renderer as renderer_module
import repro.browser.skia as skia_module
from repro.browser.codecs import decode_image
from repro.browser.network import MockNetwork, NetworkConfig
from repro.browser.renderer import CHROMIUM, Renderer
from repro.core.blocker import PercivalBlocker
from repro.core.workerpool import InferenceWorkerPool
from repro.eval.experiments.render_performance import build_render_corpus
from repro.synth.webgen import url_registry

#: a shard-sized batch of fixed frames for the first verdict of set-up,
#: so it runs through the pool the way a real page does
PROBE_BATCH = [
    np.full((48, 48, 4), (index + 1) / 40.0, dtype=np.float32)
    for index in range(knobs.SHARD_MIN_BATCH)
]


#: probe runs between two pages (each about 2 ms): a page's times are
#: taken to the reference host speed by the probes on either side of it
PAGE_PROBES = 2


class DecisionClock:
    """Notes when ``decide_many`` returns and how many frames it
    decided: one timestamp per page, the page's time to verdict."""

    def __init__(self, blocker: PercivalBlocker) -> None:
        self.frames = 0
        self.decided_at = 0.0
        decide_many = blocker.decide_many

        def timed(bitmaps, keys=None):
            decisions = decide_many(bitmaps, keys)
            self.decided_at = perf_counter()
            self.frames = len(bitmaps)
            return decisions

        blocker.decide_many = timed


class PageRenderWorkload:
    def setup(self, root: str) -> dict:
        """Load, compile, spawn and publish the pool; decide one batch."""
        classifier = knobs.load_classifier(root)
        pool = InferenceWorkerPool(
            knobs.POOL_WORKERS, respawn_budget=knobs.RESPAWN_BUDGET
        )
        pool.publish(classifier)
        knobs.pin_pool(pool)
        blocker = knobs.blocker(classifier, pool)
        blocker.decide_many(PROBE_BATCH)
        return {"classifier": classifier, "pool": pool, "blocker": blocker}

    def teardown(self, state: dict) -> None:
        state["pool"].close()


def corpus(seed: int):
    """The run's pages, and a renderer whose encode cache they warmed.

    The pages are ``PAGES`` of ``PAGE_CANDIDATES`` candidates from
    ``build_render_corpus``, taken evenly across the candidates' image
    counts and then shuffled: every seed gets a different corpus with
    about the same spread of page sizes, so the median page of one seed
    is about as heavy as that of another.
    """
    candidates = build_render_corpus(knobs.PAGE_CANDIDATES, seed=seed)
    ranked = sorted(
        candidates, key=lambda page: (len(page.image_elements()), page.url)
    )
    step = len(ranked) / knobs.PAGES
    pages = [ranked[int((index + 0.5) * step)] for index in range(knobs.PAGES)]
    random.Random(seed).shuffle(pages)
    network = MockNetwork(url_registry(pages), NetworkConfig(seed=seed))
    renderer = Renderer(CHROMIUM, network)
    for page in pages:
        renderer.render(page)
    return pages, renderer


def instrument_browser(tracer: Tracer, blocker: PercivalBlocker) -> None:
    instrument_blocker(tracer, blocker, tag_batches=False)
    tracer.patch(skia_module, "decode_image", "browser.decode")
    for attr, name in (
        ("rasterize", "browser.raster"),
        ("parse_html", "browser.parse"),
        ("build_layout_tree", "browser.layout"),
    ):
        tracer.patch(renderer_module, attr, name)


def same_render(metrics, reference) -> bool:
    return (
        metrics.images_blocked_by_percival
        == reference.images_blocked_by_percival
        and metrics.render_time_ms == reference.render_time_ms
    )


def pool_waits(pool: InferenceWorkerPool) -> List[tuple]:
    """Wrap ``pool.predict_proba`` on the instance to note the
    ``(start, end)`` of every call in the list it returns: the
    workload waits there while the worker computes on its own core."""
    waits: List[tuple] = []
    predict_proba = pool.predict_proba

    def timed(batch):
        start = perf_counter()
        try:
            return predict_proba(batch)
        finally:
            waits.append((start, perf_counter()))

    pool.predict_proba = timed
    return waits


def page_times(timed: List[tuple], waits: hostspeed.Waits,
               factors: List[float], pool_factors: List[float]) -> List[tuple]:
    """Per page of one pass, from its ``(start, middle, end, decided_at,
    frames)`` stamps: ``(render ms, overhead ms, verdict ms, frames)``,
    the workload's own work multiplied by the page's host-speed factor
    on its core, and its waits for the pool by that on the pool's."""
    times = []
    for (start, middle, end, decided_at, count), factor, pool_factor in zip(
        timed, factors, pool_factors
    ):
        render = waits.scale(middle, end, factor, pool_factor)
        times.append((
            render * 1e3,
            (render - (middle - start) * factor) * 1e3,
            waits.scale(middle, decided_at, factor, pool_factor) * 1e3,
            count,
        ))
    return times


def run_metrics(passes: List[List[tuple]]) -> dict:
    """End-to-end values of a run from every pass's :func:`page_times`.

    Each page's times are first reduced to their median over the
    passes, which did identical work, so a stall of the host during one
    render does not reach the tail percentiles; the percentiles are
    then taken over pages (over frames for the verdict times).
    """
    page_ms, overhead, verdict_ms = [], [], []
    frames = 0
    for renders in zip(*passes):
        page_ms.append(median([render[0] for render in renders]))
        overhead.append(median([render[1] for render in renders]))
        count = renders[0][3]
        verdict_ms.extend([median([render[2] for render in renders])] * count)
        frames += count
    return {
        "verdicts_per_s": frames / (sum(page_ms) / 1e3),
        "verdict_p50_ms": percentile(verdict_ms, 50),
        "verdict_p99_ms": percentile(verdict_ms, 99),
        "page_p50_ms": percentile(page_ms, 50),
        "page_p95_ms": percentile(page_ms, 95),
        "overhead_ms_p50": percentile(overhead, 50),
    }


def run(workload, state: dict, seed: int, seconds: float,
        trace_mode: bool) -> dict:
    """Passes over the run's pages until ``seconds`` of rendering.

    Each pass renders every page with a fresh blocker that persists
    across the pages of the pass, so every pass does the same work; a
    page's times are taken to the reference host speed by the probes
    around it, and the run reports :func:`run_metrics` over the passes.
    """
    classifier, pool = state["classifier"], state["pool"]
    respawns_before = pool.respawns
    pages, renderer = corpus(seed)
    # correctness: every render must match a pool-less reference
    # blocker that saw the same pages in the same order
    reference = knobs.blocker(classifier)
    expected = [
        renderer.render(page, percival=reference, mode="sync")
        for page in pages
    ]
    tracer = Tracer() if trace_mode else None
    blockers: List[PercivalBlocker] = []
    attempted = failed = 0
    timed_passes: List[List[tuple]] = []
    pool_scales: List[float] = []
    raw_passes: List[List[tuple]] = []
    scales: List[float] = []
    traced_pages: List[dict] = []
    pairs: List[tuple] = []
    elapsed = 0.0
    passes = 0

    def check(number: int, metrics) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += not same_render(metrics, expected[number])

    waited = [] if trace_mode else pool_waits(pool)

    while elapsed < seconds or passes == 0:
        if trace_mode:
            # the traced blocker sees the same pages in the same order
            # as the untraced one, so the two do identical work
            untraced, traced_blocker = (
                knobs.blocker(classifier, pool), knobs.blocker(classifier, pool)
            )
            blockers += [untraced, traced_blocker]
            for number, page in enumerate(pages):
                walls = {}
                for traced in ((False, True), (True, False))[number % 2]:
                    if traced:
                        instrument_browser(tracer, traced_blocker)
                        owner = f"page-{passes}-{number}"
                        with tracer.root("browser.render", owner) as span:
                            metrics = renderer.render(
                                page, percival=traced_blocker, mode="sync"
                            )
                        tracer.uninstall()
                        walls[True] = tracer.duration_s(span)
                        traced_pages.append({"images": metrics.images_total})
                    else:
                        start = perf_counter()
                        metrics = renderer.render(
                            page, percival=untraced, mode="sync"
                        )
                        walls[False] = perf_counter() - start
                    check(number, metrics)
                    elapsed += walls[traced]
                pairs.append((walls[False], walls[True]))
            passes += 1
            continue
        blocker = knobs.blocker(classifier, pool)
        blockers.append(blocker)
        clock = DecisionClock(blocker)
        probes = [hostspeed.probe_ms(PAGE_PROBES)]
        pool_probes = [hostspeed.probe_ms(PAGE_PROBES, knobs.pool_core)]
        waited.clear()
        timed = []
        for number, page in enumerate(pages):
            start = perf_counter()
            renderer.render(page)
            middle = perf_counter()
            clock.frames = 0
            metrics = renderer.render(page, percival=blocker, mode="sync")
            end = perf_counter()
            probes.append(hostspeed.probe_ms(PAGE_PROBES))
            pool_probes.append(
                hostspeed.probe_ms(PAGE_PROBES, knobs.pool_core)
            )
            check(number, metrics)
            timed.append((start, middle, end, clock.decided_at, clock.frames))
            elapsed += end - start
        factors = hostspeed.scales(probes)
        pool_factors = hostspeed.scales(pool_probes)
        waits = hostspeed.Waits(waited)
        ones = [1.0] * len(timed)
        timed_passes.append(page_times(timed, waits, factors, pool_factors))
        raw_passes.append(page_times(timed, waits, ones, ones))
        scales.extend(factors)
        pool_scales.extend(pool_factors)
        passes += 1

    fallbacks = sum(blocker.pool_fallbacks for blocker in blockers)
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and fallbacks == 0,
        "record": {
            "passes": passes,
            "pool_fallbacks": fallbacks,
            "pages": [
                [m.images_total, m.images_blocked_by_percival,
                 m.render_time_ms]
                for m in expected
            ],
        },
    }
    if not trace_mode:
        result["metrics"] = run_metrics(timed_passes)
        result["record"]["raw_metrics"] = run_metrics(raw_passes)
        result["record"]["pass_ms"] = [
            sum(render[0] for render in renders) for renders in timed_passes
        ]
        result["record"]["host_scales"] = scales
        result["record"]["pool_host_scales"] = pool_scales
        return result

    metrics = layer_metrics(
        tracer, passes, pages=traced_pages,
        pool_counts={
            "fallbacks": fallbacks,
            "respawns": pool.respawns - respawns_before,
        },
    )
    bitmaps = [
        decode_image(renderer.network.fetch(url)) for url in url_registry(pages)
    ]
    metrics.update(fit_compute_model(classifier, bitmaps))
    overhead = tracing_overhead(pairs)
    metrics["trace.overhead_frac"] = overhead["overhead_frac"]
    result["record"]["trace_overhead"] = overhead
    result["metrics"] = metrics
    result["tracer"] = tracer
    # the first pass's traced pages: the part every run records
    result["digest_roots"] = len(pages)
    return result


PAGE_RENDER = PageRenderWorkload()
