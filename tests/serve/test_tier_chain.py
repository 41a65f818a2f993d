"""One tier chain behind every driver: the same request gets the same
tier and the same P(ad) from ``ServeLoop``, ``AsyncServeFront`` and
``RenderServeBridge``; brownout sheds only queue-bound work; a page
drain feeds the cascade healer once per computed verdict."""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.cascade import CascadeRouter, FrameProvenance
from repro.core import AdClassifier, PercivalBlocker, PercivalConfig, ServeSettings
from repro.diff import FrameDiffer, RegionRecord
from repro.resilience import ResiliencePlane
from repro.resilience.degrade import DegradationController
from repro.serve import (
    ArrivalEvent,
    AsyncServeFront,
    RenderServeBridge,
    ServeLoop,
    ServeOverloadError,
    TrafficSpec,
    synthesize_traffic,
)
from repro.serve.chain import TIER_QUEUED
from repro.serve.queue import PRIORITY_VIEWPORT

#: one request per batch, so a request settles before the next arrives
SERIAL = ServeSettings(max_batch=1, max_wait_ms=1.0, max_depth=64, lanes=1)
SPEC = TrafficSpec(
    sessions=4,
    frames_per_session=6,
    duplicate_fraction=0.4,
    shared_creatives=4,
    provenance=True,
    sites=2,
    revisits=2,
    seed=31,
)
#: the ledger counters that name the tier a request took
TIER_COUNTERS = {
    "diff": "diff_hits",
    "rule": "rule_hits",
    "memo": "memo_hits",
    "coalesced": "coalesced",
    "batched": "batched_requests",
}


def _blocker():
    return PercivalBlocker(
        AdClassifier(PercivalConfig(calibrated_latency_ms=1.0)),
        calibrated_latency_ms=1.0,
    )


def _serial_trace():
    """The revisit trace, re-timed so every request settles (its batch
    computed, its feedback written) before the next one arrives."""
    events = synthesize_traffic(SPEC)
    return [
        replace(event, at_ms=1000.0 * index)
        for index, event in enumerate(events)
    ]


def _loop_tiers(events, **tiers):
    report = ServeLoop(
        _blocker(), SERIAL, chaos=False, resilience=False, **tiers
    ).run(events)
    assert report.stats.conserved() and not report.stats.shed
    outcomes = []
    for result in report.results:
        if result.diff_hit:
            tier = "diff"
        elif result.rule_hit:
            tier = "rule"
        elif result.memo_hit:
            tier = "memo"
        elif result.coalesced:
            tier = "coalesced"
        else:
            assert result.lane >= 0
            tier = "batched"
        outcomes.append((tier, result.decision.probability))
    return outcomes


def _front_tiers(events):
    front = AsyncServeFront(
        _blocker(), SERIAL, chaos=False, resilience=False
    )

    def counters():
        return {
            tier: getattr(front.stats, name)
            for tier, name in TIER_COUNTERS.items()
        }

    async def drive():
        outcomes = []
        for event in events:
            before = counters()
            decision = await front.submit(
                event.bitmap,
                session_id=event.session_id,
                priority=event.priority,
                provenance=event.provenance,
                content_key=event.content_key,
            )
            after = counters()
            (tier,) = [t for t in after if after[t] != before[t]]
            outcomes.append((tier, decision.probability))
        await front.aclose()
        return outcomes

    outcomes = asyncio.run(drive())
    assert front.stats.conserved()
    return outcomes


def _bridge_tiers(events):
    bridge = RenderServeBridge(_blocker(), SERIAL)
    outcomes = []
    for event in events:
        tier, decision = bridge.admit(
            event.bitmap, event.priority, event.provenance
        )
        if decision is None:
            assert tier == TIER_QUEUED
            ((decision, _),) = bridge.drain()
            tier = "batched"
        outcomes.append((tier, decision.probability))
    return outcomes


def test_fronts_agree_request_by_request():
    """Cascade and differ follow the ``PERCIVAL_*`` knobs, so the CI
    serve matrix runs this on every cascade/diff leg."""
    events = _serial_trace()
    loop = _loop_tiers(events)
    front = _front_tiers(events)
    assert front == loop
    tiers = {tier for tier, _ in loop}
    assert {"memo", "batched"} <= tiers


def test_bridge_agrees_on_the_tiers_it_runs():
    """The bridge's frames carry no content key, so its chain never
    answers at the diff tier: compare it with a diff-less loop."""
    events = _serial_trace()
    loop = _loop_tiers(events, differ=False)
    assert _bridge_tiers(events) == loop
    assert {tier for tier, _ in loop} <= {"rule", "memo", "batched"}


class _HeldAtShed(DegradationController):
    """A ladder held at its shed flag with the earlier brownouts (no
    diff, no cascade) held off, so the test pins where the chain
    sheds rather than which tiers the ladder disables."""

    shed_all = True
    level_name = "shed"

    def evaluate(self, now_ms: float) -> bool:
        return False


def _shed_setup():
    rng = np.random.default_rng(7)
    frames = [rng.random((24, 24, 4)).astype(np.float32) for _ in range(4)]
    blocker = _blocker()
    blocker.decide(frames[2])  # memo-answerable
    diff_prov = FrameProvenance(
        url="https://cdn.site.example/img/1.jpg",
        page_domain="site.example",
        width=24,
        height=24,
    )
    differ = FrameDiffer()
    differ.remember(
        "s0", diff_prov.page_domain,
        RegionRecord(
            url=diff_prov.url, content_key="ck", width=24, height=24,
            is_ad=False, probability=0.12,
        ),
    )
    rule_prov = FrameProvenance(
        url="https://ads.net.example/serve/c1.png",
        page_domain="site.example",
        width=320,
        height=100,
    )
    router = CascadeRouter(None, audit_interval=0)
    router.cache.compile_rule(rule_prov.micro_key(), True, 0.99)
    requests = [
        (frames[0], diff_prov, "ck"),  # diff tier
        (frames[1], rule_prov, ""),  # rule tier
        (frames[2], None, ""),  # memo tier
        (frames[3], None, ""),  # queue-bound: sheds
    ]
    tiers = dict(
        cascade=router,
        differ=differ,
        chaos=False,
        resilience=ResiliencePlane(ladder=_HeldAtShed()),
    )
    return blocker, tiers, requests


def _assert_only_queue_bound_work_shed(stats):
    assert (stats.diff_hits, stats.rule_hits, stats.memo_hits) == (1, 1, 1)
    assert stats.answered == 3 and stats.shed == 1
    assert stats.batches == 0
    assert stats.resilience.degraded_sheds == 1
    assert stats.conserved()


def test_shed_all_answers_tier_hits_on_the_loop():
    blocker, tiers, requests = _shed_setup()
    events = [
        ArrivalEvent(
            at_ms=float(index), session_id="s0", bitmap=bitmap,
            provenance=provenance, content_key=content_key,
        )
        for index, (bitmap, provenance, content_key) in enumerate(requests)
    ]
    report = ServeLoop(blocker, SERIAL, **tiers).run(events)
    diff, rule, memo, fresh = report.results
    assert diff.diff_hit and rule.rule_hit and memo.memo_hit
    assert fresh.shed and fresh.decision is None
    _assert_only_queue_bound_work_shed(report.stats)


def test_shed_all_answers_tier_hits_on_the_async_front():
    blocker, tiers, requests = _shed_setup()
    front = AsyncServeFront(blocker, SERIAL, **tiers)

    async def drive():
        outcomes = []
        for bitmap, provenance, content_key in requests:
            try:
                outcomes.append(await front.submit(
                    bitmap, session_id="s0", priority=PRIORITY_VIEWPORT,
                    provenance=provenance, content_key=content_key,
                ))
            except ServeOverloadError as exc:
                outcomes.append(exc)
        await front.aclose()
        return outcomes

    diff, rule, memo, fresh = asyncio.run(drive())
    assert diff.probability == pytest.approx(0.12)
    assert rule.probability == pytest.approx(0.99)
    assert memo.from_cache
    assert isinstance(fresh, ServeOverloadError)
    assert "shed" in str(fresh)
    _assert_only_queue_bound_work_shed(front.stats)


def test_bridge_feeds_the_healer_once_per_computed_verdict():
    """Two identical frames in one drain chunk cost one forward pass,
    so the router hears exactly one absorb/reconcile for them."""
    blocker = _blocker()
    router = CascadeRouter(None)
    calls = []
    for verb in ("absorb", "reconcile"):
        real = getattr(router, verb)

        def counted(*args, real=real, verb=verb):
            calls.append(verb)
            return real(*args)

        setattr(router, verb, counted)
    bridge = RenderServeBridge(
        blocker, ServeSettings(max_batch=8), cascade=router, differ=False
    )
    frame = np.random.default_rng(3).random((24, 24, 4)).astype(np.float32)
    provenance = FrameProvenance(
        url="https://cdn.site.example/img/2.jpg",
        page_domain="site.example",
        width=24,
        height=24,
    )
    for _ in range(2):
        assert bridge.admit(frame, PRIORITY_VIEWPORT, provenance) == (
            TIER_QUEUED, None,
        )
    (first, first_ms), (second, second_ms) = bridge.drain()
    assert first is second
    assert blocker.classifications == 1
    assert first_ms == second_ms == bridge.compute_model(2) / 2
    assert calls == ["absorb"]
