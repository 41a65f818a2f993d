"""The diff tier in the serving layer: snapshot recall in front of
everything, revisit traffic, and bit-identical off-path guarantees."""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.cascade import CascadeRouter, FrameProvenance
from repro.core import (
    AdClassifier,
    PercivalBlocker,
    PercivalConfig,
    ServeSettings,
)
from repro.diff import FrameDiffer, RegionRecord, RegionView
from repro.serve import (
    ArrivalEvent,
    AsyncServeFront,
    ServeLoop,
    TrafficSpec,
    synthesize_traffic,
)

SETTINGS = ServeSettings(max_batch=16, max_wait_ms=4.0, max_depth=512, lanes=1)
SPEC = TrafficSpec(
    sessions=6,
    frames_per_session=8,
    duplicate_fraction=0.3,
    provenance=True,
    sites=3,
    revisits=2,
    revisit_churn=0.2,
    seed=11,
)


def _blocker():
    return PercivalBlocker(
        AdClassifier(PercivalConfig(calibrated_latency_ms=1.0)),
        calibrated_latency_ms=1.0,
    )


@pytest.fixture()
def revisit_traffic():
    return synthesize_traffic(SPEC)


def test_revisits_do_not_perturb_the_base_trace():
    """The revisit generator draws from its own derived RNG stream:
    the base trace is bit-identical with revisits on or off."""
    flat = synthesize_traffic(replace(SPEC, revisits=0))
    with_revisits = synthesize_traffic(SPEC)
    assert len(with_revisits) == len(flat) * (1 + SPEC.revisits)
    horizon = max(event.at_ms for event in flat)
    prefix = [e for e in with_revisits if e.at_ms <= horizon]
    assert len(prefix) == len(flat)
    for bare, rich in zip(flat, prefix):
        assert bare.at_ms == rich.at_ms
        assert bare.session_id == rich.session_id
        assert bare.content_key == rich.content_key
        assert bare.provenance == rich.provenance
        np.testing.assert_array_equal(bare.bitmap, rich.bitmap)


def test_revisit_epochs_repeat_page_identity():
    """Un-churned revisit slots re-emit the same URL and content key —
    the identity the diff tier answers on."""
    events = synthesize_traffic(replace(SPEC, revisit_churn=0.0))
    by_session_url = {}
    for event in events:
        key = (event.session_id, event.provenance.url)
        by_session_url.setdefault(key, []).append(event.content_key)
    repeated = [keys for keys in by_session_url.values() if len(keys) > 1]
    assert repeated, "revisit epochs must repeat page regions"
    for keys in repeated:
        assert len(set(keys)) == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        TrafficSpec(revisits=-1)
    with pytest.raises(ValueError):
        TrafficSpec(revisit_churn=1.5)


def test_diff_false_is_the_pre_diff_path(revisit_traffic, monkeypatch):
    """``differ=False`` pins the layer off even when the environment
    says on — results match a run where the knob does not exist."""
    monkeypatch.delenv("PERCIVAL_DIFF", raising=False)
    baseline = ServeLoop(_blocker(), SETTINGS, differ=False).run(
        revisit_traffic
    )
    monkeypatch.setenv("PERCIVAL_DIFF", "on")
    pinned = ServeLoop(_blocker(), SETTINGS, differ=False).run(
        revisit_traffic
    )
    assert pinned.stats.diff_hits == 0
    assert pinned.stats.diff is None
    assert pinned.makespan_ms == baseline.makespan_ms
    for a, b in zip(baseline.results, pinned.results):
        assert (a.request_id, a.complete_ms, a.decision.probability) == (
            b.request_id, b.complete_ms, b.decision.probability
        )


def test_diff_on_changes_no_verdicts(revisit_traffic):
    """The acceptance law: every P(ad) and every final verdict is
    bit-identical to the diff-off run — the tier only changes *where*
    answers come from, never what they are.  (``cascade=False`` pins
    the rule tiers off: a rule hit carries its *compiled* probability,
    so an environment-injected router would make probabilities depend
    on rule compile timing — a cascade property, not a diff one.  Chaos
    is pinned off too: injected tier faults move work between tiers,
    so the batched-work equality below is not a property of the diff
    tier under them.)"""
    off = ServeLoop(
        _blocker(), SETTINGS, cascade=False, differ=False, chaos=False
    ).run(revisit_traffic)
    differ = FrameDiffer()
    on = ServeLoop(
        _blocker(), SETTINGS, cascade=False, differ=differ, chaos=False
    ).run(revisit_traffic)
    assert off.stats.shed == on.stats.shed == 0
    off_verdicts = {
        r.request_id: (r.decision.is_ad, r.decision.probability)
        for r in off.results
    }
    on_verdicts = {
        r.request_id: (r.decision.is_ad, r.decision.probability)
        for r in on.results
    }
    assert off_verdicts == on_verdicts
    assert on.stats.diff_hits > 0
    assert on.stats.diff is differ.stats
    # snapshot recall replaces memo traffic, never model compute: the
    # frames that reach the batch pipeline are the same
    assert on.stats.batched_requests == off.stats.batched_requests


def test_diff_hits_skip_hash_memo_and_queue(revisit_traffic):
    differ = FrameDiffer()
    report = ServeLoop(_blocker(), SETTINGS, differ=differ).run(
        revisit_traffic
    )
    stats = report.stats
    assert stats.conserved()
    diff_results = [r for r in report.results if r.diff_hit]
    assert len(diff_results) == stats.diff_hits > 0
    for result in diff_results:
        # answered at arrival, before fingerprinting: no key, no lane
        assert result.key == ""
        assert result.complete_ms == result.arrival_ms
        assert result.lane == -1
        assert not result.memo_hit
        assert result.decision.from_cache
    assert (
        stats.batched_requests + stats.memo_hits + stats.coalesced
        + stats.rule_hits + stats.diff_hits == stats.answered
    )


def test_diff_tier_wins_over_rules_and_memo():
    """Tier order is diff -> rule -> memo: a frame the snapshot can
    answer never reaches the cascade router or the fingerprint."""
    rng = np.random.default_rng(5)
    bitmap = rng.random((32, 32, 4)).astype(np.float32)
    provenance = FrameProvenance(
        url="https://ads.net.example/serve/c1.png",
        page_domain="site0.example",
        width=320,
        height=100,
    )
    differ = FrameDiffer()
    differ.remember(
        "s0", provenance.page_domain,
        RegionRecord(
            url=provenance.url, content_key="ck", width=320, height=100,
            is_ad=True, probability=0.93,
        ),
    )
    router = CascadeRouter.with_default_filterlist()
    router.cache.compile_rule(provenance.micro_key(), True, 0.99)
    blocker = _blocker()
    event = ArrivalEvent(
        at_ms=0.0, session_id="s0", bitmap=bitmap,
        provenance=provenance, content_key="ck",
    )
    report = ServeLoop(
        blocker, SETTINGS, cascade=router, differ=differ
    ).run([event])
    (result,) = report.results
    assert result.diff_hit and not result.rule_hit and not result.memo_hit
    assert result.decision.probability == 0.93
    assert router.stats.routed == 0
    assert differ.stats.recall_hits == 1


def test_async_front_diff_tier():
    """The asyncio front door answers revisited frames from the
    snapshot with the same decision the first pass computed."""
    blocker = _blocker()
    differ = FrameDiffer()
    rng = np.random.default_rng(9)
    bitmap = rng.random((32, 32, 4)).astype(np.float32)
    provenance = FrameProvenance(
        url="https://cdn.site.example/img/1.jpg",
        page_domain="site.example",
    )

    async def drive():
        front = AsyncServeFront(
            blocker, ServeSettings(max_batch=4, max_wait_ms=1.0),
            differ=differ,
        )
        first = await front.submit(
            bitmap, session_id="s0", provenance=provenance,
            content_key="ck",
        )
        second = await front.submit(
            bitmap, session_id="s0", provenance=provenance,
            content_key="ck",
        )
        await front.aclose()
        return front.stats, first, second

    stats, first, second = asyncio.run(drive())
    assert stats.diff_hits == 1
    assert not first.from_cache and second.from_cache
    assert first.is_ad == second.is_ad
    assert first.probability == second.probability
    assert stats.conserved()


def test_changed_content_is_never_answered_from_the_snapshot():
    """A region whose bytes changed re-classifies: stale verdicts can
    not leak through the content-key check."""
    differ = FrameDiffer()
    differ.remember(
        "s0", "page",
        RegionRecord(
            url="u", content_key="old", is_ad=True, probability=0.9
        ),
    )
    assert differ.recall("s0", "page", "u", "new") is None
    view = RegionView(url="u", content_key="new")
    plan = differ.plan("s0", "page", [view])
    assert plan.inherit == []
    assert [v.url for v in plan.reclassify] == ["u"]
