"""Simulated multi-user traffic and the renderer's serving bridge.

PERCIVAL's deployment is many concurrent page renders feeding one
in-browser model.  :func:`synthesize_traffic` builds that workload as a
deterministic trace: N page sessions, each decoding a stream of frames,
where a configurable fraction of frames are *shared creatives* — the
same ad unit syndicated across sites — so cross-session memoization and
fingerprint coalescing have something real to bite on.

:class:`RenderServeBridge` is the renderer's async-mode driver of the
tier chain: ``admit`` per decoded frame during raster (paint never
waits), ``drain`` after it, in ``max_batch``-sized chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cascade.provenance import FrameProvenance
from repro.cascade.router import CascadeRouter
from repro.core.blocker import BlockDecision, PercivalBlocker
from repro.core.config import ServeSettings, configured_serve_settings
from repro.diff.differ import FrameDiffer
from repro.serve.chain import TIER_QUEUED, TIER_RULE, TierChain, TierViews
from repro.serve.loop import ArrivalEvent, BatchComputeModel
from repro.serve.metrics import ServeStats
from repro.serve.queue import (
    PRIORITY_BELOW_FOLD,
    PRIORITY_VIEWPORT,
    ServeRequest,
)
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of a synthesized multi-session request stream."""

    sessions: int = 8
    frames_per_session: int = 12
    #: fraction of frames drawn from the shared creative pool (the same
    #: ad syndicated across pages) rather than freshly generated
    duplicate_fraction: float = 0.3
    #: size of that shared pool
    shared_creatives: int = 6
    #: fraction of *fresh* frames that are ads (shared pool is half ads)
    ad_fraction: float = 0.5
    #: mean virtual inter-arrival gap between one session's frames
    mean_gap_ms: float = 2.0
    #: virtual stagger between session starts
    session_stagger_ms: float = 1.0
    #: the first N frames of each session land inside the viewport
    #: (:data:`~repro.serve.queue.PRIORITY_VIEWPORT`); the rest are
    #: below the fold — pages paint top-down, so the user-visible slots
    #: are the ones decoded first
    viewport_frames: int = 4
    #: attach :class:`~repro.cascade.FrameProvenance` to every event
    #: (URL + DOM path + slot shape), synthesized from a *separate*
    #: derived RNG stream — the bitmap/arrival trace is bit-identical
    #: with provenance on or off
    provenance: bool = False
    #: distinct page sites sessions cycle through (micro-rules are
    #: per-site, so fewer sites = more cross-session rule sharing)
    sites: int = 4
    #: revisit epochs appended after the base trace: each session
    #: re-emits its page's frames (same URL, same content key, same
    #: bitmap) that many more times — the scroll/feed-update workload
    #: the diff tier answers in O(delta).  0 = the classic flat trace,
    #: bit-identical to the pre-revisit generator.
    revisits: int = 0
    #: fraction of a session's slots that swap in a *fresh* creative on
    #: each revisit (the feed-update delta the differ cannot inherit)
    revisit_churn: float = 0.1
    #: virtual idle gap between the end of one epoch and the next
    revisit_gap_ms: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.revisits < 0:
            raise ValueError("revisits must be >= 0")
        if not 0.0 <= self.revisit_churn <= 1.0:
            raise ValueError("revisit_churn must be in [0, 1]")


def synthesize_traffic(spec: Optional[TrafficSpec] = None) -> List[ArrivalEvent]:
    """A deterministic multi-session arrival trace for the serve loop.

    Frames are real synthesized creatives/content (the same generators
    the calibration gate and training corpus use), and arrival times
    are virtual milliseconds — the trace replays identically for a
    given spec, so simulation assertions can be exact.
    """
    # leaf import: the synth generators stay out of serve's import graph
    # for deployments that only use the asyncio front door
    from repro.synth.adgen import AdSpec, generate_ad
    from repro.synth.contentgen import generate_content

    spec = spec or TrafficSpec()
    rng = spawn_rng(spec.seed, "serve-traffic")
    # provenance draws come from their own derived stream so attaching
    # (or dropping) provenance never perturbs the bitmap/arrival trace
    prov = _ProvenanceSynth(spec) if spec.provenance else None
    shared: List[np.ndarray] = []
    for index in range(spec.shared_creatives):
        if index % 2 == 0:
            shared.append(generate_ad(rng, AdSpec()))
        else:
            shared.append(generate_content(rng))

    events: List[ArrivalEvent] = []
    # per-session slot state, kept so revisit epochs can re-emit the
    # page's frames (same bitmap, same provenance, same content key)
    pages: List[List[tuple]] = []
    fresh_serial = 0
    for session_index in range(spec.sessions):
        session_id = f"session-{session_index:03d}"
        site = f"site{session_index % max(spec.sites, 1)}.example"
        at_ms = session_index * spec.session_stagger_ms
        slots: List[tuple] = []
        for frame_index in range(spec.frames_per_session):
            at_ms += rng.uniform(0.0, 2.0 * spec.mean_gap_ms)
            shared_index = -1
            if shared and rng.uniform() < spec.duplicate_fraction:
                shared_index = int(rng.integers(len(shared)))
                bitmap = shared[shared_index]
                is_ad_frame = shared_index % 2 == 0
                content_key = f"s{shared_index:03d}"
            elif rng.uniform() < spec.ad_fraction:
                bitmap = generate_ad(rng, AdSpec())
                is_ad_frame = True
                fresh_serial += 1
                content_key = f"c{fresh_serial:06d}"
            else:
                bitmap = generate_content(rng)
                is_ad_frame = False
                fresh_serial += 1
                content_key = f"c{fresh_serial:06d}"
            priority = (
                PRIORITY_VIEWPORT
                if frame_index < spec.viewport_frames
                else PRIORITY_BELOW_FOLD
            )
            provenance = None
            if prov is not None:
                provenance = prov.for_frame(
                    site, bitmap, is_ad_frame, shared_index
                )
            slots.append((bitmap, priority, provenance, content_key))
            events.append(
                ArrivalEvent(
                    at_ms=at_ms,
                    session_id=session_id,
                    bitmap=bitmap,
                    priority=priority,
                    provenance=provenance,
                    content_key=content_key,
                )
            )
        pages.append(slots)

    if spec.revisits:
        # revisit draws come from their own derived stream: the base
        # trace above is bit-identical with revisits on or off
        revisit_rng = spawn_rng(spec.seed, "serve-traffic-revisit")
        horizon = max((event.at_ms for event in events), default=0.0)
        for _ in range(spec.revisits):
            epoch_start = horizon + spec.revisit_gap_ms
            for session_index, slots in enumerate(pages):
                session_id = f"session-{session_index:03d}"
                site = f"site{session_index % max(spec.sites, 1)}.example"
                at_ms = epoch_start + session_index * spec.session_stagger_ms
                for slot_index, slot in enumerate(slots):
                    at_ms += revisit_rng.uniform(0.0, 2.0 * spec.mean_gap_ms)
                    if revisit_rng.uniform() < spec.revisit_churn:
                        # feed update: this slot swaps in a fresh
                        # creative the snapshot cannot answer
                        is_ad_frame = (
                            revisit_rng.uniform() < spec.ad_fraction
                        )
                        if is_ad_frame:
                            bitmap = generate_ad(revisit_rng, AdSpec())
                        else:
                            bitmap = generate_content(revisit_rng)
                        fresh_serial += 1
                        content_key = f"c{fresh_serial:06d}"
                        provenance = slot[2]
                        if prov is not None:
                            provenance = prov.for_frame(
                                site, bitmap, is_ad_frame, -1
                            )
                        slot = (bitmap, slot[1], provenance, content_key)
                        slots[slot_index] = slot
                    bitmap, priority, provenance, content_key = slot
                    events.append(
                        ArrivalEvent(
                            at_ms=at_ms,
                            session_id=session_id,
                            bitmap=bitmap,
                            priority=priority,
                            provenance=provenance,
                            content_key=content_key,
                        )
                    )
                    horizon = max(horizon, at_ms)

    events.sort(key=lambda event: event.at_ms)
    return events


class _ProvenanceSynth:
    """Synthesizes per-frame provenance off a dedicated RNG stream.

    Ad frames resolve to an ad-network URL (rotating creative serial
    under a stable host + path prefix — the shape real networks serve
    at) and a conventional ad container class; content frames resolve
    to the site's own CDN.  Shared creatives keep one stable URL/class
    per pool slot, so every syndicated appearance looks like the same
    resource — only the embedding page changes.
    """

    def __init__(self, spec: TrafficSpec) -> None:
        from repro.synth.webgen import (
            AD_NETWORKS,
            CONTENT_CLASSES,
            KNOWN_AD_CLASSES,
        )

        self._rng = spawn_rng(spec.seed, "serve-traffic-prov")
        self._networks = AD_NETWORKS
        self._ad_classes = KNOWN_AD_CLASSES
        self._content_classes = CONTENT_CLASSES
        self._serial = 0
        #: pool slot -> (url, css class) for shared creatives
        self._shared: dict = {}

    def _ad_resource(self, serial: int) -> Tuple[str, str]:
        network = self._networks[
            int(self._rng.integers(len(self._networks)))
        ]
        url = (
            f"https://{network.domain}{network.path_prefix}"
            f"/c{serial:05d}.png"
        )
        css = self._ad_classes[
            int(self._rng.integers(len(self._ad_classes)))
        ]
        return url, css

    def _content_resource(self, site: str, serial: int) -> Tuple[str, str]:
        url = f"https://cdn.{site}/img/{serial:05d}.jpg"
        css = self._content_classes[
            int(self._rng.integers(len(self._content_classes)))
        ]
        return url, css

    def for_frame(
        self,
        site: str,
        bitmap: np.ndarray,
        is_ad_frame: bool,
        shared_index: int,
    ) -> FrameProvenance:
        if shared_index >= 0:
            cached = self._shared.get(shared_index)
            if cached is None:
                self._serial += 1
                cached = (
                    self._ad_resource(self._serial)
                    if is_ad_frame
                    else self._content_resource("syndicated.example",
                                                self._serial)
                )
                self._shared[shared_index] = cached
            url, css = cached
        else:
            self._serial += 1
            url, css = (
                self._ad_resource(self._serial)
                if is_ad_frame
                else self._content_resource(site, self._serial)
            )
        height, width = int(bitmap.shape[0]), int(bitmap.shape[1])
        return FrameProvenance(
            url=url,
            page_domain=site,
            tag="img",
            css_classes=(css,),
            width=width,
            height=height,
        )


class _Backlog(list):
    """The bridge's queue: every frame waits for the next drain."""

    def offer(self, request: ServeRequest, now_ms: float) -> bool:
        self.append(request)
        return True


class RenderServeBridge(TierViews):
    """Routes a renderer's async-mode classification through batches.

    The renderer calls :meth:`admit` per decoded frame and the frame
    paints immediately either way: the tier chain answers it from a
    cascade rule or the shared memo, or parks it for the next drain.
    :meth:`drain` then classifies everything parked in ``max_batch``
    chunks through ``decide_many`` — one batched forward (sharded
    across the worker pool when the blocker holds one) instead of
    per-frame passes — and reports each frame's verdict with its
    amortized virtual cost for the renderer's async lanes.  The bridge
    outlives a single page: later sessions reuse every verdict via the
    blocker's memo.

    Chaos and resilience are pinned off: a page drain has no clock for
    breakers or a ladder to run on.  The chain's diff tier never
    answers here (frames carry no content key); the renderer diffs
    whole pages against the bridge's ``differ`` before decoding.
    """

    def __init__(
        self,
        blocker: PercivalBlocker,
        settings: Optional[ServeSettings] = None,
        cascade: "CascadeRouter | None | bool" = None,
        differ: "FrameDiffer | None | bool" = None,
    ) -> None:
        self.blocker = blocker
        self.settings = configured_serve_settings(settings)
        self.compute_model = BatchComputeModel.from_blocker(blocker)
        self._chain = TierChain(
            blocker, cascade, differ, chaos=False, resilience=False,
            coalesce=False,
        )
        self._backlog = _Backlog()
        self._chain.start(self._backlog, ServeStats())
        self.frames_enqueued = 0
        self.batches_flushed = 0

    def admit(
        self,
        bitmap: np.ndarray,
        priority: int = PRIORITY_VIEWPORT,
        provenance: Optional[FrameProvenance] = None,
    ) -> Tuple[str, Optional[BlockDecision]]:
        """Offer one decoded frame to the tier chain.

        Returns the answering tier and its decision, or
        ``(TIER_QUEUED, None)`` when the frame waits for :meth:`drain`.
        ``priority`` is the frame's place on the page: viewport frames
        drain first.
        """
        chain = self._chain
        request_id = chain.stats.submitted + 1
        tier, answer, _ = chain.admit(
            request_id, "render", bitmap, priority, provenance, "", 0.0
        )
        if tier == TIER_QUEUED:
            chain.open[request_id] = request_id
            self.frames_enqueued += 1
            return tier, None
        if tier == TIER_RULE:
            return tier, answer.decision
        return tier, answer

    @property
    def depth(self) -> int:
        return len(self._backlog)

    def drain(self) -> List[Tuple[BlockDecision, float]]:
        """Classify everything pending, in ``max_batch`` chunks.

        Returns one ``(decision, amortized_cost_ms)`` pair per admitted
        frame, most-urgent-first: viewport frames fill the earliest
        chunks (FIFO within a priority class), so their verdicts
        memoize — and their ads stop flashing — before any below-the-
        fold work runs.  The chunking itself is priority-blind: the
        drain always flushes ``ceil(pending / max_batch)`` batches.
        Identical frames within a chunk share one classification and
        settle as one group, so the cascade healer hears one
        observation per computed verdict.  The amortized cost splits
        the chunk's batched compute evenly across its frames — the
        virtual-clock reflection of what batching buys over per-frame
        inference.
        """
        chain = self._chain
        pending = sorted(
            self._backlog, key=lambda request: (request.priority,
                                                request.request_id)
        )
        self._backlog.clear()
        drained: List[Tuple[BlockDecision, float]] = []
        max_batch = self.settings.max_batch
        for start in range(0, len(pending), max_batch):
            chunk = pending[start:start + max_batch]
            leaders: Dict[str, ServeRequest] = {}
            for request in chunk:
                leader = leaders.setdefault(request.key, request)
                if leader is not request:
                    leader.coalesced.append(request)
            batch = list(leaders.values())
            decisions, capacity = chain.compute(batch, 0.0)
            answers: Dict[int, BlockDecision] = {}
            chain.settle(
                batch, decisions, 0.0, 0.0, capacity, answers.__setitem__
            )
            per_frame_ms = float(self.compute_model(len(chunk))) / len(chunk)
            drained.extend(
                (answers[request.request_id], per_frame_ms)
                for request in chunk
            )
            self.batches_flushed += 1
        return drained
