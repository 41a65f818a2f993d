"""The renderer process: full pipeline with virtual-clock metrics.

Orchestrates fetch -> parse -> (shields) -> layout -> display list ->
raster for one page and reports ``domComplete - domLoading`` — the
render-time metric of §5.7.  Two browser profiles are provided:

* :data:`CHROMIUM` — no list-based blocking; every resource loads.
* :data:`BRAVE` — shields on: the synthetic EasyList blocks ad requests
  before fetch and hides matching elements before layout, and blocked
  ad/tracker script work is reflected as a lower script-cost multiplier.
  This is why Brave's *baseline* is much faster, and consequently why a
  fixed per-image classification cost is a larger *fraction* there
  (Figure 15's 4.55% vs 19.07% asymmetry).

PERCIVAL attaches in one of two modes (§1.1):

* ``mode="sync"`` — classification runs on the raster lane before the
  frame paints (blocking deployment; adds render latency),
* ``mode="async"`` — frames paint immediately while classification runs
  off the critical path; verdicts are memoized so the ad is blocked on
  the *next* encounter.  Ads that painted before their verdict are
  counted as ``flashed_ads``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from typing import TYPE_CHECKING

from repro.browser.display_list import (
    DisplayItem,
    DisplayItemKind,
    build_display_list,
)
from repro.browser.html import parse_html
from repro.browser.layout import VIEWPORT_HEIGHT, build_layout_tree
from repro.browser.network import MockNetwork
from repro.browser.raster import RasterConfig, rasterize
from repro.browser.skia import BitmapImage, SkImageInfo
from repro.filterlist.engine import FilterEngine
from repro.synth.webgen import Page
from repro.utils.clock import WorkerLanes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cascade.provenance import FrameProvenance
    from repro.core.blocker import BlockDecision
    from repro.core.revisit import RevisitMemory
    from repro.diff.differ import FrameDiffer


class BlockerProtocol(Protocol):
    """What the renderer needs from an ad blocker implementation.

    Implementations may additionally provide two optional (duck-typed)
    fast-path extensions the renderer uses when present:

    * ``fingerprint(bitmap) -> str`` plus ``key=`` keyword support on
      ``memoized_verdict``/``decide`` — lets the renderer hash a frame
      exactly once per encounter instead of once per lookup, and
    * ``decide_many(bitmaps) -> list`` — batched verdicts for a page's
      frames, used by the synchronous image-decode drain so N frames
      cost one batched forward pass instead of N single-image passes.
      A blocker attached to a sharded-inference worker pool
      (``repro.core.workerpool``) additionally scatters that batch
      across worker processes — the drain needs no extra wiring, and
      the async hook is untouched (its per-frame misses are below any
      sensible shard threshold).
    """

    def classify_bitmap(self, bitmap: np.ndarray, info: SkImageInfo) -> bool:
        """True if the decoded frame is an ad (should be blocked)."""
        ...

    def classify_cost_ms(self, info: SkImageInfo) -> float:
        """Virtual cost of one classification at this image size."""
        ...

    def memoized_verdict(self, bitmap: np.ndarray) -> Optional[bool]:
        """Cached verdict for this bitmap, if previously classified."""
        ...


class ServeBridgeProtocol(Protocol):
    """What async-mode serving needs (``repro.serve.RenderServeBridge``).

    The renderer admits each decoded frame during raster — answered at
    once by a cascade rule or the shared memo, or parked — and drains
    the parked frames after: one batched classification per chunk
    instead of a forward pass per frame, with the verdicts (and their
    amortized virtual costs) landing on the async lanes.
    """

    #: session snapshot differ the renderer diffs pages against
    #: before decoding (None = diff off)
    differ: Optional["FrameDiffer"]

    def admit(
        self,
        bitmap: np.ndarray,
        priority: int,
        provenance: Optional["FrameProvenance"],
    ) -> Tuple[str, Optional["BlockDecision"]]:
        """The answering tier and its decision, or ``(tier, None)``
        while the frame waits for :meth:`drain`."""
        ...

    def drain(self) -> List[Tuple["BlockDecision", float]]:
        """One ``(decision, amortized_cost_ms)`` per parked frame."""
        ...


#: virtual cost of handing one frame to the async classification queue
#: (the paint-path work is only the enqueue; compute happens off-lane)
_ASYNC_ENQUEUE_COST_MS = 0.05


@dataclass
class BrowserProfile:
    """Static configuration of a browser build."""

    name: str
    raster_threads: int = 4
    script_cost_multiplier: float = 1.0
    script_base_cost_ms: float = 2400.0
    parse_cost_per_char_ms: float = 0.002
    layout_cost_per_node_ms: float = 0.12
    style_cost_per_node_ms: float = 0.05
    display_item_cost_ms: float = 0.02
    filter_engine: Optional[FilterEngine] = None

    @property
    def shields_on(self) -> bool:
        return self.filter_engine is not None


def _brave_profile() -> BrowserProfile:
    # imported lazily to avoid a hard import cycle at module load
    from repro.filterlist.easylist import default_easylist

    return BrowserProfile(
        name="brave",
        script_cost_multiplier=0.25,
        filter_engine=default_easylist(),
    )


CHROMIUM = BrowserProfile(name="chromium")
BRAVE = _brave_profile()


def _supports_keyed_verdicts(percival: BlockerProtocol) -> bool:
    """True if the blocker implements the keyed fast-path extension.

    Requires the full surface — ``fingerprint()`` plus ``key=``-aware
    ``memoized_verdict()`` and ``decide()`` — verified against each
    method's actual signature, so a protocol-only blocker that happens
    to define a method with a colliding name is never miscalled.
    """
    if getattr(percival, "fingerprint", None) is None:
        return False
    for name in ("memoized_verdict", "decide"):
        method = getattr(percival, name, None)
        if method is None:
            return False
        try:
            parameters = inspect.signature(method).parameters
        except (TypeError, ValueError):
            return False
        if "key" not in parameters:
            return False
    return True


@dataclass
class RenderMetrics:
    """Per-page outcome: timings (virtual ms) and blocking counts."""

    url: str
    dom_loading_ms: float
    dom_complete_ms: float
    fetch_html_ms: float = 0.0
    script_ms: float = 0.0
    parse_ms: float = 0.0
    style_ms: float = 0.0
    layout_ms: float = 0.0
    display_list_ms: float = 0.0
    image_fetch_ms: float = 0.0
    raster_ms: float = 0.0
    classify_cost_ms: float = 0.0
    async_classify_ms: float = 0.0
    images_total: int = 0
    images_blocked_by_list: int = 0
    images_blocked_by_percival: int = 0
    images_decoded: int = 0
    elements_hidden: int = 0
    elements_collapsed_by_memory: int = 0
    flashed_ads: int = 0
    memo_hits: int = 0
    #: frames answered by the serve bridge's cascade rule tiers
    #: (structural verdict from provenance; no memo probe, no batch)
    rule_hits: int = 0
    #: frames that settled from the page's snapshot (diff layer):
    #: unchanged since the last visit, so the stored verdict applied
    #: before any decode or classification
    diff_inherited: int = 0
    #: frames the diff layer routed down the classification pipeline
    #: (changed/added regions, or no usable snapshot)
    diff_reclassified: int = 0

    @property
    def render_time_ms(self) -> float:
        """The paper's metric: domComplete - domLoading."""
        return self.dom_complete_ms - self.dom_loading_ms


class Renderer:
    """Renders synthetic pages under a browser profile."""

    def __init__(
        self,
        profile: BrowserProfile,
        network: MockNetwork,
        raster_config: Optional[RasterConfig] = None,
    ) -> None:
        self.profile = profile
        self.network = network
        self.raster_config = raster_config or RasterConfig(
            num_workers=profile.raster_threads
        )

    def render(
        self,
        page: Page,
        percival: Optional[BlockerProtocol] = None,
        mode: str = "sync",
        revisit_memory: Optional["RevisitMemory"] = None,
        serve_bridge: Optional["ServeBridgeProtocol"] = None,
        differ: Optional["FrameDiffer"] = None,
        session_id: str = "",
    ) -> RenderMetrics:
        """Render one page; returns its metrics.

        ``percival=None`` renders the baseline configuration.  With a
        ``revisit_memory``, elements whose resources PERCIVAL blocked on
        a previous visit are hidden *before layout* — the §6 fix for
        dangling slots: the container collapses and neither fetch nor
        decode nor classification is paid again.

        ``serve_bridge`` (async mode only) routes memo-missed decodes
        through the micro-batching serving layer
        (:class:`repro.serve.RenderServeBridge`): frames enqueue during
        raster and classify in batched chunks at drain time, so many
        page sessions share one blocker's batches and memo.

        ``differ`` (or, when omitted, the serve bridge's own differ)
        turns revisits incremental: before any decode, the page's image
        regions are diffed against the session's stored snapshot and
        unchanged regions settle from their stored verdict — only the
        delta reaches the classification pipeline.  ``session_id``
        scopes the snapshot (one browsing session's layout never leaks
        into another's diff).
        """
        if mode not in ("sync", "async"):
            raise ValueError(f"unknown blocking mode {mode!r}")
        if serve_bridge is not None and mode != "async":
            raise ValueError(
                "serve_bridge routes the asynchronous deployment; "
                "use mode='async'"
            )
        profile = self.profile
        metrics = RenderMetrics(
            url=page.url, dom_loading_ms=0.0, dom_complete_ms=0.0
        )
        clock = 0.0

        # -- fetch + parse the main document -------------------------------
        html = page.html
        metrics.fetch_html_ms = 40.0 + len(html) / 200_000.0
        clock += metrics.fetch_html_ms
        document = parse_html(html, url=page.url)
        metrics.parse_ms = len(html) * profile.parse_cost_per_char_ms
        clock += metrics.parse_ms

        # -- scripting (ad/tracker JS dominates real pages) ----------------
        metrics.script_ms = (
            page.complexity
            * profile.script_base_cost_ms
            * profile.script_cost_multiplier
        )
        clock += metrics.script_ms

        # -- style + element hiding (shields) -------------------------------
        node_count = document.element_count()
        metrics.style_ms = node_count * profile.style_cost_per_node_ms
        clock += metrics.style_ms
        if profile.filter_engine is not None:
            for node in document.root.walk():
                if node.tag == "#text":
                    continue
                rule = profile.filter_engine.should_hide_element(
                    node.tag, node.css_classes, node.element_id,
                    page.site_domain,
                )
                if rule is not None:
                    node.hidden = True
                    metrics.elements_hidden += 1

        # -- subresource filtering + fetch ----------------------------------
        resources = document.resource_elements()
        metrics.images_total = len(resources)
        allowed_urls: List[str] = []
        for node in resources:
            if node.hidden:
                metrics.images_blocked_by_list += 1
                continue
            if revisit_memory is not None and revisit_memory.should_collapse(
                node.src
            ):
                # blocked on a previous visit: collapse the element
                # before layout; no fetch, decode or classification.
                node.hidden = True
                metrics.elements_collapsed_by_memory += 1
                continue
            if profile.filter_engine is not None:
                decision = profile.filter_engine.check_request(
                    node.src, page.site_domain, "image"
                )
                if decision.blocked:
                    node.hidden = True
                    metrics.images_blocked_by_list += 1
                    continue
            allowed_urls.append(node.src)
        fetchable = [u for u in allowed_urls if self.network.has(u)]
        metrics.image_fetch_ms = self.network.fetch_all_cost_ms(fetchable)
        clock += metrics.image_fetch_ms

        # -- layout + display list ------------------------------------------
        layout_root = build_layout_tree(document)
        metrics.layout_ms = node_count * profile.layout_cost_per_node_ms
        clock += metrics.layout_ms
        display_list = build_display_list(layout_root)
        metrics.display_list_ms = (
            len(display_list) * profile.display_item_cost_ms
        )
        clock += metrics.display_list_ms

        # -- decode + classify + raster --------------------------------------
        images: Dict[str, BitmapImage] = {
            url: BitmapImage(self.network.fetch(url)) for url in fetchable
        }
        hook = None
        cost_fn = lambda url: 0.0  # noqa: E731 - tiny closure
        async_lanes: Optional[WorkerLanes] = None

        # -- incremental re-classification (diff layer) ----------------------
        # Before anything decodes: diff this visit's image regions
        # against the session's stored snapshot.  Unchanged regions
        # settle from their stored verdict (blocked ones never decode);
        # only the delta reaches the classification pipeline below.
        active_differ = differ
        if active_differ is None and serve_bridge is not None:
            active_differ = serve_bridge.differ
        if percival is None:
            active_differ = None
        region_views: List = []
        inherited_by_url: Dict[str, object] = {}
        settled_urls: set = set()
        if active_differ is not None:
            from repro.diff.snapshot import (
                RegionView,
                content_key_for_payload,
            )

            diff_nodes = {
                node.src: node for node in document.resource_elements()
            }
            seen_regions: set = set()
            for item in display_list:
                if item.kind is not DisplayItemKind.IMAGE:
                    continue
                if item.url in seen_regions or item.url not in images:
                    continue
                seen_regions.add(item.url)
                node = diff_nodes.get(item.url)
                style_key = "|".join((
                    getattr(node, "tag", "img") or "img",
                    ",".join(getattr(node, "css_classes", ()) or ()),
                    getattr(node, "element_id", "") or "",
                ))
                encoded = images[item.url].sk_image.encoded
                region_views.append(RegionView(
                    url=item.url,
                    content_key=content_key_for_payload(
                        encoded.payload, encoded.format.name
                    ),
                    x=int(item.x),
                    y=int(item.y),
                    width=int(item.width),
                    height=int(item.height),
                    style_key=style_key,
                ))
            plan = active_differ.plan(
                session_id or "local",
                page.url,
                region_views,
                revisit_memory=revisit_memory,
            )
            for view, record in plan.inherit:
                images[view.url].settle_verdict(bool(record.is_ad))
                settled_urls.add(view.url)
                inherited_by_url[view.url] = record
            metrics.diff_inherited = len(plan.inherit)
            metrics.diff_reclassified = len(plan.reclassify)

        #: model decisions captured at classification time, by URL —
        #: what the post-raster snapshot commit records
        decision_by_url: Dict[str, object] = {}

        if percival is not None and mode == "sync":
            # Image-decode drain: when the blocker supports batched
            # verdicts, decode every fetched frame up front and classify
            # them all in ONE batched forward pass (sharded across the
            # blocker's worker pool when it holds one and the page is
            # large enough).  Raster still charges decode +
            # classification virtual cost on first touch, so the
            # virtual-clock metrics are identical to the per-frame
            # deployment — only the real compute is batched.
            decide_many = getattr(percival, "decide_many", None)
            if decide_many is not None:
                fresh = [
                    (url, image) for url, image in images.items()
                    if not image.is_decoded and url not in settled_urls
                ]
                if fresh:
                    decisions = decide_many(
                        [image.decode_only() for _, image in fresh]
                    )
                    for (url, image), decision in zip(fresh, decisions):
                        image.apply_verdict(bool(decision.is_ad))
                        decision_by_url[url] = decision

            def hook(bitmap: np.ndarray, info: SkImageInfo) -> bool:
                # Fallback for frames the drain did not cover (and the
                # whole page when the blocker has no batched API).
                return percival.classify_bitmap(bitmap, info)

            def cost_fn(url: str) -> float:
                info = images[url].sk_image.info
                return percival.classify_cost_ms(info)

        elif percival is not None and mode == "async":
            # leaf import: the serve layer's priority and tier
            # constants, only needed when a bridge routes frames
            from repro.serve.chain import TIER_RULE
            from repro.serve.queue import (
                PRIORITY_BELOW_FOLD,
                PRIORITY_VIEWPORT,
            )

            async_lanes = WorkerLanes(profile.raster_threads)
            keyed = _supports_keyed_verdicts(percival)
            fingerprint = percival.fingerprint if keyed else None
            decide = percival.decide if keyed else None
            node_by_url: Dict[str, object] = {}
            if serve_bridge is not None:
                node_by_url = {
                    node.src: node for node in document.resource_elements()
                }

            def frame_provenance(item: Optional[DisplayItem]):
                """Provenance of the frame the raster lane is decoding,
                from the display item plus its owning DOM element."""
                if item is None:
                    return None
                from repro.cascade.provenance import FrameProvenance

                node = node_by_url.get(item.url)
                return FrameProvenance(
                    url=item.url,
                    page_domain=page.site_domain,
                    tag=getattr(node, "tag", "img"),
                    css_classes=tuple(getattr(node, "css_classes", ())),
                    element_id=getattr(node, "element_id", "") or "",
                    width=int(item.width),
                    height=int(item.height),
                )
            # per-frame flag set by the hook and read by cost_fn right
            # after: memo hits enqueue nothing, so the raster lane must
            # charge nothing for them
            frame_enqueued = [False]
            # display item whose first touch is paying the current
            # decode — set by the raster callback just before the hook
            # runs, so the hook knows the frame's on-page position
            touched_item: List[Optional[DisplayItem]] = [None]

            def hook(bitmap: np.ndarray, info: SkImageInfo) -> bool:
                frame_enqueued[0] = False
                if serve_bridge is not None:
                    # micro-batched deployment: the bridge's tier chain
                    # answers from a cascade rule or the shared memo,
                    # or parks the frame for the post-raster drain
                    item = touched_item[0]
                    priority = (
                        PRIORITY_VIEWPORT
                        if item is None or item.y < VIEWPORT_HEIGHT
                        else PRIORITY_BELOW_FOLD
                    )
                    tier, decided = serve_bridge.admit(
                        bitmap, priority, frame_provenance(item)
                    )
                    if decided is not None:
                        if tier == TIER_RULE:
                            metrics.rule_hits += 1
                        else:
                            metrics.memo_hits += 1
                        return decided.is_ad
                    frame_enqueued[0] = True
                    return False  # verdict lands at drain time
                # fingerprint once per frame: the same key serves the
                # memo lookup and, on a miss, the memo fill.
                if keyed:
                    key = fingerprint(bitmap)
                    cached = percival.memoized_verdict(bitmap, key=key)
                else:
                    cached = percival.memoized_verdict(bitmap)
                if cached is not None:
                    metrics.memo_hits += 1
                    return cached
                # classify off the critical path; frame paints meanwhile
                frame_enqueued[0] = True
                if keyed:
                    verdict = decide(bitmap, key=key).is_ad
                else:
                    verdict = percival.classify_bitmap(bitmap, info)
                async_lanes.submit(percival.classify_cost_ms(info))
                if verdict:
                    metrics.flashed_ads += 1
                return False  # never blocks the current paint

            def cost_fn(url: str) -> float:
                # enqueue cost only — and only for frames that actually
                # enqueued work (memo hits resolved without classifying)
                if frame_enqueued[0]:
                    return _ASYNC_ENQUEUE_COST_MS
                return 0.0

        first_touch = None
        if serve_bridge is not None:

            def first_touch(item: DisplayItem) -> None:
                touched_item[0] = item

        raster = rasterize(
            display_list,
            layout_root.height,
            images,
            config=self.raster_config,
            percival_hook=hook,
            classify_cost_ms=cost_fn,
            on_image_first_touch=first_touch,
            settled_urls=settled_urls or None,
        )
        metrics.raster_ms = raster.makespan_ms
        metrics.classify_cost_ms = raster.classify_cost_ms
        metrics.images_decoded = raster.images_decoded
        metrics.images_blocked_by_percival = raster.images_blocked
        if serve_bridge is not None and async_lanes is not None:
            # drain the page's enqueued frames through the batching
            # layer: verdicts memoize for the next encounter, amortized
            # compute lands on the async lanes, ads that already
            # painted count as flashed — the §1.1 async trade-off
            for decision, cost_ms in serve_bridge.drain():
                async_lanes.submit(cost_ms)
                if decision.is_ad:
                    metrics.flashed_ads += 1
        if async_lanes is not None:
            metrics.async_classify_ms = async_lanes.makespan_ms
        if active_differ is not None and region_views:
            # commit this visit's snapshot: refreshed geometry for
            # inherited regions, the captured/memoized model decision
            # for classified ones, a verdict-less (non-inheritable)
            # record otherwise.  Only model-computed decisions are
            # recorded, so an inherited verdict is always bit-identical
            # to what the memo path would have returned.
            from repro.diff.snapshot import RegionRecord

            memo_probe = getattr(percival, "memoized_decision", None)
            records = []
            for view in region_views:
                inherited = inherited_by_url.get(view.url)
                if inherited is not None:
                    records.append(RegionRecord.from_view(
                        view, inherited.is_ad, inherited.probability
                    ))
                    continue
                decision = decision_by_url.get(view.url)
                image = images.get(view.url)
                if (
                    decision is None
                    and memo_probe is not None
                    and image is not None
                    and image.is_decoded
                    and not image.blocked
                ):
                    # async deployments classify at drain time; the
                    # memo now holds the frame's full decision (rule
                    # hits never land in the memo, so they are never
                    # recorded — snapshots carry model verdicts only)
                    decision = memo_probe(image.decode_only())
                probability = getattr(decision, "probability", None)
                if decision is not None and probability is not None:
                    records.append(RegionRecord.from_view(
                        view, bool(decision.is_ad), float(probability)
                    ))
                else:
                    records.append(RegionRecord.from_view(view))
            active_differ.commit(session_id or "local", page.url, records)
        if revisit_memory is not None:
            for url, bitmap_image in images.items():
                if bitmap_image.blocked:
                    revisit_memory.record_blocked(url)
        clock += raster.makespan_ms

        metrics.dom_complete_ms = clock
        return metrics
