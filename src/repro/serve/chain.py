"""The tier chain: one admission and settlement path for every driver.

Every request — from :class:`~repro.serve.loop.ServeLoop` (virtual
clock), :class:`~repro.serve.loop.AsyncServeFront` (event-loop clock)
or :class:`~repro.serve.session.RenderServeBridge` (page drain) — runs
through :class:`TierChain`.  The drivers keep only their clock, their
queueing and the plumbing that hands results back.

Admission runs the tiers in one order::

    brownout drop (below-fold frames, ladder level 4+)
    -> diff   session snapshot, before any pixel is hashed
    -> rule   cascade micro-rule / filterlist, before any pixel is hashed
    -> fingerprint
    -> memo   shared blocker memo
    -> brownout shed (queue-bound work, ladder level 5)
    -> coalesce onto a queued twin
    -> queue  (a full queue sheds)

Settlement resolves every member and rider of a computed batch first,
then writes the guarded tier feedback: each settled frame into its
session snapshot, and one healer observation per computed verdict.

Every tier probe and feedback write runs inside ``try``: a raise is
absorbed and counted in ``stats.tier_errors``, and a raising probe
also counts against its tier's breaker.  With chaos and resilience off
the chain's ``guard`` is ``None`` and every resilience gate is a single
``is None`` check.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cascade.provenance import FrameProvenance
from repro.cascade.router import CascadeAudit, CascadeHit, resolve_cascade
from repro.core.blocker import BlockDecision, PercivalBlocker
from repro.diff.differ import resolve_differ
from repro.diff.snapshot import RegionRecord
from repro.resilience.chaos import ChaosCursor, ChaosInjectedError, resolve_chaos
from repro.resilience.plane import ResiliencePlane, resolve_resilience
from repro.serve.metrics import ServeStats
from repro.serve.queue import PRIORITY_VIEWPORT, ServeRequest

#: the tier that answered (or parked) a request, as :meth:`TierChain.
#: admit` reports it
TIER_DIFF = "diff"
TIER_RULE = "rule"
TIER_MEMO = "memo"
TIER_COALESCED = "coalesced"
TIER_QUEUED = "queued"
TIER_SHED = "shed"


def _pool_capacity(pool: object) -> int:
    """Worker slots ``pool`` exposes right now (0 = no pool / no
    capacity signal).  A non-blocking probe: duck-typed on the
    ``available_capacity`` attribute so stub pools, closed pools, and
    ``None`` all read as zero instead of raising."""
    if pool is None:
        return 0
    return int(getattr(pool, "available_capacity", 0) or 0)


def _healer_input(
    group: Sequence[ServeRequest],
) -> Tuple[Optional[CascadeAudit], Optional[FrameProvenance]]:
    """What one computed verdict feeds the cascade healer, exactly once.

    A flush settles a leader plus its riders, but only one verdict was
    computed for the group — feeding it back once per settled request
    would hand the healer N observations for one forward pass, enough
    to two-strike-invalidate a healthy rule from a single frame.  The
    first open audit ticket in settle order wins (leader first, riders
    in arrival order); with no ticket standing, the first request
    carrying provenance absorbs the verdict.
    """
    for settled in group:
        if settled.audit is not None:
            return settled.audit, None
    for settled in group:
        if settled.provenance is not None:
            return None, settled.provenance
    return None, None


class _TierGuard:
    """The resilience gates around the speed tiers: chaos outages and
    armed errors, the ladder's brownout flags, and per-tier breakers.
    Only built while a chaos schedule or a resilience plane is on."""

    def __init__(
        self, plane: Optional[ResiliencePlane], cursor: Optional[ChaosCursor]
    ) -> None:
        self.plane = plane
        self.cursor = cursor
        self.controller = plane.controller if plane is not None else None

    def allow(self, tier: str, now_ms: float, mutate: bool = True) -> bool:
        """Is ``tier`` consultable at ``now_ms``?  ``mutate=False`` uses
        the breaker's non-mutating ``peek``: feedback writes must not
        consume the half-open probe the serve path needs to heal it."""
        cursor = self.cursor
        if cursor is not None and cursor.tier_out(tier, now_ms):
            return False
        plane = self.plane
        if plane is not None:
            controller = plane.controller
            if tier == "diff" and controller.diff_disabled:
                return False
            if tier == "cascade" and controller.cascade_disabled:
                return False
            breaker = plane.breakers.get(tier)
            if breaker is not None:
                return breaker.allow(now_ms) if mutate else breaker.peek(now_ms)
        return True

    def inject(self, tier: str) -> None:
        """Raise the chaos schedule's armed one-shot error for ``tier``."""
        if self.cursor is not None and self.cursor.take_tier_error(tier):
            raise ChaosInjectedError(f"injected {tier} failure")

    def record(self, tier: str, now_ms: float, ok: bool) -> None:
        """Feed one admitted tier call's outcome to its breaker; a trip
        is also a pressure signal for the degradation ladder."""
        plane = self.plane
        breaker = plane.breakers.get(tier) if plane is not None else None
        if breaker is None:
            return
        before = breaker.trips
        breaker.record(now_ms, ok)
        if breaker.trips > before:
            plane.controller.observe_pressure(f"{tier} breaker tripped")

    def memo_live(self, now_ms: float) -> bool:
        """A memo probe is a dict lookup with no real failure mode: an
        outage or an injected memo error degrades to a one-shot miss."""
        cursor = self.cursor
        if cursor is None:
            return True
        return not cursor.tier_out("memo", now_ms) and not (
            cursor.take_tier_error("memo")
        )


class TierChain:
    """Admission and settlement over one blocker and its speed tiers.

    The ``cascade``/``differ``/``chaos``/``resilience`` arguments are
    resolved here, once (``None`` defers to the ``PERCIVAL_*`` knobs,
    ``False`` pins a tier off, an instance is used as-is).  The chain
    reaches every tier through its attribute at call time, so a method
    wrapped on the instance after construction is honoured.

    :meth:`start` binds a run's queue and ledger; ``coalesce=False``
    skips the coalesce tier (the page drain groups duplicates per
    chunk instead).
    """

    def __init__(
        self,
        blocker: PercivalBlocker,
        cascade: object = None,
        differ: object = None,
        chaos: object = None,
        resilience: object = None,
        coalesce: bool = True,
    ) -> None:
        config = blocker.classifier.config
        self.blocker = blocker
        self.cascade = resolve_cascade(cascade, config)
        self.differ = resolve_differ(differ, config)
        self.chaos = resolve_chaos(chaos, config)
        self.resilience = resolve_resilience(
            resilience, config, chaos_active=self.chaos is not None
        )
        self.coalesce = coalesce

    def start(self, queue, stats: ServeStats) -> None:
        """Begin a run: bind its queue (anything with ``offer(request,
        now_ms) -> bool``) and ledger, empty the pending and open maps,
        and rewind the chaos schedule."""
        if self.cascade is not None:
            stats.cascade = self.cascade.stats
        if self.differ is not None:
            stats.diff = self.differ.stats
        plane = self.resilience
        if plane is not None:
            stats.resilience = plane
        self.queue = queue
        self.stats = stats
        #: fingerprint -> queued leader, for the coalesce tier
        self.pending: Dict[str, ServeRequest] = {}
        #: request id -> the driver's handle for an unsettled request
        #: (registered by the driver after a coalesced/queued admit)
        self.open: Dict[int, object] = {}
        self.cursor = self.chaos.cursor() if self.chaos is not None else None
        self.guard = (
            _TierGuard(plane, self.cursor)
            if plane is not None or self.cursor is not None
            else None
        )

    def tick(self, now_ms: float) -> None:
        """Advance the resilience plane to ``now_ms``: fire due chaos
        events, let the ladder step, apply its deadline scale."""
        guard = self.guard
        if guard is None:
            return
        if guard.cursor is not None:
            fired = guard.cursor.fire_due(now_ms, pool=self.blocker.pool)
            if fired and guard.plane is not None:
                guard.plane.note_chaos(fired)
        if guard.controller is not None:
            guard.controller.evaluate(now_ms)
            self.queue.deadline_scale = guard.controller.deadline_scale

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        request_id: int,
        session_id: str,
        bitmap: np.ndarray,
        priority: int,
        provenance: Optional[FrameProvenance],
        content_key: str,
        now_ms: float,
    ) -> Tuple[str, object, str]:
        """Run one arriving request down the chain.

        Returns ``(tier, answer, key)``.  ``answer`` is the decision for
        :data:`TIER_DIFF` and :data:`TIER_MEMO`, the router's
        :class:`~repro.cascade.router.CascadeHit` for :data:`TIER_RULE`,
        the queued :class:`ServeRequest` for :data:`TIER_COALESCED` and
        :data:`TIER_QUEUED`, and the shed reason for :data:`TIER_SHED`.
        ``key`` is the fingerprint, ``""`` when a tier answered (or a
        brownout shed) before hashing.
        """
        stats = self.stats
        stats.submitted += 1
        guard = self.guard
        controller = guard.controller if guard is not None else None
        if (
            controller is not None
            and controller.drop_below_fold
            and priority > PRIORITY_VIEWPORT
        ):
            # nothing visible is waiting on a below-the-fold frame
            return self._brownout_shed("")
        differ = self.differ
        if differ is not None and (
            guard is None or guard.allow("diff", now_ms)
        ):
            recalled = None
            try:
                if guard is not None:
                    guard.inject("diff")
                if provenance is not None and content_key:
                    recalled = differ.recall(
                        session_id, provenance.page_domain, provenance.url,
                        content_key,
                    )
            except Exception:
                self._tier_failed("diff", now_ms)
            else:
                if guard is not None:
                    guard.record("diff", now_ms, True)
                if recalled is not None:
                    stats.diff_hits += 1
                    self._answered(priority, now_ms)
                    return TIER_DIFF, recalled, ""
        cascade = self.cascade
        audit = None
        if cascade is not None and (
            guard is None or guard.allow("cascade", now_ms)
        ):
            try:
                if guard is not None:
                    guard.inject("cascade")
                routed = cascade.route(provenance)
            except Exception:
                self._tier_failed("cascade", now_ms)
            else:
                if guard is not None:
                    guard.record("cascade", now_ms, True)
                if isinstance(routed, CascadeHit):
                    stats.rule_hits += 1
                    self._answered(priority, now_ms)
                    return TIER_RULE, routed, ""
                audit = routed
        blocker = self.blocker
        key = blocker.fingerprint(bitmap)
        if guard is None or guard.memo_live(now_ms):
            cached = blocker.memoized_decision(key=key)
            if cached is not None:
                stats.memo_hits += 1
                self._answered(priority, now_ms)
                self._heal(audit, provenance, cached, now_ms)
                self._remember(
                    session_id, provenance, content_key, cached, now_ms
                )
                return TIER_MEMO, cached, key
        if controller is not None and controller.shed_all:
            # the compute path is browned out; the cheap tiers above
            # already had their chance to answer
            return self._brownout_shed(key)
        request = ServeRequest(
            request_id=request_id,
            session_id=session_id,
            key=key,
            bitmap=bitmap,
            arrival_ms=now_ms,
            priority=priority,
            provenance=provenance,
            audit=audit,
            content_key=content_key,
        )
        if self.coalesce:
            leader = self.pending.get(key)
            if leader is not None:
                leader.coalesced.append(request)
                stats.coalesced += 1
                return TIER_COALESCED, request, key
        queue = self.queue
        if not queue.offer(request, now_ms):
            stats.shed += 1
            if controller is not None:
                controller.observe_pressure("queue overflow shed")
            return (
                TIER_SHED,
                f"queue depth {queue.depth} at its bound"
                f" ({queue.settings.max_depth}); request shed",
                key,
            )
        if self.coalesce:
            self.pending[key] = request
        return TIER_QUEUED, request, key

    def _answered(self, priority: int, now_ms: float) -> None:
        """Ledger entry for a tier hit: answered at arrival."""
        self.stats.answered += 1
        self.stats.record_latency(now_ms, now_ms, now_ms, priority)

    def _brownout_shed(self, key: str) -> Tuple[str, object, str]:
        plane = self.resilience
        self.stats.shed += 1
        plane.degraded_sheds += 1
        return (
            TIER_SHED,
            f"request shed at brownout level '{plane.controller.level_name}'",
            key,
        )

    def _tier_failed(self, tier: str, now_ms: float) -> None:
        """Absorb and count one raising tier probe; its breaker hears."""
        self._count_tier_error()
        if self.guard is not None:
            self.guard.record(tier, now_ms, False)

    def _count_tier_error(self) -> None:
        self.stats.tier_errors += 1
        if self.resilience is not None:
            self.resilience.tier_errors += 1

    # ------------------------------------------------------------------
    # Feedback writes: optimizations for *future* requests, so a raise
    # is absorbed and counted, never allowed to fail a settled request.
    # They never feed a breaker: the serve path's own probes decide a
    # tier's health.
    # ------------------------------------------------------------------
    def _heal(
        self,
        audit: Optional[CascadeAudit],
        provenance: Optional[FrameProvenance],
        decision: BlockDecision,
        now_ms: float,
    ) -> None:
        """One healer observation: reconcile an open audit ticket, else
        absorb the verdict under the frame's provenance."""
        cascade = self.cascade
        if cascade is None or (
            self.guard is not None
            and not self.guard.allow("cascade", now_ms, mutate=False)
        ):
            return
        try:
            if audit is not None:
                cascade.reconcile(audit, decision.is_ad)
            else:
                cascade.absorb(provenance, decision)
        except Exception:
            self._count_tier_error()

    def _remember(
        self,
        session_id: str,
        provenance: Optional[FrameProvenance],
        content_key: str,
        decision: BlockDecision,
        now_ms: float,
    ) -> None:
        """Stream one settled verdict into the session snapshot so the
        next visit of the same region answers at the diff tier."""
        differ = self.differ
        if (
            differ is None
            or provenance is None
            or not content_key
            or (
                self.guard is not None
                and not self.guard.allow("diff", now_ms, mutate=False)
            )
        ):
            return
        try:
            differ.remember(
                session_id,
                provenance.page_domain,
                RegionRecord(
                    url=provenance.url,
                    content_key=content_key,
                    width=provenance.width,
                    height=provenance.height,
                    is_ad=bool(decision.is_ad),
                    probability=float(decision.probability),
                ),
            )
        except Exception:
            self._count_tier_error()

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------
    def compute(
        self, batch: Sequence[ServeRequest], now_ms: float
    ) -> Tuple[List[BlockDecision], int]:
        """One batched ``decide_many`` behind the pool breaker.

        Returns the decisions and the pool capacity sampled before
        dispatch.  An open breaker detaches the pool for exactly this
        batch, so it computes in-process (bit-identical verdicts by
        batch-composition invariance).  The outcome feeds the breaker:
        the blocker heals a pool failure silently, so its fallback
        counter is the breaker's only window into whether the pool
        really dispatched.  A raising ``decide_many`` propagates.
        """
        blocker = self.blocker
        pool = blocker.pool
        capacity = _pool_capacity(pool)
        bitmaps = [request.bitmap for request in batch]
        keys = [request.key for request in batch]
        plane = self.resilience
        if (
            plane is None
            or pool is None
            or getattr(pool, "closed", False)
            or len(batch) < blocker.shard_min_batch
        ):
            return blocker.decide_many(bitmaps, keys=keys), capacity
        bypass = not plane.breakers["pool"].allow(now_ms)
        fallbacks_before = getattr(blocker, "pool_fallbacks", 0)
        if bypass:
            blocker.pool = None
            plane.pool_bypassed += 1
        ok = False
        try:
            decisions = blocker.decide_many(bitmaps, keys=keys)
            ok = getattr(blocker, "pool_fallbacks", 0) == fallbacks_before
        finally:
            if bypass:
                blocker.pool = pool
            else:
                self.guard.record("pool", now_ms, ok)
        return decisions, capacity

    def settle(
        self,
        batch: Sequence[ServeRequest],
        decisions: Sequence[BlockDecision],
        flush_ms: float,
        complete_ms: float,
        capacity: int,
        resolve: Callable[[object, BlockDecision], None],
    ) -> None:
        """Settle one computed batch.

        Pass 1 hands every member and rider its decision through
        ``resolve(handle, decision)``; pass 2 writes the tier feedback,
        so a raising write can never orphan a rider.
        """
        stats = self.stats
        controller = self.guard.controller if self.guard is not None else None
        groups = list(zip(batch, decisions))
        for request, decision in groups:
            for settled, handle in self._unsettled(request):
                resolve(handle, decision)
                stats.answered += 1
                stats.record_latency(
                    settled.arrival_ms, flush_ms, complete_ms, settled.priority
                )
                if controller is not None:
                    controller.observe_latency(complete_ms - settled.arrival_ms)
        for request, decision in groups:
            group = (request, *request.coalesced)
            # every settled request refreshes its own session's
            # snapshot — riders belong to other sessions/pages
            for settled in group:
                self._remember(
                    settled.session_id, settled.provenance,
                    settled.content_key, decision, flush_ms,
                )
            audit, provenance = _healer_input(group)
            if audit is not None or provenance is not None:
                self._heal(audit, provenance, decision, flush_ms)
        stats.batches += 1
        stats.batched_requests += len(batch)
        stats.capacity_samples.append(capacity)

    def fail(
        self,
        batch: Sequence[ServeRequest],
        exc: Exception,
        reject: Callable[[object, Exception], None],
    ) -> None:
        """Settle a batch whose compute raised ``exc``: every member and
        rider exactly once through ``reject(handle, exc)``, its keys
        released so a later duplicate is a fresh leader."""
        plane = self.resilience
        if plane is not None:
            plane.failed_batches += 1
            plane.controller.observe_pressure("batch classification failed")
        for request in batch:
            for _, handle in self._unsettled(request):
                reject(handle, exc)
                self.stats.failed += 1

    def _unsettled(
        self, request: ServeRequest
    ) -> Iterator[Tuple[ServeRequest, object]]:
        """Release a popped leader's key and yield it and its riders,
        each with the driver handle it leaves ``open`` with."""
        self.pending.pop(request.key, None)
        for settled in (request, *request.coalesced):
            yield settled, self.open.pop(settled.request_id)


class TierViews:
    """Read-only views of the tier objects a driver's chain resolved."""

    _chain: TierChain

    @property
    def cascade(self):
        """Confidence router in front of the memo/queue tiers (None = off)."""
        return self._chain.cascade

    @property
    def differ(self):
        """Per-session snapshot/diff layer in front of everything (None = off)."""
        return self._chain.differ

    @property
    def chaos(self):
        """Seeded fault-injection schedule (None = off)."""
        return self._chain.chaos

    @property
    def resilience(self):
        """Breakers + degradation ladder (None = off)."""
        return self._chain.resilience
