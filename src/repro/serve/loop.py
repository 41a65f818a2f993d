"""The serving layer's two clocked drivers.

* :class:`ServeLoop` — a **deterministic** discrete-event simulator on a
  :class:`~repro.utils.clock.VirtualClock`.  Classification is *real*
  (every flush calls ``PercivalBlocker.decide_many``) but time is
  virtual, so latency distributions, backpressure and injected faults
  replay bit-identically.  The property/fault harness and the
  ``serve-sim`` CLI drive it.
* :class:`AsyncServeFront` — the ``asyncio`` front door:
  ``await front.submit(bitmap)`` resolves to a
  :class:`~repro.core.blocker.BlockDecision` once the request's batch
  flushes (on ``max_batch`` or the ``max_wait_ms`` timer).

Both run every request through one
:class:`~repro.serve.chain.TierChain`, which owns the tiers, the
settlement and the resilience plane (see ``docs/serving.md``).  A
driver owns only its clock, its :class:`~repro.serve.queue.BatchQueue`
and the way answers reach the caller: the simulator records a
:class:`ServeResult` per request, the front resolves futures and
raises :class:`ServeOverloadError` for a shed request.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.cascade.provenance import FrameProvenance
from repro.cascade.router import CascadeRouter
from repro.core.blocker import BlockDecision, PercivalBlocker
from repro.core.config import (
    ServeSettings,
    configured_serve_lanes,
    configured_serve_settings,
)
from repro.diff.differ import FrameDiffer
from repro.resilience.chaos import ChaosSchedule
from repro.resilience.plane import ResiliencePlane
from repro.serve.chain import (
    TIER_COALESCED,
    TIER_DIFF,
    TIER_MEMO,
    TIER_QUEUED,
    TIER_RULE,
    TIER_SHED,
    TierChain,
    TierViews,
    _pool_capacity,
)
from repro.serve.metrics import ServeStats
from repro.serve.queue import PRIORITY_VIEWPORT, BatchQueue, ServeRequest
from repro.utils.clock import VirtualClock


class ServeOverloadError(RuntimeError):
    """The request was shed at admission: the queue is at its bound,
    or the degradation ladder is shedding.

    Explicit backpressure — callers decide whether to retry, degrade
    (render without a verdict, as async mode already does), or surface
    the overload.  The serving layer never queues unboundedly and never
    drops a request silently.
    """


class ServeClosedError(RuntimeError):
    """The front door was closed; the request was never admitted.

    Raised by :meth:`AsyncServeFront.submit` after :meth:`aclose` — a
    closed front has drained its queue and released its executor, so
    admitting more work could only hang the caller.
    """


@dataclass(frozen=True)
class ArrivalEvent:
    """One simulated request: a frame from a page session."""

    at_ms: float
    session_id: str
    bitmap: np.ndarray
    #: scheduling class (see :mod:`repro.serve.queue`): viewport frames
    #: outrank below-the-fold frames at every pop, subject to aging
    priority: int = PRIORITY_VIEWPORT
    #: renderer-side frame context for the cascade's rule tiers; None
    #: (or a disabled cascade) routes straight to the memo/queue path
    provenance: Optional[FrameProvenance] = None
    #: pre-decode content hash of the frame's encoded bytes; with a
    #: differ attached, the session's page snapshot can answer a
    #: ``(url, content_key)`` revisit before the bitmap is ever
    #: fingerprinted.  "" (or no provenance) skips the diff tier.
    content_key: str = ""


@dataclass
class ServeResult:
    """Outcome of one simulated request."""

    request_id: int
    session_id: str
    key: str
    arrival_ms: float
    priority: int = PRIORITY_VIEWPORT
    decision: Optional[BlockDecision] = None
    shed: bool = False
    #: the request's batch was popped but its classification raised:
    #: settled exactly once with an explicit error, never silently lost
    failed: bool = False
    memo_hit: bool = False
    #: answered by the session's page snapshot (diff tier): the stored
    #: verdict settled the request before fingerprinting — ``key`` is
    #: empty for these, no pixel hash was ever computed
    diff_hit: bool = False
    #: answered by a cascade rule tier (no hash, no memo probe, no batch
    #: slot, no lane time — ``key`` is empty for these too);
    #: ``rule_tier`` names which tier ("micro"/"list")
    rule_hit: bool = False
    rule_tier: str = ""
    #: rode along with an identical queued fingerprint (no batch slot)
    coalesced: bool = False
    flush_ms: float = 0.0
    complete_ms: float = 0.0
    #: compute lane the request's batch occupied (-1 = never batched:
    #: memo hits and sheds don't touch a lane)
    lane: int = -1

    @property
    def queue_wait_ms(self) -> float:
        return self.flush_ms - self.arrival_ms

    @property
    def service_ms(self) -> float:
        return self.complete_ms - self.flush_ms

    @property
    def latency_ms(self) -> float:
        return self.complete_ms - self.arrival_ms


@dataclass
class ServeReport:
    """Everything a simulation run produced, in submission order."""

    results: List[ServeResult]
    stats: ServeStats
    makespan_ms: float

    @property
    def answered(self) -> List[ServeResult]:
        return [r for r in self.results if not r.shed and not r.failed]

    @property
    def shed(self) -> List[ServeResult]:
        return [r for r in self.results if r.shed]

    @property
    def failed(self) -> List[ServeResult]:
        return [r for r in self.results if r.failed]


class BatchComputeModel:
    """Virtual cost of one batched forward, ``setup + n * per_image``.

    Defaults derive from the blocker's calibrated per-image latency so
    a batch of one costs exactly one calibrated classification, and the
    marginal frame costs ``amortization`` of it — the shape the PR 1
    fast-path benchmark measured (batched inference amortizes fixed
    per-call overhead across the batch).
    """

    #: marginal cost of one more frame, as a fraction of the
    #: single-image latency (PR 1 measured >= 4x batched throughput)
    AMORTIZATION = 0.25

    def __init__(self, per_image_ms: float, setup_ms: float) -> None:
        if per_image_ms < 0 or setup_ms < 0:
            raise ValueError("compute-model costs must be non-negative")
        self.per_image_ms = per_image_ms
        self.setup_ms = setup_ms

    @classmethod
    def from_blocker(cls, blocker: PercivalBlocker) -> "BatchComputeModel":
        latency = blocker.calibrated_latency_ms
        return cls(
            per_image_ms=latency * cls.AMORTIZATION,
            setup_ms=latency * (1.0 - cls.AMORTIZATION),
        )

    def __call__(self, batch_size: int) -> float:
        if batch_size <= 0:
            return 0.0
        return self.setup_ms + batch_size * self.per_image_ms


class ServeLoop(TierViews):
    """Deterministic micro-batching simulator over a virtual clock.

    ``run`` replays a traffic trace (:class:`ArrivalEvent` list) through
    the full serving stack: the tier chain at arrival, admission
    control, deadline/size-based flushing, and one real
    ``decide_many`` per flushed batch.  Batch compute occupies one of
    ``resolved_lanes()`` virtual compute lanes (``compute_model`` prices
    it); a due batch dispatches as soon as any lane is free, lowest
    index first, so the schedule stays deterministic.  With one lane a
    slow batch visibly delays the batches behind it, with ``n`` lanes
    up to ``n`` flushes overlap — either way the p99 tail under load is
    a property of the trace, not of the host machine.
    """

    def __init__(
        self,
        blocker: PercivalBlocker,
        settings: Optional[ServeSettings] = None,
        compute_model: Optional[Callable[[int], float]] = None,
        cascade: "CascadeRouter | None | bool" = None,
        differ: "FrameDiffer | None | bool" = None,
        chaos: "ChaosSchedule | None | bool" = None,
        resilience: "ResiliencePlane | None | bool" = None,
    ) -> None:
        self.blocker = blocker
        self.settings = configured_serve_settings(settings)
        self.compute_model = (
            compute_model
            if compute_model is not None
            else BatchComputeModel.from_blocker(blocker)
        )
        self._chain = TierChain(blocker, cascade, differ, chaos, resilience)

    def resolved_lanes(self) -> int:
        """The lane count this loop will simulate with.

        Resolution order: ``settings.lanes`` if pinned, else the
        ``PERCIVAL_SERVE_LANES`` environment knob, else the attached
        worker pool's ``available_capacity`` — so by default the
        simulator overlaps exactly as many flushes as the pool has
        workers to absorb — else 1 (poolless = one in-process lane).
        """
        explicit = configured_serve_lanes(self.settings.lanes)
        if explicit is not None:
            return explicit
        return max(_pool_capacity(self.blocker.pool), 1)

    def run(self, events: Sequence[ArrivalEvent]) -> ServeReport:
        """Replay ``events`` through the serving stack.

        Discrete-event structure: completed lanes retire first, then
        due batches dispatch onto free lanes (lowest index first —
        deterministic tie-break) until lanes or due batches run out,
        then the clock advances to the earliest of {next arrival,
        earliest busy-lane completion, queue deadline if a lane is
        free}.  Gating dispatch on lane availability is what makes
        overload *visible*: while every lane computes, arrivals pile
        into the queue, and past ``max_depth`` they shed — exactly the
        backpressure a real fixed-capacity server exhibits.  (The queue
        itself still never holds a due request at poll time; that
        contract is property-tested on :class:`BatchQueue` directly.)
        """
        events = sorted(events, key=lambda event: event.at_ms)
        chain = self._chain
        queue = BatchQueue(self.settings)
        stats = ServeStats(lanes=self.resolved_lanes())
        chain.start(queue, stats)
        plane = chain.resilience
        if plane is not None:
            plane.rebase(0.0)
        clock = VirtualClock()
        results: List[ServeResult] = []
        #: virtual time each compute lane frees up (<= now means idle)
        lane_free: List[float] = [0.0] * stats.lanes
        index = 0

        while True:
            now = clock.now_ms
            chain.tick(now)
            free_lane = self._lowest_free_lane(lane_free, now)
            if free_lane is not None:
                batch = queue.pop_batch(now)
                if batch is not None:
                    lane_free[free_lane] = self._flush(batch, now, free_lane)
                    continue
            arrival = events[index].at_ms if index < len(events) else None
            deadline = queue.next_deadline_ms()
            busy = [t for t in lane_free if t > now]
            candidates = [
                t
                for t in (
                    arrival,
                    min(busy) if busy else None,
                    # a deadline is only actionable while a lane is free
                    deadline if free_lane is not None else None,
                )
                if t is not None
            ]
            if not candidates:
                # chaos events past the last unit of work never fire:
                # an empty system has nothing left to perturb
                break
            if chain.cursor is not None:
                # planned chaos ticks join the discrete-event schedule
                # so outage windows open/close and faults arm at their
                # scheduled virtual times, not at the next convenient one
                chaos_at = chain.cursor.next_at_ms()
                if chaos_at is not None:
                    candidates.append(chaos_at)
            next_time = min(candidates)
            clock.advance_to(next_time)
            if arrival is not None and next_time >= arrival:
                event = events[index]
                index += 1
                results.append(self._admit(event, index, clock.now_ms))

        if plane is not None:
            plane.controller.finalize(clock.now_ms)
        return ServeReport(
            results=results, stats=stats, makespan_ms=clock.now_ms
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _lowest_free_lane(
        lane_free: List[float], now_ms: float
    ) -> Optional[int]:
        for lane, free_at in enumerate(lane_free):
            if free_at <= now_ms:
                return lane
        return None

    def _admit(
        self, event: ArrivalEvent, request_id: int, now_ms: float
    ) -> ServeResult:
        tier, answer, key = self._chain.admit(
            request_id, event.session_id, event.bitmap, event.priority,
            event.provenance, event.content_key, now_ms,
        )
        result = ServeResult(
            request_id=request_id,
            session_id=event.session_id,
            key=key,
            arrival_ms=now_ms,
            priority=event.priority,
        )
        if tier == TIER_QUEUED or tier == TIER_COALESCED:
            # resolved when its batch settles
            result.coalesced = tier == TIER_COALESCED
            self._chain.open[request_id] = result
            return result
        result.flush_ms = result.complete_ms = now_ms
        if tier == TIER_SHED:
            result.shed = True
        elif tier == TIER_RULE:
            result.decision = answer.decision
            result.rule_hit = True
            result.rule_tier = answer.tier
        else:
            result.decision = answer
            result.diff_hit = tier == TIER_DIFF
            result.memo_hit = tier == TIER_MEMO
        return result

    def _flush(
        self, batch: List[ServeRequest], now_ms: float, lane: int
    ) -> float:
        """Dispatch one batch on the free compute lane ``lane``;
        returns the virtual time that lane frees up again."""
        chain = self._chain
        try:
            decisions, capacity = chain.compute(batch, now_ms)
        except Exception as exc:
            if chain.guard is None:
                raise
            # explicit failed batch: the lane frees at once

            def reject(result: ServeResult, _: Exception) -> None:
                result.failed = True
                result.flush_ms = result.complete_ms = now_ms
                result.lane = lane

            chain.fail(batch, exc, reject)
            return now_ms
        cost_ms = float(self.compute_model(len(batch)))
        if chain.cursor is not None:
            cost_ms *= chain.cursor.latency_multiplier(now_ms)
        complete_ms = now_ms + cost_ms

        def resolve(result: ServeResult, decision: BlockDecision) -> None:
            result.decision = decision
            result.flush_ms = now_ms
            result.complete_ms = complete_ms
            result.lane = lane

        chain.settle(batch, decisions, now_ms, complete_ms, capacity, resolve)
        busy = chain.stats.lane_busy_ms
        busy[lane] = busy.get(lane, 0.0) + cost_ms
        return complete_ms


class AsyncServeFront(TierViews):
    """``asyncio`` front door over the same micro-batching queue.

    ``submit`` returns an awaitable that resolves to the request's
    :class:`BlockDecision`.  A full batch schedules a flush callback on
    the event loop (deferred, so a burst of submits already on the
    ready queue gets to enqueue — or shed — before compute runs); a
    partial batch flushes when its oldest request hits ``max_wait_ms``
    via a ``call_later`` timer.  A full queue raises
    :class:`ServeOverloadError` — backpressure is the caller's signal.

    Two compute placements:

    * default (``use_executor=False``): batch compute runs on the
      event-loop thread — numpy/BLAS release the GIL, and for pure
      throughput a thread hop only reorders the same GEMMs;
    * ``use_executor=True``: each flush's ``decide_many`` runs on a
      dedicated **single-thread** executor, so a slow batch never
      stalls the event loop — submits, timer callbacks, and unrelated
      coroutines keep running, and overload stays observable *during*
      compute, not just between batches.  The executor is deliberately
      one thread: the blocker's scratch buffers and the worker pool's
      dispatch protocol are not reentrant, so the front serializes
      forwards and leaves real compute parallelism to the pool's worker
      processes (and, in simulation, to :class:`ServeLoop`'s lanes).

    Chaos here runs on the front's real-millisecond clock; the
    invariant it exercises is value-independence (every resolved
    future's P(ad) is fault-free-identical), not replay timing.
    """

    def __init__(
        self,
        blocker: PercivalBlocker,
        settings: Optional[ServeSettings] = None,
        use_executor: bool = False,
        cascade: "CascadeRouter | None | bool" = None,
        differ: "FrameDiffer | None | bool" = None,
        chaos: "ChaosSchedule | None | bool" = None,
        resilience: "ResiliencePlane | None | bool" = None,
    ) -> None:
        self.blocker = blocker
        self.settings = configured_serve_settings(settings)
        self.use_executor = use_executor
        self._chain = TierChain(blocker, cascade, differ, chaos, resilience)
        self._queue = BatchQueue(self.settings)
        self._chain.start(self._queue, ServeStats())
        self._timer: Optional[asyncio.TimerHandle] = None
        self._flush_handle: Optional[asyncio.Handle] = None
        self._origin_s: Optional[float] = None
        self._next_id = 0
        self._closed = False
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._inflight: Set["asyncio.Task[None]"] = set()

    @property
    def stats(self) -> ServeStats:
        return self._chain.stats

    @property
    def _pending(self) -> Dict[str, ServeRequest]:
        return self._chain.pending

    @property
    def _waiters(self) -> Dict[int, object]:
        return self._chain.open

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    async def submit(
        self,
        bitmap: np.ndarray,
        session_id: str = "session",
        priority: int = PRIORITY_VIEWPORT,
        provenance: Optional[FrameProvenance] = None,
        content_key: str = "",
    ) -> BlockDecision:
        """One classification request; resolves when its batch flushes."""
        if self._closed:
            raise ServeClosedError(
                "AsyncServeFront is closed; no new requests are admitted"
            )
        loop = asyncio.get_running_loop()
        now_ms = self._now_ms(loop)
        chain = self._chain
        chain.tick(now_ms)
        self._next_id += 1
        tier, answer, _ = chain.admit(
            self._next_id, session_id, bitmap, priority, provenance,
            content_key, now_ms,
        )
        if tier == TIER_DIFF or tier == TIER_MEMO:
            return answer
        if tier == TIER_RULE:
            return answer.decision
        if tier == TIER_SHED:
            raise ServeOverloadError(answer)
        future: "asyncio.Future[BlockDecision]" = loop.create_future()
        chain.open[self._next_id] = future
        if self._queue.due(now_ms):
            # defer to a callback instead of flushing inline: submit
            # returns immediately, and a burst of submits already on
            # the ready queue gets to enqueue (or shed) before the
            # flush runs — admission control stays observable
            self._schedule_flush(loop)
        else:
            self._arm_timer(loop)
        return await future

    async def drain(self) -> None:
        """Flush everything still queued, deadline or not, and wait for
        any in-flight executor batches to settle their waiters."""
        loop = asyncio.get_running_loop()
        while True:
            self._start_flush(loop, force=True)
            if not self._inflight:
                break
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)

    async def aclose(self) -> None:
        """Drain pending requests, disarm the flush timer, and refuse
        further submits.  Idempotent."""
        self._closed = True
        await self.drain()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @property
    def depth(self) -> int:
        return self._queue.depth

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _now_ms(self, loop: asyncio.AbstractEventLoop) -> float:
        if self._origin_s is None:
            self._origin_s = loop.time()
        return (loop.time() - self._origin_s) * 1000.0

    def _arm_timer(self, loop: asyncio.AbstractEventLoop) -> None:
        deadline = self._queue.next_deadline_ms()
        if deadline is None or self._timer is not None:
            return
        delay_s = max(deadline - self._now_ms(loop), 0.0) / 1000.0
        self._timer = loop.call_later(delay_s, self._on_deadline, loop)

    def _on_deadline(self, loop: asyncio.AbstractEventLoop) -> None:
        self._timer = None
        try:
            if self._queue.due(self._now_ms(loop)):
                self._start_flush(loop)
        finally:
            # whatever the flush did, requests still queued must keep
            # a live deadline timer — an unarmed partial batch would
            # wait forever
            self._arm_timer(loop)

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._run_flush, loop)

    def _run_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        self._flush_handle = None
        self._start_flush(loop)

    def _start_flush(
        self, loop: asyncio.AbstractEventLoop, force: bool = False
    ) -> None:
        """Flush every due batch — inline on the event-loop thread by
        default, or as tracked tasks computing on the executor."""
        while True:
            flush_ms = self._now_ms(loop)
            batch = self._queue.pop_batch(flush_ms, force=force)
            if batch is None:
                break
            if not self.use_executor:
                try:
                    outcome = self._chain.compute(batch, flush_ms)
                except Exception as exc:
                    outcome = exc
                self._settle(loop, batch, flush_ms, outcome)
                continue
            task = loop.create_task(self._flush_batch(loop, batch, flush_ms))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        # re-arm for whatever is still queued (partial batch)
        if self._timer is None and self._queue.depth:
            self._arm_timer(loop)

    async def _flush_batch(
        self,
        loop: asyncio.AbstractEventLoop,
        batch: List[ServeRequest],
        flush_ms: float,
    ) -> None:
        """Executor-mode flush of one already-popped batch (the pool
        breaker's detach window is the executor call itself)."""
        try:
            outcome = await loop.run_in_executor(
                self._get_executor(), self._chain.compute, batch, flush_ms
            )
        except Exception as exc:
            outcome = exc
        self._settle(loop, batch, flush_ms, outcome)

    def _settle(
        self,
        loop: asyncio.AbstractEventLoop,
        batch: List[ServeRequest],
        flush_ms: float,
        outcome: "tuple | Exception",
    ) -> None:
        """Resolve a flushed batch's awaiters: with the computed
        ``(decisions, capacity)``, or with the exception it raised."""
        if isinstance(outcome, Exception):
            self._chain.fail(batch, outcome, _reject)
            return
        complete_ms = self._now_ms(loop)
        decisions, capacity = outcome
        self._chain.settle(
            batch, decisions, flush_ms, complete_ms, capacity, _resolve
        )
        if self.resilience is not None:
            self.resilience.controller.evaluate(complete_ms)

    def _get_executor(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._executor is None:
            # one thread, on purpose: serializes decide_many (scratch
            # buffers / pool dispatch are not reentrant) while keeping
            # the event loop free during compute
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="percival-serve"
            )
        return self._executor


def _resolve(future: "asyncio.Future[BlockDecision]", decision) -> None:
    if not future.done():
        future.set_result(decision)


def _reject(future: "asyncio.Future[BlockDecision]", exc: Exception) -> None:
    if not future.done():
        future.set_exception(exc)
