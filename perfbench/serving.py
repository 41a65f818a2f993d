"""The ``feed`` and ``revisit`` workloads: closed-loop tabs against an
``AsyncServeFront``.

Four tabs run as coroutines on one event loop.  A tab submits one page
visit's frames at once, awaits every verdict, then takes its next visit;
tabs own whole sessions, so a session's visits never overlap.  Compute
stays on the event-loop thread (``use_executor=False``), so no workload
adds a thread.  A round serves one synthesized trace through a fresh
blocker and front (fresh router and differ on ``revisit``), so every
round over the same trace does the same work.

On ``revisit`` the router's ``route`` is wrapped on the instance in every
round, so the oracle knows which answers came from a rule, and which
rule; the wrapper costs one call and one type check per routed request.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import hostspeed
import knobs
from layers import fit_compute_model, layer_metrics
from measure import median, percentile, tracing_overhead
from tracing import BATCH_PREFIX, FRAMES, NAME, START, Tracer

from repro.cascade.router import (
    TIER_LIST,
    TIER_MICRO,
    CascadeHit,
    CascadeRouter,
)
from repro.core.blocker import BlockDecision
from repro.diff.differ import FrameDiffer
from repro.serve.loop import AsyncServeFront
from repro.serve.session import TrafficSpec, synthesize_traffic
from repro.utils.hashing import image_fingerprint

#: probe runs after each round (each about 2 ms): a round's times are
#: taken to the reference host speed by the probes on either side of it
ROUND_PROBES = 2

#: a fixed frame for the first verdict of set-up (no synthesis involved)
PROBE = np.linspace(0.0, 1.0, 64 * 64 * 4, dtype=np.float32).reshape(
    64, 64, 4
)


class Trace:
    """One synthesized traffic trace, split into per-tab visits."""

    def __init__(self, spec: TrafficSpec, seed: int) -> None:
        self.events = synthesize_traffic(spec)
        self.seed = seed
        self.sessions = spec.sessions
        self.keys = [image_fingerprint(event.bitmap) for event in self.events]
        # what a rule answer is judged by: the request's micro-rule key
        # and its page's domain
        self.micro_keys = [
            event.provenance.micro_key() if event.provenance else None
            for event in self.events
        ]
        self.domains = [
            event.provenance.page_domain if event.provenance else None
            for event in self.events
        ]
        per_session: Dict[str, List[int]] = defaultdict(list)
        for index, event in enumerate(self.events):
            per_session[event.session_id].append(index)
        # a visit is one session's frames within one epoch; the trace
        # emits each session's frames_per_session frames per epoch in
        # time order.  Each tab holds (visit number, request indices).
        size = spec.frames_per_session
        self.tabs: List[List[tuple]] = [[] for _ in range(knobs.TABS)]
        self.visits = 0
        sessions = sorted(per_session)
        epochs = 1 + spec.revisits
        for epoch in range(epochs):
            for number, session in enumerate(sessions):
                visit = per_session[session][epoch * size:(epoch + 1) * size]
                self.tabs[number % knobs.TABS].append((self.visits, visit))
                self.visits += 1


class ServeWorkload:
    def __init__(self, tiers: bool, traffic: dict) -> None:
        self.tiers = tiers
        self.traffic = traffic

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def new_front(self, classifier, sessions: int) -> AsyncServeFront:
        blocker = knobs.blocker(classifier)
        cascade = differ = False
        if self.tiers:
            cascade = CascadeRouter.with_default_filterlist(
                confidence=knobs.CASCADE_CONFIDENCE
            )
            # one snapshot per session: the store holds every session
            differ = FrameDiffer(capacity=max(sessions, 1))
        return AsyncServeFront(
            blocker,
            settings=knobs.serve_settings(),
            use_executor=False,
            cascade=cascade,
            differ=differ,
            chaos=False,
            resilience=False,
        )

    def setup(self, root: str) -> dict:
        """Load, compile and build a front; serve one verdict."""
        classifier = knobs.load_classifier(root)
        front = self.new_front(classifier, TrafficSpec().sessions)

        async def first_verdict() -> BlockDecision:
            decision = await front.submit(PROBE)
            await front.aclose()
            return decision

        asyncio.run(first_verdict())
        return {"classifier": classifier, "front": front}

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def traces(self, seed: int) -> List[Trace]:
        traces = []
        for index in range(knobs.TRACES_PER_RUN):
            trace_seed = seed * 1000 + index
            spec = TrafficSpec(seed=trace_seed, **self.traffic)
            traces.append(Trace(spec, trace_seed))
        return traces

    async def _serve(self, front, trace: Trace, tracer, out: dict) -> None:
        events = trace.events
        answers: List[object] = [None] * len(events)
        requests: List[Optional[tuple]] = [None] * len(events)
        visits: List[Optional[tuple]] = [None] * trace.visits

        async def request(index: int) -> None:
            event = events[index]
            if tracer is not None:
                tracer.owner = f"r{trace.seed}-{index}"
            start = perf_counter()
            try:
                answers[index] = await front.submit(
                    event.bitmap,
                    session_id=event.session_id,
                    priority=event.priority,
                    provenance=event.provenance,
                    content_key=event.content_key,
                )
            except Exception as exc:  # shed, failed batch: counted
                answers[index] = exc
                return
            requests[index] = (start, perf_counter())

        async def tab(tab_visits: List[tuple]) -> None:
            for number, visit in tab_visits:
                start = perf_counter()
                await asyncio.gather(*(request(index) for index in visit))
                visits[number] = (start, perf_counter())

        await asyncio.gather(*(tab(tab_visits) for tab_visits in trace.tabs))
        await front.aclose()
        out.update(answers=answers, requests=requests, visits=visits)

    def run_round(self, runner, selector, classifier, trace,
                  tracer=None) -> dict:
        """Serve ``trace`` once on ``runner``, whose event loop sleeps
        through ``selector``."""
        front = self.new_front(classifier, trace.sessions)
        out: dict = {}
        rule_answers = (
            collect_rule_answers(front.cascade)
            if front.cascade is not None else []
        )
        selector.waits = []
        if tracer is not None:
            instrument(tracer, front)
            with tracer.root("serve.round", f"round-{trace.seed}") as span:
                runner.run(self._serve(front, trace, tracer, out))
            tracer.uninstall()
            start, wall_s = span[START], tracer.duration_s(span)
        else:
            start = perf_counter()
            runner.run(self._serve(front, trace, None, out))
            wall_s = perf_counter() - start
        out.update(
            start=start, end=start + wall_s, wall_s=wall_s,
            waits=selector.waits, rule_answers=rule_answers,
            stats=front_counters(front),
        )
        return out


def collect_rule_answers(cascade) -> list:
    """Wrap ``cascade.route`` on the instance so that every rule hit is
    kept: the front hands its decision to the caller as it is, so the
    oracle tells rule answers apart by identity and knows the tier and
    rule of each."""
    answers: list = []
    route = cascade.route

    def routed(provenance):
        result = route(provenance)
        if isinstance(result, CascadeHit):
            answers.append(result)
        return result

    cascade.route = routed
    return answers


def front_counters(front) -> dict:
    stats = front.stats
    counters = {
        "submitted": stats.submitted,
        "answered": stats.answered,
        "shed": stats.shed,
        "failed": stats.failed,
        "conserved": stats.conserved(),
        "diff_hits": stats.diff_hits,
        "rule_hits": stats.rule_hits,
        "memo_hits": stats.memo_hits,
        "coalesced": stats.coalesced,
        "queued": stats.batched_requests,
        "batches": stats.batches,
        "queue_wait_p50_ms": stats.queue_wait_ms.p50,
        "queue_wait_p99_ms": stats.queue_wait_ms.p99,
        "cascade_routed": 0,
        "cascade_rule_hits": 0,
        "cascade_compiled": 0,
        "cascade_invalidations": 0,
        "diff_recalls": 0,
        "diff_recall_hits": 0,
    }
    if front.cascade is not None:
        cascade = front.cascade.stats
        counters.update(
            cascade_routed=cascade.routed,
            cascade_rule_hits=cascade.rule_hits,
            cascade_compiled=cascade.compiled,
            cascade_invalidations=cascade.invalidations,
        )
    if front.differ is not None:
        counters.update(
            diff_recalls=front.differ.stats.recalls,
            diff_recall_hits=front.differ.stats.recall_hits,
        )
    return counters


def instrument(tracer: Tracer, front) -> None:
    """Wrap every traced entry point the front reaches."""
    blocker = front.blocker
    instrument_blocker(tracer, blocker, tag_batches=True)
    if front.cascade is not None:
        for verb in ("route", "absorb", "reconcile"):
            tracer.patch(front.cascade, verb, f"cascade.{verb}")
    if front.differ is not None:
        for verb in ("recall", "remember"):
            tracer.patch(front.differ, verb, f"diff.{verb}")


def _frames(args) -> int:
    return len(args[0])


def instrument_blocker(tracer: Tracer, blocker, tag_batches: bool) -> None:
    """Spans around the blocker, preprocessing, classifier, plan ops and
    pool.  With ``tag_batches`` each ``decide_many`` owns a fresh batch
    id, which the feedback spans that follow it in the flush inherit."""
    import repro.core.blocker as blocker_module

    batches = [0]

    def owner() -> str:
        batches[0] += 1
        return f"{BATCH_PREFIX}{batches[0]}"

    def count(args, result) -> None:
        tracer.count("blocker.memo_hits", sum(d.from_cache for d in result))
        tracer.count("blocker.unique_misses", len(
            {id(d) for d in result if not d.from_cache}
        ))

    tracer.patch(blocker, "fingerprint", "hashing.fingerprint")
    tracer.patch(blocker, "memoized_decision", "blocker.memo_probe")
    tracer.patch(
        blocker, "decide_many", "blocker.decide_many", frames=_frames,
        owner=owner if tag_batches else None, after=count,
    )
    tracer.patch(
        blocker_module, "preprocess_batch", "preprocessing", frames=_frames
    )
    classifier = blocker.classifier
    tracer.patch(
        classifier, "predict_proba_tensor", "classifier.predict",
        frames=_frames,
    )
    for index, op in enumerate(classifier.inference_plan.ops):
        tracer.patch(op, "run", f"inference.op{index:02d}", frames=_frames)
    if blocker.pool is not None:
        tracer.patch(
            blocker.pool, "predict_proba", "workerpool.predict",
            frames=_frames,
        )


# ----------------------------------------------------------------------
# Correctness oracle
# ----------------------------------------------------------------------
def reference_decisions(classifier, traces: List[Trace]) -> Dict[str, tuple]:
    """fingerprint -> (P(ad), is_ad) from a fresh pool-less, tier-less
    blocker over every unique frame of the run's traces, decided in
    batches no larger than the front's, so the oracle's own batches do
    not set the run's peak memory."""
    blocker = knobs.blocker(classifier, memo_capacity=knobs.MEMO_CAPACITY * 4)
    unique: Dict[str, np.ndarray] = {}
    for trace in traces:
        for key, event in zip(trace.keys, trace.events):
            unique.setdefault(key, event.bitmap)
    keys = list(unique)
    size = knobs.serve_settings().max_batch
    oracle: Dict[str, tuple] = {}
    for offset in range(0, len(keys), size):
        chunk = keys[offset:offset + size]
        decisions = blocker.decide_many(
            [unique[key] for key in chunk], keys=chunk
        )
        for key, decision in zip(chunk, decisions):
            oracle[key] = (decision.probability, decision.is_ad)
    return oracle


def rule_sources(trace: Trace, oracle, confidence: float) -> dict:
    """micro key -> the reference (P(ad), is_ad) of every frame of the
    trace with that key that the model decides at least ``confidence``
    sure: the verdicts a micro-rule of that key may be compiled from."""
    sources: Dict[str, list] = defaultdict(list)
    for key, micro_key in zip(trace.keys, trace.micro_keys):
        probability, is_ad = oracle[key]
        if micro_key and max(probability, 1.0 - probability) >= confidence:
            sources[micro_key].append((probability, is_ad))
    return sources


def rule_answer_holds(hit: CascadeHit, index: int, trace: Trace,
                      sources: dict, tolerance: float) -> bool:
    """Whether a rule hit answered request ``index`` as its tier says:
    a micro-rule keyed by the request's site, source and shape with a
    confident reference verdict of a frame of that key (P(ad) within
    ``tolerance``), or a filterlist rule of the request's page that
    blocks (P(ad) 1.0)."""
    decision = hit.decision
    if hit.tier == TIER_MICRO:
        return hit.rule_key == trace.micro_keys[index] and any(
            is_ad == decision.is_ad
            and abs(probability - decision.probability) <= tolerance
            for probability, is_ad in sources.get(hit.rule_key, ())
        )
    if hit.tier == TIER_LIST:
        return (
            decision.is_ad and decision.probability == 1.0
            and hit.rule_key.startswith(f"list|{trace.domains[index]}|")
        )
    return False


def check_round(trace: Trace, out: dict, oracle, tolerance: float,
                confidence: float = knobs.CASCADE_CONFIDENCE) -> dict:
    """Outcome of one round against the reference decisions.

    A rule-tier answer (known by identity, see
    :func:`collect_rule_answers`) carries its rule's verdict and
    probability, not the frame's, so it must come from a rule of the
    request that its tier could have made (:func:`rule_answer_holds`);
    where its ``is_ad`` still differs from the frame's reference, that
    is a ``disagreement``, which the run records and does not count as
    failed.  Every other answer (diff, memo, coalesced or batched) must
    carry the reference P(ad) within ``tolerance``.  An answer that
    does not hold, and a ledger that does not balance, are
    ``mismatches``.
    """
    errors = mismatches = disagreements = 0
    hits = {id(hit.decision): hit for hit in out["rule_answers"]}
    sources = rule_sources(trace, oracle, confidence) if hits else {}
    for index, (key, answer) in enumerate(zip(trace.keys, out["answers"])):
        if not isinstance(answer, BlockDecision):
            errors += 1
            continue
        probability, is_ad = oracle[key]
        hit = hits.get(id(answer))
        if hit is not None:
            if not rule_answer_holds(hit, index, trace, sources, tolerance):
                mismatches += 1
            disagreements += answer.is_ad != is_ad
        elif abs(answer.probability - probability) > tolerance:
            mismatches += 1
    if not out["stats"]["conserved"]:
        mismatches += 1
    return {
        "errors": errors,
        "mismatches": mismatches,
        "disagreements": disagreements,
    }


def verdict_digest(out: dict) -> str:
    """Short hash of a round's verdicts, in request order."""
    hasher = hashlib.sha256()
    for answer in out["answers"]:
        hasher.update(b"1" if getattr(answer, "is_ad", None) else b"0")
    return hasher.hexdigest()[:16]


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------
def scaled_round(out: dict, factor: float) -> dict:
    """A round's wall time (s), and each request's and visit's time (ms;
    None where the request raised), with the work in them multiplied by
    the round's host-speed factor and the event loop's sleeps left as
    they were."""
    waits = hostspeed.Waits(out["waits"])

    def scaled_ms(stamps):
        return None if stamps is None else waits.scale(*stamps, factor) * 1e3

    return {
        "wall_s": waits.scale(out["start"], out["end"], factor),
        "requests": [scaled_ms(stamps) for stamps in out["requests"]],
        "visits": [scaled_ms(stamps) for stamps in out["visits"]],
    }


def run_metrics(rounds: Dict[int, List[dict]]) -> dict:
    """End-to-end values of a run from every trace's
    :func:`scaled_round` results.

    Rounds over one trace do the same work, so each request's and each
    visit's time is first reduced to its median over those rounds, and
    a trace's wall time to its median round: a stall of the host during
    one round does not reach the tail percentiles.  The percentiles are
    then taken over the requests and visits of every trace.
    """
    answered = wall_s = 0.0
    latency_ms: List[float] = []
    visit_ms: List[float] = []
    for samples in rounds.values():
        wall_s += median([sample["wall_s"] for sample in samples])
        for times in zip(*(sample["requests"] for sample in samples)):
            served = [time for time in times if time is not None]
            if served:
                latency_ms.append(median(served))
                answered += 1
        for times in zip(*(sample["visits"] for sample in samples)):
            visit_ms.append(median(times))
    visit_p50 = percentile(visit_ms, 50)
    return {
        "verdicts_per_s": answered / wall_s,
        "verdict_p50_ms": percentile(latency_ms, 50),
        "verdict_p99_ms": percentile(latency_ms, 99),
        "page_p50_ms": visit_p50,
        "page_p95_ms": percentile(visit_ms, 95),
        # a visit renders nothing without PERCIVAL: the paired baseline
        # is 0, so the overhead is the visit time itself
        "overhead_ms_p50": visit_p50,
    }


def run(workload: ServeWorkload, state: dict, seed: int, seconds: float,
        trace_mode: bool) -> dict:
    classifier = state["classifier"]
    tolerance = classifier.fast_path_tolerance
    traces = workload.traces(seed)
    oracle = reference_decisions(classifier, traces)

    attempted = failed = 0
    mismatched = disagreements = 0
    rounds: Dict[int, List[dict]] = defaultdict(list)
    raw_rounds: Dict[int, List[dict]] = defaultdict(list)
    scales: List[float] = []
    first_seen: Dict[int, dict] = {}
    tracer = Tracer() if trace_mode else None
    traced_rounds: List[dict] = []
    pairs: List[tuple] = []
    elapsed = 0.0
    cycle = 0

    def account(trace, out) -> None:
        nonlocal attempted, failed, mismatched, disagreements
        outcome = check_round(trace, out, oracle, tolerance)
        attempted += len(trace.events)
        failed += outcome["errors"] + outcome["mismatches"]
        mismatched += outcome["mismatches"]
        disagreements += outcome["disagreements"]
        if trace.seed not in first_seen:
            first_seen[trace.seed] = {
                "verdicts": verdict_digest(out),
                "tiers": {
                    key: out["stats"][key] for key in (
                        "diff_hits", "rule_hits", "memo_hits",
                        "coalesced", "queued",
                    )
                },
            }

    selector = hostspeed.WaitSelector()
    slept_s = 0.0
    probes = [hostspeed.probe_ms(ROUND_PROBES)]
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(selector)
    ) as runner:
        while elapsed < seconds or cycle == 0:
            served = []
            for trace in traces:
                if not trace_mode:
                    out = workload.run_round(
                        runner, selector, classifier, trace
                    )
                    probes.append(hostspeed.probe_ms(ROUND_PROBES))
                    account(trace, out)
                    served.append(out)
                    elapsed += out["wall_s"]
                    slept_s += sum(end - start for start, end in out["waits"])
                    continue
                # paired rounds on the same trace, alternating which
                # goes first, give the tracing overhead
                order = (False, True) if cycle % 2 == 0 else (True, False)
                walls = {}
                for traced in order:
                    out = workload.run_round(
                        runner, selector, classifier, trace,
                        tracer if traced else None,
                    )
                    account(trace, out)
                    elapsed += out["wall_s"]
                    walls[traced] = out["wall_s"]
                    if traced:
                        traced_rounds.append(out["stats"])
                pairs.append((walls[False], walls[True]))
            if not trace_mode:
                factors = hostspeed.scales(probes)
                for trace, out, factor in zip(traces, served, factors):
                    rounds[trace.seed].append(scaled_round(out, factor))
                    raw_rounds[trace.seed].append(scaled_round(out, 1.0))
                scales.extend(factors)
                probes = probes[-1:]
            cycle += 1

    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": mismatched == 0,
        "record": {
            "per_trace": first_seen,
            "rounds": cycle * len(traces),
            "rule_disagreements": disagreements,
            "mismatches": mismatched,
        },
    }
    if not trace_mode:
        result["metrics"] = run_metrics(rounds)
        result["record"]["raw_metrics"] = run_metrics(raw_rounds)
        result["record"]["host_scales"] = scales
        # share of the rounds' wall time the event loop slept on timers
        result["record"]["slept_frac"] = slept_s / elapsed
        return result

    batches = [
        (span[FRAMES], tracer.duration_s(span) * 1e3)
        for span in tracer.spans if span[NAME] == "blocker.decide_many"
    ]
    metrics = layer_metrics(tracer, len(traced_rounds), serve=traced_rounds)
    bitmaps, seen = [], set()
    for trace in traces:
        for key, event in zip(trace.keys, trace.events):
            if key not in seen:
                seen.add(key)
                bitmaps.append(event.bitmap)
    metrics.update(fit_compute_model(classifier, bitmaps, batches))
    overhead = tracing_overhead(pairs)
    metrics["trace.overhead_frac"] = overhead["overhead_frac"]
    result["record"]["trace_overhead"] = overhead
    result["metrics"] = metrics
    result["tracer"] = tracer
    # one traced pass over every trace: the part every run records
    result["digest_roots"] = len(traces)
    return result


FEED = ServeWorkload(tiers=False, traffic=knobs.FEED_TRAFFIC)
REVISIT = ServeWorkload(tiers=True, traffic=knobs.REVISIT_TRAFFIC)
