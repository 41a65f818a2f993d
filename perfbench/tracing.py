"""In-memory span recorder that wraps the program's entry points from
outside.

The program itself carries no tracing: :class:`Tracer` replaces a public
entry point (an instance method, or a function the caller looks up in a
module) with a wrapper that records one span per call, and puts the
original back on :meth:`Tracer.uninstall`.  Everything a workload runs
is single-threaded and no wrapped call spans an ``await``, so spans nest
strictly and one stack gives every span its parent.

A span is ``[name, start_s, end_s, parent_index, owner_id, frames]``:
``owner_id`` is the request, batch or page the span worked for, and
``frames`` the batch size the call received (0 where it has none).
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, OWNER, FRAMES = range(6)

#: owner ids of spans that work for a whole batch start with this
BATCH_PREFIX = "batch-"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        #: id of the request/batch/page the next span works for; the
        #: workload sets it before handing control to the program
        self.owner = ""
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        frames: Optional[Callable] = None,
        owner: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with one span recorded per call.  ``frames(args)``
        gives the span's batch size; ``owner()`` a new owner id the span
        and everything after it works for; ``after(args, result)`` runs
        once the span has closed (counting, kept out of the span)."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if owner is not None:
                self.owner = owner()
            index = len(spans)
            record = [
                name, 0.0, 0.0, stack[-1] if stack else -1, self.owner,
                frames(args) if frames is not None else 0,
            ]
            spans.append(record)
            stack.append(index)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, name: str, owner: str):
        """A top-level span: a serve round or one page render."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside a span")
        self.owner = owner
        index = len(self.spans)
        record = [name, 0.0, 0.0, -1, owner, 0]
        self.spans.append(record)
        self._stack.append(index)
        record[START] = perf_counter()
        try:
            yield record
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    @staticmethod
    def duration_s(span: list) -> float:
        return span[END] - span[START]

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch(self, target: object, attr: str, name: str, **options) -> None:
        """Replace ``target.attr`` with a traced wrapper (``options`` as
        for :meth:`wrap`) until :meth:`uninstall`.  On an instance the
        wrapper shadows the class attribute; on a module it replaces the
        global the program looks up at call time."""
        had_own = attr in vars(target)
        original = getattr(target, attr)
        setattr(target, attr, self.wrap(name, original, **options))
        self._patches.append((target, attr, had_own, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patched first."""
        while self._patches:
            target, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: its duration minus the time its children cover
        (children never overlap each other on one thread)."""
        own = [self.duration_s(span) for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= self.duration_s(span)
        return own

    def digest(self, roots: int) -> str:
        """Hash of the structure of the first ``roots`` root spans and
        everything under them, timestamps left out: each span's name,
        its parent's name, owner id and batch size.  Spans a batch owns
        are left out, and the rest are hashed in sorted order: which
        requests share a batch, and the order requests interleave in,
        depend on wall-clock deadlines; what each request went through
        does not."""
        lines = []
        seen = 0
        for span in self.spans:
            parent = span[PARENT]
            if parent < 0:
                seen += 1
                if seen > roots:
                    break
            if span[OWNER].startswith(BATCH_PREFIX):
                continue
            parent_name = self.spans[parent][NAME] if parent >= 0 else ""
            lines.append(
                f"{span[NAME]}|{parent_name}|{span[OWNER]}|{span[FRAMES]}"
            )
        lines.sort()
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, times in ms from the first."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span[NAME],
                    "start_ms": (span[START] - origin) * 1e3,
                    "end_ms": (span[END] - origin) * 1e3,
                    "parent": span[PARENT],
                    "id": span[OWNER],
                    "frames": span[FRAMES],
                }) + "\n")
