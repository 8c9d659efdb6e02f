"""In-memory span tracer that wraps public names from outside the package.

A span is recorded around each call to a wrapped name: its metric name,
start, end and parent span.  Parents are tracked per thread; a worker of a
thread pool created inside a traced call inherits the submitting thread's
open span as its parent, so batches run on pool threads are children of the
``make_solution`` span that fanned them out.

Nothing here edits the package: ``patch`` replaces an attribute on the
module or class where the calling code looks the name up, and ``restore``
puts every original back.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "extra")

    def __init__(self, sid, name, start, end, parent, thread, extra):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.extra = extra

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``dump`` writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread (or its inherited parent)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def wrap(self, name: str, fn, extra=None):
        """Return ``fn`` wrapped in a span; ``extra(args, result)`` may attach
        a dict of counts to the span after the call has been timed."""
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current()
            sid = next(tracer._ids)
            stack = tracer._stack()
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = extra(args, result) if extra is not None else None
            tracer.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), info))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, extra=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, extra))

    def patch_pool(self, module) -> None:
        """Replace ``module.ThreadPoolExecutor`` by a pool whose tasks inherit
        the submitting thread's open span as their parent."""
        tracer = self

        class InheritingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **kw):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.inherited = None

                return super().submit(run, *args, **kwargs)

        self._undo.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = InheritingPool

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write one JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "thread": s.thread, "extra": s.extra,
                }) + "\n")


class SpanIndex:
    """Parent/child relations of a finished span list, for self times and
    per-name totals that do not double count nested spans of one name."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def ancestors(self, span: Span):
        sid = span.parent
        while sid is not None and sid in self.by_id:
            anc = self.by_id[sid]
            yield anc
            sid = anc.parent

    def outermost(self, name: str) -> list[Span]:
        """Spans of this name that have no ancestor of the same name."""
        return [s for s in self.spans if s.name == name
                and not any(a.name == name for a in self.ancestors(s))]

    def under(self, name: str, ancestor: str) -> list[Span]:
        """Outermost spans of ``name`` that run inside a span of ``ancestor``."""
        return [s for s in self.outermost(name)
                if any(a.name == ancestor for a in self.ancestors(s))]

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the intervals its children cover."""
        kids = sorted((max(c.start, span.start), min(c.end, span.end))
                      for c in self.children.get(span.sid, ()))
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in kids:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return span.duration - covered
