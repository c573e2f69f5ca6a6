"""Layer tracing for the traced benchmark runs.

The benchmark never edits the program.  It replaces public functions
and methods of ``repro`` with timing wrappers, at the name each call
site looks up (a module attribute for a function imported with
``from ... import``, a class attribute for a method), before the
workload is set up.

Two kinds of wrapper:

* a **span** records name, start, end, parent span and query id.
  Spans stay in memory and are written once, at exit, as Chrome
  trace-event JSON;
* a **tally** is for calls made once per packet.  It adds the call's
  time and count to an accumulator keyed by the enclosing span's name
  and to the parent's child time, and records no span.

A layer's self time is its span's duration minus the time of the
spans and tallies nested in it.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional

ROOT = "bench"

# Stack frame fields.
_NAME, _START, _CHILD, _QID, _INDEX = range(5)


class Tracer:
    """Spans, self times, call counts and per-parent tallies of one
    traced process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: List[list] = []
        #: (name, start, duration, parent index, query id)
        self.spans: List[Optional[tuple]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        #: Time of outermost calls only (nested same-name calls fold in).
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: (parent span name, tally name) -> [calls, seconds]
        self.tallies: Dict[tuple, list] = {}
        #: Program objects -> query id (tenant), without keeping them
        #: alive.
        self.query_of = weakref.WeakKeyDictionary()
        self._patches: List[tuple] = []

    # -- wrappers ------------------------------------------------------------
    def span(self, name: str, fn: Callable,
             qid: Optional[Callable] = None,
             pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span.  ``qid(args)`` names the query the
        call serves (default: the parent's); ``pre(args)`` captures
        state before the call and ``post(args, result, state)`` turns
        it into counts."""
        tracer = self
        clock = self.clock
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            query = qid(args) if qid is not None else None
            if query is None and parent is not None:
                query = parent[_QID]
            state = pre(args) if pre is not None else None
            frame = [name, 0.0, 0.0, query, len(spans)]
            spans.append(None)
            stack.append(frame)
            frame[_START] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_time[name] += duration - frame[_CHILD]
                if parent is None or parent[_NAME] != name:
                    tracer.calls[name] += 1
                    tracer.inclusive[name] += duration
                if parent is not None:
                    parent[_CHILD] += duration
                spans[frame[_INDEX]] = (
                    name, start, duration,
                    parent[_INDEX] if parent is not None else -1, query)
            if post is not None:
                post(args, result, state)
            return result

        return wrapper

    def tally(self, name: str, fn: Callable,
              pre: Optional[Callable] = None,
              post: Optional[Callable] = None) -> Callable:
        """Wrap a per-packet ``fn``: time and count only."""
        tracer = self
        clock = self.clock
        stack = self.stack
        tallies = self.tallies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args) if pre is not None else None
            start = clock()
            result = fn(*args, **kwargs)
            duration = clock() - start
            if stack:
                parent = stack[-1]
                parent[_CHILD] += duration
                key = (parent[_NAME], name)
            else:
                key = (ROOT, name)
            slot = tallies.get(key)
            if slot is None:
                tallies[key] = [1, duration]
            else:
                slot[0] += 1
                slot[1] += duration
            tracer.self_time[name] += duration
            tracer.inclusive[name] += duration
            tracer.calls[name] += 1
            if post is not None:
                post(args, result, state)
            return result

        return wrapper

    def patch(self, owner, attr: str, kind: str, name: str,
              **hooks) -> None:
        """Replace ``owner.attr`` with a span or tally wrapper."""
        wrap = self.span if kind == "span" else self.tally
        self.replace(owner, attr,
                     lambda original: wrap(name, original, **hooks))

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(original)`` until
        :meth:`unpatch`."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched name (last patched first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def root_seconds(self) -> float:
        return self.inclusive.get(ROOT, 0.0)

    def attributed_seconds(self) -> float:
        """Self time of every program layer (benchmark spans excluded)."""
        return sum(seconds for name, seconds in self.self_time.items()
                   if not name.startswith(ROOT))

    def chrome_trace(self) -> Dict:
        """Chrome trace-event JSON (the ``traceEvents`` array form, as
        ``repro.obs.spans`` writes it), with wall-clock microseconds."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": "perfbench traced run"}}]
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, duration, parent, query = span
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": 0,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": {"id": index, "parent": parent, "query": query},
            })
        tallies = [{"parent": parent, "name": name, "calls": calls,
                    "seconds": seconds}
                   for (parent, name), (calls, seconds)
                   in sorted(self.tallies.items())]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"tallies": tallies}}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle, separators=(",", ":"))

    def summary(self) -> Dict:
        """Self times, outermost-call times, calls and counts."""
        return {
            "self_s": dict(self.self_time),
            "inclusive_s": dict(self.inclusive),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "root_s": self.root_seconds(),
            "attributed_s": self.attributed_seconds(),
            "spans": sum(1 for span in self.spans if span is not None),
        }
