"""In-memory spans around the benchmark's calls into each layer.

Spans are recorded only by the benchmark's own code, around public calls
into ``repro`` (see ``ledger.json`` for which call each layer name covers).
They stay in memory and are written out once, when the run ends.

:func:`layer_ledger` turns the spans under one root into a time budget that
adds up to the root's wall time: every instant is charged to the innermost
spans open at that instant, split evenly when several threads have spans
open at once, and instants covered by the root alone are the unattributed
remainder.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, layer, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.attrs = None

    def as_dict(self) -> Dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    """Thread-aware span recorder.

    A span's parent is the innermost span open on the same thread, or
    ``adopt`` — the span a thread-pool thread inherits when it has no span
    of its own open (the campaign's installment threads).
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.adopt: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        stack = self._stack()
        parent = stack[-1].id if stack else self.adopt
        record = Span(next(self._ids), parent, name, layer, time.perf_counter())
        if attrs:
            record.attrs = attrs
        with self._lock:
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` with every call recorded as a span."""

        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def descendants(self, root: Span) -> List[Span]:
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
        found, frontier = [], [root]
        while frontier:
            span = frontier.pop()
            found.append(span)
            frontier.extend(children.get(span.id, ()))
        return found

    def named(self, root: Span, name: str) -> List[Span]:
        return [s for s in self.descendants(root) if s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def layer_ledger(tracer: Tracer, root: Span) -> Dict[str, float]:
    """Self time per layer under ``root``; ``"(unattributed)"`` is the rest.

    The values sum to ``root.end - root.start`` (up to float rounding).
    """
    spans = tracer.descendants(root)
    index = {span.id: span for span in spans}
    events = []
    for span in spans:
        events.append((span.start, 1, span.id, span))
        events.append((span.end, 0, -span.id, span))
    # Ends before starts at equal times; parents open before and close
    # after their children.
    events.sort(key=lambda event: event[:3])
    open_children: Dict[int, int] = {}
    active = set()
    leaves = set()
    ledger: Dict[str, float] = {}
    previous = root.start
    for moment, is_start, _order, span in events:
        if leaves and moment > previous:
            share = (moment - previous) / len(leaves)
            for leaf in leaves:
                key = "(unattributed)" if leaf is root else leaf.layer
                ledger[key] = ledger.get(key, 0.0) + share
        previous = max(previous, moment)
        parent_open = span.parent in active
        if is_start:
            active.add(span.id)
            open_children[span.id] = 0
            leaves.add(span)
            if parent_open:
                open_children[span.parent] += 1
                leaves.discard(index[span.parent])
        else:
            active.discard(span.id)
            leaves.discard(span)
            if parent_open:
                open_children[span.parent] -= 1
                if open_children[span.parent] == 0:
                    leaves.add(index[span.parent])
    return ledger

