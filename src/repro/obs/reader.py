"""Offline trace analysis: load a trace directory and roll it up.

A trace directory holds one ``trace-<pid>.jsonl`` file per process that
wrote into the trace.  Loading is torn-line tolerant with the same
contract as the campaign :class:`~repro.parallel.campaign.JsonlSink`: a
line that fails to parse (a process died mid-write) is counted and
skipped, never fatal.

The rollup walks the span tree bottom-up: every span and event is
attributed to its enclosing *run* span (one sharded estimate) by following
``parent`` ids, and runs are attributed to their *cell* / *campaign* spans
the same way.  Supervision events (``supervision.dispatch`` /
``supervision.failure`` / ``supervision.retry`` / ``supervision.quarantine``)
and chaos events (``chaos.inject``) reconstruct the full attempt history
per run — the flight-recorder view the supervisor's in-memory
:class:`~repro.parallel.supervision.RunReport` gives up when the process
exits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import merge_snapshots


class Trace:
    """One loaded trace: parsed records plus the span/parent index."""

    def __init__(self, records: List[Dict], torn_lines: int = 0, files: int = 0):
        self.records = records
        self.torn_lines = torn_lines
        self.files = files
        self.spans = [r for r in records if r.get("kind") == "span"]
        self.events = [r for r in records if r.get("kind") == "event"]
        self.metrics_records = [r for r in records if r.get("kind") == "metrics"]
        self.by_id: Dict[str, Dict] = {
            r["id"]: r for r in self.spans if r.get("id") is not None
        }

    def ancestor(self, record: Dict, name: str) -> Optional[Dict]:
        """The nearest enclosing span named ``name`` (following parents).

        Checks the record itself first, so a run span is its own "run"
        ancestor.  A missing parent (open span lost to a crash, or a torn
        line) ends the walk.
        """
        seen = set()
        current: Optional[Dict] = record
        while current is not None:
            if current.get("kind") == "span" and current.get("name") == name:
                return current
            parent = current.get("parent")
            if parent is None or parent in seen:
                return None
            seen.add(parent)
            current = self.by_id.get(parent)
        return None

    def named(self, name: str) -> List[Dict]:
        return [s for s in self.spans if s.get("name") == name]

    def merged_metrics(self) -> Dict:
        merged: Dict = {}
        for record in self.metrics_records:
            merged = merge_snapshots(merged, record.get("metrics"))
        return merged


def load_trace(path) -> Trace:
    """Load every ``trace-*.jsonl`` file under ``path``, skipping torn lines."""
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"trace directory not found: {directory}")
    records: List[Dict] = []
    torn = 0
    files = 0
    for trace_file in sorted(directory.glob("trace-*.jsonl")):
        files += 1
        with trace_file.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    torn += 1
                    continue
                if isinstance(record, dict) and record.get("kind"):
                    records.append(record)
                else:
                    torn += 1
    records.sort(key=lambda r: r.get("ts", 0.0))
    return Trace(records, torn_lines=torn, files=files)


def _run_label(trace: Trace, run_span: Dict) -> str:
    cell = trace.ancestor(run_span, "cell")
    if cell is not None:
        key = (cell.get("attrs") or {}).get("key")
        if key:
            return str(key)
    run_id = (run_span.get("attrs") or {}).get("run_id")
    return f"run#{run_id}" if run_id is not None else run_span.get("id", "?")


def summarize_runs(trace: Trace) -> List[Dict]:
    """Per-run rollup: attempts, retries, faults, chunk timing.

    Each entry describes one *run* span.  Attempt history comes from
    parent-side supervision events (crash-proof), or for an unsupervised
    run from its shard spans, one attempt each; chunk statistics from
    the worker-side chunk spans; injected faults from the chaos events.
    """
    rollups: Dict[str, Dict] = {}
    order: List[str] = []
    for run_span in trace.named("run"):
        run_id = run_span["id"]
        attrs = run_span.get("attrs") or {}
        rollups[run_id] = {
            "label": _run_label(trace, run_span),
            "span_id": run_id,
            "status": run_span.get("status", "ok"),
            "duration_sec": run_span.get("dur", 0.0),
            "executor": attrs.get("executor"),
            "shards": attrs.get("shards"),
            "trials": attrs.get("trials_run", attrs.get("trials")),
            "accepted": attrs.get("accepted"),
            "dispatches": 0,
            "retries": 0,
            "timeouts": 0,
            "quarantined": 0,
            "heartbeat_misses": 0,
            "pool_repairs": 0,
            "failures": [],
            "faults": {},
            "attempts": [],
            "chunks": 0,
            "chunk_trials": 0,
            "chunk_time_sec": 0.0,
        }
        order.append(run_id)

    for event in trace.events:
        run = trace.ancestor(event, "run")
        if run is None or run["id"] not in rollups:
            continue
        rollup = rollups[run["id"]]
        name = event.get("name")
        attrs = event.get("attrs") or {}
        if name == "supervision.dispatch":
            rollup["dispatches"] += 1
            rollup["attempts"].append(
                {
                    "shard": attrs.get("shard"),
                    "attempt": attrs.get("attempt"),
                    "ts": event.get("ts"),
                }
            )
            if attrs.get("attempt", 0) > 0:
                rollup["retries"] += 1
        elif name == "supervision.failure":
            rollup["failures"].append(
                {
                    "shard": attrs.get("shard"),
                    "attempt": attrs.get("attempt"),
                    "kind": attrs.get("fail_kind"),
                    "elapsed_sec": attrs.get("elapsed_sec"),
                }
            )
            if attrs.get("fail_kind") == "timeout":
                # A supervision timeout *is* a missed heartbeat deadline.
                rollup["timeouts"] += 1
                rollup["heartbeat_misses"] += 1
        elif name == "supervision.quarantine":
            rollup["quarantined"] += 1
        elif name == "supervision.pool_repair":
            rollup["pool_repairs"] += 1
        elif name == "chaos.inject":
            fault = attrs.get("fault", "?")
            rollup["faults"][fault] = rollup["faults"].get(fault, 0) + 1

    # An unsupervised run emits no dispatch events: each of its shard spans
    # is the one attempt that shard got.
    supervised = {run_id for run_id, rollup in rollups.items() if rollup["dispatches"]}
    for shard in trace.named("shard"):
        run = trace.ancestor(shard, "run")
        if run is None or run["id"] not in rollups or run["id"] in supervised:
            continue
        rollup = rollups[run["id"]]
        rollup["attempts"].append(
            {
                "shard": (shard.get("attrs") or {}).get("shard"),
                "attempt": 0,
                "ts": shard.get("ts"),
            }
        )
        rollup["dispatches"] += 1

    for chunk in trace.named("chunk"):
        run = trace.ancestor(chunk, "run")
        if run is None or run["id"] not in rollups:
            continue
        rollup = rollups[run["id"]]
        rollup["chunks"] += 1
        rollup["chunk_trials"] += (chunk.get("attrs") or {}).get("chunk_trials", 0)
        rollup["chunk_time_sec"] += chunk.get("dur", 0.0)

    for rollup in rollups.values():
        rollup["attempts"].sort(
            key=lambda a: (a.get("shard") or 0, a.get("attempt") or 0)
        )
    return [rollups[run_id] for run_id in order]


def slowest_spans(trace: Trace, top: int = 10, name: Optional[str] = None) -> List[Dict]:
    spans = trace.spans if name is None else trace.named(name)
    return sorted(spans, key=lambda s: s.get("dur", 0.0), reverse=True)[:top]


def to_chrome_trace(trace: Trace) -> Dict:
    """Render as Chrome trace-event JSON (the ``about://tracing`` format).

    Spans become complete ``"X"`` events (microsecond ``ts``/``dur``),
    point events become instant ``"i"`` events; pids/tids map directly.
    """
    trace_events: List[Dict] = []
    for span in trace.spans:
        trace_events.append(
            {
                "name": span.get("name", "?"),
                "cat": "span",
                "ph": "X",
                "ts": span.get("ts", 0.0) * 1e6,
                "dur": span.get("dur", 0.0) * 1e6,
                "pid": span.get("pid", 0),
                "tid": span.get("tid", 0),
                "args": dict(
                    span.get("attrs") or {},
                    status=span.get("status", "ok"),
                    span_id=span.get("id"),
                    parent=span.get("parent"),
                ),
            }
        )
    for event in trace.events:
        trace_events.append(
            {
                "name": event.get("name", "?"),
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": event.get("ts", 0.0) * 1e6,
                "pid": event.get("pid", 0),
                "tid": event.get("tid", 0),
                "args": dict(event.get("attrs") or {}, parent=event.get("parent")),
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
