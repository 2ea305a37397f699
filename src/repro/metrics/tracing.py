"""Chrome-trace export of offload timelines.

Converts a :class:`~repro.simtime.timeline.Timeline` into the Trace Event
Format consumed by ``chrome://tracing`` and Perfetto (https://ui.perfetto.dev):
one track per resource, one complete event per span, phases as categories.
Simulated seconds map to microseconds.

    report = offload(...)
    write_chrome_trace(report.timeline, "offload.trace.json")
    # then open the file in Perfetto

Beyond the per-span ``X`` events the exporter emits:

* ``C`` (counter) tracks — ``active workers`` from overlapping COMPUTE
  spans, and ``in-flight bytes`` when the optional ``events`` stream
  (:class:`~repro.obs.events.MapUpload`/``MapDownload``) is provided;
* ``s``/``f`` (flow) events linking each RETRY_BACKOFF span to the RESUBMIT
  span it led to, so a retry deep in the storage layer visually connects to
  the Spark resubmission it triggered — and each SPECULATION launch span to
  the speculative copy's first worker span (``[<stage>/]task-<id>-spec``), so a
  straggler rescue reads as one arrow from the driver to the winning worker;
* an optional **critical path** highlight track (pass ``critical=``, e.g.
  :attr:`~repro.obs.profile.OffloadProfile.critical_spans`): the profiler's
  chain re-emitted on its own thread row, so the spans that gated the
  makespan read as one contiguous lane above the per-resource tracks.

Span events are sorted by ``(start, end, resource)`` before emission, so
tracks never interleave out of order for late-registered resources and the
output is byte-stable for identical timelines.

The CLI exposes it as ``python -m repro run <bench> --trace out.json``.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.simtime.timeline import Phase, Span, Timeline, parse_task_label

#: Trace Event phase codes this exporter emits.
PHASE_COMPLETE = "X"
PHASE_METADATA = "M"
PHASE_COUNTER = "C"
PHASE_FLOW_START = "s"
PHASE_FLOW_END = "f"


def _sorted_spans(timeline: Timeline) -> list[Span]:
    return sorted(timeline.spans, key=lambda s: (s.start, s.end, s.resource))


def _counter_events(spans: list[Span], events: Iterable[Any]) -> list[dict[str, Any]]:
    """Perfetto counter tracks: active workers + in-flight wire bytes."""
    out: list[dict[str, Any]] = []

    # Concurrent COMPUTE spans: the cluster's busy-worker profile.
    deltas: list[tuple[float, int]] = []
    for s in spans:
        if s.phase is Phase.COMPUTE and s.duration > 0:
            deltas.append((s.start, +1))
            deltas.append((s.end, -1))
    running = 0
    for ts, step in sorted(deltas):
        running += step
        out.append({
            "name": "active workers", "ph": PHASE_COUNTER, "pid": 1,
            "ts": ts * 1e6, "args": {"workers": running},
        })

    # Wire bytes in flight on the WAN, from MapUpload/MapDownload events.
    byte_deltas: list[tuple[float, int]] = []
    for e in events:
        if getattr(e, "kind", "") in ("map_upload", "map_download"):
            byte_deltas.append((e.start, +e.bytes_wire))
            byte_deltas.append((e.end, -e.bytes_wire))
    in_flight = 0
    for ts, step in sorted(byte_deltas):
        in_flight += step
        out.append({
            "name": "in-flight bytes", "ph": PHASE_COUNTER, "pid": 1,
            "ts": ts * 1e6, "args": {"bytes": in_flight},
        })
    return out


def _flow_events(spans: list[Span], tids: dict[str, int]) -> list[dict[str, Any]]:
    """Link each RETRY_BACKOFF span to the next RESUBMIT span after it."""
    retries = [s for s in spans if s.phase is Phase.RETRY_BACKOFF]
    resubmits = [s for s in spans if s.phase is Phase.RESUBMIT]
    out: list[dict[str, Any]] = []
    flow_id = 0
    for retry in retries:
        target = next((r for r in resubmits if r.start >= retry.end), None)
        if target is None:
            continue
        flow_id += 1
        common = {"name": "retry->resubmit", "cat": "resilience", "id": flow_id,
                  "pid": 1}
        out.append({**common, "ph": PHASE_FLOW_START,
                    "tid": tids[retry.resource or "(unnamed)"],
                    "ts": retry.end * 1e6})
        out.append({**common, "ph": PHASE_FLOW_END, "bp": "e",
                    "tid": tids[target.resource or "(unnamed)"],
                    "ts": target.start * 1e6})

    # Speculation flows: the driver's launch span connects to the copy's
    # first span on the rescuing worker (a "task" label marked spec, see
    # task_labels); of several launches for one copy (an earlier copy was
    # lost), the last one wins.  Flow ids continue the retry counter so the
    # pairing stays collision-free.
    copies: dict[int, list[Span]] = {}
    for s in spans:
        parsed = parse_task_label(s.label)
        if parsed is not None and parsed.kind == "task" and parsed.spec:
            copies.setdefault(parsed.task_id, []).append(s)
    links: dict[int, tuple[Span, Span]] = {}
    for launch in (s for s in spans if s.phase is Phase.SPECULATION):
        parsed = parse_task_label(launch.label)
        if parsed is None:
            continue
        target = next((s for s in copies.get(parsed.task_id, ())
                       if s.start >= launch.end), None)
        if target is not None:
            links[id(target)] = (launch, target)
    for launch, target in links.values():
        flow_id += 1
        common = {"name": "speculate->copy", "cat": "scheduling",
                  "id": flow_id, "pid": 1}
        out.append({**common, "ph": PHASE_FLOW_START,
                    "tid": tids[launch.resource or "(unnamed)"],
                    "ts": launch.end * 1e6})
        out.append({**common, "ph": PHASE_FLOW_END, "bp": "e",
                    "tid": tids[target.resource or "(unnamed)"],
                    "ts": target.start * 1e6})
    return out


def _critical_track(critical: Iterable[Span], tid: int) -> list[dict[str, Any]]:
    """The critical-path highlight lane: one X event per chain span."""
    out: list[dict[str, Any]] = [{
        "name": "thread_name",
        "ph": PHASE_METADATA,
        "pid": 1,
        "tid": tid,
        "args": {"name": "critical path"},
    }]
    for span in critical:
        out.append({
            "name": span.label or span.phase.value,
            "cat": "critical-path",
            "ph": PHASE_COMPLETE,
            "pid": 1,
            "tid": tid,
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "args": {"phase": span.phase.value,
                     "resource": span.resource or "(unnamed)"},
        })
    return out


def to_chrome_trace(
    timeline: Timeline,
    process_name: str = "ompcloud",
    events: Iterable[Any] = (),
    critical: Iterable[Span] | None = None,
) -> dict[str, Any]:
    """Build the Trace Event Format dict for ``timeline``.

    ``events`` may be the recorded stream of an
    :class:`~repro.obs.events.EventBus` — upload/download events then feed
    the in-flight-bytes counter track.  ``critical`` (a chain of spans, e.g.
    the profiler's :attr:`~repro.obs.profile.OffloadProfile.critical_spans`)
    adds the highlight track."""
    spans = _sorted_spans(timeline)
    # Stable track ids: resources in order of first activity.
    tids: dict[str, int] = {}
    for span in spans:
        tids.setdefault(span.resource or "(unnamed)", len(tids))

    trace_events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": PHASE_METADATA,
            "pid": 1,
            "args": {"name": process_name},
        }
    ]
    for resource, tid in tids.items():
        trace_events.append({
            "name": "thread_name",
            "ph": PHASE_METADATA,
            "pid": 1,
            "tid": tid,
            "args": {"name": resource},
        })
    for span in spans:
        tid = tids[span.resource or "(unnamed)"]
        trace_events.append({
            "name": span.label or span.phase.value,
            "cat": span.phase.bucket,
            "ph": PHASE_COMPLETE,
            "pid": 1,
            "tid": tid,
            "ts": span.start * 1e6,  # simulated seconds -> microseconds
            "dur": span.duration * 1e6,
            "args": {"phase": span.phase.value},
        })
    trace_events.extend(_counter_events(spans, events))
    trace_events.extend(_flow_events(spans, tids))
    if critical is not None:
        trace_events.extend(_critical_track(critical, tid=len(tids)))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_trace(trace: dict[str, Any]) -> None:
    """Check the Trace Event JSON schema this exporter promises.

    Raises :class:`ValueError` on the first violation.  Used by the
    round-trip tests and safe to run on any exporter output.
    """
    if set(trace) != {"traceEvents", "displayTimeUnit"}:
        raise ValueError(f"unexpected top-level keys: {sorted(trace)}")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in (PHASE_COMPLETE, PHASE_METADATA, PHASE_COUNTER,
                      PHASE_FLOW_START, PHASE_FLOW_END):
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        if not isinstance(e.get("name"), str) or not e["name"]:
            raise ValueError(f"event {i}: missing name")
        if e.get("pid") != 1:
            raise ValueError(f"event {i}: bad pid {e.get('pid')!r}")
        if ph == PHASE_COMPLETE:
            if not isinstance(e.get("ts"), (int, float)):
                raise ValueError(f"event {i}: X event needs numeric ts")
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
                raise ValueError(f"event {i}: X event needs dur >= 0")
            if "tid" not in e:
                raise ValueError(f"event {i}: X event needs a tid")
        elif ph == PHASE_COUNTER:
            if not isinstance(e.get("args"), dict) or not e["args"]:
                raise ValueError(f"event {i}: C event needs args values")
        elif ph in (PHASE_FLOW_START, PHASE_FLOW_END):
            if "id" not in e or "tid" not in e:
                raise ValueError(f"event {i}: flow event needs id and tid")
            if ph == PHASE_FLOW_END and e.get("bp") != "e":
                raise ValueError(f"event {i}: flow end should bind enclosing")
    # Flow starts and ends must pair up by id.
    starts = {e["id"] for e in events if e.get("ph") == PHASE_FLOW_START}
    ends = {e["id"] for e in events if e.get("ph") == PHASE_FLOW_END}
    if starts != ends:
        raise ValueError(f"unpaired flow ids: starts {sorted(starts)} "
                         f"vs ends {sorted(ends)}")


def write_chrome_trace(timeline: Timeline, path: str,
                       process_name: str = "ompcloud",
                       events: Iterable[Any] = (),
                       critical: Iterable[Span] | None = None) -> str:
    """Serialize the trace to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(timeline, process_name, events=events,
                                  critical=critical), fh)
    return path
