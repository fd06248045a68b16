"""Traced-run recorder: spans around each layer's public functions.

The recorder wraps functions from outside the program, at the name
each caller resolves at call time, so nothing under ``src/`` changes:

* ``repro.audit.auditor`` imports ``stable_line``/``live_line`` and the
  ``check_*`` functions by name, so they are wrapped there (and
  ``live_line`` also in ``repro.analysis.global_state``, where the
  invariant checkers import it lazily);
* ``repro.experiments.figure7`` imports ``build_system`` by name, while
  ``repro.audit.campaign`` imports it from ``repro.coordination.scheme``
  inside the call;
* ``Checkpoint.capture`` is a classmethod and is re-wrapped as one.

Spans (name, start, end, parent, tracer) stay in memory until the
benchmark writes them out.  A layer's self time is its span time minus
the time of its direct child spans and minus ``tracer``, the time the
wrappers of those children spent outside them (span bookkeeping and
counter callbacks), which goes to the ``trace.tracer`` bucket instead.
So the self times of every layer, the root's own remainder and the
tracer bucket add up to the root span exactly.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Span record fields (a list per span, cheap to build in the hot path).
NAME, START, END, PARENT, TRACER = range(5)

#: Layer span names, in report order.
LAYERS = (
    "sim.run",
    "snapshot.encode",
    "snapshot.decode",
    "analysis.view",
    "analysis.lines",
    "analysis.invariants",
    "coordination.build",
    "warmstart.image_capture",
    "warmstart.resume",
    "flock.fork",
    "flock.dump",
)

#: Counters read off call arguments and results, with their units.
COUNTERS = (
    ("snapshot.encode.bytes", "B"),
    ("snapshot.encode.full_sections", "count"),
    ("snapshot.encode.delta_sections", "count"),
    ("snapshot.decode.chain_links", "count"),
    ("snapshot.decode.audit_calls", "count"),
    ("snapshot.decode.protocol_calls", "count"),
    ("warmstart.image_capture.bytes", "B"),
)

#: The benchmark's own span around the public entry point.
ROOT = "campaign"
#: Self-time bucket for the wrappers' own cost.
TRACER_BUCKET = "trace.tracer"


class SpanRecorder:
    """In-memory span stack plus named counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(spans))
        spans.append(record)
        record[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``after(recorder, args,
        result, parent)`` counts what the call produced.  Whatever the
        wrapper spends outside the span, ``after`` included, is charged
        to the enclosing span's ``tracer`` field, not to its layer."""
        spans, stack = self.spans, self._stack
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin = clock()
            owner = stack[-1] if stack else -1
            parent = spans[owner][NAME] if owner >= 0 else None
            mine = len(spans)
            result = recorder.span(name, fn, *args, **kwargs)
            if after is not None:
                after(recorder, args, result, parent)
            if owner >= 0:
                record = spans[mine]
                spans[owner][TRACER] += (clock() - begin
                                         - (record[END] - record[START]))
            return result

        return traced

    def self_times(self) -> Dict[str, float]:
        """Summed self time (span minus direct children and their
        wrappers' cost) per name, plus the :data:`TRACER_BUCKET`."""
        child: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record[PARENT] >= 0:
                child[record[PARENT]] += record[END] - record[START]
        out: Dict[str, float] = defaultdict(float)
        for idx, record in enumerate(self.spans):
            out[record[NAME]] += (record[END] - record[START] - child[idx]
                                  - record[TRACER])
            out[TRACER_BUCKET] += record[TRACER]
        return out

    def calls(self) -> Dict[str, int]:
        """Span count per name."""
        out: Dict[str, int] = defaultdict(int)
        for record in self.spans:
            out[record[NAME]] += 1
        return out


# ----------------------------------------------------------------------
# counters read off call arguments and results
# ----------------------------------------------------------------------
def _count_encode(rec: SpanRecorder, args, checkpoint, parent) -> None:
    sections = checkpoint.payload.sections
    rec.counters["snapshot.encode.bytes"] += checkpoint.payload.nbytes
    full = sum(1 for p in sections if p.full)
    rec.counters["snapshot.encode.full_sections"] += full
    rec.counters["snapshot.encode.delta_sections"] += len(sections) - full


def _count_decode(rec: SpanRecorder, args, state, parent) -> None:
    checkpoint = args[0]
    rec.counters["snapshot.decode.chain_links"] += sum(
        p.depth for p in checkpoint.payload.sections)
    side = "audit_calls" if parent == "analysis.view" else "protocol_calls"
    rec.counters[f"snapshot.decode.{side}"] += 1


def _count_image(rec: SpanRecorder, args, image, parent) -> None:
    rec.counters["warmstart.image_capture.bytes"] += image.nbytes


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer's public functions; returns the undo."""
    import repro.analysis.global_state as global_state
    import repro.audit.auditor as auditor
    import repro.coordination.scheme as scheme
    import repro.experiments.figure7 as figure7
    import repro.flock.template as template
    import repro.sim.kernel as kernel
    import repro.warmstart.engine as warm_engine
    import repro.warmstart.image as warm_image
    from repro.checkpoint import Checkpoint

    saved = []

    def patch(owner, attr: str, name: str, after=None) -> None:
        current = owner.__dict__[attr]
        saved.append((owner, attr, current))
        setattr(owner, attr, recorder.wrap(name, current, after))

    patch(kernel.Simulator, "run", "sim.run")
    capture = Checkpoint.__dict__["capture"]
    saved.append((Checkpoint, "capture", capture))
    Checkpoint.capture = classmethod(
        recorder.wrap("snapshot.encode", capture.__func__, _count_encode))
    patch(Checkpoint, "restore_state", "snapshot.decode", _count_decode)
    patch(global_state, "view_from_checkpoint", "analysis.view")
    for attr in ("stable_line", "live_line"):
        patch(auditor, attr, "analysis.lines")
    patch(global_state, "live_line", "analysis.lines")
    for attr in ("check_live_system", "check_live_topology",
                 "check_system_line", "check_topology_system_line"):
        patch(auditor, attr, "analysis.invariants")
    patch(scheme, "build_system", "coordination.build")
    patch(figure7, "build_system", "coordination.build")
    patch(warm_engine, "capture", "warmstart.image_capture", _count_image)
    patch(warm_engine, "resume", "warmstart.resume")
    patch(warm_image, "resume", "warmstart.resume")
    patch(template.ForkTemplate, "fork", "flock.fork")
    patch(template.ForkTemplate, "dump", "flock.dump")

    def undo() -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return undo
