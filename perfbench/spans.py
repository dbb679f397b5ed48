"""In-memory span recorder for the traced benchmark pass, and the step clock of the untraced one.

Spans are taken around calls into entsync's public functions by replacing
each name where its caller looks it up (``entsync.scenario.generate_pairs``,
``entsync.correlation.compute_g2``, ...), so nothing under ``src/`` changes.
Every span has a name, start, end and parent; all of them stay in memory and
are written out with the pass report when the pass ends.
"""
from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import Counter

# entsync's layers, one module each. A span named "<layer>.<what>" belongs to <layer>.
LAYERS = ("timetags", "channel", "correlation", "polarization", "tomography", "scenario", "cli")


class Recorder:
    """Nested spans of one single-threaded pass, plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add_span(self, name: str, start: float, end: float):
        """Record a span whose interval was timed before the recorder existed."""
        self.spans.append(
            {"id": len(self.spans), "parent": None, "name": name, "start": start, "end": end}
        )

    def wrap(self, module, attr: str, name: str, after=None, track_alloc: bool = False):
        """Replace ``module.attr`` by a spanned call.

        ``after(result, *args, **kwargs)`` runs once the span has closed, so
        the counting it does is not charged to the wrapped layer. With
        ``track_alloc`` the peak traced allocation inside the call is kept as
        the maximum over calls under ``name``; tracemalloc runs only inside
        the span.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                if track_alloc:
                    tracemalloc.start()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0.0), peak / 2**20)
                else:
                    result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(module, attr, spanned)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child_time = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: Counter = Counter()
        for s in self.spans:
            totals[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(totals)


# The speed probe: a fixed pure-Python loop, about a millisecond of work.
PROBE_LOOPS = 20_000
# The probe's time on a core running at full speed on the machine the
# benchmark's bounds were set on (2 vCPUs of a shared Xeon host): of 18 400
# probes taken in benchmark runs there, the least took 1.07 ms, the 1st
# percentile 1.12 ms and the median 1.39 ms. Step times are scaled to it.
PROBE_REF_S = 1.1e-3


def probe() -> float:
    """Seconds this core takes for the probe loop now."""
    start = time.perf_counter()
    x = 0
    for j in range(PROBE_LOOPS):
        x += j * j % 7
    return time.perf_counter() - start


class StepClock:
    """Wall time of each call into a layer's leaf functions, in call order.

    An untraced pass keeps one flat ``(name, seconds, probe_s)`` record per
    call, with no parent, allocation tracking or count. ``probe_s`` is the
    probe's time just before the call, which tells how fast the core ran
    then. The wrapped functions never call one another, so the records do
    not overlap and the rest of a command's time is what lies between them.
    """

    def __init__(self):
        self.steps: list[tuple[str, float, float]] = []

    def wrap(self, module, attr: str, name: str):
        fn = getattr(module, attr)
        steps = self.steps

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            probe_s = probe()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                steps.append((name, time.perf_counter() - start, probe_s))

        setattr(module, attr, timed)
