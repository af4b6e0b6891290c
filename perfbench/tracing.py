"""Spans and counters recorded from outside the program.

A `Tracer` replaces a public function, in the module namespaces that call
it, with a wrapper that records a span (name, start, end, parent) and,
through an optional hook, counters read from the call's arguments and
result. Spans stay in memory until the child writes them out at exit.
The program's files are never changed.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent index or None]
        self.counts: dict[str, list[float]] = {}
        self._open: list[int] = []

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def span(self, name: str, fn, hook=None):
        """`fn` wrapped so that every call records a span named `name`."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._open[-1] if self._open else None])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def patch(self, name: str, targets, hook=None) -> None:
        """Wrap `module.attr` for each (module, attr) pair that exists."""
        for module, attr in targets:
            if hasattr(module, attr):
                setattr(module, attr, self.span(name, getattr(module, attr), hook))

    def export(self) -> list[dict]:
        return [dict(name=n, start=s, end=e, parent=p, run=self.run_id)
                for n, s, e, p in self.spans]


def span_totals(spans: list[dict]) -> dict[str, float]:
    """Inclusive seconds per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer that no child span covers.

    Spans of one run are strictly nested and the children of a span never
    overlap (the program is single-threaded in Python), so a span's self
    time is its duration minus the sum of its direct children's durations.
    """
    self_s = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, t in zip(spans, self_s):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out
