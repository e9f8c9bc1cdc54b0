"""Spans recorded from outside the program, and the statistics read from them.

A span is one call into a public function of ``tma``: its name, a tag that
says which input it ran on (a block shape or a grid), the group it belongs to
(one id per ensemble draw or per time step), its start and end, and the span
that was open when it began.  Spans are kept in memory and written once, when
the benchmark ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence


class Tracer:
    """Records spans when ``enabled``; otherwise only makes the calls.

    The disabled tracer runs exactly the same calls, so the difference
    between a traced and an untraced replay is the cost of tracing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[tuple] = []
        self._stack: List[int] = []

    def call(self, name: str, tag: str, group: Optional[str], fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.spans.append((len(self.spans), name, tag, group, t0, t1, parent))
        return out

    @contextmanager
    def span(self, name: str, tag: str, group: Optional[str]):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)  # reserved so children get later ids
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            self.spans[sid] = (sid, name, tag, group, t0, t1, parent)

    def durations(self, name: str, tag: Optional[str] = None) -> List[float]:
        return [s[5] - s[4] for s in self.spans if s[1] == name and (tag is None or s[2] == tag)]

    def by_group(self, name: str, tag: Optional[str] = None) -> Dict[str, List[float]]:
        """Durations of one span name, keyed by group, in call order."""
        out: Dict[str, List[float]] = {}
        for s in self.spans:
            if s[1] == name and (tag is None or s[2] == tag):
                out.setdefault(s[3], []).append(s[5] - s[4])
        return out

    def dump(self, path: str) -> None:
        fields = ("id", "name", "tag", "group", "start_s", "end_s", "parent")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def derived(tracer: Tracer, outer: str, inners: Sequence[str], tag: str) -> List[float]:
    """Self time of ``outer``: each call minus the inner calls made on its input.

    The inner functions are timed separately on the same input and in the
    same group, one call each per outer call, so the k-th outer call in a
    group pairs with the k-th call of every inner function there.
    """
    outs = tracer.by_group(outer, tag)
    ins = [tracer.by_group(name, tag) for name in inners]
    diffs = []
    for group, times in outs.items():
        # a replay that failed part way leaves outer calls without their inner ones
        n = min([len(times)] + [len(inner.get(group, ())) for inner in ins])
        for k in range(n):
            diffs.append(times[k] - sum(inner[group][k] for inner in ins))
    return diffs


def summary(samples: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    """Median, the highest percentile with at least ten samples beyond it, and the count.

    The candidates run from p99.9 down to p75; with fewer than forty samples
    none has ten beyond it, and the tail reported is the maximum.
    """
    xs = sorted(float(v) * scale for v in samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    median = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
    tail_pct = 100
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1.0 - pct / 100.0) >= 10:
            tail_pct = pct
            break
    if tail_pct == 100:
        tail = xs[-1]
    else:
        tail = xs[min(n - 1, int(math.ceil(n * tail_pct / 100.0)) - 1)]
    return {"median": median, "tail": tail, "tail_pct": tail_pct, "n": n}
