"""In-memory spans for the traced benchmark run, and the order statistics.

A span records a name, the op it belongs to, its parent span, start and end
(``time.perf_counter_ns``) and optional counts. Spans are opened only by the
benchmark's own code, around its calls into tailbounds; nothing inside the
library is instrumented. Untraced runs pass ``null_span`` instead, which
records nothing.
"""

import math
import time


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


def null_span(name, **counts):
    """Span factory for untraced runs: a shared no-op context manager."""
    return _NULL


class Span:
    __slots__ = ("tracer", "name", "workload", "op", "parent", "start", "end", "counts")

    def __init__(self, tracer, name, counts):
        self.tracer = tracer
        self.name = name
        self.workload = tracer.workload
        self.op = tracer.op
        self.counts = counts
        self.parent = None
        self.start = self.end = None

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else None
        tr.stack.append(len(tr.spans))
        tr.spans.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter_ns()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Collects spans of one process; ``workload`` and ``op`` tag new spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.workload = None
        self.op = 0

    def span(self, name, **counts):
        return Span(self, name, counts)

    def to_json(self):
        """Rows ``[name, workload, op, parent_index, start_ns, end_ns, counts]``."""
        return [
            [s.name, s.workload, s.op, s.parent, s.start, s.end, s.counts] for s in self.spans
        ]


def self_times(spans):
    """Per-span duration minus the time its direct children cover (ns).

    Children of one span run one after another in a single thread, so the
    covered time is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def check_op_accounting(spans, selfs):
    """Validate nesting and that each op's self times add up to its duration.

    Every child must lie inside its parent, in the same op, after its previous
    sibling. An op's traced duration is the summed duration of its root spans.
    Returns the number of ops checked; raises ValueError on any violation.
    """
    last_child_end = {}
    root_total = {}
    self_total = {}
    for i, s in enumerate(spans):
        if s.end is None:
            raise ValueError(f"span {s.name!r} never closed")
        self_total[s.op] = self_total.get(s.op, 0) + selfs[i]
        if s.parent is None:
            root_total[s.op] = root_total.get(s.op, 0) + s.end - s.start
            continue
        p = spans[s.parent]
        if p.op != s.op or s.start < p.start or s.end > p.end:
            raise ValueError(f"span {s.name!r} is not nested in its parent {p.name!r}")
        if s.start < last_child_end.get(s.parent, p.start):
            raise ValueError(f"span {s.name!r} overlaps its previous sibling")
        last_child_end[s.parent] = s.end
    for op, total in root_total.items():
        if self_total[op] != total:
            raise ValueError(f"op {op}: self times {self_total[op]} != duration {total}")
    return len(root_total)


def percentile(values, q):
    """Linear-interpolated ``q``-quantile of ``values`` (numpy's default rule).

    An upper percentile is refused unless at least ten samples lie beyond it:
    a p90 needs 100 samples.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if q > 0.5 and n - math.ceil(q * n) < 10:
        raise ValueError(f"p{round(100 * q)} needs ten samples beyond it; have {n} samples")
    xs = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 0.5)
