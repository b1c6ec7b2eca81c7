"""In-memory span tracer installed from outside the program.

The benchmark attributes time to layers without touching ``src/``: it
replaces a layer's public function *on its class or module* with a thin
wrapper that opens a span, calls the original and closes the span, and it
puts the original back afterwards.  Wrapping classes and modules, never
instances, keeps every object the program creates picklable (a wrapper
stored on an instance would make checkpoint pickling fail), and the wrapper
passes arguments and results through untouched, so a traced run produces
the same trial records as an untraced one.

Each span records its name, start, end and the span that was open on the
same thread when it started (its parent).  A layer's *self time* is its
spans' durations minus the time their child spans cover, so self times of
nested layers never double-count and add up to the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: one finished span: (span id, parent span id or 0, layer name, start, end).
Span = Tuple[int, int, str, float, float]

#: called after a wrapped call returns, outside its span, to record counts:
#: ``count(counts, args, result)``.
Counter = Callable[[Dict[str, float], tuple, Any], None]


class Tracer:
    """Spans and counters gathered while a set of wrappers is installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: Optional[str], function: Callable,
              count: Optional[Counter]) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack
        counts, clock = self.counts, time.perf_counter

        if name is None:
            @functools.wraps(function)
            def counted(*args, **kwargs):
                result = function(*args, **kwargs)
                count(counts, args, result)
                return result

            return counted

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self, owner: Any, attribute: str, name: Optional[str],
                count: Optional[Counter] = None) -> None:
        """Replace ``owner.attribute`` (a class or module) with a traced copy.

        With *name* ``None`` the wrapper opens no span and only runs *count*.
        """
        original = vars(owner)[attribute]
        setattr(owner, attribute, self._wrap(name, original, count))
        self._installed.append((owner, attribute, original))

    def remove(self) -> None:
        """Put every original function back, newest wrapper first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def mark(self) -> int:
        """Position in the span list; pair two marks to window a run."""
        return len(self.spans)


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float],
                                                Dict[str, int]]:
    """Per-layer self seconds and call counts of *spans*.

    A parent missing from *spans* (the window cut it off) is ignored: its
    children still count in full.
    """
    covered: Dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent:
            covered[parent] += end - start
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span_id, _, name, start, end in spans:
        seconds[name] += (end - start) - covered.get(span_id, 0.0)
        calls[name] += 1
    return seconds, calls


def spans_between(spans: Sequence[Span], start: float,
                  end: float) -> List[Span]:
    """Spans that started and ended inside ``[start, end]``."""
    return [span for span in spans if span[3] >= start and span[4] <= end]
