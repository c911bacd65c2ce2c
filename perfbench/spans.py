"""In-memory spans around the benchmark's calls into opmono's modules.

A span is ``[name, start, end, parent, op, size, failed]``: the called
function as ``<module>.<function>``, ``perf_counter`` start and end, the
index of the enclosing span (or None), the id of the benchmark operation
that made the call, an optional work count taken from the result (monomials
emitted, coefficients computed, ...), and whether the call raised.  Spans
stay in memory until the pass ends.

The untraced path goes through the same ``call`` frame as the traced one,
so both run the program at the same Python stack depth; cells that hit the
recursion limit fail identically with and without tracing.
"""

from __future__ import annotations

import importlib
import time


def layer_of(name: str) -> str:
    """The per-layer metric prefix a span is charged to."""
    if name == "counting.length_sequence":
        return "counting.length"
    if name.startswith("counting."):
        return "counting.multigraded"
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._funcs: dict = {}

    def resolve(self, name: str):
        fn = self._funcs.get(name)
        if fn is None:
            module, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"opmono.{module}"), attr)
            self._funcs[name] = fn
        return fn

    def call(self, name: str, *args, size=None, **kwargs):
        """Call ``opmono.<name>(*args, **kwargs)``; record a span when
        tracing.  ``size`` maps the result to the span's work count."""
        fn = self.resolve(name)
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.op, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span[6] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if size is not None:
            span[5] = size(result)
        return result

    def record(self, name: str, start: float, end: float, size=None) -> None:
        """A span timed by the caller (used for subprocess calls)."""
        self.spans.append([name, start, end, None, self.op, size, False])


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy (self) seconds, summed work counts and calls
    that raised."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent, _op, size, failed) in enumerate(spans):
        acc = out.setdefault(layer_of(name),
                             {"calls": 0, "busy_s": 0.0, "size": 0, "failed": 0})
        acc["calls"] += 1
        acc["busy_s"] += (end - start) - child_time[i]
        acc["size"] += size or 0
        acc["failed"] += failed
    return out
