"""In-memory spans around calls into the engine, with no change to its source.

A Tracer wraps chosen functions and re-binds every module-level name that
refers to one of them, which is where callers look them up. `enable` puts
the wrappers in place and `disable` puts the originals back, so untraced ops
run the engine exactly as shipped. Spans are kept in memory as
[name, start, end, parent index or -1, op id] and written out at the end.
"""

from __future__ import annotations

import time
from types import ModuleType
from typing import Callable, Iterable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = {}  # (op id, counter name) -> total
        self.op = None
        self._stack: list[int] = []
        self._sites: list[tuple[ModuleType, str, object, object]] = []

    def add(self, name: str, value: float) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def spanned(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """`fn` recording one span per call; `count(add, args, result)` adds counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self.add, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """`fn` adding one to counter `name` per call, with no span."""

        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def rebind(self, modules: Iterable[ModuleType], original: object, wrapper: Callable) -> None:
        """Route every name in `modules` that is bound to `original` to `wrapper`."""
        for module in modules:
            for attr, value in vars(module).items():
                if value is original:
                    self._sites.append((module, attr, original, wrapper))

    def enable(self, op) -> None:
        self.op = op
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)
        self.op = None


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        end - start - covered(children.get(i, ()), start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]
