"""In-memory spans around the public calls of each layer.

The traced run wraps functions at the names their callers look up
(class attributes for methods, module globals for functions) and records
one span per call: name, start, end and the span that was open when the
call began.  Spans live in flat arrays while the run executes and are
written to disk once it ends; self times are computed from them.

Coroutine functions (the tcp frame writer and reader) interleave with
other tasks, so they are counted, never opened as spans: a span stack is
only sound for calls that cannot suspend.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable


class SpanRecorder:
    """Flat span storage plus per-wrapper call counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: calls per wrapped callable, keyed by its label.
        self.calls: Counter = Counter()
        #: values returned by counted coroutines, summed (frame bytes).
        self.returned: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn: Callable, label: str) -> Callable:
        """``fn`` recording a ``span`` per call (counted under ``label``)."""
        if inspect.iscoroutinefunction(fn):
            return self._count_coroutine(fn, label)
        nid = self._name_id(span)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack, calls, clock = self._stack, self.calls, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            calls[label] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return spanned

    def _count_coroutine(self, fn: Callable, label: str) -> Callable:
        calls, returned = self.calls, self.returned

        @functools.wraps(fn)
        async def counted(*args: Any, **kwargs: Any) -> Any:
            calls[label] += 1
            result = await fn(*args, **kwargs)
            if isinstance(result, int):
                returned[label] += result
            return result

        return counted

    # ------------------------------------------------------------ results

    def totals(self) -> tuple[dict[str, float], dict[str, float],
                              dict[str, int]]:
        """Per span name: summed self time, summed duration, span count.

        Self time is a span's duration minus the durations of its direct
        children; spans of synchronous calls nest strictly, so the
        children never overlap one another.
        """
        count = len(self.start)
        child = [0.0] * count
        for index in range(count):
            owner = self.parent[index]
            if owner >= 0:
                child[owner] += self.end[index] - self.start[index]
        self_s: dict[str, float] = {name: 0.0 for name in self.names}
        total_s: dict[str, float] = {name: 0.0 for name in self.names}
        spans: dict[str, int] = {name: 0 for name in self.names}
        for index in range(count):
            name = self.names[self.name_of[index]]
            duration = self.end[index] - self.start[index]
            total_s[name] += duration
            self_s[name] += duration - child[index]
            spans[name] += 1
        return self_s, total_s, spans

    def write(self, path: Path) -> None:
        """One JSON header line, then the four span arrays as raw bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name_of:i", "parent:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(handle)


def patch_function(recorder: SpanRecorder, fn: Callable, span: str, *,
                   skip_modules: Iterable[str] = ()) -> None:
    """Wrap ``fn`` at every ``repro.*`` module global bound to it.

    ``skip_modules`` keeps the original in those modules (e.g. inside a
    recursive function's own module, where wrapping would open a span per
    recursion level).
    """
    wrapped = recorder.wrap(span, fn, fn.__qualname__)
    skip = set(skip_modules)
    for name, module in list(sys.modules.items()):
        if name in skip or module is None or not (
                name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def patch_method(recorder: SpanRecorder, cls: type, method: str,
                 span: str) -> None:
    """Wrap ``cls.method`` (subclasses that inherit it see the wrapper)."""
    fn = vars(cls)[method]
    label = f"{cls.__qualname__}.{method}"
    setattr(cls, method, recorder.wrap(span, fn, label))
