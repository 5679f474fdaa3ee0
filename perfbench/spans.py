"""In-memory spans around calls into cellsim's layers.

A wrapper replaces a public function in the namespace of the module that
calls it (``outage`` calls ``sample_hexagon_xy`` as an imported name, so the
wrapper goes into ``cellsim.outage``).  Each call records one span: name,
parent span index, start and end.  A span's self time is its duration minus
the durations of its children; calls run on one thread and nest, so the self
times of all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

ROOT = "bench.phase"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.elems: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, module, attr: str, name: str, elems=None) -> None:
        """Replace ``module.attr`` with a recording wrapper.

        A name the module no longer has is skipped: its span count stays 0.
        ``elems`` maps the return value to a count of elements computed.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if elems is not None:
                self.elems[name] += elems(out)
            return out

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time, in seconds."""
        duration = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(duration)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += duration[index]
        out: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration[index]
            entry["self_s"] += duration[index] - child_time[index]
        return out
