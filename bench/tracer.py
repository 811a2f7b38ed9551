"""Call wrappers that attribute failures to a layer and, when tracing,
record one span per call into a linemend layer.

Spans are kept in memory and written out by run.py when the run ends.
A span is (name, start, end, parent index, op id); times come from
time.perf_counter and are stored in seconds.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


class LayerError(Exception):
    """A call into a linemend layer raised; ``layer`` names the module."""

    def __init__(self, layer: str, cause: BaseException):
        super().__init__(f"{layer}: {type(cause).__name__}: {cause}")
        self.layer = layer


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Untraced:
    """Calls straight through; only tags exceptions with their layer."""

    traced = False

    def call(self, name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise LayerError(_layer(name), exc) from exc

    def begin_op(self, op_id, name="op"):
        return None

    def end_op(self, token):
        return None


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer(Untraced):
    """Records a span around every call and around each op root."""

    traced = True

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self) -> tuple[int, int | None]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent, self._op_id)

    def call(self, name, fn, *args, **kwargs):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise LayerError(_layer(name), exc) from exc
        finally:
            self._close(idx, parent, name, start)

    def begin_op(self, op_id, name="op"):
        self._op_id = op_id
        idx, parent = self._open()
        return idx, parent, name, time.perf_counter()

    def end_op(self, token):
        self._close(*token)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
