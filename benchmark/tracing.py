"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around each operation it starts, and by
wrappers that the benchmark installs over the package's layer functions
for the length of a traced run.  The package itself is not changed: a
wrapper replaces a module or class attribute, so calls made through that
attribute, from the benchmark or from another layer, are recorded.

A span holds a name, a start, an end, its parent span and the operation
it belongs to.  Work submitted to a thread pool has no parent on its own
thread; it is parented to the operation that was open when it started.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "setup"
        self.overhead_s = {"setup": 0.0, "round": 0.0}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._op: dict | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else self._op
        with self._lock:
            self._ids += 1
            sid = self._ids
        rec = {
            "id": sid,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else sid,
            "phase": self.phase,
            "thread": threading.get_ident(),
            "attrs": {},
        }
        stack.append(rec)
        return rec

    def _close(self, rec: dict, start: float, end: float) -> None:
        self._stack().pop()
        rec["start"] = start
        rec["end"] = end
        with self._lock:
            self.spans.append(rec)

    def _charge(self, seconds: float) -> None:
        with self._lock:
            self.overhead_s[self.phase] += seconds

    @contextmanager
    def operation(self, name: str, **attrs):
        """A root span for one operation the benchmark starts."""
        rec = self._open(name)
        rec["attrs"].update(attrs)
        self._op = rec
        start = perf()
        try:
            yield rec
        finally:
            end = perf()
            self._op = None
            self._close(rec, start, end)

    def wrap(self, owner: object, attr: str, name: str,
             attrs: Callable | None = None, under: str | None = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``attrs(args, kwargs, result)`` returns counts to keep on the span.
        With ``under``, only calls whose innermost open span has that name
        are recorded.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            t_in = perf()
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._op
            if under is not None and (parent is None or parent["name"] != under):
                tracer._charge(perf() - t_in)
                return original(*args, **kwargs)
            rec = tracer._open(name)
            start = perf()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(rec, start, perf())
                raise
            end = perf()
            if attrs is not None:
                rec["attrs"].update(attrs(args, kwargs, result))
            tracer._close(rec, start, end)
            tracer._charge((start - t_in) + (perf() - end))
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span, its duration minus the part its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
