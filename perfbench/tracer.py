"""Outside-in span tracing: wrap package functions at the names their
callers look them up by, keep spans in memory, restore on exit.

A span is the tuple (id, parent, op, name, start_ns, end_ns, note).
``parent`` is the id of the enclosing span (None for an operation's root
span), ``op`` is the benchmark operation the span belongs to and ``note``
carries the exception type a call raised, or a tag a per-name note
function derived from the call's result.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

ID, PARENT, OP, NAME, START, END, NOTE = range(7)


class Tracer:
    """Records spans while an operation is open; pass-through otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, name: str, note=None) -> None:
        """Replace ``module.attr`` by a recording wrapper named ``name``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name, note))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[sid] = (sid, parent, op, name, t0, perf_counter_ns(),
                              type(exc).__name__)
                stack.pop()
                raise
            t1 = perf_counter_ns()
            stack.pop()
            spans[sid] = (sid, parent, op, name, t0, t1,
                          None if note is None else note(out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op: int, fn):
        """Call ``fn()`` as operation ``op`` under a root span
        ``bench.op``."""
        self._op = op
        try:
            return self._wrap(fn, "bench.op", None)()
        finally:
            self._op = None

    def write(self, path) -> None:
        """One JSON object per line, in span-id order."""
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "note")
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")


def self_times(spans) -> list[int]:
    """Duration of each span minus the time its direct children cover.

    The benchmark runs on one thread, so the children of a span never
    overlap and their durations add up to the time they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def by_name(spans) -> dict[str, list[tuple]]:
    groups: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        groups[s[NAME]].append(s)
    return groups
