"""In-memory span recorder for the traced benchmark run.

A span is one timed call into the program: its name, start and end, the
span that caused it, the op (pretrain call, request or frame) it belongs
to, and the thread it ran on.  Spans stay in memory until `dump` writes
them out at the end of a run.

Wrappers are installed with `patch`, which replaces an attribute on a
module or class, and removed with `restore`, which puts every replaced
attribute back exactly as it was.  Nothing is recorded while no wrapper is
installed, so an untraced run executes the program's own functions.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager

_MISSING = object()


class Span:
    __slots__ = ("id", "name", "parent", "op", "thread", "start", "end", "counts")

    def __init__(self, sid, name, parent, op, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.counts = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class _Open:
    """Context manager for one span; counts exceptions that escape it."""

    __slots__ = ("tracer", "span", "stack")

    def __init__(self, tracer: "Tracer", name: str):
        stack = tracer._stack()
        parent = stack[-1].id if stack else tracer._root
        self.tracer = tracer
        self.stack = stack
        self.span = Span(
            next(tracer._ids), name, parent, tracer.op, threading.get_ident()
        )

    def __enter__(self) -> Span:
        self.stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = time.perf_counter()
        self.stack.pop()
        self.tracer.spans.append(self.span)
        if exc_type is not None:
            self.tracer.errors[self.span.name.split(".")[0]] += 1
        return False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()  # module -> exceptions raised
        self.warned: list[tuple[str, str, str]] = []  # (file, category, text)
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Open:
        """Time a block as one span; a worker thread with no open span of
        its own is parented to the current op's root span."""
        return _Open(self, name)

    @contextmanager
    def op_span(self, op: int):
        """Root span of one op; spans opened inside carry its op id."""
        self.op = op
        try:
            with self.span("op") as root:
                self._root = root.id
                yield root
        finally:
            self.op = None
            self._root = None

    # --- wrappers --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace owner.attr until restore(); owner is a module or class."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self, install):
        """Run install(self) to patch the program, count every warning it
        issues (each occurrence is still shown), and restore on exit."""
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            show = warnings.showwarning

            def counting(message, category, filename, lineno, file=None, line=None):
                self.warned.append((filename, category.__name__, str(message)))
                show(message, category, filename, lineno, file, line)

            warnings.showwarning = counting
            try:
                install(self)
                yield self
            finally:
                self.restore()

    # --- results ---------------------------------------------------------

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the part its child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            hi = s.start  # end of the covered part so far
            for a, b in sorted(children[s.id]):
                a, b = max(a, hi), min(b, s.end)
                if b > a:
                    covered += b - a
                    hi = b
            out[s.id] = s.seconds - covered
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.to_json_dict()) + "\n")
