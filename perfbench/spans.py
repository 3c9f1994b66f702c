"""In-memory span recorder for the traced benchmark run.

Functions are imported by name (``from .states import infer_states_batch``),
so a call is intercepted by replacing the attribute in the module that makes
the call, not in the module that defines the function.  Each call then
records one span: name, start, end, and the span that was open when it
began.  Spans stay in memory and are written once, when the run ends.
"""

import functools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans for wrapped module attributes; restores them on exit.

    Use as a context manager so every wrapped attribute is put back even
    when the traced code raises.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._wrapped = []

    def wrap(self, module, attr: str, name, describe=None):
        """Replace ``module.attr`` by a wrapper that records a span per call.

        name is a string, or a callable taking the call's arguments and
        returning one.  describe, if given, maps the call's return value to
        a dict of counts stored on the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = self._begin(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(span)
            if describe is not None:
                span.attrs.update(describe(result))
            return result

        self._wrapped.append((module, attr, original))
        setattr(module, attr, wrapper)

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span: Span):
        span.end = time.perf_counter()
        self._open.pop()

    def restore(self):
        """Put back every wrapped attribute, most recent first."""
        while self._wrapped:
            module, attr, original = self._wrapped.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()

    def self_seconds(self) -> list:
        """Per span id: its duration minus the durations of its children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path: str, header: dict):
        """Write the header and every span, one JSON document."""
        own = self.self_seconds()
        rows = [dict(asdict(s), self_seconds=own[s.id]) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=rows), fh)
            fh.write("\n")
