"""In-memory spans around calls into the program's public functions.

Wrappers are installed on the module or class attribute the caller
looks the function up through, so the program itself is not edited.
Each span records its name, start, end, parent span and the id of the
build or request it belongs to.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

# (span name, owner path, attribute): the owner is where callers look the
# function up.  The layer is the span name's prefix, i.e. the module.
TRACE_POINTS = (
    ("turtle.parse", "rightsvocab.cli", "parse_turtle"),
    ("turtle.serialize", "rightsvocab.site", "serialize_turtle"),
    ("jsonld.serialize", "rightsvocab.site", "serialize_jsonld"),
    ("model.objects", "rightsvocab.model:Graph", "objects"),
    ("model.triples_about", "rightsvocab.model:Graph", "triples_about"),
    ("model.union", "rightsvocab.model:Graph", "union"),
    ("vocab.load", "rightsvocab.cli", "load_vocabulary"),
    ("vocab.lookup", "rightsvocab.server", "lookup_statement"),
    ("uris.parse", "rightsvocab.vocab", "parse_statement_uri"),
    ("site.record_to_graph", "rightsvocab.site", "record_to_graph"),
    ("site.render_html", "rightsvocab.site", "render_statement_html"),
    ("site.render_html", "rightsvocab.site", "render_overview_html"),
    ("site.vocabulary_to_graph", "rightsvocab.site", "vocabulary_to_graph"),
    ("site.generate", "rightsvocab.cli", "generate_site"),
    ("site.write", "rightsvocab.cli", "write_manifest"),
    ("server.parse_accept", "rightsvocab.server", "parse_accept"),
    ("server.parse_accept_language", "rightsvocab.server", "parse_accept_language"),
    ("server.negotiate", "rightsvocab.server", "negotiate"),
    ("server.handle_request", "rightsvocab.server", "handle_request"),
    ("cli.build_snapshot", "rightsvocab.cli", "build_snapshot"),
    ("cli.build", "rightsvocab.cli", "run_build"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's spans, -1 for a root
    scope: str  # the build or request this span belongs to

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.scope = "-"
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.scope)
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.scope]) + "\n")


class installed:
    """Context manager that puts ``tracer``'s wrappers on every trace
    point and restores the original attributes on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for name, owner_path, attr in TRACE_POINTS:
            module_name, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        inside = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out.append(s.duration - covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def self_time_by_layer(spans, keep=lambda span: True) -> dict[str, float]:
    """Summed self time per layer over the spans ``keep`` accepts.  Parent
    indices refer to ``spans``, so filter here rather than beforehand."""
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        if keep(s):
            totals[s.layer] += t
    return dict(totals)
