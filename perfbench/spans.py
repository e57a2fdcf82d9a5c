"""Thread-aware span recorder and per-layer self-time attribution.

While installed, the recorder replaces public primerace functions at the
name their caller binds (`primerace.cli.accumulate`,
`primerace.tally.sieve_segment`, ...) with wrappers that record one span per
call: name, layer, start, end, parent span and thread id.  Spans stay in
memory; the caller writes them out once at the end.  A span opened on a
worker thread with nothing open on that thread takes as parent the span the
main thread has open, so sieve segments run by the tally's worker pool hang
under `accumulate`.

Self time is attributed on the wall clock: at each instant the time goes to
the innermost open spans (those with no open child), split evenly between
them.  A span's self time is therefore its duration minus the union of its
children's intervals, overlapping pool spans of one layer count once, and
the self times of one pass add up exactly to the duration of its root spans.
"""
from __future__ import annotations

import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    size: int | None  # len() of the result, when it has one


def _caller_targets() -> list[tuple[object, str, str]]:
    """(module, attribute, layer) for every wrapped call site."""
    from primerace import analysis, cli, tally

    targets = [
        (cli, "accumulate", "tally"),
        (cli, "race_weight", "characters"),
        (cli, "bias_constant", "characters"),
        (cli, "character_by_label", "characters"),
        (cli, "load_zeros", "ingest"),
        (cli, "symmetric_expand", "ingest"),
        (tally, "sieve_segment", "sieve"),
        (tally, "simple_sieve", "sieve"),
        (tally, "prime_powers", "sieve"),
        (tally, "enumerate_characters", "characters"),
        (tally, "unit_residues", "characters"),
        (tally, "read_series_csv", "tally.read"),
    ]
    # every analysis function the subcommands call
    targets += [(cli, name, "analysis") for name, obj in vars(cli).items()
                if inspect.isfunction(obj) and obj.__module__ == analysis.__name__]
    return targets


class Recorder:
    """Collects spans from every thread of this process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, name: str, layer: str, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            try:
                size = len(result)
            except TypeError:
                size = None
            self.spans.append(Span(sid, name, layer, start, end, parent,
                                   threading.get_ident(), size))

    def wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            return self._call(fn, name, layer, args, kwargs)
        return traced

    def root(self, fn, name: str, layer: str, *args):
        """Call fn(*args) as a root span (one subcommand)."""
        return self._call(fn, name, layer, args, {})

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        saved = []
        try:
            for module, attr, layer in _caller_targets():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, f"{module.__name__}.{attr}", layer))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time of every span (see the module docstring)."""
    if not spans:
        return {}
    times = sorted({t for s in spans for t in (s.start, s.end)})
    by_id = {s.id: s for s in spans}
    out = {s.id: 0.0 for s in spans}
    for t0, t1 in zip(times, times[1:]):
        mid = 0.5 * (t0 + t1)
        open_ids = {s.id for s in spans if s.start <= mid < s.end}
        if not open_ids:
            continue
        inner = open_ids - {by_id[i].parent for i in open_ids}
        share = (t1 - t0) / len(inner)
        for i in inner:
            out[i] += share
    return out
