"""Span recording around the public functions of each doptsnf layer.

The tracer replaces a function by a wrapper in every ``doptsnf`` module
that bound it, including names copied with ``from .kernels import ...``,
and wraps ``__init__`` of the two value classes so that constructions
are counted. Spans stay in memory until the benchmark writes them out.

Wrappers only record in the process that installed them: pool workers
forked by ``doptsnf.search`` inherit the wrappers but call straight
through, so their work shows up only inside the enclosing ``search.*``
span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple, Optional

#: (module, attribute, span name). Classes are traced through __init__,
#: so their span counts constructions.
TARGETS = (
    ("doptsnf.kernels", "smith_reduce", "kernels.smith_reduce"),
    ("doptsnf.kernels", "bareiss_determinant", "kernels.bareiss_determinant"),
    ("doptsnf.kernels", "adjugate", "kernels.adjugate"),
    ("doptsnf.kernels", "gf_rank", "kernels.gf_rank"),
    ("doptsnf.kernels", "matmul", "kernels.matmul"),
    ("doptsnf.kernels", "autocorrelations", "kernels.autocorrelations"),
    ("doptsnf.snf", "smith_normal_form", "snf.smith_normal_form"),
    ("doptsnf.exactmat", "IntMatrix", "exactmat.IntMatrix"),
    ("doptsnf.exactmat", "matmul", "exactmat.matmul"),
    ("doptsnf.designs", "Tournament", "designs.Tournament"),
    ("doptsnf.designs", "skew_from_tournament", "designs.skew_from_tournament"),
    ("doptsnf.designs", "is_barba", "designs.is_barba"),
    ("doptsnf.designs", "barba_double", "designs.barba_double"),
    ("doptsnf.verify", "ew_gram_check", "verify.ew_gram_check"),
    ("doptsnf.verify", "ew_tournament_check", "verify.ew_tournament_check"),
    ("doptsnf.verify", "theorem_conformance", "verify.theorem_conformance"),
    ("doptsnf.verify", "p_rank_report", "verify.p_rank_report"),
    ("doptsnf.search", "enumerate_ew_tournaments", "search.enumerate_ew_tournaments"),
    ("doptsnf.search", "search_circulant_tournament", "search.search_circulant_tournament"),
    ("doptsnf.search", "search_circulant_barba", "search.search_circulant_barba"),
    ("doptsnf.search", "barba_problem_scan", "search.barba_problem_scan"),
    ("doptsnf.cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(name for _, _, name in TARGETS)


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    job: Optional[str]
    name: str
    start: float
    end: float


class Tracer:
    """Installs the wrappers and collects spans.

    Spans are recorded only while ``job`` is set, and carry it as their
    job id; calls made while it is None (output checks) pass straight
    through.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: Optional[str] = None
        self._stack: list[int] = []
        self._next = 0
        self._pid = os.getpid()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None or os.getpid() != self._pid:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self.job, name, start, end))

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            orig = getattr(importlib.import_module(module_name), attr)
            if isinstance(orig, type):
                self._set(orig, "__init__", self.wrap(name, orig.__init__))
                continue
            traced = self.wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "doptsnf" and not mod_name.startswith("doptsnf."):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, bound, traced)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, self seconds); self time excludes child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        acc = out[s.name]
        acc[0] += 1
        acc[1] += (s.end - s.start) - covered(s.start, s.end, children[s.sid])
    return {name: (calls, secs) for name, (calls, secs) in out.items()}
