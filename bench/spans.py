"""In-memory span recorder for the traced benchmark run.

A span is one call into a wrapped library function: its name, start and end
(``time.process_time``: CPU seconds of the single-threaded sample), the index
of the span that was open when it started, and how far the process's peak RSS
rose while it ran.  Spans are kept in a
list and only reduced to per-layer metrics when the run ends.

Wrappers are installed by ``Tracer.install``, which replaces the original
function object at every import site among the loaded ``nk_triad`` modules,
so ``tables.build_report`` and
``cli.classify_type`` are traced as well as the defining module's binding.
Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root span
    rss_growth_kb: int = 0


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the part covered by its children.

    Children are clipped to the parent's interval and overlapping children
    are merged first, so time is never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for idx, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total self time (s), call count, summed peak-RSS growth (MB)."""
    stats: dict[str, dict[str, float]] = {}
    for sp, own in zip(spans, self_times(spans)):
        st = stats.setdefault(sp.name, {"self_s": 0.0, "calls": 0, "rss_growth_mb": 0.0})
        st["self_s"] += own
        st["calls"] += 1
        st["rss_growth_mb"] += sp.rss_growth_kb / 1024.0
    return stats


class Tracer:
    """Records a span for every call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, time.process_time(), 0.0,
                              stack[-1] if stack else -1))
            rss0 = peak_rss_kb()
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                sp = spans[idx]
                sp.end = time.process_time()
                sp.rss_growth_kb = peak_rss_kb() - rss0

        return traced

    def count(self, name: str, fn):
        """Wrap without a span: only count the calls under ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` by ``wrapper`` wherever the original is bound.

        ``owner`` is a module or a class.  For a module function every loaded
        ``nk_triad`` module that imported it by name is patched too.
        """
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for ns in [vars(m) for name, m in list(sys.modules.items())
                   if name == "nk_triad" or name.startswith("nk_triad.")]:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapper
