"""Spans around the public functions of each hiercl layer, recorded from
outside the library.

A ``Tracer`` replaces a function or method by a wrapper for the duration of a
``with tracer.installed():`` block and restores the original afterwards.
Each call becomes one span (name, start, end, parent index) kept in memory;
an optional ``count`` hook adds to named counters from the call's arguments
and result, so ratios are counted where the work happens.

Functions are patched in the namespace the caller looks them up in:
``hiercl.runtime`` and ``hiercl.profiler`` each import ``train_epoch`` and
``evaluate`` by name, so the main loop's calls and the profiler's calls are
told apart by which module's name was wrapped.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

import hiercl.memory
import hiercl.profiler
import hiercl.runtime
import hiercl.swap

CountHook = Callable[[dict, tuple, dict, object], None]


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    # [name, start, end, parent]; parent is an index into spans, -1 for a root
    spans: list[list] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _targets: list[tuple[object, str, str, CountHook | None]] = field(default_factory=list)

    def add(self, owner: object, attr: str, name: str, count: CountHook | None = None) -> None:
        self._targets.append((owner, attr, name, count))

    def _wrapper(self, original: Callable, name: str, count: CountHook | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for owner, attr, name, count in self._targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, SpanTotals]:
        """Calls, total and self time per span name (self = total minus children)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, SpanTotals] = defaultdict(SpanTotals)
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out[name]
            t.calls += 1
            t.total_s += end - start
            t.self_s += end - start - child_s[i]
        return dict(out)

    def total_under(self, name: str, parent_name: str) -> float:
        """Total time of spans called ``name`` whose direct parent is ``parent_name``."""
        return sum(
            end - start
            for n, start, end, parent in self.spans
            if n == name and parent >= 0 and self.spans[parent][0] == parent_name
        )


def _count_train_samples(counts: dict, args: tuple, kwargs: dict, result) -> None:
    batches = args[1] if len(args) > 1 else kwargs["batches"]
    counts["learner.train_samples"] += sum(len(b) for b in batches)


def _count_cancelled(counts: dict, args: tuple, kwargs: dict, result) -> None:
    counts["swap.cancelled"] += result


def _count_io_busy(counts: dict, args: tuple, kwargs: dict, result) -> None:
    counts["swap.io_busy_s"] += result


def layer_tracer() -> Tracer:
    """A tracer over every layer boundary the benchmark reports."""
    rt, prof = hiercl.runtime, hiercl.profiler
    tracer = Tracer()
    tracer.add(rt.Runtime, "run", "runtime.run")
    tracer.add(rt, "profile_task", "profiler.task")
    tracer.add(prof, "train_epoch", "profiler.train")
    tracer.add(prof, "evaluate_conf", "profiler.conf_eval")
    tracer.add(prof, "evaluate", "profiler.evaluate")
    tracer.add(rt, "train_epoch", "learner.train", _count_train_samples)
    tracer.add(rt, "evaluate", "learner.evaluate")
    tracer.add(rt, "compose_epoch_batches", "memory.compose")
    tracer.add(rt, "flush", "memory.flush")
    tracer.add(hiercl.memory.EpisodicMemory, "resize", "memory.resize")
    tracer.add(hiercl.swap.SwapEngine, "issue", "swap.issue")
    tracer.add(hiercl.swap.SwapEngine, "apply_completions", "swap.apply")
    tracer.add(hiercl.swap.SwapEngine, "drop_pending", "swap.drop_pending", _count_cancelled)
    tracer.add(hiercl.swap.IoChannel, "busy_seconds", "swap.busy_seconds", _count_io_busy)
    tracer.add(rt.Runtime, "probe", "control.probe")
    tracer.add(rt.Runtime, "estimate_and_adapt", "control.probe")
    return tracer
