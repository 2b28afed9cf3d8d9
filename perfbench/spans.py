"""Span tracing at hdrelay's module boundaries, from outside the package.

A traced pass replaces selected module attributes (the names a caller looks
up, e.g. ``hdrelay.montecarlo.sample_gain_arrays``) with wrappers that
record one span per call: layer, thread, parent span, start, end and the
work the call did.  Nothing inside ``src/`` is edited; ``patched`` restores
every attribute on exit.

Self time of a span is its duration minus the part of its interval covered
by its direct children.  Children may run on other threads (the outage
campaign hands chunks to a thread pool), and two children can overlap, so
the covered part is the measure of the union of the children's intervals,
not the sum of their durations.  Busy time of a layer is the sum of its
spans' self times over all threads.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    thread: int
    start: float
    end: float
    work: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Collects spans in memory.

    A span opened on a thread with no open span of its own (a pool worker)
    takes as parent the innermost open span of the thread that created the
    tracer, which is the call that handed the work to the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        func: Callable[..., Any],
        layer: str,
        work: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        """`func` with a span of `layer` around every call.

        `work(args, kwargs, result)` returns the counts to attach to the span.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if stack:
                parent: int | None = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = work(args, kwargs, result) if work is not None else {}
            # list.append is atomic, so pool threads can record concurrently
            self.spans.append(Span(span_id, parent, layer, threading.get_ident(), start, end, counts))
            return result

        return traced


def _union_length(intervals: list[tuple[float, float]]) -> float:
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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children,
    each child clipped to the parent's interval."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            start, end = max(s.start, p.start), min(s.end, p.end)
            if end > start:
                children[s.parent].append((start, end))
    return {s.id: (s.end - s.start) - _union_length(children[s.id]) for s in spans}


def layer_summary(spans: list[Span]) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Busy (self) seconds per layer, summed work counts per key, and the
    self seconds of the spans that reported each work key."""
    selfs = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    work_busy: dict[str, float] = defaultdict(float)
    for s in spans:
        busy[s.layer] += selfs[s.id]
        for key, value in s.work.items():
            work[key] += value
            work_busy[key] += selfs[s.id]
    return dict(busy), dict(work), dict(work_busy)


def grid_points(step: float, dim: int) -> int:
    """Points of the oracle grid {0, step, 2*step, ...} capped at 1, to the power dim."""
    levels = int(1.0 / step + 1e-9) + 1
    return levels**dim


def _patch_table(tracer: Tracer) -> list[tuple[str, str, Callable[[Callable[..., Any]], Callable[..., Any]]]]:
    """(module, attribute, wrapper factory) for every traced boundary."""

    def words(args, kwargs, result):
        return {"rng.words": float(result.size)}

    def gains(args, kwargs, result):
        g_sd, g_sr, g_rd = result
        return {"channel.gains": float(g_sd.size + g_sr.size + g_rd.size)}

    def single_bound(args, kwargs, result):
        return {"cutset.bound_trials": float(result.shape[0]), "montecarlo.tasks": 1.0}

    def two_hop_bound(args, kwargs, result):
        schedule = args[4] if len(args) > 4 else kwargs["schedule"]
        states = sum(1 for w in schedule.weights if w != 0.0)
        pairs = result.shape[0] * (1 << schedule.n_relays) * states
        return {
            "cutset.bound_trials": float(result.shape[0]),
            "cutset.cut_state_pairs": float(pairs),
            "montecarlo.tasks": 1.0,
        }

    def scalar_flow(args, kwargs, result):
        return {"cutset.scalar_flow_calls": 1.0}

    def instances(args, kwargs, result):
        return {"lemmas.instances": float(result.instances)}

    def predicate_rows(args, kwargs, result):
        return {"dmt.points_evaluated": float(args[0].shape[0])}

    def oracle(func):
        # the region predicate is a closure handed to the oracle, so it is
        # wrapped per call; its rows are the grid points actually evaluated
        def call(predicate, dim, step, *args, **kwargs):
            predicate = tracer.wrap(predicate, "dmt.predicate", predicate_rows)
            return func(predicate, dim, step, *args, **kwargs)

        def work(args, kwargs, result):
            return {"dmt.oracle_calls": 1.0, "dmt.grid_points": float(grid_points(args[2], args[1]))}

        return tracer.wrap(call, "dmt", work)

    layer = lambda name, work=None: (lambda func: tracer.wrap(func, name, work))
    return [
        ("hdrelay.cli", "estimate_outage", layer("montecarlo")),
        ("hdrelay.cli", "exponent_grid_oracle", oracle),
        ("hdrelay.cli", "run_randomized_suite", layer("lemmas", instances)),
        ("hdrelay.montecarlo", "sample_gain_arrays", layer("channel", gains)),
        ("hdrelay.montecarlo", "single_relay_bound_array", layer("cutset", single_bound)),
        ("hdrelay.montecarlo", "two_hop_bound_array", layer("cutset", two_hop_bound)),
        # the -log1p gain transform lives in this rng function; it is
        # counted as channel work, and its Philox call below as rng work
        ("hdrelay.channel", "exponentials_for_streams", layer("channel")),
        ("hdrelay.rng", "uniforms_for_streams", layer("rng", words)),
        ("hdrelay.lemmas", "uniforms_for_streams", layer("rng", words)),
        ("hdrelay.lemmas", "cut_flow_lower_bound", layer("cutset", scalar_flow)),
        ("hdrelay.lemmas", "cut_average_lower_bound", layer("cutset")),
    ]


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Install the tracing wrappers for the duration of the block.

    A boundary the package no longer has is skipped, so its layer reads 0
    instead of the traced run failing.
    """
    saved = []
    try:
        for module_name, attr, factory in _patch_table(tracer):
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
