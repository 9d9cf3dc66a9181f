"""Spans and call counters around irislogic's public functions.

The tracer wraps module attributes from outside the package, at the names
callers resolve at call time (for example ``enrollment.similarity``, which
``enroll``, ``verify`` and ``consistency_check`` look up on every call), and
puts the originals back when it is closed. Stage-level functions get one
span per call: name, start, end and parent. Per-comparison functions run
millions of times, so they only get an aggregated call count and total time.
All times are inclusive of whatever the call runs inside it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass



@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Counter:
    calls: int = 0
    seconds: float = 0.0


def _pair_count(args, result) -> int:
    n = len(args[0])
    return n * (n - 1) // 2


def _sites():
    """Stage-level and per-comparison wrapping sites.

    Stages: (module, attribute, hook or None); the hook returns an amount
    added to the span name's "extra" tally. Counted: counter name -> every
    (module, attribute) that callers resolve the function through.
    """
    from irislogic import (calibration, cli, decision_engine, enrollment,
                           octal_algebra)

    stages = [
        (octal_algebra, "verification_checks", None),
        (enrollment, "generate_population", None),
        (enrollment, "pair_scores", _pair_count),
        (enrollment, "enroll", lambda args, result: int(result.accepted)),
        (enrollment, "verify", lambda args, result: int(
            result.overall is decision_engine.Response.REPEAT)),
        (enrollment, "consistency_check",
         lambda args, result: result.pair_count),
        (enrollment, "save_gallery",
         lambda args, result: os.path.getsize(args[1])),
        (enrollment, "load_gallery", None),
        (calibration, "write_scores_csv",
         lambda args, result: os.path.getsize(args[0])),
        (calibration, "read_scores_csv",
         lambda args, result: result.genuine.size + result.imposter.size),
        (calibration, "empirical_curves", None),
        (calibration, "derive_bands", None),
        (calibration, "write_curves_csv", None),
    ]
    counted = {
        "enrollment.similarity": [(enrollment, "similarity")],
        "decision_engine.classify": [(enrollment, "classify"),
                                     (decision_engine, "classify")],
        "decision_engine.defuzzify": [(enrollment, "defuzzify")],
        "decision_engine.decide": [(enrollment, "decide"), (cli, "decide")],
        "decision_engine.psi": [(enrollment, "psi"), (decision_engine, "psi")],
    }
    return stages, counted


class Tracer:
    """Installs the wrappers on creation; ``close`` puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.extra: dict[str, float] = {}
        self._stages, self._counted = _sites()
        self.counters = {name: Counter() for name in self._counted}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.install()

    def install(self) -> None:
        """Wrap every site; statistics keep adding up across installs."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr, hook in self._stages:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._patch(module, attr,
                        self._spanned(name, getattr(module, attr), hook))
        for name, sites in self._counted.items():
            for module, attr in sites:
                counted = _counted(getattr(module, attr), self.counters[name])
                self._patch(module, attr, counted)

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def close(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _spanned(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                self.extra[name] = self.extra.get(name, 0) + hook(args, result)
            return result
        return wrapper

    # ---- summaries -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, since the run is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, tuple[int, float, float]] = {}
        for i, s in enumerate(self.spans):
            calls, total, own = out.get(s.name, (0, 0.0, 0.0))
            duration = s.end - s.start
            out[s.name] = (calls + 1, total + duration,
                           own + duration - child[i])
        return out


class NullTracer:
    """Stands in for a tracer in untraced runs; its spans record nothing."""

    @contextmanager
    def span(self, name: str):
        yield


def _counted(fn, counter: Counter):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            counter.calls += 1
            counter.seconds += clock() - start
    return wrapper
