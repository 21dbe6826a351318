"""In-memory span tracer that wraps the program's public entry points.

Tracing lives entirely in the benchmark: ``install`` replaces functions and
methods of ``repro`` classes and modules with timing wrappers, and nothing
under ``src/`` changes.  Each wrapped call is a span with a name, start,
end, parent and (for serve spans) a request id.  A span's self time is its
duration minus the time its child spans cover, so on every thread the self
times of all spans under a root add up to that root's duration.

Hot leaf calls (one per walker step or per edge) are aggregated rather than
stored one by one, so memory stays bounded; spans of layer boundaries are
kept (up to ``SPAN_LIMIT``) and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

#: Most span records kept in memory per run.
SPAN_LIMIT = 200_000

_ids = itertools.count(1)


class _ThreadState:
    def __init__(self, name: str) -> None:
        self.thread = name
        self.stack: list[list] = []  # [child_seconds, span_id, name]
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.total_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.roots_s: dict[str, float] = defaultdict(float)
        self.app = ""
        self.wave_start = 0.0
        self.touched: set[int] = set()


class Tracer:
    """Per-thread span stacks and aggregates, merged when the run ends."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.phase = "setup"
        self.spans: list[tuple] = []
        self.dropped_spans = 0

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def enter(self, name: str) -> tuple[_ThreadState, list, float]:
        state = self.state()
        frame = [0.0, next(_ids), name]
        state.stack.append(frame)
        return state, frame, time.perf_counter()

    def leave(self, state: _ThreadState, frame: list, start: float, *, keep: bool, request: int | None = None) -> float:
        end = time.perf_counter()
        state.stack.pop()
        duration = end - start
        name = frame[2]
        key = (self.phase, name)
        state.self_s[key] += duration - frame[0]
        state.total_s[key] += duration
        state.calls[key] += 1
        if state.stack:
            state.stack[-1][0] += duration
            parent = state.stack[-1][1]
        else:
            parent = None
            state.roots_s[self.phase] += duration
        if keep:
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((frame[1], name, start, end, parent, state.thread, request))
            else:
                self.dropped_spans += 1
        return duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.state().counts[(self.phase, name)] += amount

    def sample(self, name: str, value: float) -> None:
        if self.phase == "run":
            self.state().values[name].append(value)

    @contextlib.contextmanager
    def span(self, name: str, *, keep: bool = True):
        """A span around a block of the benchmark's own code."""
        state, frame, start = self.enter(name)
        try:
            yield
        finally:
            self.leave(state, frame, start, keep=keep)

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, *, keep: bool = False, after=None, before=None, request=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(state, args)`` runs inside the span before the call,
        ``after(state, args, result, duration)`` after it returns, and
        ``request(args, result)`` names the request a kept span belongs to.
        """
        if isinstance(owner, type):
            original = next(k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__)
        else:
            original = getattr(owner, attr)
        is_static = isinstance(original, staticmethod)
        function = original.__func__ if is_static else original
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state, frame, start = tracer.enter(name)
            result = None
            try:
                if before is not None:
                    before(state, args)
                result = function(*args, **kwargs)
            finally:
                rid = request(args, result) if request is not None and result is not None else None
                duration = tracer.leave(state, frame, start, keep=keep, request=rid)
            if after is not None:
                after(state, args, result, duration)
            return result

        setattr(owner, attr, staticmethod(traced) if is_static else traced)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def merged(self, phase: str = "run", thread_filter=None) -> dict[str, dict]:
        """Aggregates of one phase summed over threads (optionally filtered)."""
        out: dict[str, dict] = {kind: defaultdict(float) for kind in ("self_s", "total_s", "calls", "counts")}
        out["values"] = defaultdict(list)
        for state in self._states:
            if thread_filter is not None and not thread_filter(state.thread):
                continue
            for kind in ("self_s", "total_s", "calls", "counts"):
                for (ph, name), value in getattr(state, kind).items():
                    if ph == phase:
                        out[kind][name] += value
            if phase == "run":
                for name, values in state.values.items():
                    out["values"][name].extend(values)
        return out

    def balance(self, thread_name: str, phase: str = "run") -> tuple[float, float]:
        """(sum of self times, sum of root durations) on one thread."""
        for state in self._states:
            if state.thread == thread_name:
                covered = sum(v for (ph, _), v in state.self_s.items() if ph == phase)
                return covered, state.roots_s.get(phase, 0.0)
        return 0.0, 0.0

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "thread", "request"],
                    "dropped": self.dropped_spans,
                    "spans": self.spans,
                },
                handle,
            )
