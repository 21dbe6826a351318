"""Shared pieces of the workloads: sizes, operation accounting, statistics."""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import CheckFailed

#: Where traced runs write their spans (ignored by git).
SPANS_DIR = Path(__file__).resolve().parent.parent / "perfbench-out"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark mode (full runs or the smoke mode)."""

    walk_scale: int = 14  # 16,384 vertices
    walk_arcs: int = 131_072
    walk_length: int = 10
    ppr_termination: float = 0.15
    ppr_max_steps: int = 40
    serve_scale: int = 12  # 4,096 vertices
    serve_arcs: int = 32_768
    batch_size: int = 1_000
    batches_per_round: int = 2
    stream_per_round: int = 500
    fresh_query_every: int = 10
    query_walkers: int = 32
    query_length: int = 8
    ingest_batch: int = 64
    ingest_period_s: float = 0.25
    burst_rate: float = 400.0
    hub_draws: int = 20_000
    hubs: int = 3
    setups: int = 3


FULL = Sizes()
SMOKE = Sizes(
    walk_scale=9, walk_arcs=2_048, serve_scale=9, serve_arcs=2_048, batch_size=100,
    stream_per_round=50, ingest_batch=32, hub_draws=4_000, hubs=1, setups=1,
)


class NullTracer:
    """Stands in for :class:`spans.Tracer` when tracing is off."""

    phase = "setup"

    def span(self, name: str, *, keep: bool = True):
        return contextlib.nullcontext()


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: dict[str, float] = field(default_factory=dict)
    detail: dict[str, float] = field(default_factory=dict)
    layer_extra: dict[str, float] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    check_error: str | None = None
    server_layers: dict[str, float] | None = None

    def attempt(self, kind: str, ok: bool, error: BaseException | None = None) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            if error is not None and len(self.errors) < 5:
                self.errors.append(f"{kind}: {error!r}")


def median_of(values) -> float:
    return float(statistics.median(values))


def geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    """The q-th percentile; refuses a tail with fewer than ten samples beyond it."""
    count = len(values)
    if count == 0:
        raise CheckFailed("no samples measured")
    if q > 50 and count * (100 - q) / 100 < 10:
        raise CheckFailed(f"p{q:g} needs at least {int(1000 / (100 - q))} samples, got {count}")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(values, name: str, unit: str) -> dict[str, float]:
    """The highest of p99 / p95 / p90 that has at least ten samples beyond it."""
    for q in (99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return {f"{name}_p{q}_{unit}": percentile(values, q)}
    return {}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(function, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def chunks(sizes: Sizes, seconds: float, tracer):
    """Alternate ``sizes.setups`` timed set-ups with equal slices of the run.

    Yields ``(chunk, slice_seconds)`` with the tracer in the set-up phase;
    the caller sets up, then measures inside ``measuring(tracer)``.  Host
    speed on a shared machine drifts over tens of seconds, so spreading the
    measured seconds across the whole run averages more of that drift than
    one contiguous window after all set-ups would.
    """
    for chunk in range(sizes.setups):
        tracer.phase = "setup"
        yield chunk, seconds / sizes.setups
    tracer.phase = "end"


@contextlib.contextmanager
def measuring(tracer):
    tracer.phase = "run"
    with tracer.span("bench.run"):
        yield
    tracer.phase = "end"
