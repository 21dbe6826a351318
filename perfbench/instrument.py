"""Where the tracer hooks into each layer, and the per-layer metrics.

``install`` wraps public functions and methods of ``repro.graph``,
``repro.core``, ``repro.engines``, ``repro.walks`` and ``repro.serve`` with
spans named after their layer.  ``layer_metrics`` turns the run's
aggregates into the per-layer metrics named in ``BENCHMARK.json``; a layer
that did no work in a workload reports 0.
"""

from __future__ import annotations

import time

import numpy as np

from spans import Tracer

WRITER_THREAD = "graph-service-writer"
MAIN_THREAD = "MainThread"

#: Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "graph.mutate_calls": "count",
    "graph.mutate_s": "s",
    "graph.group_by_source_s": "s",
    "graph.has_edge_calls": "count",
    "graph.has_edge_s": "s",
    "core.sampler_update_calls": "count",
    "core.sampler_update_s": "s",
    "core.sampler_rebuilds": "count",
    "core.sampler_rebuild_s": "s",
    "engines.build_s": "s",
    "engines.apply_batch_s": "s",
    "engines.apply_streaming_s": "s",
    "engines.warm_s": "s",
    "engines.warm_vertices": "count",
    "engines.full_rebuilds": "count",
    "engines.repair_per_touched": "ratio",
    "engines.sample_frontier_calls": "count",
    "engines.sample_frontier_s": "s",
    "engines.walkers_per_call": "count",
    "engines.model_bytes": "bytes",
    "walks.driver_self_s": "s",
    "walks.propose_s": "s",
    "walks.advance_s": "s",
    "walks.steps": "count",
    "walks.node2vec_accept_ratio": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.wave_exec_ms": "ms",
    "serve.queries_per_wave": "count",
    "serve.waves": "count",
    "serve.writer_apply_s": "s",
    "serve.writer_warm_s": "s",
    "serve.epochs_published": "count",
    "serve.http_parse_s": "s",
    "serve.handle_request_s": "s",
    "serve.encode_s": "s",
    "serve.transport_ms": "ms",
    "serve.response_bytes": "bytes",
    "loadgen.late_p99_ms": "ms",
    "trace.run_s": "s",
    "trace.uncovered_s": "s",
}

DRIVERS = {
    "run_frontier_deepwalk": "deepwalk",
    "run_frontier_node2vec": "node2vec",
    "run_frontier_ppr": "ppr",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points with spans."""
    import repro.engines.bingo as bingo_module
    import repro.serve.protocol as protocol
    import repro.serve.service as service_module
    import repro.walks as walks_package
    import repro.walks.frontier as frontier_module
    from repro.core.vertex_sampler import BingoVertexSampler
    from repro.engines import BingoEngine
    from repro.graph import DynamicGraph
    from repro.graph.update_batch import UpdateBatch
    from repro.serve import GraphService, QueryTicket
    from repro.walks import WalkFrontier

    # graph
    for attr in ("add_edge", "remove_edge", "add_edges_bulk", "remove_edges_bulk"):
        tracer.wrap(DynamicGraph, attr, "graph.mutate")
    for attr in ("has_edge", "has_edges"):
        tracer.wrap(DynamicGraph, attr, "graph.has_edge")
    tracer.wrap(UpdateBatch, "group_by_source", "graph.group_by_source")

    # core
    for attr in ("insert", "insert_many", "delete", "delete_many", "update_bias"):
        tracer.wrap(BingoVertexSampler, attr, "core.sampler_update")

    def one_rebuild(state, args):
        tracer.count("core.rebuilt_samplers")

    def many_rebuilds(state, args):
        tracer.count("core.rebuilt_samplers", len(args[0]))

    tracer.wrap(BingoVertexSampler, "rebuild", "core.sampler_rebuild", before=one_rebuild)
    tracer.wrap(bingo_module, "rebuild_samplers_batch", "core.sampler_rebuild", before=many_rebuilds)

    # engines
    tracer.wrap(BingoEngine, "build", "engines.build", keep=True)

    def batch_touched(state, args):
        state.touched.update(np.unique(UpdateBatch.coerce(args[1]).src).tolist())

    tracer.wrap(BingoEngine, "apply_batch", "engines.apply_batch", keep=True, before=batch_touched)
    tracer.wrap(BingoEngine, "apply_streaming_update", "engines.apply_streaming")

    def warmed(state, args, delta, duration):
        tracer.count("engines.warm_vertices", delta.vertices)
        if delta.full_rebuild:
            tracer.count("engines.full_rebuilds")
        else:
            tracer.count("engines.repaired", delta.vertices)
            tracer.count("engines.repair_touched", len(state.touched))
        state.touched.clear()

    tracer.wrap(BingoEngine, "warm_frontier_tables", "engines.warm", keep=True, after=warmed)

    def frontier_walkers(state, args):
        tracer.count("engines.frontier_walkers", len(args[1]))

    tracer.wrap(BingoEngine, "sample_frontier", "engines.sample_frontier", before=frontier_walkers)

    # walks
    def driver_before(app):
        def before(state, args):
            state.app = app
            state.wave_start = time.perf_counter()

        return before

    def driver_after(app):
        def after(state, args, walks, duration):
            steps = walks.total_steps
            tracer.count("walks.steps", steps)
            if app == "node2vec":
                tracer.count("walks.node2vec_steps", steps)
            if state.thread != MAIN_THREAD:
                tracer.count("serve.waves")
                tracer.sample("serve.wave_exec_ms", duration * 1e3)
            state.app = ""

        return after

    for function, app in DRIVERS.items():
        for module in (frontier_module, walks_package, service_module):
            tracer.wrap(module, function, "walks.driver", keep=True,
                        before=driver_before(app), after=driver_after(app))

    def proposals(state, args):
        if state.app == "node2vec":
            tracer.count("walks.node2vec_proposals", len(args[1]))

    tracer.wrap(WalkFrontier, "propose", "walks.propose", before=proposals)
    tracer.wrap(WalkFrontier, "advance", "walks.advance")

    # serve: dispatch
    tracer.wrap(GraphService, "submit", "serve.submit", keep=True, request=lambda args, ticket: id(ticket))

    def resolved(state, args, latency, duration):
        ticket = args[0]
        tracer.count("serve.queries_resolved")
        tracer.sample("serve.queue_wait_ms", (state.wave_start - ticket.submitted_at) * 1e3)

    tracer.wrap(QueryTicket, "resolve", "serve.resolve", keep=True, after=resolved,
                request=lambda args, latency: id(args[0]))

    # serve: transport
    tracer.wrap(protocol.HTTPRequestParser, "feed", "serve.http_parse")
    tracer.wrap(protocol, "handle_request", "serve.handle_request", keep=True)
    tracer.wrap(protocol, "render_walks", "serve.encode")

    def response_bytes(state, args, parts, duration):
        response = args[0]
        if response.status == 200 and (response.payload is None or "walks" in response.payload):
            tracer.count("serve.response_bytes", sum(memoryview(p).nbytes for p in parts))
            tracer.count("serve.responses")

    tracer.wrap(protocol.Response, "parts", "serve.encode", after=response_bytes)


#: Per-layer metrics that are ratios, medians or per-item means: averaged,
#: not summed, when several server processes' figures are merged.
AVERAGED = {
    "engines.build_s", "engines.repair_per_touched", "engines.walkers_per_call", "engines.model_bytes",
    "walks.node2vec_accept_ratio", "serve.queue_wait_ms", "serve.wave_exec_ms",
    "serve.queries_per_wave", "serve.transport_ms", "serve.response_bytes", "loadgen.late_p99_ms",
}


def merge_layers(parts: list[dict[str, float]]) -> dict[str, float]:
    """Combine the per-layer metrics of several runs of the same workload."""
    merged = {}
    for name in LAYER_METRICS:
        values = [part[name] for part in parts]
        merged[name] = sum(values) / len(values) if name in AVERAGED else sum(values)
    return merged


def _ratio(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float] | None = None) -> dict[str, float]:
    """The per-layer metrics of one traced run (0 for idle layers).

    ``extra`` supplies figures measured outside the tracer (model bytes,
    epochs published, load-generator lateness, transport time) and
    overrides the derived values of the same name.
    """
    run = tracer.merged("run")
    setup = tracer.merged("setup")
    writer = tracer.merged("run", lambda name: name == WRITER_THREAD)
    self_s, total_s, calls, counts = run["self_s"], run["total_s"], run["calls"], run["counts"]
    covered, root = tracer.balance(MAIN_THREAD)
    metrics = {
        "graph.mutate_calls": calls["graph.mutate"],
        "graph.mutate_s": self_s["graph.mutate"],
        "graph.group_by_source_s": self_s["graph.group_by_source"],
        "graph.has_edge_calls": calls["graph.has_edge"],
        "graph.has_edge_s": self_s["graph.has_edge"],
        "core.sampler_update_calls": calls["core.sampler_update"],
        "core.sampler_update_s": self_s["core.sampler_update"],
        "core.sampler_rebuilds": counts["core.rebuilt_samplers"],
        "core.sampler_rebuild_s": self_s["core.sampler_rebuild"],
        "engines.build_s": _ratio(setup["total_s"]["engines.build"], setup["calls"]["engines.build"]),
        "engines.apply_batch_s": self_s["engines.apply_batch"],
        "engines.apply_streaming_s": self_s["engines.apply_streaming"],
        "engines.warm_s": self_s["engines.warm"],
        "engines.warm_vertices": counts["engines.warm_vertices"],
        "engines.full_rebuilds": counts["engines.full_rebuilds"],
        "engines.repair_per_touched": _ratio(counts["engines.repaired"], counts["engines.repair_touched"]),
        "engines.sample_frontier_calls": calls["engines.sample_frontier"],
        "engines.sample_frontier_s": self_s["engines.sample_frontier"],
        "engines.walkers_per_call": _ratio(counts["engines.frontier_walkers"], calls["engines.sample_frontier"]),
        "engines.model_bytes": 0.0,
        "walks.driver_self_s": self_s["walks.driver"],
        "walks.propose_s": self_s["walks.propose"],
        "walks.advance_s": self_s["walks.advance"],
        "walks.steps": counts["walks.steps"],
        "walks.node2vec_accept_ratio": _ratio(counts["walks.node2vec_steps"], counts["walks.node2vec_proposals"]),
        "serve.queue_wait_ms": _median(run["values"]["serve.queue_wait_ms"]),
        "serve.wave_exec_ms": _median(run["values"]["serve.wave_exec_ms"]),
        "serve.queries_per_wave": _ratio(counts["serve.queries_resolved"], counts["serve.waves"]),
        "serve.waves": counts["serve.waves"],
        "serve.writer_apply_s": writer["total_s"]["engines.apply_batch"],
        "serve.writer_warm_s": writer["total_s"]["engines.warm"],
        "serve.epochs_published": 0.0,
        "serve.http_parse_s": self_s["serve.http_parse"],
        "serve.handle_request_s": self_s["serve.handle_request"],
        "serve.encode_s": self_s["serve.encode"],
        "serve.transport_ms": 0.0,
        "serve.response_bytes": _ratio(counts["serve.response_bytes"], counts["serve.responses"]),
        "loadgen.late_p99_ms": 0.0,
        "trace.run_s": root,
        "trace.uncovered_s": self_s["bench.run"],
    }
    if root and abs(covered - root) > 1e-6 * max(1.0, root):
        raise AssertionError(f"span self times {covered:.6f}s do not add up to the run {root:.6f}s")
    metrics.update(extra or {})
    return {name: float(metrics[name]) for name in LAYER_METRICS}
