"""The in-process workloads: walk-static, ingest-mixed and serve-burst."""

from __future__ import annotations

import gc
import time

import numpy as np

import inputs
from common import Outcome, Sizes, chunks, geometric_mean, measuring, median_of, peak_rss_mib, tail, timed
from reference import (
    CheckFailed,
    ReferenceGraph,
    check_first_steps,
    check_ppr_lengths,
    check_walk_matrix,
    reference_membership,
    sorted_key_membership,
)

NODE2VEC_P = 2.0
NODE2VEC_Q = 0.5
APPS = ("deepwalk", "node2vec", "ppr")
#: Longest wait, after the last submission, for every serve-burst ticket.
RESULT_TIMEOUT_S = 30.0


def build_engine(edges, num_vertices: int, seed: int):
    """Set-up as a user pays it: edge list -> graph -> engine -> first warm."""
    from repro.engines import BingoEngine
    from repro.graph import DynamicGraph

    gc.collect()  # every set-up starts from the same heap state
    start = time.perf_counter()
    graph = DynamicGraph.from_edges(edges, num_vertices=num_vertices)
    engine = BingoEngine(rng=seed)
    engine.build(graph)
    engine.warm_frontier_tables()
    return engine, time.perf_counter() - start


def check_hubs(engine, ref: ReferenceGraph, seed: int, sizes: Sizes, tag: int, tracer) -> None:
    """First-step frequencies of the highest-degree vertices match bias / total."""
    import repro.walks as walks

    degrees = ref.out_degrees()
    hubs = np.argsort(-degrees, kind="stable")[: sizes.hubs]
    previous, tracer.phase = tracer.phase, "check"
    try:
        for hub in hubs.tolist():
            rng = np.random.default_rng([seed, hub, tag])
            result = walks.run_frontier_deepwalk(engine, [hub] * sizes.hub_draws, 1, rng=rng)
            check_first_steps(hub, result.matrix[:, 1], ref.adj[hub])
    finally:
        tracer.phase = previous


# --------------------------------------------------------------------------- #
# walk-static
# --------------------------------------------------------------------------- #
def walk_static(seed: int, seconds: float, sizes: Sizes, tracer) -> Outcome:
    import repro.walks as walks

    out = Outcome()
    n, src, dst, bias = inputs.make_graph(seed, sizes.walk_scale, sizes.walk_arcs, floats=False)
    ref = ReferenceGraph(n, src, dst, bias)
    is_arc = sorted_key_membership(ref.sorted_keys(), n)
    out_degree = ref.out_degrees()
    edges = list(zip(src.tolist(), dst.tolist(), bias.tolist()))
    starts = np.arange(n, dtype=np.int64)
    round_rates: dict[str, list[float]] = {app: [] for app in APPS}
    round_ms: dict[str, list[float]] = {app: [] for app in APPS}
    setup_times = []
    round_index = 0
    for chunk, slice_s in chunks(sizes, seconds, tracer):
        engine = None  # release the previous engine before building the next
        with tracer.span("bench.setup"):
            engine, took = build_engine(edges, n, seed)
        setup_times.append(took)
        if chunk == 0:
            check_hubs(engine, ref, seed, sizes, 0, tracer)
        apps = {
            "deepwalk": lambda rng: walks.run_frontier_deepwalk(engine, starts, sizes.walk_length, rng=rng),
            "node2vec": lambda rng: walks.run_frontier_node2vec(
                engine, starts, sizes.walk_length, p=NODE2VEC_P, q=NODE2VEC_Q, rng=rng
            ),
            "ppr": lambda rng: walks.run_frontier_ppr(
                engine, starts, termination_probability=sizes.ppr_termination,
                max_steps=sizes.ppr_max_steps, rng=rng,
            ),
        }
        deadline = time.perf_counter() + slice_s
        with measuring(tracer):
            while True:
                for app_index, (app, run) in enumerate(apps.items()):
                    rng = np.random.default_rng([seed, round_index, app_index])
                    try:
                        result, took = timed(run, rng)
                    except Exception as exc:  # an operation that fails is counted, not fatal
                        out.attempt("walk_round", False, exc)
                        continue
                    out.attempt("walk_round", True)
                    round_ms[app].append(took * 1e3)
                    round_rates[app].append(check_walk_matrix(result.matrix, starts, is_arc) / took)
                    if app == "ppr":
                        check_ppr_lengths(result.matrix, out_degree, sizes.ppr_termination, sizes.ppr_max_steps)
                round_index += 1
                if time.perf_counter() >= deadline:
                    break
    out.e2e["setup_s"] = median_of(setup_times)
    tracer.phase = "end"
    # Medians over rounds: a burst of interference on the shared host slows a
    # few rounds, and a total over all rounds would carry it in full.
    rates = {app: median_of(values) for app, values in round_rates.items() if values}
    if len(rates) != len(APPS):
        raise CheckFailed("an application never completed a round")
    out.e2e["throughput_per_s"] = geometric_mean(rates.values())
    out.e2e["latency_p50_ms"] = geometric_mean([median_of(times) for times in round_ms.values()])
    out.e2e["peak_rss_mib"] = peak_rss_mib()
    out.detail.update({f"{app}_steps_per_s": rate for app, rate in rates.items()})
    out.detail.update({f"{app}_round_p50_ms": median_of(times) for app, times in round_ms.items()})
    out.detail["rounds"] = round_index
    out.layer_extra["engines.model_bytes"] = engine.memory_report().total_bytes()
    return out


# --------------------------------------------------------------------------- #
# ingest-mixed
# --------------------------------------------------------------------------- #
def check_adjacency(engine, ref: ReferenceGraph, vertices) -> None:
    """The engine's adjacency (targets and biases) equals the reference."""
    graph = engine.graph
    for vertex in vertices:
        dsts = graph.neighbor_array(vertex).tolist()
        biases = graph.bias_array(vertex).tolist()
        if dict(zip(dsts, biases)) != ref.adj[vertex] or len(dsts) != len(ref.adj[vertex]):
            raise CheckFailed(f"vertex {vertex}: engine adjacency differs from the reference")


def ingest_mixed(seed: int, seconds: float, sizes: Sizes, tracer) -> Outcome:
    import repro.walks as walks
    from repro.graph import GraphUpdate, UpdateKind
    from repro.graph.update_batch import UpdateBatch

    out = Outcome()
    n, src, dst, bias = inputs.make_graph(seed, sizes.walk_scale, sizes.walk_arcs, floats=True)
    edges = list(zip(src.tolist(), dst.tolist(), bias.tolist()))

    batch_busy = 0.0
    batch_updates = 0
    stream_us: list[float] = []
    fresh_ms: list[float] = []
    query_index = 0
    setup_times = []
    engine = None
    # Each slice is a fresh engine on the initial graph with its own
    # reference, update stream and start vertices, so the measured seconds
    # spread over the whole run like the other workloads'.  Engines do not
    # slow as they age through updates (per-round costs stay level over
    # 60 batches), so a slice's engine is as fast as a long-lived one.
    for chunk, slice_s in chunks(sizes, seconds, tracer):
        engine = None  # release the previous engine before building the next
        ref = ReferenceGraph(n, src, dst, bias)
        stream = inputs.UpdateStream(seed, f"updates-{chunk}", ref, sizes.walk_scale, floats=True)
        zipf = inputs.ZipfStarts(inputs.rng_for(seed, f"starts-{chunk}"), ref.out_degrees())
        is_arc = reference_membership(ref)
        with tracer.span("bench.setup"):
            engine, took = build_engine(edges, n, seed)
        setup_times.append(took)
        if chunk == 0:
            check_hubs(engine, ref, seed, sizes, 0, tracer)
        deadline = time.perf_counter() + slice_s
        with measuring(tracer):
            while True:
                # Batched phase: apply_batch, then repair the fused tables.
                for _ in range(sizes.batches_per_round):
                    columns = stream.batch(sizes.batch_size)
                    batch = UpdateBatch(*columns)
                    try:
                        start = time.perf_counter()
                        engine.apply_batch(batch)
                        engine.warm_frontier_tables()
                        took = time.perf_counter() - start
                    except Exception as exc:
                        out.attempt("batch", False, exc)
                        continue
                    out.attempt("batch", True)
                    batch_busy += took
                    batch_updates += len(batch)
                    check_adjacency(engine, ref, np.unique(columns[0]).tolist())
                # Streaming phase: one edge at a time, a fresh query every few updates.
                for position in range(1, sizes.stream_per_round + 1):
                    is_insert, u, v, b = stream.next()
                    update = GraphUpdate(UpdateKind.INSERT if is_insert else UpdateKind.DELETE, u, v, b)
                    try:
                        _, took = timed(engine.apply_streaming_update, update)
                    except Exception as exc:
                        out.attempt("stream_update", False, exc)
                        continue
                    out.attempt("stream_update", True)
                    stream_us.append(took * 1e6)
                    if position % sizes.fresh_query_every == 0:
                        starts = zipf.draw(sizes.query_walkers)
                        rng = np.random.default_rng([seed, query_index])
                        query_index += 1
                        try:
                            result, took = timed(
                                walks.run_frontier_deepwalk, engine, starts, sizes.query_length, rng=rng
                            )
                        except Exception as exc:
                            out.attempt("query", False, exc)
                            continue
                        out.attempt("query", True)
                        fresh_ms.append(took * 1e3)
                        check_walk_matrix(result.matrix, starts, is_arc)
                if time.perf_counter() >= deadline:
                    break
        check_adjacency(engine, ref, range(n))
        check_hubs(engine, ref, seed, sizes, 1 + chunk, tracer)
    out.e2e["setup_s"] = median_of(setup_times)
    out.e2e["throughput_per_s"] = batch_updates / batch_busy
    out.e2e["latency_p50_ms"] = median_of(stream_us) / 1e3
    out.e2e["peak_rss_mib"] = peak_rss_mib()
    out.detail.update({
        "batch_updates_per_s": out.e2e["throughput_per_s"],
        "stream_update_p50_us": median_of(stream_us),
        **tail(stream_us, "stream_update", "us"),
        "fresh_query_p50_ms": median_of(fresh_ms),
        **tail(fresh_ms, "fresh_query", "ms"),
        "lambda": engine.lam,
    })
    out.layer_extra["engines.model_bytes"] = engine.memory_report().total_bytes()
    return out


# --------------------------------------------------------------------------- #
# serve-burst
# --------------------------------------------------------------------------- #
def serve_burst(seed: int, seconds: float, sizes: Sizes, tracer) -> Outcome:
    from repro.graph import DynamicGraph
    from repro.serve import GraphService

    out = Outcome()
    n, src, dst, bias = inputs.make_graph(seed, sizes.serve_scale, sizes.serve_arcs, floats=False)
    ref = ReferenceGraph(n, src, dst, bias)
    is_arc = sorted_key_membership(ref.sorted_keys(), n)
    graph = DynamicGraph.from_edges(zip(src.tolist(), dst.tolist(), bias.tolist()), num_vertices=n)
    zipf = inputs.ZipfStarts(inputs.rng_for(seed, "starts"), ref.out_degrees())
    interval = 1.0 / sizes.burst_rate
    per_chunk = max(1, int(seconds * sizes.burst_rate) // sizes.setups)

    setup_times = []
    latencies: list[float] = []
    late_ms: list[float] = []
    served = busy_s = 0.0
    queries_served = fused_groups = 0
    for _ in chunks(sizes, seconds, tracer):
        service = tickets = results = None  # release the previous chunk's service first
        starts_all = [zipf.draw(sizes.query_walkers) for _ in range(per_chunk)]
        gc.collect()
        with tracer.span("bench.setup"):
            start = time.perf_counter()
            service = GraphService("bingo", graph, rng=seed, warm_on_publish=True)
            setup_times.append(time.perf_counter() - start)
        try:
            tickets = []
            with measuring(tracer):
                origin = time.perf_counter() + 0.05
                for index in range(per_chunk):
                    due = origin + index * interval
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    late_ms.append((time.perf_counter() - due) * 1e3)
                    try:
                        tickets.append(service.submit("deepwalk", starts_all[index], sizes.query_length))
                    except Exception as exc:
                        out.attempt("query", False, exc)
                        tickets.append(None)
                results = []
                wait_until = time.perf_counter() + RESULT_TIMEOUT_S
                for ticket in tickets:
                    result = None
                    if ticket is not None:
                        try:
                            result = ticket.result(timeout=max(0.0, wait_until - time.perf_counter()))
                            out.attempt("query", True)
                        except Exception as exc:
                            out.attempt("query", False, exc)
                    results.append(result)
            queries_served += service.stats.queries_served
            fused_groups += service.stats.fused_groups
        finally:
            service.close()
        last_done = origin
        for index, (ticket, result) in enumerate(zip(tickets, results)):
            if result is None:
                continue
            if result.epoch != 0:
                raise CheckFailed(f"query {index} served from epoch {result.epoch} without ingest")
            check_walk_matrix(result.walks.matrix, starts_all[index], is_arc)
            done = ticket.submitted_at + result.latency_seconds
            last_done = max(last_done, done)
            latencies.append((done - (origin + index * interval)) * 1e3)
            served += 1
        busy_s += last_done - origin
    if not latencies:
        raise CheckFailed("no query completed")
    out.e2e["setup_s"] = median_of(setup_times)
    out.e2e["throughput_per_s"] = served / busy_s
    out.e2e["latency_p50_ms"] = median_of(latencies)
    out.e2e["peak_rss_mib"] = peak_rss_mib()
    out.detail.update({
        "offered_rate_per_s": sizes.burst_rate,
        "query_p50_ms": median_of(latencies),
        **tail(latencies, "query", "ms"),
        "mean_fused_queries": queries_served / fused_groups,
    })
    out.layer_extra["loadgen.late_p99_ms"] = float(np.percentile(late_ms, 99))
    out.layer_extra["engines.model_bytes"] = service.engine.memory_report().total_bytes()
    return out
