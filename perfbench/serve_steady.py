"""serve-steady: the event-loop HTTP front-end in its own process, driven
over loopback by one closed-loop query connection and one ingest connection
posting fixed-size flushed batches on a fixed schedule."""

from __future__ import annotations

import io
import json
import select
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
from common import SPANS_DIR, NullTracer, Outcome, chunks, geometric_mean, measuring, median_of, tail
from instrument import merge_layers
from reference import CheckFailed, EpochHistory, ReferenceGraph, check_walk_matrix, epoch_membership

HERE = Path(__file__).resolve().parent
APPS = ("deepwalk", "ppr", "node2vec")
PARAMS = {
    "deepwalk": None,
    "ppr": {"termination_probability": 0.15, "max_steps": 8},
    "node2vec": {"p": 2.0, "q": 0.5},
}
READY_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 10.0
#: Pause between a response and the next query on the closed-loop connection.
THINK_S = 0.01


class ServerProcess:
    """One spawned server; every wait on it is bounded."""

    def __init__(self, blob: bytes, seed: int, trace: bool, chunk: int) -> None:
        command = [sys.executable, str(HERE / "server.py"), "--seed", str(seed), "--trace", str(int(trace))]
        if trace:
            SPANS_DIR.mkdir(exist_ok=True)
            command += ["--spans", str(SPANS_DIR / f"spans-serve-steady-server-{seed}-{chunk}.json")]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=HERE.parent,
        )
        try:
            self.proc.stdin.write(struct.pack("<Q", len(blob)) + blob)
            self.proc.stdin.flush()
            self.port = int(self._line("ready", READY_TIMEOUT_S))
        except BaseException:
            self.kill()
            raise
        self.url = f"http://127.0.0.1:{self.port}"

    def _line(self, tag: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CheckFailed(f"server did not report {tag!r} in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                line = self.proc.stdout.readline().decode()
                if not line:
                    raise CheckFailed(f"server exited before reporting {tag!r}")
                if line.startswith(tag + " "):
                    return line[len(tag) + 1:].strip()

    def wait_healthy(self) -> float:
        """Seconds from spawn until ``/v1/healthz`` answers."""
        from repro.serve import ServiceClient

        deadline = time.monotonic() + READY_TIMEOUT_S
        with ServiceClient(self.url, max_retries=0, timeout=REQUEST_TIMEOUT_S) as client:
            while True:
                try:
                    if client.health().get("status") == "ok":
                        return time.perf_counter() - self.started
                except Exception:
                    if time.monotonic() > deadline:
                        raise
                time.sleep(0.005)

    def stop(self) -> dict:
        """Ask the server to stop, wait for its result, reap it."""
        try:
            self.proc.stdin.close()  # end of input is the stop signal
            return json.loads(self._line("result", STOP_TIMEOUT_S))
        finally:
            self.kill()

    def kill(self) -> None:
        """Close stdin (the server's stop signal), wait, and kill if it hangs."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass  # the server already exited and the pipe is broken
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()


def _check_port_released(port: int) -> None:
    """After a stop nothing may listen on the server's port any more."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0):
            pass
    except OSError:
        return
    raise CheckFailed(f"port {port} still accepts connections after the server stopped")


def serve_steady(seed: int, seconds: float, sizes, tracer) -> Outcome:
    from repro.serve import ServiceClient

    out = Outcome()
    n, src, dst, bias = inputs.make_graph(seed, sizes.serve_scale, sizes.serve_arcs, floats=False)
    buffer = io.BytesIO()
    np.savez(buffer, num_vertices=n, src=src, dst=dst, bias=bias)
    blob = buffer.getvalue()
    trace = not isinstance(tracer, NullTracer)
    if trace:
        tracer.wrap(ServiceClient, "query", "client.query")
        tracer.wrap(ServiceClient, "ingest", "client.ingest")

    setup_times = []
    latencies: list[tuple[str, float]] = []
    transport: list[float] = []
    ingest: list[tuple[float, float]] = []
    elapsed = 0.0
    slice_rate: list[float] = []
    slice_latency: list[float] = []
    results = []
    batches = 0
    for chunk, slice_s in chunks(sizes, seconds, tracer):
        # Each chunk is a fresh server on the initial graph with its own
        # reference, update stream and start vertices.
        ref = ReferenceGraph(n, src, dst, bias)
        history = EpochHistory(src, dst)
        server = None
        try:
            with tracer.span("bench.setup"):
                server = ServerProcess(blob, seed, trace, chunk)
                setup_times.append(server.wait_healthy())
            port = server.port
            measured = _drive(server.url, seed, chunk, slice_s, sizes, ref, history, out, tracer)
            with ServiceClient(server.url, max_retries=0, timeout=REQUEST_TIMEOUT_S) as client:
                final_epoch = int(client.health()["epoch"])
            result = server.stop()
            server = None
        finally:
            if server is not None:
                server.kill()
        _check_port_released(port)
        records, chunk_latencies, chunk_transport, chunk_ingest, chunk_elapsed = measured
        # A failed ingest may or may not have been published; ingest stops there.
        published = {history.latest - 1, history.latest} if out.failed.get("ingest") else {history.latest}
        if final_epoch not in published or result.get("epochs_published") != final_epoch:
            raise CheckFailed(f"final epoch {final_epoch} differs from {history.latest} batches ingested")
        last_epoch = 0
        for starts, matrix, epoch in records:
            if epoch < last_epoch:
                raise CheckFailed(f"epoch went backwards on the query connection: {last_epoch} -> {epoch}")
            last_epoch = epoch
            check_walk_matrix(matrix, starts, epoch_membership(history, epoch))
        latencies += chunk_latencies
        slice_rate.append(len(chunk_latencies) / chunk_elapsed)
        slice_latency.append(_latency_role(chunk_latencies))
        transport += chunk_transport
        ingest += chunk_ingest
        elapsed += chunk_elapsed
        batches += final_epoch
        results.append(result)

    pooled = [ms for _, ms in latencies]
    per_app = {app: median_of([ms for a, ms in latencies if a == app]) for app in APPS}
    out.e2e["setup_s"] = median_of(setup_times)
    # Each slice is its own server.  A spell of interference from other
    # tenants of the shared host that covers one slice leaves the middle
    # slice alone, where pooling all slices would carry a third of it.
    out.e2e["throughput_per_s"] = median_of(slice_rate)
    out.e2e["latency_p50_ms"] = median_of(slice_latency)
    out.e2e["peak_rss_mib"] = max(result["peak_rss_mib"] for result in results)
    out.detail.update({
        "queries_per_s": len(latencies) / elapsed,
        "slice_queries_per_s": slice_rate,
        "slice_latency_ms": slice_latency,
        "query_p50_ms": median_of(pooled),
        **{f"{app}_query_p50_ms": value for app, value in per_app.items()},
        **tail(pooled, "query", "ms"),
        "ingest_visible_p50_ms": median_of([row[0] for row in ingest]),
        "batches_ingested": batches,
        "mean_fused_queries": sum(r["queries_served"] for r in results) / sum(r["fused_groups"] for r in results),
    })
    out.layer_extra["serve.transport_ms"] = median_of(transport)
    out.layer_extra["loadgen.late_p99_ms"] = float(np.percentile([row[1] for row in ingest], 99))
    if trace:
        out.server_layers = merge_layers([result["layers"] for result in results])
    return out


def _latency_role(latencies: list[tuple[str, float]]) -> float:
    """Geometric mean of the per-application median latencies.

    The mix is bimodal (node2vec queries cost more), so the pooled median
    sits between the modes and jumps with small shifts of either; the
    geometric mean of the per-application medians does not.
    """
    return geometric_mean(median_of([ms for a, ms in latencies if a == app]) for app in APPS)


def _drive(url, seed, chunk, seconds, sizes, ref, history, out, tracer):
    """Run the two connections for ``seconds``; returns what they measured."""
    from repro.serve import ServiceClient

    stream = inputs.UpdateStream(seed, f"updates-{chunk}", ref, sizes.serve_scale, floats=False)
    zipf = inputs.ZipfStarts(inputs.rng_for(seed, f"starts-{chunk}"), ref.out_degrees())
    stop = threading.Event()
    ingest: list[tuple[float, float]] = []  # (visible ms, late ms)
    ingest_errors: list[BaseException] = []

    def ingest_loop() -> None:
        with ServiceClient(url, max_retries=0, timeout=REQUEST_TIMEOUT_S) as client:
            origin = time.perf_counter() + sizes.ingest_period_s
            index = 0
            while True:
                rows = [stream.next() for _ in range(sizes.ingest_batch)]
                due = origin + index * sizes.ingest_period_s
                if stop.wait(max(0.0, due - time.perf_counter())):
                    return
                history.record(history.latest + 1, rows)
                body = [{"kind": "insert" if ins else "delete", "src": u, "dst": v, "bias": b} for ins, u, v, b in rows]
                sent = time.perf_counter()
                try:
                    reply = client.ingest(body, flush=True)
                    ok = int(reply["epoch"]) == history.latest
                    if not ok:
                        ingest_errors.append(CheckFailed(f"flushed ingest reports epoch {reply['epoch']}, expected {history.latest}"))
                except Exception as exc:
                    out.attempt("ingest", False, exc)
                    ingest_errors.append(exc)
                    return
                out.attempt("ingest", True)
                ingest.append(((time.perf_counter() - sent) * 1e3, (sent - due) * 1e3))
                index += 1

    records = []
    latencies: list[tuple[str, float]] = []
    transport: list[float] = []
    writer = threading.Thread(target=ingest_loop, name="perfbench-ingest")
    with measuring(tracer):
        writer.start()
        try:
            with ServiceClient(url, max_retries=0, timeout=REQUEST_TIMEOUT_S) as client:
                began = time.perf_counter()
                deadline = began + seconds
                elapsed = seconds
                index = 0
                while time.perf_counter() < deadline:
                    app = APPS[index % 3]
                    binary = (index // 3) % 2 == 1
                    index += 1
                    starts = zipf.draw(sizes.query_walkers)
                    sent = time.perf_counter()
                    try:
                        reply = client.query(app, starts.tolist(), sizes.query_length, params=PARAMS[app], binary=binary)
                    except Exception as exc:
                        out.attempt("query", False, exc)
                        continue
                    took = time.perf_counter() - sent
                    out.attempt("query", True)
                    if binary:
                        matrix, epoch, served = np.array(reply.matrix), reply.epoch, reply.latency_seconds
                    else:
                        matrix, epoch, served = np.asarray(reply["walks"]), int(reply["epoch"]), reply["latency_seconds"]
                    records.append((starts, matrix, epoch))
                    latencies.append((app, took * 1e3))
                    transport.append((took - served) * 1e3)
                    time.sleep(THINK_S)
                elapsed = time.perf_counter() - began
        finally:
            stop.set()
            writer.join(timeout=STOP_TIMEOUT_S)
    if writer.is_alive():
        raise CheckFailed("ingest connection did not stop")
    for error in ingest_errors:
        if isinstance(error, CheckFailed):
            raise error
    return records, latencies, transport, ingest, elapsed
