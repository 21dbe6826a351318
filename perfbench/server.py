"""The serve-steady server process: event-loop front-end over a GraphService.

Started by ``serve_steady.py`` as ``python3 perfbench/server.py --seed S
--trace 0|1``.  Protocol on the pipes:

* stdin: an 8-byte little-endian length, then an ``.npz`` blob holding the
  initial graph (``num_vertices``, ``src``, ``dst``, ``bias``); afterwards
  any line (or end of file) asks the server to stop;
* stdout: ``ready <port>`` once ``/v1/healthz`` can answer, and
  ``result <json>`` after a clean stop (peak RSS, service counters and, when
  tracing, the server-side per-layer metrics).
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import struct
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where to write the server's spans when tracing")
    args = parser.parse_args()

    import numpy as np

    (size,) = struct.unpack("<Q", sys.stdin.buffer.read(8))
    arrays = np.load(io.BytesIO(sys.stdin.buffer.read(size)))
    tracer = None
    if args.trace:
        from instrument import install
        from spans import Tracer

        tracer = Tracer()
        install(tracer)

    from repro.graph import DynamicGraph
    from repro.serve import GraphService, serve_event_loop

    edges = zip(arrays["src"].tolist(), arrays["dst"].tolist(), arrays["bias"].tolist())
    graph = DynamicGraph.from_edges(edges, num_vertices=int(arrays["num_vertices"]))
    service = GraphService("bingo", graph, rng=args.seed, warm_on_publish=True)
    server, thread = serve_event_loop(service)
    if tracer is not None:
        tracer.phase = "run"
    print(f"ready {server.server_address[1]}", flush=True)
    try:
        sys.stdin.buffer.readline()
    finally:
        server.shutdown()
        thread.join(timeout=10.0)
        service.close()
    if tracer is not None:
        tracer.phase = "end"
    stats = service.stats
    result = {
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epochs_published": stats.epochs_published,
        "batches_ingested": stats.batches_ingested,
        "queries_served": stats.queries_served,
        "fused_groups": stats.fused_groups,
        "model_bytes": service.engine.memory_report().total_bytes(),
    }
    if tracer is not None:
        from instrument import layer_metrics

        result["layers"] = layer_metrics(
            tracer,
            {"engines.model_bytes": result["model_bytes"], "serve.epochs_published": stats.epochs_published},
        )
        if args.spans:
            tracer.write(args.spans)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
