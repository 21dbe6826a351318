"""Bingo wall-clock benchmark: one command, four workloads.

BENCHMARK.json bounds three of them; serve-burst runs by hand and in --smoke.

    python3 perfbench/run.py --workload walk-static --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke       # every workload, tiny inputs
    python3 perfbench/run.py --selftest    # the checkers reject corrupted outputs

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("walk-static", "ingest-mixed", "serve-steady", "serve-burst")
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    import inprocess
    import serve_steady
    from common import SPANS_DIR, NullTracer, Outcome
    from reference import CheckFailed

    tracer = NullTracer()
    if trace:
        from instrument import install
        from spans import Tracer

        tracer = Tracer()
        install(tracer)
    runner = {
        "walk-static": inprocess.walk_static,
        "ingest-mixed": inprocess.ingest_mixed,
        "serve-burst": inprocess.serve_burst,
        "serve-steady": serve_steady.serve_steady,
    }[name]
    correct = True
    try:
        outcome = runner(seed, seconds, sizes, tracer)
        if not outcome.attempted:
            raise CheckFailed("the run attempted no operation")
    except CheckFailed as exc:
        correct = False
        outcome = Outcome(check_error=str(exc))
        traceback.print_exc(file=sys.stderr)
    attempted = sum(outcome.attempted.values())
    failed = sum(outcome.failed.values())
    if not correct:
        metrics = {}
    elif trace:
        from instrument import LAYER_METRICS, layer_metrics

        layers = layer_metrics(tracer, outcome.layer_extra)
        if outcome.server_layers is not None:
            client_owned = ("trace.run_s", "trace.uncovered_s", *outcome.layer_extra)
            layers = {k: (layers[k] if k in client_owned else outcome.server_layers[k]) for k in LAYER_METRICS}
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in layers.items()}
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{name}-{seed}.json")
    else:
        metrics = {k: {"value": float(outcome.e2e[k]), "unit": u} for k, u in E2E_UNITS.items()}
    detail = {
        "workload": name,
        "seed": seed,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "check_error": outcome.check_error,
        "end_to_end": outcome.e2e,
        **outcome.detail,
    }
    print("detail " + json.dumps(detail, default=float), flush=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload briefly on tiny inputs")
    parser.add_argument("--selftest", action="store_true", help="check that the checkers catch corrupted outputs")
    args = parser.parse_args(argv)
    # A terminated run unwinds normally, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))

    if args.selftest:
        import selftest

        return selftest.main()
    from common import FULL, SMOKE

    if args.smoke:
        bad = 0
        # Untraced runs first: tracing wraps the program for the rest of the process.
        for trace in (False, True):
            for name in WORKLOADS:
                result = run_workload(name, args.seed, 1.0, trace, SMOKE)
                ok = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
                bad += not ok
                print(f"smoke {name} trace={int(trace)}: {'ok' if ok else 'FAILED'} {json.dumps(result)}")
        return 1 if bad else 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
