"""One ``segment`` and/or ``evaluate`` pass through ``pipeline_cli.main`` in a fresh process.

Usage: ``python3 perfbench/worker.py REQUEST.json RESULT.json``

The request names the source tree, the ``segment`` command line (or none),
the ``evaluate`` command line with how often to run it (or zero times),
the prediction file whose appearance marks the first prediction, and
whether to trace. The result holds the wall times, the worker's peak RSS
and, when traced, the per-layer metrics; the span rows go to
``request["spans_path"]``. A fresh process per pass keeps peak RSS a
property of that pass alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def run(request: dict) -> dict:
    sys.path.insert(0, request["src"])
    from panseg4d import pipeline_cli

    import tracer as tracing

    tracer = tracing.install(tracing.Tracer()) if request["trace"] else None
    result = {}
    try:
        if request["segment_args"]:
            started_ns = time.time_ns()
            start = time.perf_counter()
            result["segment_rc"] = pipeline_cli.main(request["segment_args"])
            result["segment_s"] = time.perf_counter() - start
            first_prediction = Path(request["first_prediction"])
            # File mtimes come from the kernel's coarse clock (a few ms granularity).
            result["first_prediction_s"] = (
                (first_prediction.stat().st_mtime_ns - started_ns) / 1e9
                if first_prediction.exists() else None
            )
        result["evaluate_s"] = []
        for _ in range(request["evaluate_repeats"]):
            start = time.perf_counter()
            result["evaluate_rc"] = pipeline_cli.main(request["evaluate_args"])
            result["evaluate_s"].append(time.perf_counter() - start)
            if result["evaluate_rc"] != 0:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        Path(request["spans_path"]).write_text(json.dumps(tracing.span_records(tracer.spans)))
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    request = json.loads(Path(argv[0]).read_text())
    result = run(request)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
