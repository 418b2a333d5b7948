"""Run one workload once, in this fresh process, and print one JSON line.

Started by ``run.py``; not meant to be run by hand.  ``setup_s`` counts
from this module's first line, so it includes the program's imports.
With ``--spans PATH`` the layer wrappers are installed before set-up and
the span file is written to PATH; without it nothing but the workload
runs.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (the
    sweep's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    spans = tracer = None
    if args.spans:
        import spans as spans_mod

        spans = spans_mod.Spans()
        tracer = spans_mod.LayerTracer(spans)
        tracer.install()

    def phase(name: str):
        return spans.phase(name) if spans is not None else nullcontext()

    with phase("workload"):
        with phase("setup"):
            state = workload.setup(args.seed, args.size)
        setup_s = time.perf_counter() - STARTED
        result = {"setup_s": setup_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        state["in_process"] = spans is not None
        before = tracer.totals() if tracer is not None else None
        started = time.perf_counter()
        with phase("run"):
            outputs = workload.run(state)
        result["run_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = peak_rss_mb()
    result["hash"] = workloads.digest(outputs)
    result["checks"] = workload.checks(outputs)
    if "result" in state and spans is None:
        result["runner"] = workloads.runner_metrics(state)
    if spans is not None:
        after = tracer.totals()
        totals = {key: after[key] - before[key] for key in after}
        result["layers"] = spans_mod.layer_metrics(spans, tracer, totals)
        tracer.uninstall()
        spans.dump(
            args.spans,
            {"workload": args.workload, "seed": args.seed, "size": args.size, "hash": result["hash"]},
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
