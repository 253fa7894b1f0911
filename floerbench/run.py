"""Run one workload of the knotfloer benchmark and print its metrics.

    python3 floerbench/run.py --workload census --seed 1 --seconds 20 --trace 0

One process, one thread, one caller in a closed loop: each operation starts
after the previous one returns.  The run repeats the workload's round of
operations whole until --seconds of it have passed, checking every answer
after its round.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (spans are then written to
floerbench/out/).
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("census", "surgery", "connected_sum")
MIN_TAIL_SAMPLES = 10


def run_rounds(workload, seconds, tracer, checks):
    """Repeat the round of operations until `seconds` of it have passed.

    Each round's answers are checked, outside the timed phase, as soon as the
    round ends, then dropped.  Returns (rounds, latencies, failed, seconds).
    """
    clock = time.perf_counter
    latencies = []
    rounds = failed = 0
    elapsed = 0.0
    while True:
        answers = []
        start = clock()
        for kind, fn, args, key in workload.ops:
            t = clock()
            try:
                ans = tracer.span("op." + kind, fn, *args) if tracer else fn(*args)
            except Exception:
                failed += 1
                ans = None
                print("operation %s %r failed:" % (kind, key), file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            else:
                latencies.append(clock() - t)
            answers.append(ans)
        elapsed += clock() - start
        rounds += 1
        if tracer:
            tracer.active = False
        workload.check_round(answers, checks)
        if tracer:
            tracer.active = True
        if elapsed >= seconds:
            return rounds, latencies, failed, elapsed


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "knotfloer", "__init__.py")):
        print("floerbench: no knotfloer sources under %s" % SRC, file=sys.stderr)
        return 2
    # import the checkout's sources and this package, never an installed copy
    sys.path[:] = [SRC, ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    import knotfloer

    if os.path.dirname(os.path.abspath(knotfloer.__file__)) != os.path.join(SRC, "knotfloer"):
        print("floerbench: imported knotfloer from %s" % knotfloer.__file__, file=sys.stderr)
        return 2
    from floerbench import oracle, spans, workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if tracer:
        tracer.span("setup", workload.setup)
    else:
        workload.setup()
    setup_s = time.perf_counter() - START

    checks = oracle.Checks()
    rounds, latencies, failed, wall = run_rounds(workload, args.seconds, tracer, checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.active = False
    attempted = rounds * len(workload.ops)
    workload.check_inputs(checks)
    for line in checks.failures:
        print("check failed: " + line, file=sys.stderr)
    if not latencies:
        print("floerbench: every operation failed", file=sys.stderr)
        return 1

    tail = workload.tail_percentile
    if len(latencies) * (100 - tail) < 100 * MIN_TAIL_SAMPLES:
        print(
            "floerbench: %d samples leave fewer than %d beyond p%d"
            % (len(latencies), MIN_TAIL_SAMPLES, tail),
            file=sys.stderr,
        )
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": len(workload.ops),
        "round_s": wall / rounds,
        "setup_s": setup_s,
        "checks": checks.made,
        "tail_percentile": tail,
    }
    if tracer:
        metrics = spans.layer_metrics(tracer, len(latencies))
        summary["layer_shares"] = tracer.layer_shares()
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", "%s-seed%d.json.gz" % (args.workload, args.seed))
        tracer.write(path, dict(summary, metrics=metrics))
        units = {k: ("count" if not k.endswith("_ms") else "ms") for k in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "throughput_ops_per_s": len(latencies) / wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": percentile(latencies, tail) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {
            "setup_s": "s",
            "throughput_ops_per_s": "ops/s",
            "latency_p50_ms": "ms",
            "latency_tail_ms": "ms",
            "peak_rss_mb": "MB",
        }
    print(json.dumps(summary, sort_keys=True))
    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
