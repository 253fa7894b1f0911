#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --workload census --pairs 10 --seconds 20 \\
        --seed 1 --parent HEAD --out BENCH_20.json

The parent revision is exported with `git archive` into a temporary
directory, so nothing is fetched and the checkout is left as it is.  Each
pair runs floerbench/run.py of both sides, one process at a time, with the
same workload, seed and seconds; the side that runs first alternates from
pair to pair.  The output JSON gains, under "untraced" (or "traced" with
--trace 1) and a key (the workload name at seed 1, "<workload>_seed<n>"
at any other seed), each side's median and quartiles per metric, the pairs
the change won per metric (ties count for neither side; "better" is read
from BENCHMARK.json) and the raw result lines.  The file is rewritten after
every pair, and entries under other keys are kept.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def export(rev, dest):
    """Write the files of rev under dest with git archive."""
    tar = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_once(root, args):
    """The result line of one floerbench run in checkout root."""
    cmd = [
        sys.executable,
        os.path.join(root, "floerbench", "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(
            "%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr[-2000:])
        )
    return json.loads(lines[-1])


def directions(trace):
    """metric -> 'higher' or 'lower', from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench["per_layer" if trace else "end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        values = values * 2  # one run: every quartile is that run
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs, better):
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    summary = {}
    for name in pairs[0]["change"] if pairs else ():
        values = {side: [p[side][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if better.get(name, "lower") == "higher" else -1
        summary[name] = {side: quartiles(values[side]) for side in SIDES}
        summary[name]["change_wins"] = sum(
            sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
        )
    return {"pairs": len(pairs), "summary": summary, "runs": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", default="HEAD", help="revision to compare with")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to update")
    args = parser.parse_args(argv)

    out = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            out = json.load(f)
    section = out.setdefault("traced" if args.trace else "untraced", {})
    key = args.workload if args.seed == 1 else "%s_seed%d" % (args.workload, args.seed)
    better = directions(args.trace)
    runs = []
    with tempfile.TemporaryDirectory() as parent_root:
        export(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                result = run_once(roots[side], args)
                runs.append(
                    {"workload": args.workload, "seed": args.seed, "pair": pair,
                     "side": side, "result": result}
                )
                print(
                    "pair %d %-6s %s" % (pair, side, json.dumps(result["metrics"])),
                    file=sys.stderr,
                )
            section[key] = summarize(runs, better)
            with open(args.out, "w") as f:
                json.dump(out, f, indent=1)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
