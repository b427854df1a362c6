#!/usr/bin/env python3
"""wecsim benchmark: end-to-end metrics untraced, per-layer metrics traced.

  python3 perfbench/run.py --workload repro|sampled32|service|all \
      [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload W --sets N [--seconds S]

Run from the repository root. The first run builds the program (Release)
and the layer probe into .bench_build/. The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
nonzero when an output check fails. `all` runs the three workloads in turn,
each printing its own result line. --sets runs two sets of N runs of one
workload (seeds 1..N and N+1..2N) and prints, for every metric, each set's
quartiles and the set-to-set delta of the medians. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark's own tree clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from wb import host, layers, stats, workloads  # noqa: E402

END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("max_rss_mb", "MiB"),
    ("fig11_s", "s"), ("delta_err_pp", "pp"), ("delta_err_max_pp", "pp"),
    ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
]


def measure(args):
    host.build()
    facts = host.host_facts()
    print("host: " + json.dumps(facts, sort_keys=True))
    if facts["build_type"] != "Release":
        raise host.BenchError("not a Release build")
    work = workloads.fresh_dir(os.path.join(host.BUILD, "r", args.workload))
    res = workloads.WORKLOADS[args.workload](args, work, bool(args.trace))
    wanted = layers.PER_LAYER if args.trace else END_TO_END
    for name, unit in wanted:
        if name not in res.metrics:
            res.problems.append("metric %s was not measured" % name)
    print("workload: %s  seed: %d  seconds: %d  trace: %d  jobs: %d" %
          (args.workload, args.seed, args.seconds, args.trace, host.jobs()))
    for note in res.notes:
        print(note)
    for name, unit in wanted:
        if name in res.metrics:
            print("  %-28s %14.6g %s" % (name, res.metrics[name][0], unit))
    print("attempted: %d  failed: %d" % (res.attempted, res.failed))
    for problem in res.problems:
        print("CHECK FAILED: " + problem)
    correct = not res.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": {name: {"value": res.metrics[name][0], "unit": unit}
                    for name, unit in wanted if name in res.metrics},
    }))
    return 0 if correct else 1


def sets(args):
    """Two separate sets of runs of one workload, compared metric by
    metric: the evidence that two sets of the same code agree."""
    runs = {0: [], 1: []}
    for s in (0, 1):
        for i in range(args.sets):
            seed = 1 + s * args.sets + i
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True,
                               cwd=host.ROOT)
            last = p.stdout.strip().splitlines()[-1] if p.stdout else "{}"
            if p.returncode != 0:
                print("set %d seed %d failed (exit %d):\n%s" % (
                    s + 1, seed, p.returncode, p.stdout[-2000:]))
                return 1
            runs[s].append(json.loads(last)["metrics"])
            print("set %d seed %d: %s" % (s + 1, seed, last), flush=True)
    print("\n%-18s %11s %11s %11s %8s | %11s %11s %11s %8s | %8s" % (
        "metric", "q1", "median", "q3", "spread", "q1", "median", "q3",
        "spread", "delta"))
    for name, _unit in END_TO_END:
        row = []
        for s in (0, 1):
            vals = [m[name]["value"] for m in runs[s]]
            q1, q2, q3 = stats.quartiles(vals)
            row += [q1, q2, q3, stats.spread(vals)]
        delta = row[5] / row[1] - 1.0 if row[1] else float("nan")
        print("%-18s %11.5g %11.5g %11.5g %7.2f%% | %11.5g %11.5g %11.5g "
              "%7.2f%% | %+7.2f%%" % tuple([name] + row[:3] + [100 * row[3]] +
                                         row[4:7] + [100 * row[7]] +
                                         [100 * delta]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=0,
                    help="steadiness mode: two sets of this many runs")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.sets and args.workload == "all":
        ap.error("--sets compares one workload at a time")
    try:
        if args.sets:
            return sets(args)
        if args.workload != "all":
            return measure(args)
        rc = 0
        for name in workloads.WORKLOADS:
            rc = max(rc, measure(argparse.Namespace(**dict(
                vars(args), workload=name))))
        return rc
    except host.BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
