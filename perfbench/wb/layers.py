"""Per-layer metrics, from traced runs only.

Sources: the WECSIM_PROFILE phase timers in each timing report, the
records of each run report, the progress stream, the layer probe's timed
calls into public classes, and the benchmark's own spans around its calls
into the service.
"""

import json
import os
import time

from . import host, procs, service, stats

MINI_SERVICE_JOBS = 12

# (metric, unit) — every traced run prints all of them.
PER_LAYER = [
    ("core.ns_per_cycle", "ns"),
    ("core.point_s_p50", "s"),
    ("core.point_s_p90", "s"),
    ("core.sim_cycles", "count"),
    ("core.committed", "count"),
    ("core.sampled_detail_frac", "ratio"),
    ("core.sampled_ci95_pct", "%"),
    ("cpu.fetch_s", "s"),
    ("cpu.rename_s", "s"),
    ("cpu.issue_s", "s"),
    ("cpu.exec_s", "s"),
    ("cpu.commit_s", "s"),
    ("cpu.recover_s", "s"),
    ("cpu.mispredicts", "count"),
    ("cpu.wrong_path_loads", "count"),
    ("sta.ring_s", "s"),
    ("sta.skip_scan_s", "s"),
    ("sta.forks", "count"),
    ("sta.wrong_threads", "count"),
    ("mem.access_s", "s"),
    ("mem.ifetch_s", "s"),
    ("mem.l1_access_ns", "ns"),
    ("mem.side_probe_ns", "ns"),
    ("mem.l1d_miss_rate", "ratio"),
    ("mem.wec_used_frac", "ratio"),
    ("func.minstr_per_s", "Minstr/s"),
    ("workloads.build_ms", "ms"),
    ("harness.dup_frac", "ratio"),
    ("harness.drain_idle_frac", "ratio"),
    ("harness.report_write_ms", "ms"),
    ("harness.cache_hit_frac", "ratio"),
    ("service.ready_ms", "ms"),
    ("service.submit_rtt_ms_p50", "ms"),
    ("service.submit_rtt_ms_p90", "ms"),
    ("service.status_rtt_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
]
UNITS = dict(PER_LAYER)

# Profile phase (timing report key) -> metric.
PHASES = {
    "core.fetch": "cpu.fetch_s",
    "core.rename": "cpu.rename_s",
    "core.issue": "cpu.issue_s",
    "core.exec": "cpu.exec_s",
    "core.commit": "cpu.commit_s",
    "core.recover": "cpu.recover_s",
    "sta.ring": "sta.ring_s",
    "sta.skip_scan": "sta.skip_scan_s",
    "mem.access": "mem.access_s",
    "mem.ifetch": "mem.ifetch_s",
}


def put(res, name, value):
    res.put(name, value, UNITS[name])


def put_records(res, records):
    """Deterministic counts and design ratios from run-report records."""
    total = lambda key: sum(r["result"].get(key, 0) for r in records)
    put(res, "core.sim_cycles", total("cycles"))
    put(res, "core.committed", total("committed"))
    put(res, "cpu.mispredicts", total("mispredicts"))
    put(res, "cpu.wrong_path_loads", total("wrong_path_loads"))
    put(res, "sta.forks", total("forks"))
    put(res, "sta.wrong_threads", total("wrong_threads"))
    accesses = total("l1d_accesses")
    put(res, "mem.l1d_miss_rate",
        total("l1d_misses") / accesses if accesses else 0.0)
    fills = used = 0
    for r in records:
        for origin in r.get("wec", {}).get("by_origin", {}).values():
            fills += origin.get("fills", 0)
            used += origin.get("used", 0)
    put(res, "mem.wec_used_frac", used / fills if fills else 0.0)
    sampled = [r["sampling"] for r in records if "sampling" in r]
    if sampled:
        detailed = sum(w.get("warmup_commits", 0) +
                       w.get("measure_commits_all", 0)
                       for s in sampled for w in s.get("windows", []))
        put(res, "core.sampled_detail_frac",
            detailed / sum(s["func_instrs"] for s in sampled))
        put(res, "core.sampled_ci95_pct",
            stats.median([s["ci95_pct"] for s in sampled]))
    else:
        # Full fidelity: every instruction runs detailed; no estimate.
        put(res, "core.sampled_detail_frac", 1.0)
        put(res, "core.sampled_ci95_pct", 0.0)


def put_points(res, point_seconds, cycles):
    put(res, "core.ns_per_cycle", sum(point_seconds) / cycles * 1e9)
    put(res, "core.point_s_p50", stats.percentile(point_seconds, 50))
    put(res, "core.point_s_p90", stats.percentile(point_seconds, 90))


def put_profile(res, seconds_by_phase):
    for phase, metric in PHASES.items():
        put(res, metric, seconds_by_phase.get(phase, 0.0))


def from_bench_runs(res, runs, progress_dir=None):
    """Layer metrics of profiled bench binaries (sweep binaries only).
    Returns the points the progress streams saw finish (0 without them)."""
    timings = [r.timing() for r in runs]
    records = [rec for r in runs for rec in r.report()["runs"]]
    put_records(res, records)
    point_s = [p["run_seconds"] for t in timings for p in t["runs"]]
    put_points(res, point_s, sum(p["cycles"] for t in timings
                                 for p in t["runs"]))
    phases = {}
    writes = [0.0, 0]
    for t in timings:
        for phase, v in t.get("profile", {}).items():
            phases[phase] = phases.get(phase, 0.0) + v["seconds"]
        rw = t.get("profile", {}).get("harness.report_write", {})
        writes[0] += rw.get("seconds", 0.0)
        writes[1] += rw.get("calls", 0)
    put_profile(res, phases)
    put(res, "harness.report_write_ms",
        writes[0] / writes[1] * 1e3 if writes[1] else 0.0)
    put(res, "harness.drain_idle_frac", stats.pooled_idle_frac(
        [(t["jobs"], t["wall_seconds"], [p["run_seconds"] for p in t["runs"]])
         for t in timings]))
    done = hits = 0
    if progress_dir:
        for name in os.listdir(progress_dir):
            with open(os.path.join(progress_dir, name)) as f:
                for line in f:
                    ev = json.loads(line)
                    if ev.get("event") == "finish":
                        done += ev["done"]
                        hits += ev["cache_hits"]
    # With one shared cache dir, every cache hit is a point another figure
    # (or this one) already simulated.
    put(res, "harness.dup_frac", hits / done if done else 0.0)
    put(res, "harness.cache_hit_frac", hits / done if done else 0.0)
    return done


# bench_micro case -> metric: the L1 (8 KiB, 4-way) and the 8-entry side
# cache, each the median of five repetitions.
MICRO_CASES = {
    "BM_CacheAccess/4": "mem.l1_access_ns",
    "BM_SideCacheProbe/8": "mem.side_probe_ns",
}


def micro_cases(report):
    """{case: ns per call} from bench_micro's JSON report (median
    aggregates)."""
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    out = {}
    for b in report["benchmarks"]:
        if b.get("aggregate_name") == "median":
            out[b["run_name"]] = b["real_time"] * scale[b["time_unit"]]
    return out


def common_probes(res, work, spans):
    """Timed calls into the public mem, func and workloads classes."""
    t0 = time.perf_counter()
    p = procs.run([host.bench_path(host.MICRO), "--benchmark_filter=" +
                   "|".join("^%s$" % c for c in MICRO_CASES),
                   "--benchmark_repetitions=5",
                   "--benchmark_report_aggregates_only=true",
                   "--benchmark_format=json"], host.hermetic_env(), work)
    spans.add("bench.bench_micro", t0, time.perf_counter(), run="probe")
    if p.rc != 0:
        raise host.BenchError("bench_micro exited %d" % p.rc)
    cases = micro_cases(json.loads(p.stdout))
    for case, metric in MICRO_CASES.items():
        if case not in cases:
            raise host.BenchError("bench_micro did not run %s" % case)
        put(res, metric, cases[case])
    t0 = time.perf_counter()
    p = procs.run([host.probe_path(), "micro"], host.hermetic_env(), work)
    spans.add("probe.micro", t0, time.perf_counter(), run="probe")
    if p.rc != 0:
        raise host.BenchError("layer_probe micro exited %d" % p.rc)
    m = json.loads(p.stdout.strip().splitlines()[-1])
    put(res, "func.minstr_per_s", m["func_instrs"] / m["func_seconds"] / 1e6)
    put(res, "workloads.build_ms", m["build_ms"])


def trace_overhead(res, work, spans, env):
    """bench_fig11 in `env`, untraced then traced:
    obs.trace_overhead_frac = traced wall / untraced wall - 1.
    Returns the traced run."""
    from .workloads import BenchRun
    walls = {}
    for profile in (False, True):
        t0 = time.perf_counter()
        run = BenchRun("bench_fig11", work, env,
                       os.path.join(work, "overhead%d" % profile), None,
                       profile=profile)
        spans.add("bench.bench_fig11" + (".traced" if profile else ""),
                  t0, time.perf_counter(), run="overhead")
        res.check(run.proc.rc == 0, "bench_fig11 exited %d" % run.proc.rc)
        walls[profile] = run.proc.wall_s
    put(res, "obs.trace_overhead_frac", walls[True] / walls[False] - 1.0)
    return run


def repeated_share(jobs):
    """Share of submitted points that repeat a point submitted earlier."""
    seen, repeats, total = set(), 0, 0
    for job in jobs:
        for p in job["points"]:
            key = (job["workload"], job["seed"], p["key"])
            repeats += key in seen
            total += 1
            seen.add(key)
    return repeats / total if total else 0.0


def replay(res, work, daemon, done, profile):
    """Re-run every finished job's fresh points in process (layer_probe
    replay) and check each report.json is byte-identical. Returns one dict
    per job: identical, write_ms, point_s; plus the profile when on."""
    lines, provenance = [], []
    for job, job_id, _lat in done:
        jdir = daemon.job_dir(job_id)
        with open(os.path.join(jdir, "provenance.json")) as f:
            prov = {p["key"]: p["provenance"] for p in json.load(f)["points"]}
        provenance.append(prov)
        pts = ["%s=%s:%d:%d" % (p["key"], p["config"], p["tus"], p["mem_lat"])
               for p in job["points"] if prov.get(p["key"]) == "hot"]
        lines.append(" ".join([os.path.join(jdir, "report.json"), job["name"],
                               job["workload"], str(job["scale"]),
                               str(job["seed"])] + pts))
    spec = os.path.join(work, "replay.txt")
    with open(spec, "w") as f:
        f.write("\n".join(lines) + "\n")
    scratch = os.path.join(work, "replay")
    os.makedirs(scratch, exist_ok=True)
    env = host.hermetic_env({"WECSIM_PROFILE": "1"} if profile else {})
    p = procs.run([host.probe_path(), "replay", spec, str(host.jobs()),
                   scratch], env, work)
    if p.rc != 0:
        raise host.BenchError("layer_probe replay exited %d" % p.rc)
    out = [json.loads(line) for line in p.stdout.splitlines() if line]
    prof = {}
    if out and "profile" in out[-1]:
        prof = out.pop()["profile"]
    bad = sum(1 for o in out if not o["identical"])
    res.check(len(out) == len(done) and bad == 0,
              "%d service report(s) differ from an in-process run" % bad)
    return out, prof, provenance


def put_service(res, daemon, loop, out):
    put(res, "service.ready_ms", daemon.ready_s * 1e3)
    put(res, "service.submit_rtt_ms_p50",
        stats.percentile(loop.submit_rtt_ms, 50))
    put(res, "service.submit_rtt_ms_p90",
        stats.percentile(loop.submit_rtt_ms, 90))
    put(res, "service.status_rtt_ms", stats.median(loop.status_rtt_ms))
    put(res, "service.queue_wait_ms", stats.median(loop.queue_wait_ms))
    # Beyond the job's critical path: its slowest fresh point simulated in
    # process. What is left is queueing, fork, WAL and sealing.
    put(res, "service.overhead_ms", stats.median(
        [lat - max(o["point_s"], default=0.0) * 1e3
         for (_j, _i, lat), o in zip(loop.done, out)]))


def mini_service(res, work, spans, seed):
    """A short traced service pass, so every traced run reports the service
    layer; the `service` workload measures it at full length."""
    state = os.path.join(work, "mini_state")
    cache = os.path.join(state, "cache")
    daemon = service.Daemon(state, host.jobs(),
                            {"WECSIM_CACHE_DIR": os.path.abspath(cache)})
    os.makedirs(cache)
    jobs = service.generate_jobs(seed, MINI_SERVICE_JOBS)
    try:
        loop = service.closed_loop(daemon, jobs, service.clients(),
                                   spans=spans, status_poll_s=0.002)
    finally:
        rc = daemon.stop()
    res.check(rc == 0 and loop.failed == 0, "mini service pass failed")
    out, _prof, _prov = replay(res, work, daemon, loop.done, profile=False)
    put_service(res, daemon, loop, out)


def from_service(res, work, daemon, jobs, loop, bursts, spans):
    """Layer metrics of the traced service workload."""
    t0 = time.perf_counter()
    out, _prof, provenance = replay(res, work, daemon, loop.done,
                                    profile=False)
    replay(res, work, daemon, [d for b in bursts for d in b.done],
           profile=False)
    spans.add("probe.replay", t0, time.perf_counter(), run="service")
    # Profiling inflates point times, so the phase split comes from a
    # separate profiled replay of the first jobs only.
    t0 = time.perf_counter()
    _out, prof, _prov = replay(res, work, daemon,
                               loop.done[:MINI_SERVICE_JOBS], profile=True)
    spans.add("probe.replay.profiled", t0, time.perf_counter(),
              run="service")
    put_service(res, daemon, loop, out)
    records = []
    for _job, job_id, _lat in loop.done:
        with open(os.path.join(daemon.job_dir(job_id), "report.json")) as f:
            records += json.load(f)["runs"]
    put_records(res, records)
    point_s = [s for o in out for s in o["point_s"]]
    put_points(res, point_s, sum(r["result"]["cycles"] for r in records))
    put_profile(res, prof)
    put(res, "harness.report_write_ms",
        stats.median([o["write_ms"] for o in out]))
    put(res, "harness.drain_idle_frac", stats.drain_idle_frac(
        host.jobs(), loop.wall_s, point_s))
    put(res, "harness.dup_frac", repeated_share(jobs))
    states = [s for prov in provenance for s in prov.values()]
    put(res, "harness.cache_hit_frac",
        states.count("cached") / len(states) if states else 0.0)
