"""The three workloads, untraced (end-to-end metrics) and traced (per-layer).

repro      every reproduction binary in sequence at scale 4, the way a user
           regenerates EXPERIMENTS.md; where the cpu/sta/mem hot paths and
           cross-figure duplicate points show.
sampled32  bench_fig11 at scale 32 in sampled mode; the only path where
           functional fast-forward is a large share of host time, and the
           one that carries the sampling error against full fidelity.
service    a fresh wecsimd driven closed-loop by seeded scale-1 jobs; there
           the service layer (admission, WAL, fork per point, sealing) does
           most of the work.
"""

import hashlib
import json
import os
import shutil
import time

from . import host, layers, procs, service, stats
from .spans import Spans

# Extra launches, each timed to its first point (or, for wecsimd, to its
# first health answer) and then stopped. A set-up of a few ms swings with
# the host's state: two back-to-back batches of 40 launches on a 4-vCPU
# Xeon VM had medians 1.6 and 2.1 ms. So the launches are many, and where
# the workload allows they are spread over the run (round-robin over the
# repro binaries, between the sampled repetitions and the fig11 bursts).
SETUP_PROBES = 8           # per repro binary
SAMPLED_SETUP_PROBES_PER_REP = 4
SERVICE_SETUP_PROBES_PER_BURST = 10  # about 10 ms each
REPRO_UNIT_S = 30.0        # one full reproduction on 4 vCPUs
SAMPLED_UNIT_S = 4.0       # one sampled fig11 at scale 32 on 4 vCPUs
SERVICE_JOBS_PER_S = 20.0  # closed-loop rate on 4 workers, 3 clients
FIG11_BURSTS = 13          # fig11 grids submitted through the service
FIG11_EXTRA_RUNS = 4       # more bench_fig11 runs per repro repetition
REF_CACHE = os.path.join(host.BUILD, "fig11_ref_cache")
DIGESTS = os.path.join(host.BUILD, "report_digests.json")


class Result:
    """What one run prints: metrics (name -> (value, unit)), operations
    attempted and failed, and the output checks that failed."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def check(self, ok, problem):
        if not ok:
            self.problems.append(problem)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def read_json(path):
    with open(path) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Shared pieces


def reference_table(work):
    """Full-fidelity fig11 at scale 32, outside any timed region. The result
    cache it runs through is the benchmark's own and survives runs; its key
    includes kSimulatorVersion, so a model change recomputes it."""
    os.makedirs(REF_CACHE, exist_ok=True)
    env = host.hermetic_env({"WECSIM_SCALE": "32",
                             "WECSIM_CACHE_DIR": REF_CACHE})
    p = procs.run([host.bench_path("bench_fig11"), "--jobs=%d" % host.jobs()],
                  env, work)
    if p.rc != 0:
        raise host.BenchError("full-fidelity reference exited %d" % p.rc)
    table = stats.parse_fig11_table(p.stdout)
    if len(table) != 42 or any(v is None for v in table.values()):
        raise host.BenchError("full-fidelity reference table is incomplete")
    # Timing starts with the disk flushed, so writes of an earlier run (or
    # of a reference just computed) are not still being written back.
    os.sync()
    return table


def put_delta(res, table, ref, label):
    err = stats.delta_err(table, ref)
    res.check(err["na"] == 0 and err["cells"] == 42,
              "%s: %d fig11 cell(s) n/a" % (label, err["na"]))
    if err["cells"]:
        res.put("delta_err_pp", err["mean"], "pp")
        res.put("delta_err_max_pp", err["max"], "pp")
    return err


def print_error_table(title, table, ref):
    print("%s (|candidate - full fidelity @ scale 32|, pp):" % title)
    print("  %-11s %-11s %9s %9s %7s" % ("workload", "config", "candidate",
                                        "reference", "delta"))
    for w, c, a, b, d in stats.error_table(table, ref):
        fmt = lambda v: "n/a" if v is None else "%.1f" % v
        print("  %-11s %-11s %9s %9s %7s" % (w, c, fmt(a), fmt(b), fmt(d)))


def check_digest(res, workload, env, digest, path=DIGESTS):
    """Canonical run reports must not change between runs of one code. The
    key names the program's sources, the benchmark's own code and the
    workload's environment; a digest is recorded only from a run whose
    other checks passed."""
    env_digest = hashlib.sha256(json.dumps(env, sort_keys=True).encode())
    key = "%s:%s:%s:%s" % (host.source_digest(), host.bench_digest(),
                           workload, env_digest.hexdigest()[:16])
    try:
        known = read_json(path)
    except (OSError, ValueError):
        known = {}
    if key in known:
        res.check(known[key] == digest,
                  "run-report digest changed between runs of the same code")
    elif not res.problems:
        known[key] = digest
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(known, f, indent=1)
        os.replace(tmp, path)


def job_percentiles(res, latencies_ms, require_tail):
    n = len(latencies_ms)
    tail = stats.tail_percentile(n)
    res.notes.append("job latency samples: %d (highest percentile with "
                     ">= %d beyond: %s)" % (n, stats.MIN_BEYOND, tail))
    if require_tail:
        res.check(tail is not None and tail >= 90,
                  "only %d job(s): p90 needs %d beyond it" %
                  (n, stats.MIN_BEYOND))
    res.put("job_p50_ms", stats.percentile(latencies_ms, 50), "ms")
    res.put("job_p90_ms", stats.percentile(latencies_ms, 90), "ms")


class BenchRun:
    """One launch of a bench binary with a report dir and a first-point
    FIFO."""

    def __init__(self, name, work, env_extra, out_dir, fifo, profile=False,
                 progress_dir=None):
        extra = dict(env_extra)
        extra["WECSIM_REPORT_DIR"] = out_dir
        if fifo is not None:
            extra["WECSIM_PROGRESS_FIFO"] = fifo.path
        if profile:
            extra["WECSIM_PROFILE"] = "1"
        if progress_dir:
            extra["WECSIM_PROGRESS_DIR"] = progress_dir
            os.makedirs(progress_dir, exist_ok=True)
        os.makedirs(out_dir, exist_ok=True)
        self.name = name
        self.out_dir = out_dir
        self.proc = procs.run([host.bench_path(name),
                               "--jobs=%d" % host.jobs()],
                              host.hermetic_env(extra), work, fifo=fifo)

    def report_path(self):
        return os.path.join(self.out_dir, self.name + ".report.json")

    def report(self):
        return read_json(self.report_path())

    def timing(self):
        return read_json(os.path.join(self.out_dir,
                                      self.name + ".timing.json"))


def setup_probe(name, work, env_extra, fifo):
    """Launch `name`, time it to its first point, kill it."""
    extra = dict(env_extra)
    extra["WECSIM_PROGRESS_FIFO"] = fifo.path
    p = procs.run([host.bench_path(name), "--jobs=%d" % host.jobs()],
                  host.hermetic_env(extra), work, fifo=fifo,
                  kill_at_first_point=True)
    if p.setup_s is None:
        raise host.BenchError("%s never started a point" % name)
    return p.setup_s


def check_bench(res, run):
    """Exit code, quarantine and n/a checks for one bench binary run;
    returns (points attempted, points failed)."""
    p = run.proc
    res.check(p.rc == 0, "%s exited %d" % (run.name, p.rc))
    res.check("n/a" not in p.stdout, "%s rendered an n/a cell" % run.name)
    if run.name == "bench_table2":
        return 6, 0 if p.rc == 0 else 6
    try:
        report = run.report()
    except (OSError, ValueError):
        res.check(False, "%s wrote no run report" % run.name)
        return 1, 1
    failed = sum(1 for f in report.get("failures", [])
                 if f.get("status") == "quarantined")
    res.check(failed == 0, "%s quarantined %d point(s)" % (run.name, failed))
    return len(report["runs"]) + failed, failed


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


# --------------------------------------------------------------------------
# repro


REPRO_ENV = {"WECSIM_SCALE": "4"}


def repro(args, work, trace):
    res = Result()
    ref = reference_table(work)
    if trace:
        return repro_traced(args, work, res, ref)
    reps = max(1, int(args.seconds // REPRO_UNIT_S))
    fifo = procs.FirstPointFifo(os.path.join(work, "progress.fifo"))
    setup = {b: [] for b in host.REPRO_BINARIES[1:]}
    walls, fig11_walls, cpus, rss, job_walls = [], [], [], [], []
    digests = set()
    try:
        for rep in range(reps):
            out = os.path.join(work, "rep%d" % rep)
            runs = []
            for b in host.REPRO_BINARIES:
                run = BenchRun(b, work, REPRO_ENV, out,
                               None if b == "bench_table2" else fifo)
                runs.append(run)
                if run.proc.setup_s is not None:
                    setup[b].append(run.proc.setup_s)
            walls.append(sum(r.proc.wall_s for r in runs))
            cpus.append(sum(r.proc.cpu_s for r in runs))
            rss.append(max(r.proc.maxrss_kb for r in runs))
            job_walls += [r.proc.wall_s * 1e3 for r in runs]
            fig11 = next(r for r in runs if r.name == "bench_fig11")
            fig11_walls.append(fig11.proc.wall_s)
            # The one-figure step is short enough for host noise to swing
            # it; extra runs, outside wall_s and cpu_s, steady its median.
            for extra in range(FIG11_EXTRA_RUNS):
                again = BenchRun("bench_fig11", work, REPRO_ENV,
                                 os.path.join(out, "fig11-%d" % extra), None)
                res.check(again.proc.rc == 0 and
                          stats.parse_fig11_table(again.proc.stdout) ==
                          stats.parse_fig11_table(fig11.proc.stdout),
                          "bench_fig11 table changed between runs")
                fig11_walls.append(again.proc.wall_s)
            for r in runs:
                a, f = check_bench(res, r)
                res.attempted += a
                res.failed += f
            digests.add(file_digest([r.report_path() for r in runs
                                     if r.name != "bench_table2"]))
            table = stats.parse_fig11_table(fig11.proc.stdout)
        for _ in range(SETUP_PROBES):
            for b in setup:
                setup[b].append(setup_probe(b, work, REPRO_ENV, fifo))
    finally:
        fifo.close()
    res.check(len(digests) == 1, "run reports differ between repetitions")
    check_digest(res, "repro", REPRO_ENV, sorted(digests)[0])
    res.put("wall_s", stats.median(walls), "s")
    res.put("setup_s", sum(stats.median(v) for v in setup.values()), "s")
    res.put("cpu_s", stats.median(cpus), "s")
    res.put("max_rss_mb", stats.median(rss) / 1024.0, "MiB")
    res.put("fig11_s", stats.median(fig11_walls), "s")
    put_delta(res, table, ref, "repro fig11 @ scale 4")
    job_percentiles(res, job_walls, require_tail=False)
    return res


def repro_traced(args, work, res, ref):
    """Profiled repro through one shared result cache (so cross-figure
    duplicates show as cache hits), plus the common layer probes."""
    spans = Spans()
    cache = fresh_dir(os.path.join(work, "shared_cache"))
    env = dict(REPRO_ENV, WECSIM_CACHE_DIR=cache)
    runs = []
    root = spans.open("repro", time.perf_counter(), run="repro")
    for b in host.REPRO_BINARIES:
        t0 = time.perf_counter()
        run = BenchRun(b, work, env, os.path.join(work, "traced"), None,
                       profile=True,
                       progress_dir=os.path.join(work, "progress"))
        spans.add("bench." + b, t0, time.perf_counter(), parent=root,
                  run="repro")
        runs.append(run)
        res.failed += check_bench(res, run)[1]
    spans.close(root, time.perf_counter())
    sweep = [r for r in runs if r.name != "bench_table2"]
    fig11 = next(r for r in runs if r.name == "bench_fig11")
    # Cache hits carry no run record, so count points from the streams.
    res.attempted = 6 + layers.from_bench_runs(
        res, sweep, progress_dir=os.path.join(work, "progress"))
    err = stats.delta_err(stats.parse_fig11_table(fig11.proc.stdout), ref)
    res.check(err["na"] == 0, "repro fig11 rendered n/a")
    print_error_table("repro fig11 @ scale 4",
                      stats.parse_fig11_table(fig11.proc.stdout), ref)
    layers.common_probes(res, work, spans)
    layers.mini_service(res, work, spans, args.seed)
    layers.trace_overhead(res, work, spans, REPRO_ENV)
    spans.write(os.path.join(work, "spans.json"))
    res.notes.append("spans: %s" % os.path.join(work, "spans.json"))
    return res


# --------------------------------------------------------------------------
# sampled32


SAMPLED_CACHED_ENV = {"WECSIM_SCALE": "32", "WECSIM_SAMPLE": "1",
                      "WECSIM_CACHE_DIR": REF_CACHE}


def sampled_run(res, work, out, fifo):
    """One sampled fig11; the reference cache dir is set so that a sampled
    point served from it would show."""
    run = BenchRun("bench_fig11", work, SAMPLED_CACHED_ENV, out, fifo)
    a, f = check_bench(res, run)
    res.attempted += a
    res.failed += f
    try:
        records = run.report()["runs"]
        fresh = run.timing()["fresh_runs"]
    except (OSError, ValueError, KeyError):
        records, fresh = [], 0
    res.check(fresh == 48 and len(records) == 48 and
              all("sampling" in r for r in records),
              "sampled fig11 points were served from the result cache "
              "(%d of 48 simulated)" % fresh)
    return run, stats.parse_fig11_table(run.proc.stdout)


def sampled32(args, work, trace):
    res = Result()
    ref = reference_table(work)
    if trace:
        return sampled32_traced(args, work, res, ref)
    reps = max(2, int(round(args.seconds / SAMPLED_UNIT_S)))
    fifo = procs.FirstPointFifo(os.path.join(work, "progress.fifo"))
    runs, tables, setup = [], [], []
    try:
        for rep in range(reps):
            run, table = sampled_run(res, work,
                                     os.path.join(work, "rep%d" % rep), fifo)
            runs.append(run)
            tables.append(table)
            if run.proc.setup_s is not None:
                setup.append(run.proc.setup_s)
            for _ in range(SAMPLED_SETUP_PROBES_PER_REP):
                setup.append(setup_probe("bench_fig11", work,
                                         SAMPLED_CACHED_ENV, fifo))
    finally:
        fifo.close()
    res.check(all(t == tables[0] for t in tables),
              "sampled fig11 tables differ between repetitions")
    digests = {file_digest([r.report_path()]) for r in runs}
    res.check(len(digests) == 1, "run reports differ between repetitions")
    check_digest(res, "sampled32", SAMPLED_CACHED_ENV, sorted(digests)[0])
    walls = [r.proc.wall_s for r in runs]
    res.put("wall_s", sum(walls), "s")
    res.put("setup_s", stats.median(setup), "s")
    res.put("cpu_s", sum(r.proc.cpu_s for r in runs), "s")
    res.put("max_rss_mb", max(r.proc.maxrss_kb for r in runs) / 1024.0, "MiB")
    res.put("fig11_s", stats.median(walls), "s")
    put_delta(res, tables[0], ref, "sampled fig11 @ scale 32")
    # A job here is one repetition, the figure a user asks for, so
    # job_p50_ms is fig11_s in ms. Percentiles over the 48 point times per
    # repetition were tried: when the host slowed by a third within ten
    # runs, their spread (28% and 26%) outgrew that of fig11_s (22%) and
    # the 0.25 bound.
    job_percentiles(res, [w * 1e3 for w in walls], require_tail=False)
    return res


def sampled32_traced(args, work, res, ref):
    spans = Spans()
    run = layers.trace_overhead(res, work, spans, SAMPLED_CACHED_ENV)
    a, f = check_bench(res, run)
    res.attempted += a
    res.failed += f
    layers.from_bench_runs(res, [run])
    print_error_table("sampled fig11 @ scale 32",
                      stats.parse_fig11_table(run.proc.stdout), ref)
    layers.common_probes(res, work, spans)
    layers.mini_service(res, work, spans, args.seed)
    spans.write(os.path.join(work, "spans.json"))
    res.notes.append("spans: %s" % os.path.join(work, "spans.json"))
    return res


# --------------------------------------------------------------------------
# service


def service_jobs(seconds):
    return max(100, int(round(seconds * SERVICE_JOBS_PER_S)))


def service_workload(args, work, trace):
    res = Result()
    ref = reference_table(work)
    workers = host.jobs()
    state = os.path.join(work, "state")
    cache = os.path.join(state, "cache")
    extra = {"WECSIM_CACHE_DIR": os.path.abspath(cache)}
    spans = Spans() if trace else None
    daemon = service.Daemon(state, workers, extra)
    os.makedirs(cache)
    ready = [daemon.ready_s]
    jobs = service.generate_jobs(args.seed, service_jobs(args.seconds))
    bursts = []
    try:
        # Figure 11 through the service, first, so its time does not depend
        # on the state (WAL, job dirs, dirty pages) the closed loop leaves.
        # The paper's inputs first (the one compared with the reference),
        # then other inputs, so no burst is served from the result cache.
        # The start-up probes run between the bursts, not after the loop:
        # timed while the loop's writes were being flushed, start-ups took
        # 3.3-6.1 ms against 2.3-3.3 ms before it (4-vCPU VM).
        for i in range(FIG11_BURSTS):
            for _ in range(0 if trace else SERVICE_SETUP_PROBES_PER_BURST):
                ready.append(service.startup_probe(
                    os.path.join(work, "probe%d" % len(ready)), workers))
            bursts.append(service.burst(daemon, service.fig11_jobs(
                service.PAPER_SEED + i)))
        loop = service.closed_loop(daemon, jobs, service.clients(),
                                   spans=spans,
                                   status_poll_s=0.002 if trace else None)
    finally:
        rc = daemon.stop()
    res.check(rc == 0, "wecsimd drain exited %d" % rc)
    burst_failed = sum(b.failed for b in bursts)
    res.attempted = loop.attempted + sum(len(b.jobs) for b in bursts)
    res.failed = loop.failed + burst_failed
    res.check(loop.failed == 0, "%d job(s) failed" % loop.failed)
    res.check(burst_failed == 0, "%d fig11 job(s) failed" % burst_failed)
    table = stats.fig11_cells_from_cycles(bursts[0].cycles)
    if trace:
        layers.from_service(res, work, daemon, jobs, loop, bursts, spans)
        print_error_table("service fig11 @ scale 1", table, ref)
        layers.common_probes(res, work, spans)
        layers.trace_overhead(res, work, spans, REPRO_ENV)
        spans.write(os.path.join(work, "spans.json"))
        res.notes.append("spans: %s" % os.path.join(work, "spans.json"))
        return res
    cpu_s, rss_kb = daemon.rusage
    res.put("wall_s", loop.wall_s, "s")
    res.put("setup_s", stats.median(ready), "s")
    res.put("cpu_s", cpu_s, "s")
    res.put("max_rss_mb", rss_kb / 1024.0, "MiB")
    res.put("fig11_s", stats.median([b.wall_s for b in bursts]), "s")
    put_delta(res, table, ref, "service fig11 @ scale 1")
    job_percentiles(res, [lat for _j, _i, lat in loop.done],
                    require_tail=True)
    return res


WORKLOADS = {
    "repro": repro,
    "sampled32": sampled32,
    "service": service_workload,
}
