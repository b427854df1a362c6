"""Driving wecsimd: readiness, the seeded job mix, the closed loop."""

import collections
import json
import os
import random
import select
import socket
import subprocess
import time

from . import host, procs
from .inotify import IN_CREATE, ReportWatcher

WORKLOADS = ["175.vpr", "164.gzip", "181.mcf", "197.parser", "183.equake",
             "177.mesa"]
CONFIGS = ["orig", "vc", "wp", "wth", "wth-wp", "wth-wp-vc", "wth-wp-wec",
           "nlp"]
TUS = [1, 2, 4, 8]
MEM_LATS = [0, 500]  # 0 = the paper default
SIZES = list(range(2, 9))
# The share of points that repeat an earlier point. Taken from the one
# duplicate share this repository measures: the reproduction's 600 points
# hold 378 distinct ones, so 222 / 600 = 0.37 of them repeat (harness.dup_frac
# of a traced repro run).
REPEAT_SHARE = 0.37
# Closed-loop clients: the fewest that keep the workers busy. Measured on a
# 4-vCPU Xeon VM, 4 workers, 200 jobs, seeds 1 and 2, 1..4 clients: jobs/s
# 17.9, 29.2, 31.4, 30.4 and daemon+worker CPU / worker capacity 0.53,
# 0.80, 0.86, 0.86. A fourth client adds only queueing (p50 +40%).
CLIENTS_MAX = 3
PAPER_SEED = 42  # fig11 inputs; the closed loop never uses it
SCALE = 1


def clients():
    """Closed-loop client connections: never more than the workers."""
    return min(CLIENTS_MAX, host.jobs())


def generate_jobs(seed, n_jobs):
    """The closed loop's job mix, a pure function of (seed, n_jobs).

    Workloads and point counts are drawn in shuffled blocks (every workload
    and every size 2..8 appears once per block), and each job runs on a
    dataset (workload, input seed) whose 64 point configurations are all
    used before the next dataset starts, so two seeds load the service
    alike. Exactly REPEAT_SHARE of the points (rounded, carried from job to
    job) repeat a point an earlier job of the dataset submitted: a
    result-cache hit once that one finished. The rest are new to the
    dataset.
    """
    rng = random.Random(seed)
    workload_pool, size_pool = [], []
    datasets = {}  # workload -> [input seed, fresh combos, submitted]
    jobs = []
    owed = 0.0  # repeats owed to REPEAT_SHARE, carried across jobs
    for index in range(n_jobs):
        if not workload_pool:
            workload_pool = rng.sample(WORKLOADS, len(WORKLOADS))
        if not size_pool:
            size_pool = rng.sample(SIZES, len(SIZES))
        workload = workload_pool.pop()
        size = size_pool.pop()
        ds = datasets.get(workload)
        if ds is None or len(ds[1]) < size:
            combos = [(c, t, m)
                      for c in CONFIGS for t in TUS for m in MEM_LATS]
            rng.shuffle(combos)
            ds = datasets[workload] = [rng.randrange(1000, 1 << 30), combos,
                                       []]
        owed += REPEAT_SHARE * size
        repeats = rng.sample(ds[2], min(int(owed), len(ds[2]), size))
        owed -= len(repeats)
        points = repeats + [ds[1].pop() for _ in range(size - len(repeats))]
        rng.shuffle(points)
        ds[2].extend(p for p in points if p not in ds[2])
        jobs.append({
            "name": "j%04d" % index, "workload": workload, "scale": SCALE,
            "seed": ds[0],
            "points": [{"key": point_key(p), "config": p[0], "tus": p[1],
                        "mem_lat": p[2]} for p in points],
        })
    return jobs


def fig11_jobs(seed=PAPER_SEED):
    """Figure 11's grid (eight configs at 8 TUs) as one job per workload;
    the paper's inputs by default."""
    return [{"name": "fig11-%s-%d" % (w.split(".")[1], seed), "workload": w,
             "scale": SCALE, "seed": seed,
             "points": [{"key": c, "config": c, "tus": 8, "mem_lat": 0}
                        for c in CONFIGS]} for w in WORKLOADS]


def point_key(p):
    config, tus, mem_lat = p
    return "%s-%dtu-%s" % (config, tus, "m%d" % mem_lat if mem_lat else "mdef")


def submit_line(job, client):
    points = []
    for p in job["points"]:
        spec = {"key": p["key"], "config": p["config"], "tus": p["tus"]}
        if p["mem_lat"]:
            spec["mem_latency"] = p["mem_lat"]
        points.append(spec)
    req = {"op": "submit", "rid": "%s-%s" % (client, job["name"]),
           "job": {"client": client, "name": job["name"],
                   "workload": job["workload"], "scale": job["scale"],
                   "seed": job["seed"], "priority": 0, "points": points}}
    return (json.dumps(req) + "\n").encode()


class Conn:
    """One NDJSON connection to the daemon."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.pending = collections.deque()  # (kind, job name, t sent)

    def fileno(self):
        return self.sock.fileno()

    def send(self, line):
        self.sock.sendall(line)

    def lines(self):
        """Read what is available and return the complete reply lines."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk
        out = []
        while b"\n" in self.buf:
            line, self.buf = self.buf.split(b"\n", 1)
            out.append(json.loads(line))
        return out

    def call(self, req):
        self.send((json.dumps(req) + "\n").encode())
        while True:
            replies = self.lines()
            if replies:
                return replies[0]

    def close(self):
        self.sock.close()


class Daemon:
    """A wecsimd on a fresh state dir (paths relative to the checkout root,
    which keeps the socket path short)."""

    def __init__(self, state_dir, workers, env_extra=None):
        os.makedirs(state_dir)
        self.state_dir = os.path.relpath(state_dir, host.ROOT)
        self.sock = os.path.join(self.state_dir, "wecsimd.sock")
        env = host.hermetic_env(env_extra)
        self.log = open(os.path.join(state_dir, "daemon.log"), "wb")
        self.rusage = None
        watcher = ReportWatcher("wecsimd.sock", events=IN_CREATE)
        try:
            watcher.watch(state_dir, 0)
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                [host.tool_path("wecsimd"), "--workers", str(workers),
                 "--socket", self.sock, self.state_dir],
                cwd=host.ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=self.log, stderr=subprocess.STDOUT)
            try:
                self.ready_s = self._await_health(t0, watcher)
            except BaseException:
                self.stop()
                raise
        finally:
            watcher.close()

    def _await_health(self, t0, watcher):
        """exec -> first health answer. The socket's creation is awaited
        with inotify, so the benchmark does not compete with the starting
        daemon for CPU; then one health request is sent."""
        deadline = t0 + 30
        while not watcher.ready():
            self._check_starting(deadline)
            select.select([watcher], [], [], 0.05)
        path = os.path.join(host.ROOT, self.sock)
        while True:
            try:
                conn = Conn(path)
                break
            except ConnectionRefusedError:
                # bind() made the socket; listen() follows it at once.
                self._check_starting(deadline)
                time.sleep(0.0005)
        try:
            reply = conn.call({"op": "health"})
        finally:
            conn.close()
        ready_s = time.perf_counter() - t0
        if not reply.get("ok") or reply.get("state") != "serving":
            raise host.BenchError("wecsimd started %s" % json.dumps(reply))
        return ready_s

    def _check_starting(self, deadline):
        reaped = procs.try_reap(self.proc.pid)
        if reaped is not None:
            self.proc.returncode = reaped[0]
            raise host.BenchError("wecsimd exited during start-up (%d)"
                                  % reaped[0])
        if time.perf_counter() > deadline:
            raise host.BenchError("wecsimd did not answer health within 30 s")

    def connect(self):
        return Conn(os.path.join(host.ROOT, self.sock))

    def job_dir(self, job_id):
        return os.path.join(host.ROOT, self.state_dir, "jobs", job_id)

    def stop(self):
        """SIGTERM drain; returns the exit code. rusage covers the daemon and
        every worker it reaped."""
        rc, cpu, rss = procs.stop(self.proc)
        self.rusage = (cpu, rss)
        self.log.close()
        return rc


def startup_probe(state_dir, workers):
    """Start a daemon on an empty state dir, time exec -> health, stop it."""
    d = Daemon(state_dir, workers)
    rc = d.stop()
    if rc != 0:
        raise host.BenchError("idle wecsimd drain exited %d" % rc)
    return d.ready_s


class LoopResult:
    def __init__(self):
        self.done = []          # (job, job_id, latency_ms), completion order
        self.failed = 0
        self.attempted = 0
        self.wall_s = 0.0
        self.submit_rtt_ms = []
        self.status_rtt_ms = []
        self.queue_wait_ms = []


def closed_loop(daemon, jobs, clients, spans=None, status_poll_s=None,
                timeout_s=150.0):
    """Run `jobs` through `clients` closed-loop clients: each submits a job,
    waits until its report.json is present, then submits the next. With
    status_poll_s, every waiting client also polls `status` that often
    (traced runs: queue wait and status round trip)."""
    res = LoopResult()
    watcher = ReportWatcher()
    conns = [daemon.connect() for _ in range(clients)]
    # Per client: None when idle, else a dict describing the job in flight.
    flight = [None] * clients
    next_job = 0
    t_start = time.perf_counter()
    deadline = t_start + timeout_s

    def finish(ci, now, ok):
        f = flight[ci]
        flight[ci] = None
        if ok:
            res.done.append((f["job"], f["id"], (now - f["t_sent"]) * 1e3))
            if spans is not None:
                spans.add("service.wait_report", f["t_reply"], now,
                          parent=f["span"], run=f["job"]["name"])
                spans.close(f["span"], now)
        else:
            res.failed += 1
            if spans is not None:
                spans.close(f["span"], now)

    def check_report(ci, now):
        f = flight[ci]
        path = os.path.join(daemon.job_dir(f["id"]), "report.json")
        with open(path) as fh:
            report = json.load(fh)
        finish(ci, now, not report.get("failures") and
               not report.get("interrupted"))

    try:
        while True:
            now = time.perf_counter()
            for ci in range(clients):
                if flight[ci] is None and next_job < len(jobs):
                    job = jobs[next_job]
                    next_job += 1
                    res.attempted += 1
                    t = time.perf_counter()
                    conns[ci].send(submit_line(job, "c%d" % ci))
                    conns[ci].pending.append(("submit", job["name"], t))
                    flight[ci] = {"job": job, "t_sent": t, "id": None,
                                  "t_reply": None, "t_status": 0.0,
                                  "polling": False, "running_seen": False}
                    if spans is not None:
                        flight[ci]["span"] = spans.open(
                            "service.job", t, run=job["name"])
            if all(f is None for f in flight):
                break
            if now > deadline:
                raise host.BenchError("closed loop exceeded %.0f s with %d "
                                      "job(s) in flight" % (
                                          timeout_s,
                                          sum(f is not None for f in flight)))
            rlist = [watcher] + [c for c in conns if c.pending]
            wait = status_poll_s if status_poll_s else 0.5
            ready, _, _ = select.select(rlist, [], [], wait)
            now = time.perf_counter()
            for obj in ready:
                if obj is watcher:
                    continue
                ci = conns.index(obj)
                for reply in obj.lines():
                    kind, name, t_req = obj.pending.popleft()
                    f = flight[ci]
                    if f is None or f["job"]["name"] != name:
                        continue  # a status reply for a job already done
                    if kind == "submit":
                        f["t_reply"] = now
                        res.submit_rtt_ms.append((now - t_req) * 1e3)
                        if spans is not None:
                            spans.add("service.submit", t_req, now,
                                      parent=f["span"], run=name)
                        if not reply.get("ok") or reply.get("duplicate"):
                            finish(ci, now, False)
                            continue
                        f["id"] = reply["job"]
                        watcher.watch(daemon.job_dir(f["id"]), ci)
                    else:
                        f["polling"] = False
                        res.status_rtt_ms.append((now - t_req) * 1e3)
                        states = [p.get("state") for p in
                                  reply.get("points", [])]
                        if not f["running_seen"] and any(
                                s != "queued" for s in states):
                            f["running_seen"] = True
                            res.queue_wait_ms.append((now - f["t_sent"]) * 1e3)
            for ci in watcher.ready():
                if flight[ci] is not None and flight[ci]["id"] is not None:
                    check_report(ci, now)
            if status_poll_s:
                for ci in range(clients):
                    f = flight[ci]
                    if f is not None and f["id"] is not None and \
                            not f["polling"] and \
                            now - f["t_status"] >= status_poll_s:
                        f["t_status"] = time.perf_counter()
                        f["polling"] = True
                        conns[ci].send((json.dumps(
                            {"op": "status", "job": f["id"]}) + "\n").encode())
                        conns[ci].pending.append(
                            ("status", f["job"]["name"], f["t_status"]))
        res.wall_s = time.perf_counter() - t_start
    finally:
        for c in conns:
            c.close()
        watcher.close()
    return res


class BurstResult:
    def __init__(self, jobs):
        self.jobs = jobs
        self.failed = 0
        self.wall_s = 0.0
        self.cycles = {}  # (workload, point key) -> simulated cycles
        self.done = []    # (job, job_id, burst wall ms), like LoopResult


def burst(daemon, jobs, timeout_s=120.0):
    """Submit `jobs` back to back on one connection, then wait for every
    report; wall_s runs from the first submit to the last report."""
    res = BurstResult(jobs)
    watcher = ReportWatcher()
    conn = daemon.connect()
    ids = {}  # job index -> daemon job id
    try:
        t0 = time.perf_counter()
        for i, job in enumerate(jobs):
            reply = conn.call(json.loads(submit_line(job, "burst")))
            if not reply.get("ok") or reply.get("duplicate"):
                res.failed += 1
                continue
            ids[i] = reply["job"]
            watcher.watch(daemon.job_dir(reply["job"]), i)
        deadline = t0 + timeout_s
        waiting = set(ids)
        while waiting:
            for i in watcher.ready():
                waiting.discard(i)
            if not waiting:
                break
            if time.perf_counter() > deadline:
                raise host.BenchError("fig11 jobs did not finish in %.0f s"
                                      % timeout_s)
            select.select([watcher], [], [], 0.5)
        res.wall_s = time.perf_counter() - t0
    finally:
        conn.close()
        watcher.close()
    for i, job_id in ids.items():
        res.done.append((jobs[i], job_id, res.wall_s * 1e3))
        with open(os.path.join(daemon.job_dir(job_id), "report.json")) as f:
            report = json.load(f)
        if report.get("failures"):
            res.failed += 1
        for r in report["runs"]:
            res.cycles[(r["workload"], r["config"])] = r["result"]["cycles"]
    return res
