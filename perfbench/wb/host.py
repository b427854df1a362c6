"""Checkout layout, Release build, hermetic environment and host facts."""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WECSIM_BUILD = os.path.join(BUILD, "wecsim")
PROBE_BUILD = os.path.join(BUILD, "probe")

REPRO_BINARIES = (
    ["bench_table2"]
    + ["bench_fig%02d" % i for i in range(8, 18)]
    + ["bench_ext_memlat", "bench_ext_blocksize", "bench_ext_bpred"])
TOOLS = ["wecsimd", "wecsimctl"]
MICRO = "bench_micro"  # the repo's own component microbenchmarks


class BenchError(Exception):
    """A set-up or output-check failure: the run exits nonzero."""


def jobs():
    """The one worker count every workload passes: nproc, at most 4."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(4, n))


def bench_path(name):
    return os.path.join(WECSIM_BUILD, "bench", name)


def tool_path(name):
    return os.path.join(WECSIM_BUILD, "tools", name)


def probe_path():
    return os.path.join(PROBE_BUILD, "layer_probe")


def hermetic_env(extra=None):
    """The inherited environment minus every WECSIM_* variable, plus only
    what the workload defines."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WECSIM_")}
    env.update(extra or {})
    return env


def _run_logged(cmd, log):
    with open(log, "ab") as f:
        f.write(("$ " + " ".join(cmd) + "\n").encode())
        f.flush()
        rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT,
                             cwd=ROOT, env=hermetic_env())
    if rc != 0:
        with open(log, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        raise BenchError("build step failed (%s):\n%s" % (" ".join(cmd), tail))


def build_type():
    cache = os.path.join(WECSIM_BUILD, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.strip().split("=", 1)[1]
    except OSError:
        pass
    return ""


def build():
    """Configure (Release) and build the program and the layer probe from
    the checkout's sources. Incremental when the build tree exists."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no wecsim sources next to %s" % HERE)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    par = "-j%d" % jobs()
    if not os.path.isfile(os.path.join(WECSIM_BUILD, "CMakeCache.txt")):
        _run_logged(["cmake", "-S", ROOT, "-B", WECSIM_BUILD] + gen +
                    ["-DCMAKE_BUILD_TYPE=Release"], log)
    if build_type() != "Release":
        raise BenchError("refusing to measure a %r build; the benchmark "
                         "needs CMAKE_BUILD_TYPE=Release" % build_type())
    _run_logged(["cmake", "--build", WECSIM_BUILD, par, "--target"] +
                REPRO_BINARIES + [MICRO] + TOOLS, log)
    if not os.path.isfile(os.path.join(PROBE_BUILD, "CMakeCache.txt")):
        _run_logged(["cmake", "-S", os.path.join(HERE, "probe"), "-B",
                     PROBE_BUILD] + gen +
                    ["-DCMAKE_BUILD_TYPE=Release",
                     "-DWECSIM_ROOT=" + ROOT,
                     "-DWECSIM_BUILD=" + WECSIM_BUILD], log)
    _run_logged(["cmake", "--build", PROBE_BUILD, par], log)


def source_digest():
    """Content digest of the program's sources: the identity of "the same
    code" for the report-digest check."""
    return tree_digest(("src", "bench", "tools", "CMakeLists.txt"))


def bench_digest():
    """Content digest of the benchmark's own code, which sets what the
    workloads run."""
    return tree_digest((os.path.join(os.path.basename(HERE), "wb"),
                        os.path.join(os.path.basename(HERE), "probe")))


def tree_digest(tops):
    h = hashlib.sha256()
    for top in tops:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for d, subdirs, names in os.walk(path):
            subdirs[:] = sorted(x for x in subdirs if x != "__pycache__")
            files += [os.path.join(d, n) for n in sorted(names)]
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = -1.0
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "jobs": jobs(),
        "cpu_model": model,
        "loadavg_1m": load,
        "build_type": build_type(),
        "commit": commit,
        "source_digest": source_digest(),
        "python": sys.version.split()[0],
    }
