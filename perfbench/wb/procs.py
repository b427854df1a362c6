"""Spawning measured processes: wall time, rusage, first-point detection."""

import json
import os
import select
import signal
import subprocess
import time


class Proc:
    """Outcome of one child process: exit code, wall seconds, CPU seconds
    (user+sys, children it reaped included) and peak RSS in KiB."""

    def __init__(self, rc, wall_s, cpu_s, maxrss_kb, stdout, setup_s=None):
        self.rc = rc
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.setup_s = setup_s


def try_reap(pid):
    """Non-blocking reap: (exit code, cpu s, max rss KiB) or None."""
    wpid, status, ru = os.wait4(pid, os.WNOHANG)
    if wpid != pid:
        return None
    return (os.waitstatus_to_exitcode(status), ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss)


def reap(pid):
    """Wait for `pid` and return (exit code, cpu seconds, max rss KiB)."""
    while True:
        try:
            _, status, ru = os.wait4(pid, 0)
            break
        except InterruptedError:
            continue
    rc = os.waitstatus_to_exitcode(status)
    return rc, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


class FirstPointFifo:
    """A named pipe the harness's progress reporter writes to
    (WECSIM_PROGRESS_FIFO). The heartbeat a ParallelExperimentRunner emits
    at sweep_begin is the first line with total > 0: the moment the first
    point starts."""

    def __init__(self, path):
        self.path = path
        if os.path.exists(path):
            os.unlink(path)
        os.mkfifo(path)
        # O_RDWR: this end always counts as a writer, so select() blocks
        # until the child writes instead of reporting EOF.
        self.fd = os.open(path, os.O_RDWR | os.O_NONBLOCK)
        self.buf = b""

    def drain(self):
        try:
            while True:
                chunk = os.read(self.fd, 65536)
                if not chunk:
                    return
                self.buf += chunk
        except BlockingIOError:
            return

    def first_point_seen(self):
        while b"\n" in self.buf:
            line, self.buf = self.buf.split(b"\n", 1)
            try:
                ev = json.loads(line)
            except ValueError:
                continue
            if ev.get("event") == "heartbeat" and ev.get("total", 0) > 0:
                self.buf = b""
                return True
        return False

    def close(self):
        os.close(self.fd)
        os.unlink(self.path)


def run(cmd, env, cwd, fifo=None, kill_at_first_point=False):
    """Run `cmd` to completion (or, with kill_at_first_point, until its first
    point starts) and measure it. stdout is captured, stderr discarded."""
    out_path = os.path.join(cwd, ".stdout.%d" % os.getpid())
    if fifo is not None:
        # Lines an earlier process left in the pipe must not count.
        fifo.drain()
        fifo.buf = b""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out,
                             stderr=subprocess.DEVNULL)
        setup_s = None
        reaped = None
        if fifo is not None:
            while True:
                ready, _, _ = select.select([fifo.fd], [], [], 0.05)
                if ready:
                    fifo.drain()
                    if fifo.first_point_seen():
                        setup_s = time.perf_counter() - t0
                        break
                reaped = try_reap(p.pid)
                if reaped is not None:
                    break
            if kill_at_first_point and reaped is None:
                p.kill()
        if reaped is None:
            reaped = reap(p.pid)
        rc, cpu_s, rss = reaped
        p.returncode = rc
        wall_s = time.perf_counter() - t0
    with open(out_path, "rb") as f:
        stdout = f.read().decode(errors="replace")
    os.unlink(out_path)
    return Proc(rc, wall_s, cpu_s, rss, stdout, setup_s)


def stop(p, sig=signal.SIGTERM, grace=10.0):
    """Signal a Popen child and wait for it; SIGKILL after `grace` seconds.
    Returns (exit code, cpu seconds, max rss KiB)."""
    if p.returncode is not None:
        return p.returncode, 0.0, 0
    try:
        p.send_signal(sig)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        reaped = try_reap(p.pid)
        if reaped is not None:
            p.returncode = reaped[0]
            return reaped
        time.sleep(0.005)
    p.kill()
    rc, cpu, rss = reap(p.pid)
    p.returncode = rc
    return rc, cpu, rss
