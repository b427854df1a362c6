"""Tests for the benchmark's own arithmetic and completion detection.

  python3 -m unittest discover -s perfbench/tests
"""

import os
import socket
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from wb import layers, service, stats, workloads  # noqa: E402
from wb.inotify import IN_CREATE, ReportWatcher  # noqa: E402

TABLE_HEAD = """=== Figure 11 ===
workload scale: 32

benchmark      vc    wp
------------------------
"""


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7], 90), 7)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_tail_needs_ten_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(0))

    def test_spread_is_iqr_over_median(self):
        vals = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = stats.quartiles(vals)
        self.assertEqual(q2, 10.0)
        self.assertAlmostEqual(stats.spread(vals), (q3 - q1) / 10.0)


class DeltaErr(unittest.TestCase):
    def test_parse_table(self):
        text = TABLE_HEAD + ("181.mcf      5.6%  n/a\n"
                             "183.equake  23.2%  -0.4%\n"
                             "average     14.4%  -0.4%\n\n"
                             "run report: x\n")
        cells = stats.parse_fig11_table(text)
        self.assertEqual(cells, {("181.mcf", "vc"): 5.6,
                                 ("181.mcf", "wp"): None,
                                 ("183.equake", "vc"): 23.2,
                                 ("183.equake", "wp"): -0.4})

    def test_delta_from_two_tables_with_na(self):
        ref = stats.parse_fig11_table(TABLE_HEAD + (
            "181.mcf      5.6%  1.0%\n183.equake  23.2%  -0.4%\n"
            "average     14.4%  0.3%\n"))
        cand = stats.parse_fig11_table(TABLE_HEAD + (
            "181.mcf      1.4%  n/a\n183.equake  18.6%  -0.4%\n"
            "average     10.0%  n/a\n"))
        err = stats.delta_err(cand, ref)
        self.assertEqual(err["cells"], 3)
        self.assertEqual(err["na"], 1)
        self.assertAlmostEqual(err["max"], 4.6)
        self.assertAlmostEqual(err["mean"], (4.2 + 4.6 + 0.0) / 3)

    def test_identical_tables_have_zero_error(self):
        t = {("a", "vc"): 1.5, ("b", "vc"): -2.0}
        self.assertEqual(stats.delta_err(t, dict(t))["max"], 0.0)

    def test_missing_cell_counts_as_na(self):
        err = stats.delta_err({("a", "vc"): 1.0},
                              {("a", "vc"): 1.0, ("b", "vc"): 2.0})
        self.assertEqual((err["cells"], err["na"]), (1, 1))

    def test_cells_from_cycles_round_like_the_table(self):
        cells = stats.fig11_cells_from_cycles({
            ("mcf", "orig"): 1000, ("mcf", "vc"): 900, ("mcf", "wp"): 1001,
            ("gzip", "vc"): 5})
        self.assertEqual(cells[("mcf", "vc")], 11.1)
        self.assertEqual(cells[("mcf", "wp")], -0.1)
        self.assertIsNone(cells[("gzip", "vc")])
        self.assertNotIn(("mcf", "orig"), cells)


class DrainIdle(unittest.TestCase):
    def test_single_drain(self):
        # 4 workers x 2 s = 8 worker-seconds, 6 of them simulating.
        self.assertAlmostEqual(
            stats.drain_idle_frac(4, 2.0, [1, 1, 1, 1, 2]), 0.25)
        self.assertAlmostEqual(stats.drain_idle_frac(1, 3.0, [3.0]), 0.0)

    def test_pooled_weights_by_capacity(self):
        pooled = stats.pooled_idle_frac([(4, 2.0, [6.0]), (2, 1.0, [2.0])])
        self.assertAlmostEqual(pooled, (10.0 - 8.0) / 10.0)

    def test_rejects_empty_capacity(self):
        with self.assertRaises(ValueError):
            stats.drain_idle_frac(4, 0.0, [])


class ReportCompletion(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.watcher = ReportWatcher()

    def tearDown(self):
        self.watcher.close()
        self.dir.cleanup()

    def job_dir(self, name):
        path = os.path.join(self.dir.name, name)
        os.mkdir(path)
        return path

    def test_rename_into_place_completes(self):
        d = self.job_dir("j-1")
        self.watcher.watch(d, "j-1")
        self.assertEqual(self.watcher.ready(), [])
        tmp = os.path.join(d, "report.json.tmp.1")
        with open(tmp, "w") as f:
            f.write("{}\n")
        self.assertEqual(self.watcher.ready(), [])  # the temp file is not it
        os.rename(tmp, os.path.join(d, "report.json"))
        self.assertEqual(self.watcher.ready(), ["j-1"])
        self.assertEqual(self.watcher.ready(), [])  # reported once

    def test_report_present_before_watch(self):
        d = self.job_dir("j-2")
        with open(os.path.join(d, "report.json"), "w") as f:
            f.write("{}\n")
        self.watcher.watch(d, "j-2")
        self.assertEqual(self.watcher.ready(), ["j-2"])

    def test_other_files_and_dirs_do_not_complete(self):
        a, b = self.job_dir("a"), self.job_dir("b")
        self.watcher.watch(a, "a")
        self.watcher.watch(b, "b")
        with open(os.path.join(a, "provenance.json"), "w") as f:
            f.write("{}\n")
        os.rename(os.path.join(a, "provenance.json"),
                  os.path.join(a, "provenance2.json"))
        with open(os.path.join(b, "report.json"), "w") as f:
            f.write("{}\n")
        self.assertEqual(self.watcher.ready(), ["b"])


class SocketCreation(unittest.TestCase):
    def test_bind_is_seen(self):
        with tempfile.TemporaryDirectory() as d:
            watcher = ReportWatcher("wecsimd.sock", events=IN_CREATE)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                watcher.watch(d, 0)
                with open(os.path.join(d, "wecsimd.log"), "w") as f:
                    f.write("x\n")
                self.assertEqual(watcher.ready(), [])
                sock.bind(os.path.join(d, "wecsimd.sock"))
                self.assertEqual(watcher.ready(), [0])
            finally:
                sock.close()
                watcher.close()


class ReportDigest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "digests.json")

    def tearDown(self):
        self.dir.cleanup()

    def check(self, digest, env=None, problems=()):
        res = workloads.Result()
        res.problems = list(problems)
        workloads.check_digest(res, "w", env or {"A": "1"}, digest,
                               path=self.path)
        return res.problems[len(problems):]

    def test_same_code_must_repeat(self):
        self.assertEqual(self.check("d1"), [])
        self.assertEqual(self.check("d1"), [])
        self.assertEqual(len(self.check("d2")), 1)

    def test_failed_run_records_nothing(self):
        self.check("bad", problems=["a point was quarantined"])
        self.assertEqual(self.check("good"), [])
        self.assertEqual(self.check("good"), [])

    def test_environment_is_part_of_the_key(self):
        self.assertEqual(self.check("d1", env={"A": "1"}), [])
        self.assertEqual(self.check("d2", env={"A": "2"}), [])


class MicroReport(unittest.TestCase):
    def test_medians_in_ns(self):
        report = {"benchmarks": [
            {"run_name": "BM_CacheAccess/4", "aggregate_name": "mean",
             "real_time": 30.0, "time_unit": "ns"},
            {"run_name": "BM_CacheAccess/4", "aggregate_name": "median",
             "real_time": 20.5, "time_unit": "ns"},
            {"run_name": "BM_SideCacheProbe/8", "aggregate_name": "median",
             "real_time": 0.0118, "time_unit": "us"},
        ]}
        cases = layers.micro_cases(report)
        self.assertEqual(cases["BM_CacheAccess/4"], 20.5)
        self.assertAlmostEqual(cases["BM_SideCacheProbe/8"], 11.8)


class JobMix(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        self.assertEqual(service.generate_jobs(7, 50),
                         service.generate_jobs(7, 50))
        self.assertNotEqual(service.generate_jobs(7, 50),
                            service.generate_jobs(8, 50))

    def test_jobs_are_valid(self):
        jobs = service.generate_jobs(3, 200)
        for job in jobs:
            keys = [p["key"] for p in job["points"]]
            self.assertEqual(len(keys), len(set(keys)))
            self.assertTrue(2 <= len(keys) <= 8)
            self.assertNotEqual(job["seed"], service.PAPER_SEED)
        # Blocks keep every workload equally represented.
        per = [sum(j["workload"] == w for j in jobs)
               for w in service.WORKLOADS]
        self.assertLessEqual(max(per) - min(per), 1)

    def test_repeat_share(self):
        jobs = service.generate_jobs(5, 300)
        self.assertAlmostEqual(layers.repeated_share(jobs),
                               service.REPEAT_SHARE, delta=0.01)


if __name__ == "__main__":
    unittest.main()
