// layer_probe — timed calls into wecsim's public layer classes, for the
// benchmark's per-layer metrics and output checks.
//
//   layer_probe micro
//       One JSON line: the functional interpreter's rate on the six
//       workloads at scale 32, and the time to construct the six workloads
//       at scale 4. (Cache probe costs come from bench_micro.)
//   layer_probe replay <spec_file> <jobs> <scratch_dir>
//       Re-runs service jobs in process. Each spec line is
//         <report_path> <name> <workload> <scale> <seed> <key>=<config>:<tus>:<mem_lat> ...
//       listing the points the daemon simulated fresh, in spec order. For
//       each job an ExperimentRunner without a result cache runs them, writes
//       its run report, and the bytes are compared with <report_path>. One
//       JSON line per job, then a profile line when WECSIM_PROFILE is on.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "func/interpreter.h"
#include "harness/experiment.h"
#include "mem/flat_memory.h"
#include "obs/profile.h"
#include "service/protocol.h"
#include "workloads/workload.h"

using namespace wecsim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename T>
T median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int micro() {
  uint64_t instrs = 0;
  double interp_s = 0.0;
  for (const std::string& name : workload_names()) {
    Workload w = make_workload(name, WorkloadParams{32, 42});
    FlatMemory memory;
    memory.load_program(w.program);
    w.init(memory);
    Interpreter interp(w.program, memory);
    const auto t0 = Clock::now();
    const FuncResult r = interp.run();
    interp_s += seconds_since(t0);
    if (!r.halted) {
      std::fprintf(stderr, "%s did not halt\n", name.c_str());
      return 1;
    }
    instrs += r.instrs_total;
  }

  std::vector<double> build_ms;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    size_t n = 0;
    for (const std::string& name : workload_names()) {
      n += make_workload(name, WorkloadParams{4, 42}).program.num_instructions();
    }
    build_ms.push_back(seconds_since(t0) * 1e3);
    if (n == 0) return 1;
  }

  std::printf(
      "{\"func_instrs\": %llu, \"func_seconds\": %.6f, "
      "\"build_ms\": %.4f}\n",
      static_cast<unsigned long long>(instrs), interp_s, median(build_ms));
  return 0;
}

struct ReplayJob {
  std::string report_path, name, workload;
  uint32_t scale = 1, seed = 42;
  std::vector<PointSpec> points;
};

bool parse_line(const std::string& line, ReplayJob* job) {
  std::istringstream in(line);
  if (!(in >> job->report_path >> job->name >> job->workload >> job->scale >>
        job->seed)) {
    return false;
  }
  std::string tok;
  while (in >> tok) {
    const size_t eq = tok.find('='), c1 = tok.find(':', eq),
                 c2 = tok.find(':', c1 + 1);
    if (eq == std::string::npos || c1 == std::string::npos ||
        c2 == std::string::npos) {
      return false;
    }
    PointSpec p;
    p.key = tok.substr(0, eq);
    p.config = tok.substr(eq + 1, c1 - eq - 1);
    p.tus = static_cast<uint32_t>(std::stoul(tok.substr(c1 + 1, c2 - c1 - 1)));
    p.mem_latency = static_cast<uint32_t>(std::stoul(tok.substr(c2 + 1)));
    job->points.push_back(p);
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

int replay(const std::string& spec_path, unsigned workers,
           const std::string& scratch_dir) {
  std::vector<ReplayJob> jobs;
  std::ifstream spec(spec_path);
  for (std::string line; std::getline(spec, line);) {
    if (line.empty()) continue;
    ReplayJob job;
    if (!parse_line(line, &job)) {
      std::fprintf(stderr, "bad replay line: %s\n", line.c_str());
      return 1;
    }
    jobs.push_back(std::move(job));
  }

  std::vector<std::string> lines(jobs.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < jobs.size();) {
      const ReplayJob& job = jobs[i];
      try {
        ExperimentRunner runner(WorkloadParams{job.scale, job.seed}, "");
        std::ostringstream pts;
        for (const PointSpec& p : job.points) {
          const RunMeasurement* m =
              runner.try_run(job.workload, p.key, point_config(p));
          if (m == nullptr) throw SimError("point quarantined: " + p.key);
          pts << (pts.tellp() > 0 ? ", " : "") << m->run_seconds;
        }
        const std::string out =
            scratch_dir + "/replay." + std::to_string(i) + ".json";
        const auto t0 = Clock::now();
        runner.write_report(out, job.name);
        const double write_ms = seconds_since(t0) * 1e3;
        const bool same = read_file(out) == read_file(job.report_path);
        if (same) std::remove(out.c_str());  // a mismatch stays for diffing
        std::ostringstream line;
        line << "{\"report\": \"" << job.report_path
             << "\", \"identical\": " << (same ? "true" : "false")
             << ", \"write_ms\": " << write_ms << ", \"point_s\": ["
             << pts.str() << "]}";
        lines[i] = line.str();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(err_mu);
        std::fprintf(stderr, "replay of %s failed: %s\n",
                     job.report_path.c_str(), e.what());
        failed = true;
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < std::max(1u, workers); ++w) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  if (failed) return 1;
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  if (profile_enabled()) {
    std::printf("{\"profile\": {");
    bool first = true;
    for (const ProfPhaseTotal& p : profile_snapshot()) {
      std::printf("%s\"%s\": %.9f", first ? "" : ", ",
                  profile_phase_name(p.phase),
                  static_cast<double>(p.ns) / 1e9);
      first = false;
    }
    std::printf("}}\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "micro" && argc == 2) return micro();
    if (mode == "replay" && argc == 5) {
      return replay(argv[2], static_cast<unsigned>(std::atoi(argv[3])),
                    argv[4]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_probe: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: layer_probe micro | replay <spec_file> <jobs> <dir>\n");
  return 2;
}
