// modbench: end-to-end and per-layer benchmark of both atomic-broadcast
// stacks on SimWorld and ThreadWorld. See README.md.
//
//   modbench                      every workload, each in its own child process
//   modbench --workload=<name>    one workload, in this process
//   modbench --selfcheck          cross-checks against workload::run_once etc.
//
// Options: --seed=<u64> (default 1), --seconds=<s> (default 10),
// --trace=<dir> (also run traced; writes <dir>/<w>.layers.txt and
// <dir>/<w>.trace.json), --inject-violation (negative control: corrupts a
// delivery log before the contract check, so the run must fail).
//
// Output: "# <workload>" then one "name value unit" line per end-to-end
// metric, and as the last line one JSON object. Exit code 0 only if every
// contract check passed.
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "contract.hpp"
#include "workload/experiment.hpp"
#include "workloads.hpp"

#ifndef MODBENCH_GIT_REV
#define MODBENCH_GIT_REV "unknown"
#endif

extern char** environ;

namespace {

using namespace modbench;

struct Args {
  std::string workload;
  RunOptions run;
  bool selfcheck = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "modbench: %s\n"
               "usage: modbench [--workload=<name>] [--seed=<u64>] "
               "[--seconds=<s>] [--trace=<dir>] [--inject-violation]\n"
               "       modbench --selfcheck [--seed=<u64>]\n"
               "workloads:",
               why.c_str());
  for (const Workload& w : all_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const bool has_val = eq != std::string::npos && !val.empty();
    if (key == "--workload" && has_val) {
      if (find_workload(val) == nullptr) usage("unknown workload " + val);
      a.workload = val;
    } else if (key == "--seed" && has_val) {
      const auto r = std::from_chars(val.data(), val.data() + val.size(),
                                     a.run.seed);
      if (r.ec != std::errc() || r.ptr != val.data() + val.size()) {
        usage("bad --seed " + val);
      }
    } else if (key == "--seconds" && has_val) {
      char* end = nullptr;
      a.run.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.run.seconds > 0) || a.run.seconds > 60) {
        usage("bad --seconds " + val + " (0 < s <= 60)");
      }
    } else if (key == "--trace" && has_val) {
      a.run.trace_dir = val;
    } else if (arg == "--selfcheck") {
      a.selfcheck = true;
    } else if (arg == "--inject-violation") {
      a.run.inject_violation = true;
    } else {
      usage("bad argument " + arg);
    }
  }
  return a;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance_json(const Args& a, const WorkloadResult* r) {
  std::string out = "{\"seed\": " + std::to_string(a.run.seed) +
                    ", \"git_rev\": " + quoted(MODBENCH_GIT_REV) +
                    ", \"nproc\": " +
                    std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ", \"cpu_model\": " + quoted(cpu_model()) +
                    ", \"seconds\": " + num(a.run.seconds);
  if (r != nullptr) {
    out += ", \"repetitions\": " + std::to_string(r->repetitions) +
           ", \"pinned_cpus\": [";
    for (std::size_t i = 0; i < r->pinned_cpus.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(r->pinned_cpus[i]);
    }
    out += "], \"phase_wall_s\": {";
    for (std::size_t i = 0; i < r->phase_wall_s.size(); ++i) {
      out += (i ? ", " : "") + quoted(r->phase_wall_s[i].first) + ": " +
             num(r->phase_wall_s[i].second);
    }
    out += "}";
  }
  return out + "}";
}

void write_layers(const std::string& path, const std::vector<Metric>& ms) {
  std::ofstream out(path);
  for (const Metric& m : ms) {
    out << m.name << ' ' << num(m.value) << ' ' << m.unit << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_one(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  const bool traced = !a.run.trace_dir.empty();
  if (traced) std::filesystem::create_directories(a.run.trace_dir);
  const WorkloadResult r = run_workload(w, a.run);
  if (traced) {
    write_layers(a.run.trace_dir + "/" + w.name + ".layers.txt", r.layers);
  }
  std::printf("# %s\n", w.name);
  for (const Metric& m : r.metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  if (!r.violation.empty()) {
    std::printf("# CONTRACT VIOLATION: %s\n", r.violation.c_str());
  }
  std::string json = "{\"workload\": " + quoted(w.name) + ", \"correct\": " +
                     (r.violation.empty() ? "true" : "false") +
                     ", \"violation\": " + quoted(r.violation) +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": " + metrics_json(r.metrics);
  if (traced) json += ", \"layers\": " + metrics_json(r.layers);
  json += ", \"provenance\": " + provenance_json(a, &r) + "}";
  std::printf("%s\n", json.c_str());
  return r.violation.empty() ? 0 : 1;
}

/// Runs `args` as a child modbench process and returns its stdout.
int spawn_child(const std::vector<std::string>& args, std::string& out) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  std::vector<char*> argv;
  for (const auto& s : args) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return -1;
  }
  char buf[4096];
  ssize_t got = 0;
  while ((got = read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Every workload, each in a child process so peak_rss_mb and setup_s are
/// its own.
int run_all(const Args& a, const char* self) {
  std::string workloads_json;
  int rc = 0;
  for (const Workload& w : all_workloads()) {
    std::vector<std::string> args = {self, std::string("--workload=") + w.name,
                                     "--seed=" + std::to_string(a.run.seed),
                                     "--seconds=" + num(a.run.seconds)};
    if (!a.run.trace_dir.empty()) args.push_back("--trace=" + a.run.trace_dir);
    if (a.run.inject_violation) args.push_back("--inject-violation");
    std::string out;
    const int child = spawn_child(args, out);
    if (child != 0) rc = 1;
    // Forward the text lines; keep the trailing JSON object for the summary.
    while (!out.empty() && out.back() == '\n') out.pop_back();
    const auto last = out.rfind('\n');
    const bool has_text = last != std::string::npos;
    const std::string json = out.substr(has_text ? last + 1 : 0);
    if (has_text) std::printf("%s\n", out.substr(0, last).c_str());
    std::fflush(stdout);
    if (json.empty() || json[0] != '{') {
      std::fprintf(stderr,
                   "modbench: workload %s produced no result (exit %d)\n",
                   w.name, child);
      continue;
    }
    if (!workloads_json.empty()) workloads_json += ", ";
    workloads_json += json;
  }
  std::printf("{\"provenance\": %s, \"workloads\": [%s]}\n",
              provenance_json(a, nullptr).c_str(), workloads_json.c_str());
  return rc;
}

int selfcheck(const Args& a) {
  int failures = 0;
  auto report = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  namespace mc = modcast;

  // 1. The fixed-rate phase reproduces workload::run_once exactly.
  for (const char* name : {"paper-n7-modular", "paper-n7-monolithic"}) {
    const Workload& w = *find_workload(name);
    const auto warmup = mc::util::milliseconds(500);
    const auto window = mc::util::seconds(2);
    const SimSummary mine = run_sim_summary(w, a.run.seed, warmup, window);
    mc::core::StackOptions stack;
    stack.kind = w.stack;
    mc::workload::WorkloadConfig cfg;
    cfg.offered_load = w.rate;
    cfg.message_size = w.message_size;
    cfg.warmup = warmup;
    cfg.measure = window;
    const auto ref = mc::workload::run_once(w.n, stack, cfg, a.run.seed);
    std::vector<double> ref_lat = ref.latencies_ms.samples();
    std::sort(ref_lat.begin(), ref_lat.end());
    report(mine.latencies_ms == ref_lat && mine.throughput == ref.throughput,
           std::string(name) + ": " + std::to_string(mine.latencies_ms.size()) +
               " latency samples and throughput " + num(mine.throughput) +
               " match workload::run_once (" +
               std::to_string(ref_lat.size()) + ", " + num(ref.throughput) +
               ")");
  }

  // 2. Tracing is passive.
  for (const Workload& w : all_workloads()) {
    if (w.world != WorldKind::kSim) continue;
    report(traced_matches_untraced(w, a.run.seed),
           std::string(w.name) +
               ": traced run has identical simulated outputs");
  }

  // 3. Negative control: a real delivery log passes, a reordered copy fails.
  ContractInput in = sample_contract_input(*find_workload("paper-n7-modular"),
                                           a.run.seed);
  report(check_contract(in).empty(), "real delivery logs satisfy the contract");
  bool swapped = false;
  for (std::size_t i = 0; !swapped && i + 1 < in.logs[1].size(); ++i) {
    if (in.logs[1][i] != in.logs[1][i + 1]) {
      std::swap(in.logs[1][i], in.logs[1][i + 1]);
      swapped = true;
    }
  }
  const std::string verdict = check_contract(in);
  report(swapped && !verdict.empty(),
         "reordered copy is rejected: " +
             (verdict.empty() ? std::string("accepted") : verdict));

  std::printf("selfcheck: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // Keep freed heap memory in the process: repetitions then reuse resident
  // pages instead of paying page faults whose count depends on when the
  // allocator happened to trim. Memory cost is reported as peak_rss_mb.
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  try {
    if (a.selfcheck) return selfcheck(a);
    if (!a.workload.empty()) return run_one(a);
    return run_all(a, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "modbench: %s\n", e.what());
    return 1;
  }
}
