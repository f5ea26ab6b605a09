// modbench workloads and the runners that execute them.
//
// Every workload drives core::AbcastProcess through its public API on
// runtime::SimWorld or runtime::ThreadWorld. A workload sets only its
// defining inputs — group size, stack, message size, offered rate and the
// crash; CpuCostModel, NetworkConfig and StackOptions stay at their
// defaults, so the benchmark keeps working when tuning knobs are removed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "contract.hpp"
#include "core/abcast_process.hpp"
#include "util/time.hpp"

namespace modbench {

enum class WorldKind { kSim, kThread };

struct Workload {
  const char* name;
  const char* why;
  WorldKind world;
  modcast::core::StackKind stack;
  std::size_t n;
  std::size_t message_size;
  /// Open-loop rate of the fixed-rate phase, msgs/s summed over the group.
  double rate;
  modcast::util::Duration warmup;
  /// Measured window. ThreadWorld windows come from --seconds instead.
  modcast::util::Duration window;
  /// After the generators stop, time for in-flight messages to finish
  /// (SimWorld; ThreadWorld drains until every message is delivered).
  modcast::util::Duration drain;
  /// SimWorld overload phase rate (0: no capacity phase).
  double capacity_rate;
  /// Instant at which p0, the initial coordinator, crashes (0: no crash).
  modcast::util::Duration crash_at;
};

const std::vector<Workload>& all_workloads();
const Workload* find_workload(const std::string& name);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOptions {
  std::uint64_t seed = 1;
  /// ThreadWorld: open-loop window length; the closed loop sends up to
  /// 0.4 * seconds * 50 000 messages per process.
  /// SimWorld: repetitions continue past the minimum of five until this
  /// much wall time has been measured.
  double seconds = 10.0;
  std::string trace_dir;  ///< empty: no traced run
  /// Corrupt one delivery log before the contract check (negative control
  /// for the exit code).
  bool inject_violation = false;
};

struct WorkloadResult {
  std::vector<Metric> metrics;  ///< end-to-end, from untraced runs
  std::vector<Metric> layers;   ///< per-layer, from the traced run
  std::string violation;        ///< empty when every check passed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t repetitions = 0;
  std::vector<int> pinned_cpus;
  std::vector<std::pair<std::string, double>> phase_wall_s;
};

WorkloadResult run_workload(const Workload& w, const RunOptions& opts);

// --- Self-check hooks -----------------------------------------------------

/// Early-latency samples (sorted) and throughput of one fixed-rate SimWorld
/// run with the given timing, as measured by the benchmark's own runner.
struct SimSummary {
  std::vector<double> latencies_ms;
  double throughput = 0.0;
};
SimSummary run_sim_summary(const Workload& w, std::uint64_t seed,
                           modcast::util::Duration warmup,
                           modcast::util::Duration window);

/// True when a traced and an untraced repetition of w's fixed-rate phase
/// produce identical simulated outputs.
bool traced_matches_untraced(const Workload& w, std::uint64_t seed);

/// The delivery logs of one short SimWorld run (negative-control input).
ContractInput sample_contract_input(const Workload& w, std::uint64_t seed);

}  // namespace modbench
