// Experiment harness reproducing the paper's benchmarks (§5.1).
//
// Workload: symmetric — every process abcasts messages of a fixed size s at
// a constant rate r; the global attempt rate is the offered load T_offered.
// Flow control may block an attempt (the paper's abcast blocking); blocked
// attempts are skipped, which is what produces the latency/throughput
// plateaus of Figs. 8 and 10.
//
// Metrics (§5.1):
//   early latency  L = (min_i t_i) − t0, with t0 the completion of
//                  abcast(m) (our flow-control admission instant) and t_i
//                  the adeliver instants;
//   throughput     T = (1/n) Σ r_i with r_i the adeliver rate at p_i.
// Both are measured in a stationary window after a warmup, aggregated over
// several seeded executions with 95% confidence intervals.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sim_group.hpp"
#include "metrics/metrics.hpp"
#include "util/stats.hpp"

namespace modcast::workload {

struct WorkloadConfig {
  double offered_load = 1000.0;     ///< msgs/s, summed over all processes
  std::size_t message_size = 16384; ///< bytes per abcast payload (the l/s)
  util::Duration warmup = util::seconds(2);
  util::Duration measure = util::seconds(5);
  /// Attempts are "blocked" (skipped) when this many messages already wait
  /// for flow-control admission at the sender.
  std::size_t block_threshold = 4;
  /// Attach the online faults::SafetyChecker to the run; the verdict lands
  /// in RunResult::safety_ok / safety_violations. Good-run figure benches
  /// leave this off (it is not free); failure-mode runs turn it on.
  bool safety_check = false;
  /// Install MetricsRegistry tracers and snapshot the merged GroupMetrics
  /// into RunResult::metrics. Passive: simulated event order and all default
  /// outputs are unchanged.
  bool collect_metrics = false;
};

/// Result of a single seeded execution.
struct RunResult {
  util::SampleSet latencies_ms;   ///< early latency per message (window)
  double throughput = 0.0;        ///< msgs/s (paper's T)
  double offered = 0.0;           ///< configured offered load
  std::uint64_t unique_delivered = 0;  ///< distinct messages in window
  double avg_batch = 0.0;         ///< measured M (messages per consensus)
  double cpu_utilization = 0.0;   ///< mean over processes, window only
  double protocol_msgs_per_abcast = 0.0;  ///< abcast+consensus+rbcast msgs
  double protocol_bytes_per_abcast = 0.0;
  std::uint64_t instances = 0;    ///< consensus executions in window
  double msgs_per_consensus = 0.0;
  double bytes_per_consensus = 0.0;
  bool safety_ok = true;          ///< meaningful iff safety_check was on
  std::vector<std::string> safety_violations;
  metrics::GroupMetrics metrics;  ///< filled iff collect_metrics was on
  /// Simulator-core memory accounting at end of run: bytes held by the
  /// event-queue slabs/heaps plus the network's pending-delivery pool and
  /// tiered link state. Deterministic (derived from high-water marks, not
  /// the OS), so it is safe in benchdiff-gated outputs.
  std::uint64_t sim_state_bytes = 0;
  std::uint64_t peak_pending_events = 0;  ///< event-queue high-water mark
  std::uint64_t peak_in_flight_msgs = 0;  ///< network pool high-water mark
};

/// Runs one seeded execution of the given stack and workload on an
/// n-process simulated deployment.
RunResult run_once(std::size_t n, const core::StackOptions& stack,
                   const WorkloadConfig& workload, std::uint64_t seed,
                   const runtime::CpuCostModel& cpu = {},
                   const sim::NetworkConfig& net = {});

/// Aggregate over several seeds.
struct AggregateResult {
  util::ConfidenceInterval latency_ms;   ///< CI over per-seed mean latencies
  util::ConfidenceInterval throughput;   ///< CI over per-seed throughputs
  double avg_batch = 0.0;
  double cpu_utilization = 0.0;
  double protocol_msgs_per_abcast = 0.0;
  double protocol_bytes_per_abcast = 0.0;
  double msgs_per_consensus = 0.0;
  double bytes_per_consensus = 0.0;
  metrics::GroupMetrics metrics;  ///< sum over seeds (collect_metrics runs)
  std::uint64_t sim_state_bytes = 0;      ///< max over seeds
  std::uint64_t peak_pending_events = 0;  ///< max over seeds
  std::uint64_t peak_in_flight_msgs = 0;  ///< max over seeds
};

/// Aggregates per-seed runs into CIs and means. Deterministic in the run
/// order given (seed order), independent of how the runs were produced.
AggregateResult aggregate_runs(const std::vector<RunResult>& runs);

AggregateResult run_experiment(std::size_t n, const core::StackOptions& stack,
                               const WorkloadConfig& workload,
                               std::size_t seeds = 3,
                               std::uint64_t base_seed = 1,
                               const runtime::CpuCostModel& cpu = {},
                               const sim::NetworkConfig& net = {});

}  // namespace modcast::workload
