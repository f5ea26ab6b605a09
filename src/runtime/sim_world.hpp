// SimWorld: a complete simulated deployment of n processes.
//
// Owns the scheduler, network, one CPU and one Runtime per process, and the
// CPU cost model that converts message handling into simulated processing
// time. This is the substitute for the paper's cluster (see DESIGN.md §2):
// per-message and per-byte CPU costs are calibrated so that the system
// saturates its CPUs at loads comparable to the paper's testbed.
#pragma once

#include <memory>
#include <vector>

#include "runtime/runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace modcast::runtime {

/// CPU cost charged for runtime operations. Defaults are calibrated against
/// the paper's testbed (P4 3.2 GHz running the Fortika/Cactus Java stack):
/// the paper reports 99% CPU above 500 msgs/s offered load, which works out
/// to roughly 300 µs of processing per message event (deserialization,
/// allocation, framework dispatch) plus a per-byte term that dominates for
/// the 16 KiB payloads of Figs. 8 and 10.
struct CpuCostModel {
  util::Duration recv_base = util::microseconds(180);
  double recv_ns_per_byte = 4.0;
  util::Duration send_base = util::microseconds(120);
  double send_ns_per_byte = 2.5;
  util::Duration timer_base = util::microseconds(3);

  util::Duration recv_cost(std::size_t bytes) const {
    return recv_base + static_cast<util::Duration>(
                           recv_ns_per_byte * static_cast<double>(bytes));
  }
  util::Duration send_cost(std::size_t bytes) const {
    return send_base + static_cast<util::Duration>(
                           send_ns_per_byte * static_cast<double>(bytes));
  }
};

struct SimWorldConfig {
  std::size_t n = 3;
  sim::NetworkConfig net;
  CpuCostModel cpu;
  std::uint64_t seed = 1;
};

class SimWorld {
 public:
  explicit SimWorld(SimWorldConfig config);
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  std::size_t size() const { return config_.n; }
  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return net_; }
  sim::Cpu& cpu(util::ProcessId p) { return *cpus_.at(p); }
  Runtime& runtime(util::ProcessId p);
  /// Total timers armed by process p's runtime so far (metrics).
  std::uint64_t timer_arms(util::ProcessId p) const;
  /// Timers currently armed and not yet fired or cancelled on process p.
  /// Lets tests assert protocols disarm their one-shot timers at quiescence.
  std::size_t pending_timers(util::ProcessId p) const;
  const SimWorldConfig& config() const { return config_; }

  /// Attaches the protocol stack of process p (non-owning). Must be called
  /// for every process before start().
  void attach(util::ProcessId p, Protocol* protocol);

  /// Schedules Protocol::start() for every attached process at time 0.
  void start();

  /// Crash-stops process p immediately: no further sends, receives, timers,
  /// or queued handler executions.
  void crash(util::ProcessId p);
  /// Crash-stops process p at virtual time `when`.
  void crash_at(util::ProcessId p, util::TimePoint when);
  bool crashed(util::ProcessId p) const { return net_.crashed(p); }

  /// Runs the simulation until the virtual deadline.
  void run_until(util::TimePoint deadline) { sim_.run_until(deadline); }
  /// Runs until quiescence or max_events.
  std::size_t run(std::size_t max_events = SIZE_MAX) {
    return sim_.run(max_events);
  }
  util::TimePoint now() const { return sim_.now(); }

 private:
  class ProcRuntime;

  SimWorldConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  std::vector<std::unique_ptr<sim::Cpu>> cpus_;
  std::vector<std::unique_ptr<ProcRuntime>> runtimes_;
  std::vector<Protocol*> protocols_;
  util::Rng root_rng_;
};

}  // namespace modcast::runtime
