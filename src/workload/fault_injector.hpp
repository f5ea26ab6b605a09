// Arms a declarative FaultSchedule onto a live SimGroup deployment.
//
// Every fault in the schedule becomes simulator events against the group's
// existing hooks: SimGroup::crash (which also notifies the group's safety
// checker), Network::set_link_blocked, a Network drop predicate drawing
// from the network's seeded RNG stream, and HeartbeatFd::force_suspect.
// Instance-pinned crashes poll the victim's completed-instance counter on a
// fine-grained timer — a read-only probe that cannot perturb protocol state
// or RNG streams, so armed and unarmed runs of fault-free schedules are
// byte-identical.
#pragma once

#include <functional>
#include <string>

#include "core/sim_group.hpp"
#include "faults/fault_schedule.hpp"

namespace modcast::workload {

// Schedule vocabulary comes from the faults layer below.
using faults::CrashOnInstance;
using faults::FaultSchedule;
using faults::kAnyProcess;
using faults::Partition;
using faults::SuspicionBurst;

class FaultInjector {
 public:
  /// Polling period for instance-pinned crashes.
  static constexpr util::Duration kInstancePoll = util::microseconds(500);

  /// Notified at the virtual instant each fault actually fires (crash,
  /// cut/heal, suspicion burst). Drop windows are not reported per message.
  using FaultListener =
      std::function<void(util::TimePoint at, const std::string& what)>;

  FaultInjector(core::SimGroup& group, FaultSchedule schedule);

  /// Schedules every fault in the spec onto the group's simulator. Call
  /// exactly once, before the run. Drop windows install the network's drop
  /// predicate (replacing any prior one). The injector must outlive the run.
  void arm();

  void set_fault_listener(FaultListener fn) { listener_ = std::move(fn); }

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  void arm_partition(const Partition& cut);
  void arm_instance_crash(const CrashOnInstance& c);
  /// One poll of an instance-pinned crash; re-arms until it fires.
  void poll_instance_crash(const CrashOnInstance& c);
  void arm_suspicions(const SuspicionBurst& burst);
  void notify(const std::string& what);

  core::SimGroup* group_;
  FaultSchedule schedule_;
  FaultListener listener_;
  bool armed_ = false;
};

}  // namespace modcast::workload
