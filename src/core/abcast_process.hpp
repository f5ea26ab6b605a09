// Public API: one atomic broadcast endpoint (process), either stack.
//
// AbcastProcess is the library's front door. Pick a StackKind, attach the
// process to a runtime (simulated or threaded), register a delivery handler,
// and call abcast(). Both stacks expose identical semantics — validity,
// uniform agreement, uniform integrity, uniform total order — and differ
// only in internal structure, which is precisely the paper's experiment.
//
//   runtime::SimWorld world({.n = 3});
//   std::vector<std::unique_ptr<core::AbcastProcess>> procs;
//   for (util::ProcessId p = 0; p < 3; ++p) {
//     procs.push_back(std::make_unique<core::AbcastProcess>(
//         world.runtime(p), core::StackOptions{}));
//     procs[p]->set_deliver_handler(...);
//     world.attach(p, &procs[p]->protocol());
//   }
//   world.start();
//   procs[0]->abcast(payload);
//   world.run_until(util::seconds(1));
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "abcast/modular_abcast.hpp"
#include "adb/ordering.hpp"
#include "consensus/chandra_toueg.hpp"
#include "fd/heartbeat_fd.hpp"
#include "framework/stack.hpp"
#include "monolithic/monolithic_abcast.hpp"
#include "rbcast/reliable_bcast.hpp"
#include "runtime/runtime.hpp"

namespace modcast::core {

enum class StackKind {
  kModular,     ///< Fig. 1 left: ABcast / Consensus / RBcast microprotocols
  kMonolithic,  ///< Fig. 1 right: one merged module (§4 optimizations)
};

const char* to_string(StackKind kind);

/// The ordering options (window W, batch cap M, batching triggers,
/// pipelining depth, the §3.3 silence timeout, the per-instance CPU cost)
/// are adb::OrderingConfig's, identical in both stacks (§5.1).
struct StackOptions : adb::OrderingConfig {
  StackKind kind = StackKind::kModular;

  fd::FdConfig fd;
  consensus::ConsensusConfig consensus;
  /// Monolithic only: how long a non-coordinator waits before flushing its
  /// outbox as a standalone forward (see MonolithicConfig). Validation runs
  /// raise it so burst workloads never flush before the combined proposal
  /// arrives.
  util::Duration forward_flush_delay = util::microseconds(200);

  /// Monolithic ablation toggles (§4.1–§4.3); ignored by the modular stack.
  bool opt_combine = true;
  bool opt_piggyback = true;
  bool opt_cheap_decision = true;

  /// Modular-stack extension: indirect consensus ([12], Ekwall & Schiper
  /// DSN'06) — consensus on message ids, payloads only via diffusion.
  /// Ignored by the monolithic stack.
  bool indirect_consensus = false;
};

/// Uniform view over either stack's statistics.
struct ProcessStats {
  std::uint64_t delivered = 0;
  std::uint64_t instances_completed = 0;
  /// Messages newly delivered by applied instances: the same count as
  /// `delivered`, kept under this name as avg_batch()'s numerator.
  std::uint64_t messages_in_decisions = 0;
  std::uint64_t admitted = 0;
  std::uint32_t max_round = 0;
  std::uint64_t late_decisions = 0;  ///< instances decided in rounds >= 2

  /// Measured M: newly delivered messages per applied instance. A message
  /// an instance orders again (it was already delivered by an earlier one)
  /// does not count.
  double avg_batch() const {
    return instances_completed == 0
               ? 0.0
               : static_cast<double>(messages_in_decisions) /
                     static_cast<double>(instances_completed);
  }
};

class AbcastProcess {
 public:
  /// origin, seq, payload — adeliver callback (same order at every process).
  using DeliverFn = std::function<void(util::ProcessId, std::uint64_t,
                                       const util::Bytes&)>;
  using AdmitFn = adb::Ordering::AdmitFn;

  AbcastProcess(runtime::Runtime& rt, StackOptions options);
  ~AbcastProcess();

  AbcastProcess(const AbcastProcess&) = delete;
  AbcastProcess& operator=(const AbcastProcess&) = delete;

  /// A-broadcasts payload; queues above the flow-control window (the admit
  /// handler fires when the message is actually admitted). Returns the
  /// sequence number this process assigned.
  std::uint64_t abcast(util::Bytes payload);

  /// adeliver callback: same (origin, seq) order at every correct process.
  /// The stacks deliver a view into the decided value; this API hands the
  /// handler its own copy of the payload.
  void set_deliver_handler(DeliverFn fn);
  /// Fired when an own message passes flow control (the paper's t0).
  void set_admit_handler(AdmitFn fn);

  /// The runtime::Protocol to attach to a SimWorld / ThreadWorld.
  runtime::Protocol& protocol();

  const StackOptions& options() const { return options_; }
  ProcessStats stats() const;
  std::size_t queued() const;     ///< messages waiting for flow control
  std::size_t in_flight() const;  ///< own admitted, undelivered messages

  framework::Stack& stack() { return *stack_; }
  fd::HeartbeatFd& failure_detector() { return *fd_; }
  /// Either stack's ordering front end (flow control, delivery, counters).
  const adb::Ordering& ordering() const { return *ordering_; }

  /// Non-null only for the matching kind (white-box access for tests).
  abcast::ModularAbcast* modular() { return modular_.get(); }
  monolithic::MonolithicAbcast* monolithic() { return monolithic_.get(); }
  consensus::ChandraTouegConsensus* consensus_module() {
    return consensus_.get();
  }
  rbcast::ReliableBcast* rbcast_module() { return rbcast_.get(); }

 private:
  StackOptions options_;
  std::unique_ptr<framework::Stack> stack_;
  std::unique_ptr<fd::HeartbeatFd> fd_;
  std::unique_ptr<rbcast::ReliableBcast> rbcast_;
  std::unique_ptr<consensus::ChandraTouegConsensus> consensus_;
  std::unique_ptr<abcast::ModularAbcast> modular_;
  std::unique_ptr<monolithic::MonolithicAbcast> monolithic_;
  adb::Ordering* ordering_ = nullptr;  ///< the chosen stack's front end
};

}  // namespace modcast::core
