#include "core/abcast_process.hpp"

namespace modcast::core {

const char* to_string(StackKind kind) {
  switch (kind) {
    case StackKind::kModular: return "modular";
    case StackKind::kMonolithic: return "monolithic";
  }
  return "?";
}

namespace {
/// CPU cost of one module-boundary crossing in the composition framework
/// (event allocation, dispatch, header push/pop). Charged per crossing by
/// the Stack; only observable under the simulated runtime.
constexpr util::Duration kModuleCrossingCost = util::microseconds(20);
}  // namespace

AbcastProcess::AbcastProcess(runtime::Runtime& rt, StackOptions options)
    : options_(options) {
  stack_ = std::make_unique<framework::Stack>(rt, kModuleCrossingCost);
  fd_ = std::make_unique<fd::HeartbeatFd>(options.fd);
  stack_->add(*fd_);

  const adb::OrderingConfig& ordering = options;
  if (options.kind == StackKind::kModular) {
    rbcast_ = std::make_unique<rbcast::ReliableBcast>(fd_.get());
    stack_->add(*rbcast_);

    consensus_ =
        std::make_unique<consensus::ChandraTouegConsensus>(options.consensus,
                                                           fd_.get());
    stack_->add(*consensus_);

    modular_ = std::make_unique<abcast::ModularAbcast>(
        ordering, abcast::AbcastConfig{options.indirect_consensus});
    stack_->add(*modular_);
    ordering_ = &modular_->ordering();
    if (options.indirect_consensus) {
      // The extended consensus specification ([12]): consensus defers acks
      // and proposals on values whose payloads this process does not hold.
      consensus_->set_proposal_validator(
          [ab = modular_.get()](std::uint64_t k, const util::Payload& value) {
            return ab->validate_value(k, value);
          });
    }
  } else {
    monolithic::MonolithicConfig cfg;
    cfg.forward_flush_delay = options.forward_flush_delay;
    cfg.pull_retry = options.consensus.pull_retry;
    cfg.decision_retention = options.consensus.decision_retention;
    cfg.opt_combine = options.opt_combine;
    cfg.opt_piggyback = options.opt_piggyback;
    cfg.opt_cheap_decision = options.opt_cheap_decision;
    monolithic_ = std::make_unique<monolithic::MonolithicAbcast>(
        ordering, cfg, fd_.get());
    stack_->add(*monolithic_);
    ordering_ = &monolithic_->ordering();
  }
}

AbcastProcess::~AbcastProcess() = default;

std::uint64_t AbcastProcess::abcast(util::Bytes payload) {
  return modular_ ? modular_->abcast(std::move(payload))
                  : monolithic_->abcast(std::move(payload));
}

void AbcastProcess::set_deliver_handler(DeliverFn fn) {
  if (!fn) {
    ordering_->set_deliver_handler(nullptr);
    return;
  }
  ordering_->set_deliver_handler(
      [fn = std::move(fn)](util::ProcessId origin, std::uint64_t seq,
                           std::span<const std::uint8_t> payload) {
        fn(origin, seq, util::Bytes(payload.begin(), payload.end()));
      });
}

void AbcastProcess::set_admit_handler(AdmitFn fn) {
  ordering_->set_admit_handler(std::move(fn));
}

runtime::Protocol& AbcastProcess::protocol() { return *stack_; }

ProcessStats AbcastProcess::stats() const {
  const adb::OrderingStats& o = ordering_->stats();
  ProcessStats s;
  s.delivered = o.delivered;
  s.instances_completed = o.instances_completed;
  s.messages_in_decisions = o.delivered;
  s.admitted = o.admitted;
  if (modular_) {
    s.max_round = consensus_->stats().max_round;
    s.late_decisions = consensus_->stats().late_decisions;
  } else {
    s.max_round = monolithic_->stats().max_round;
    s.late_decisions = monolithic_->stats().late_decisions;
  }
  return s;
}

std::size_t AbcastProcess::queued() const { return ordering_->queued(); }

std::size_t AbcastProcess::in_flight() const { return ordering_->in_flight(); }

}  // namespace modcast::core
