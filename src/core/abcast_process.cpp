#include "core/abcast_process.hpp"

namespace modcast::core {

const char* to_string(StackKind kind) {
  switch (kind) {
    case StackKind::kModular: return "modular";
    case StackKind::kMonolithic: return "monolithic";
  }
  return "?";
}

AbcastProcess::AbcastProcess(runtime::Runtime& rt, StackOptions options)
    : options_(options) {
  stack_ = std::make_unique<framework::Stack>(rt,
                                              options.module_crossing_cost);
  fd_ = std::make_unique<fd::HeartbeatFd>(options.fd);
  stack_->add(*fd_);

  if (options.kind == StackKind::kModular) {
    rbcast_ = std::make_unique<rbcast::ReliableBcast>(options.rbcast,
                                                      fd_.get());
    stack_->add(*rbcast_);

    consensus_ =
        std::make_unique<consensus::ChandraTouegConsensus>(options.consensus,
                                                           fd_.get());
    stack_->add(*consensus_);

    abcast::AbcastConfig cfg;
    cfg.window = options.window;
    cfg.max_batch = options.max_batch;
    cfg.batch_bytes = options.batch_bytes;
    cfg.batch_delay = options.batch_delay;
    cfg.pipeline_depth = options.pipeline_depth;
    cfg.liveness_timeout = options.liveness_timeout;
    cfg.instance_overhead = options.instance_overhead;
    cfg.indirect_consensus = options.indirect_consensus;
    modular_ = std::make_unique<abcast::ModularAbcast>(cfg);
    stack_->add(*modular_);
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
    cfg.window = options.window;
    cfg.max_batch = options.max_batch;
    cfg.batch_bytes = options.batch_bytes;
    cfg.batch_delay = options.batch_delay;
    cfg.pipeline_depth = options.pipeline_depth;
    cfg.liveness_timeout = options.liveness_timeout;
    cfg.instance_overhead = options.instance_overhead;
    cfg.forward_flush_delay = options.forward_flush_delay;
    cfg.opt_combine = options.opt_combine;
    cfg.opt_piggyback = options.opt_piggyback;
    cfg.opt_cheap_decision = options.opt_cheap_decision;
    monolithic_ =
        std::make_unique<monolithic::MonolithicAbcast>(cfg, fd_.get());
    stack_->add(*monolithic_);
  }
}

AbcastProcess::~AbcastProcess() = default;

std::uint64_t AbcastProcess::abcast(util::Bytes payload) {
  return modular_ ? modular_->abcast(std::move(payload))
                  : monolithic_->abcast(std::move(payload));
}

void AbcastProcess::set_deliver_handler(DeliverFn fn) {
  if (modular_) {
    modular_->set_deliver_handler(std::move(fn));
  } else {
    monolithic_->set_deliver_handler(std::move(fn));
  }
}

void AbcastProcess::set_admit_handler(AdmitFn fn) {
  if (modular_) {
    modular_->set_admit_handler(std::move(fn));
  } else {
    monolithic_->set_admit_handler(std::move(fn));
  }
}

runtime::Protocol& AbcastProcess::protocol() { return *stack_; }

ProcessStats AbcastProcess::stats() const {
  ProcessStats s;
  if (modular_) {
    const auto& m = modular_->stats();
    s.delivered = m.delivered;
    s.instances_completed = m.instances_completed;
    s.messages_in_decisions = m.messages_in_decisions;
    s.admitted = m.admitted;
    s.max_round = consensus_->stats().max_round;
    s.late_decisions = consensus_->stats().late_decisions;
  } else {
    const auto& m = monolithic_->stats();
    s.delivered = m.delivered;
    s.instances_completed = m.instances_completed;
    s.messages_in_decisions = m.messages_in_decisions;
    s.admitted = m.admitted;
    s.max_round = m.max_round;
    s.late_decisions = m.late_decisions;
  }
  return s;
}

std::size_t AbcastProcess::queued() const {
  return modular_ ? modular_->queued() : monolithic_->queued();
}

std::size_t AbcastProcess::in_flight() const {
  return modular_ ? modular_->in_flight() : monolithic_->in_flight();
}

}  // namespace modcast::core
