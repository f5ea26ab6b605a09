#include "core/sim_group.hpp"

#include <set>
#include <string>

namespace modcast::core {

SimGroup::SimGroup(SimGroupConfig config) : config_(config) {
  runtime::SimWorldConfig wc;
  wc.n = config.n;
  wc.cpu = config.cpu;
  wc.net = config.net;
  wc.seed = config.seed;
  world_ = std::make_unique<runtime::SimWorld>(wc);

  if (config.drop_probability > 0.0) {
    world_->network().set_drop_probability(config.drop_probability);
  }

  if (config.safety_check) {
    checker_ = std::make_unique<faults::SafetyChecker>(config.n,
                                                       config.safety);
  }

  deliveries_.resize(config.n);
  payloads_.resize(config.n);
  procs_.reserve(config.n);
  for (util::ProcessId p = 0; p < config.n; ++p) {
    runtime::Runtime* rt = &world_->runtime(p);
    if (config.reliable_channels) {
      channels_.push_back(std::make_unique<channel::ReliableChannel>(
          *rt, config.channel));
      channeled_rts_.push_back(std::make_unique<channel::ChanneledRuntime>(
          *rt, *channels_.back()));
      rt = channeled_rts_.back().get();
    }
    auto proc = std::make_unique<AbcastProcess>(*rt, config.stack);
    if (config.collect_metrics) {
      metrics_.push_back(std::make_unique<metrics::MetricsRegistry>());
      proc->stack().set_tracer(metrics_.back()->sink());
    }
    // The group owns both stack callbacks: it feeds the checker, the
    // delivery log, and whatever observers are registered, in that order.
    proc->set_deliver_handler([this, p](util::ProcessId origin,
                                        std::uint64_t seq,
                                        const util::Bytes& payload) {
      if (checker_) checker_->on_deliver(p, origin, seq, world_->now());
      if (config_.record_deliveries) {
        deliveries_[p].push_back(
            DeliveryRecord{origin, seq, world_->now(), payload.size()});
        if (config_.record_payloads) payloads_[p].push_back(payload);
      }
      if (deliver_observer_) deliver_observer_(p, origin, seq, payload);
    });
    proc->set_admit_handler([this, p](std::uint64_t seq) {
      if (checker_) checker_->on_admit(p, seq, world_->now());
      if (admit_observer_) admit_observer_(p, seq);
    });
    if (config.reliable_channels) {
      channels_[p]->set_upper(&proc->protocol());
      world_->attach(p, channels_[p].get());
    } else {
      world_->attach(p, &proc->protocol());
    }
    procs_.push_back(std::move(proc));
  }
}

metrics::GroupMetrics SimGroup::collect_metrics() const {
  metrics::GroupMetrics gm;
  for (const auto& reg : metrics_) reg->merge_into(gm);
  const auto n = static_cast<util::ProcessId>(procs_.size());
  for (util::ProcessId p = 0; p < n; ++p) {
    gm.timer_arms += world_->timer_arms(p);
    if (!channels_.empty()) {
      const auto& cs = channels_.at(p)->stats();
      gm.retransmissions += cs.retransmissions;
      gm.retransmit_bytes += cs.retransmit_bytes;
      gm.channel_data_sent += cs.data_sent;
      gm.channel_acks_sent += cs.acks_sent;
      gm.channel_duplicates_dropped += cs.duplicates_dropped;
    }
  }
  const auto& net = world_->network().total();
  gm.net_messages = net.messages;
  gm.net_payload_bytes = net.payload_bytes;
  gm.net_wire_bytes = net.wire_bytes;
  gm.net_dropped_messages = net.dropped_messages;
  gm.net_dropped_bytes = net.dropped_bytes;
  return gm;
}

void SimGroup::start() {
  world_->start();
  if (checker_) arm_watchdog();
}

void SimGroup::crash(util::ProcessId p) {
  if (checker_ && !world_->crashed(p)) checker_->on_crash(p, world_->now());
  world_->crash(p);
}

void SimGroup::crash_at(util::ProcessId p, util::TimePoint when) {
  // Routed through SimGroup::crash (not SimWorld::crash_at) so the safety
  // checker hears about it.
  world_->simulator().at(when, [this, p] {
    if (!crashed(p)) crash(p);
  });
}

void SimGroup::arm_watchdog() {
  // Recurring read-only probe; the simulated system never quiesces anyway
  // (heartbeats re-arm forever), so an immortal repeating event is fine.
  world_->simulator().after(config_.safety.watchdog_period,
                            [this] { watchdog_tick(); });
}

void SimGroup::watchdog_tick() {
  checker_->on_watchdog_tick(world_->now());
  arm_watchdog();
}

ContractViolation check_total_order(const SimGroup& group) {
  // 1. No duplicates within any log (uniform integrity).
  for (util::ProcessId p = 0; p < group.size(); ++p) {
    std::set<std::pair<util::ProcessId, std::uint64_t>> seen;
    for (const auto& d : group.deliveries(p)) {
      if (!seen.insert({d.origin, d.seq}).second) {
        return {false, "process " + std::to_string(p) +
                           " delivered (" + std::to_string(d.origin) + "," +
                           std::to_string(d.seq) + ") twice"};
      }
    }
  }
  // 2. Pairwise prefix compatibility (uniform total order).
  for (util::ProcessId a = 0; a < group.size(); ++a) {
    for (util::ProcessId b = a + 1; b < group.size(); ++b) {
      const auto& la = group.deliveries(a);
      const auto& lb = group.deliveries(b);
      const std::size_t common = std::min(la.size(), lb.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (!(la[i] == lb[i])) {
          return {false,
                  "order divergence at index " + std::to_string(i) +
                      " between process " + std::to_string(a) + " (" +
                      std::to_string(la[i].origin) + "," +
                      std::to_string(la[i].seq) + ") and process " +
                      std::to_string(b) + " (" + std::to_string(lb[i].origin) +
                      "," + std::to_string(lb[i].seq) + ")"};
        }
      }
    }
  }
  return {};
}

ContractViolation check_agreement_among_correct(const SimGroup& group) {
  auto base = check_total_order(group);
  if (!base.ok) return base;
  // All correct processes must have the same log length (hence, by prefix
  // compatibility, identical logs).
  std::size_t expect = SIZE_MAX;
  util::ProcessId ref = 0;
  for (util::ProcessId p = 0; p < group.size(); ++p) {
    if (group.crashed(p)) continue;
    if (expect == SIZE_MAX) {
      expect = group.deliveries(p).size();
      ref = p;
    } else if (group.deliveries(p).size() != expect) {
      return {false, "correct processes " + std::to_string(ref) + " and " +
                         std::to_string(p) + " delivered " +
                         std::to_string(expect) + " vs " +
                         std::to_string(group.deliveries(p).size()) +
                         " messages"};
    }
  }
  return {};
}

}  // namespace modcast::core
