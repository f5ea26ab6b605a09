#include "consensus/chandra_toueg.hpp"

#include <algorithm>

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace modcast::consensus {

namespace {

// Point-to-point message kinds (kModConsensus wire payloads).
constexpr std::uint8_t kEstimate = 1;
constexpr std::uint8_t kProposal = 2;
constexpr std::uint8_t kAck = 3;
constexpr std::uint8_t kNack = 4;
constexpr std::uint8_t kPull = 5;
constexpr std::uint8_t kFull = 6;
constexpr std::uint8_t kSolicit = 7;

// Decision payload kinds carried inside the reliable broadcast.
constexpr std::uint8_t kDecisionTag = 10;
constexpr std::uint8_t kDecisionFull = 11;

}  // namespace

void ChandraTouegConsensus::init(framework::Stack& stack) {
  stack_ = &stack;
  rounds_.init(stack.group_size(), stack.self(),
               fd_ != nullptr ? &fd_->suspected() : nullptr);
  stack.bind_wire(framework::kModConsensus,
                  [this](util::ProcessId from, util::Payload msg) {
                    on_wire(from, std::move(msg));
                  });
  stack.bind(framework::kEvPropose, [this](const framework::Event& ev) {
    auto& body = ev.as<framework::ConsensusValueBody>();
    propose(body.instance, body.value);
  });
  stack.bind(framework::kEvRdeliver, [this](const framework::Event& ev) {
    auto& body = ev.as<framework::RdeliverBody>();
    on_rdeliver(body.origin, body.payload);
  });
  stack.bind(framework::kEvSuspect, [this](const framework::Event& ev) {
    on_suspect(ev.as<framework::SuspicionBody>().process);
  });
  stack.bind(framework::kEvRevalidate, [this](const framework::Event& ev) {
    on_revalidate(ev.as<framework::ProposeRequestBody>().instance);
  });
}

bool ChandraTouegConsensus::value_ok(std::uint64_t k,
                                     const util::Payload& value) const {
  return !validator_ || validator_(k, value);
}

void ChandraTouegConsensus::propose(std::uint64_t k, util::Payload value) {
  Instance* inst = rounds_.open(k);
  // Decided, or an initial value is already bound.
  if (inst == nullptr || inst->has_estimate) return;
  inst->set_initial(std::move(value));

  // Single-process group: trivially decide. Deferred through a zero-delay
  // timer so a decide → propose(k+1) → decide chain cannot recurse.
  if (stack_->group_size() == 1) {
    // lifecheck:allow(timer.lost): zero-delay trampoline fires before any cancel path could need its id
    stack_->rt().set_timer(0, [this, k] {
      if (Instance* open = rounds_.find(k)) decide_local(k, open->estimate);
    });
    return;
  }

  if (stack_->self() == rounds_.coordinator(1) && inst->round == 1 &&
      !inst->proposed(1)) {
    do_propose(*inst, 1, inst->estimate);
    return;
  }

  // Participant paths: catch up on anything that already happened.
  if (inst->round > 1 && stack_->self() != rounds_.coordinator(inst->round)) {
    send_estimate(*inst, inst->round, rounds_.coordinator(inst->round));
  }
  if (inst->round == 1) {
    if (rounds_.suspects(rounds_.coordinator(1))) {
      // Tell the round-1 coordinator we are moving on — it may be alive
      // (wrong suspicion) and waiting for our ack.
      if (rounds_.nack_once(*inst, 1)) send_nack(rounds_.coordinator(1), k, 1);
      rotate(*inst);
    } else if (inst->proposal(1) == nullptr) {
      arm_nudge(*inst);
    }
  }
}

void ChandraTouegConsensus::arm_nudge(Instance& inst) {
  if (inst.extra.nudge_timer != runtime::kInvalidTimer) return;
  const std::uint64_t k = inst.k;
  inst.extra.nudge_timer = stack_->rt().set_timer(
      config_.proposal_nudge_timeout, [this, k] {
        Instance* inst = rounds_.find(k);
        if (inst == nullptr) return;
        inst->extra.nudge_timer = runtime::kInvalidTimer;
        if (inst->round != 1 || inst->proposal(1) != nullptr ||
            !inst->has_estimate) {
          return;
        }
        // Re-introduce the estimate phase: hand the coordinator a value.
        util::ByteWriter w(inst->estimate.size() + 32);
        w.u8(kEstimate);
        w.u64(k);
        w.u32(1);
        w.u32(inst->estimate_ts);
        w.blob(inst->estimate);
        framework::TraceScope scope(*stack_, k, 0);
        stack_->send_wire(rounds_.coordinator(1), framework::kModConsensus,
                          w.take());
        ++stats_.nudges_sent;
        arm_nudge(*inst);  // keep nudging until the proposal shows up
      });
}

void ChandraTouegConsensus::do_propose(Instance& inst, std::uint32_t round,
                                       util::Payload value) {
  // In the good-run path this runs inside the abcast module's propose scope,
  // which already annotated instance k and the batch's app-payload bytes;
  // keeping app_bytes inherits that for the proposal fan-out. Recovery-round
  // proposals arrive with no enclosing scope and stay at app_bytes 0.
  framework::TraceScope scope(*stack_, inst.k, framework::TraceScope::kKeepAppBytes);
  util::ByteWriter w(value.size() + 32);  // spare room for the frame byte
  w.u8(kProposal);
  w.u64(inst.k);
  w.u32(round);
  w.blob(value);
  const util::Payload sent =
      stack_->send_wire_to_others(framework::kModConsensus, w.take());
  // The proposal is a view of the frame sent, so the coordinator, its n−1
  // peers and the decided store share one buffer.
  rounds_.propose(inst, round, sent.slice(sent.size() - value.size()));

  if (rounds_.quorum(inst, round)) broadcast_decision(inst, round);
}

void ChandraTouegConsensus::send_estimate(Instance& inst, std::uint32_t round,
                                          util::ProcessId coord) {
  if (!rounds_.claim_estimate(inst, round)) return;  // none yet, or sent
  util::ByteWriter w(inst.estimate.size() + 32);
  w.u8(kEstimate);
  w.u64(inst.k);
  w.u32(round);
  w.u32(inst.estimate_ts);
  w.blob(inst.estimate);
  framework::TraceScope scope(*stack_, inst.k, 0);
  stack_->send_wire(coord, framework::kModConsensus, w.take());
}

void ChandraTouegConsensus::send_nack(util::ProcessId to, std::uint64_t k,
                                      std::uint32_t round) {
  util::ByteWriter w(16);
  w.u8(kNack);
  w.u64(k);
  w.u32(round);
  framework::TraceScope scope(*stack_, k, 0);
  stack_->send_wire(to, framework::kModConsensus, w.take());
  ++stats_.nacks_sent;
}

void ChandraTouegConsensus::rotate(Instance& inst) {
  for (const rounds::Step& s : rounds_.rotate(inst)) {
    if (s.to == stack_->self()) {
      // We coordinate: wait for (more) estimates. May decide, which
      // releases inst.
      rounds_.record_own(inst, s.round);
      check_estimates(inst, s.round);
      return;
    }
    send_estimate(inst, s.round, s.to);
    // A suspected coordinator: tell it we moved on.
    if (s.nack) send_nack(s.to, inst.k, s.round);
  }
}

void ChandraTouegConsensus::check_estimates(Instance& inst,
                                            std::uint32_t round) {
  rounds::Round* r = inst.find(round);
  if (rounds_.coordinator(round) != stack_->self() || inst.proposed(round) ||
      r == nullptr || r->estimates.empty()) {
    return;
  }
  const std::vector<rounds::Estimate>& ests = r->estimates;

  if (round == 1) {
    // Round 1 normally has no estimate phase; estimates only arrive via the
    // nudge path, when the coordinator itself has no initial value. Adopt
    // the first nudged value (ts is always 0 in round 1).
    if (!inst.has_estimate && inst.round == 1) {
      if (!value_ok(inst.k, ests.front().value)) {
        inst.extra.propose = {1u, ests.front().value};
        return;
      }
      do_propose(inst, 1, ests.front().value);
    }
    return;
  }

  if (ests.size() < rounds_.majority()) {
    // Recovery rounds need majority participation, but only processes that
    // themselves suspected earlier coordinators have joined so far. Ask the
    // others for their estimates (once per round).
    if (!r->solicited) {
      r->solicited = true;
      util::ByteWriter w(16);
      w.u8(kSolicit);
      w.u64(inst.k);
      w.u32(round);
      framework::TraceScope scope(*stack_, inst.k, 0);
      stack_->send_wire_to_others(framework::kModConsensus, w.take());
    }
    return;
  }
  // Chandra–Toueg locking rule: propose the estimate with the highest
  // adoption timestamp. Among unlocked (ts = 0) candidates prefer a larger
  // value — an empty batch must not shadow one that carries messages.
  auto best = std::max_element(
      ests.begin(), ests.end(),
      [](const auto& a, const auto& b) {
        if (a.ts != b.ts) return a.ts < b.ts;
        return a.value.size() < b.value.size();
      });
  // Locking forces this value; if the layer above cannot act on it yet,
  // defer the proposal until revalidation (the validator starts recovery).
  if (!value_ok(inst.k, best->value)) {
    inst.extra.propose = {round, best->value};
    return;
  }
  do_propose(inst, round, best->value);
}

bool ChandraTouegConsensus::send_decision(util::ProcessId to,
                                          std::uint64_t k) {
  const rounds::Decided* d = rounds_.decision(k);
  if (d == nullptr) return false;
  util::ByteWriter w(d->value.size() + 16);
  w.u8(kFull);
  w.u64(k);
  w.blob(d->value);
  framework::TraceScope scope(*stack_, k, 0);
  stack_->send_wire(to, framework::kModConsensus, w.take());
  return true;
}

void ChandraTouegConsensus::on_solicit(util::ProcessId from, std::uint64_t k,
                                       std::uint32_t round) {
  // The solicitor lags: hand it the decision directly.
  if (send_decision(from, k)) return;
  Instance* inst = rounds_.open(k);
  if (inst == nullptr) return;  // decided, value no longer retained
  if (round > inst->round) inst->round = round;  // join the recovery round
  if (inst->has_estimate) {
    send_estimate(*inst, round, from);
  } else {
    // We never proposed for this instance: ask the layer above for an
    // initial value (it may legitimately be an empty batch). Its propose()
    // will send our estimate for the joined round.
    stack_->raise(framework::Event::local(
        framework::kEvProposeRequest, framework::ProposeRequestBody{k}));
  }
}

void ChandraTouegConsensus::broadcast_decision(Instance& inst,
                                               std::uint32_t round) {
  util::ByteWriter w(64);
  if (round == 1) {
    // Good-run optimization: decisions are a tiny tag; everyone holds the
    // round-1 proposal already (or pulls).
    w.u8(kDecisionTag);
    w.u64(inst.k);
    w.u32(round);
  } else {
    w.u8(kDecisionFull);
    w.u64(inst.k);
    w.u32(round);
    w.blob(*inst.proposal(round));
  }
  // Hand the decision to the reliable broadcast module. Local rdelivery is
  // synchronous, so this call chain ends in decide_local() for ourselves,
  // which releases inst.
  // The scope annotates the rbcast module's initial fan-out with instance k
  // (decisions carry no app payload, hence app_bytes 0).
  framework::TraceScope scope(*stack_, inst.k, 0);
  stack_->raise(framework::Event::local(framework::kEvRbcast,
                                        framework::RbcastBody{w.take()}));
}

void ChandraTouegConsensus::decide_local(std::uint64_t k, util::Payload value) {
  if (rounds_.decided(k)) return;
  ++stats_.decided;
  std::uint32_t round = 0;
  if (Instance* inst = rounds_.find(k)) {
    round = inst->round;
    stats_.max_round = std::max(stats_.max_round, round);
    if (round > 1) ++stats_.late_decisions;
    if (inst->extra.nudge_timer != runtime::kInvalidTimer) {
      stack_->rt().cancel_timer(inst->extra.nudge_timer);
    }
    if (inst->extra.pull_timer != runtime::kInvalidTimer) {
      stack_->rt().cancel_timer(inst->extra.pull_timer);
    }
  }
  rounds_.decide(k, round, value);

  stack_->raise(framework::Event::local(
      framework::kEvDecide,
      framework::ConsensusValueBody{k, std::move(value)}));
}

void ChandraTouegConsensus::start_pull(Instance& inst) {
  util::ByteWriter w(16);
  w.u8(kPull);
  w.u64(inst.k);
  {
    framework::TraceScope scope(*stack_, inst.k, 0);
    stack_->send_wire_to_others(framework::kModConsensus, w.take());
  }
  stats_.pulls_sent += stack_->group_size() - 1;

  const std::uint64_t k = inst.k;
  inst.extra.pull_timer =
      stack_->rt().set_timer(config_.pull_retry, [this, k] {
        Instance* inst = rounds_.find(k);
        if (inst == nullptr) return;
        inst->extra.pull_timer = runtime::kInvalidTimer;
        start_pull(*inst);
      });
}

void ChandraTouegConsensus::on_wire(util::ProcessId from,
                                    util::Payload msg) {
  util::ByteReader r(msg);
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case kEstimate: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      const std::uint32_t ts = r.u32();
      const std::uint32_t len = r.u32();
      on_estimate(from, k, round, ts, msg.slice(r.position(), len));
      break;
    }
    case kProposal: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      const std::uint32_t len = r.u32();
      on_proposal(from, k, round, msg.slice(r.position(), len));
      break;
    }
    case kAck: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      on_ack(from, k, round);
      break;
    }
    case kNack: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      on_nack(from, k, round);
      break;
    }
    case kPull:
      send_decision(from, r.u64());
      break;
    case kSolicit: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      on_solicit(from, k, round);
      break;
    }
    case kFull: {
      const std::uint64_t k = r.u64();
      const std::uint32_t len = r.u32();
      decide_local(k, msg.slice(r.position(), len));
      break;
    }
    default:
      MODCAST_WARN("consensus: unknown wire kind " + std::to_string(kind));
  }
}

void ChandraTouegConsensus::on_estimate(util::ProcessId from, std::uint64_t k,
                                        std::uint32_t round, std::uint32_t ts,
                                        util::Payload value) {
  Instance* inst = rounds_.open(k);
  if (inst == nullptr) return;
  inst->at(round).record(from, ts, std::move(value));
  check_estimates(*inst, round);
}

void ChandraTouegConsensus::on_proposal(util::ProcessId from, std::uint64_t k,
                                        std::uint32_t round,
                                        util::Payload value) {
  Instance* inst = rounds_.open(k);
  if (inst == nullptr) return;
  inst->at(round).proposal = std::move(value);

  if (inst->extra.nudge_timer != runtime::kInvalidTimer && round == 1) {
    stack_->rt().cancel_timer(inst->extra.nudge_timer);
    inst->extra.nudge_timer = runtime::kInvalidTimer;
  }

  // A pending DECISION tag for this round resolves now.
  if (inst->extra.tag_round == round) {
    decide_local(k, *inst->proposal(round));
    return;
  }

  switch (rounds_.admit(*inst, round)) {
    case rounds::Admission::kStale:
      send_nack(from, k, round);
      return;
    case rounds::Admission::kAnswered:
    case rounds::Admission::kAcked:
      return;
    case rounds::Admission::kSuspected:
      send_nack(from, k, round);
      rotate(*inst);
      return;
    case rounds::Admission::kAdopt:
      break;
  }
  // Extended-specification gate ([12]): do not ack a value the layer above
  // cannot act on yet (e.g. ids whose payloads we miss). The validator
  // initiates whatever recovery it needs and raises kEvRevalidate later.
  if (!value_ok(k, *inst->proposal(round))) {
    inst->extra.ack_round = round;
    return;
  }
  adopt_and_ack(*inst, round);
}

void ChandraTouegConsensus::adopt_and_ack(Instance& inst,
                                          std::uint32_t round) {
  // Chandra–Toueg: estimate := v, ts := r, then ack to the coordinator.
  rounds_.adopt(inst, round);
  inst.extra.ack_round.reset();
  util::ByteWriter w(16);
  w.u8(kAck);
  w.u64(inst.k);
  w.u32(round);
  framework::TraceScope scope(*stack_, inst.k, 0);
  stack_->send_wire(rounds_.coordinator(round), framework::kModConsensus,
                    w.take());
}

void ChandraTouegConsensus::on_revalidate(std::uint64_t k) {
  Instance* inst = rounds_.find(k);
  if (inst == nullptr) return;

  // Deferred ack: the proposal for our current round may validate now.
  const rounds::Round* r = inst->find(inst->round);
  if (inst->extra.ack_round == inst->round && r != nullptr && !r->acked &&
      !r->nacked && r->proposal && value_ok(k, *r->proposal)) {
    adopt_and_ack(*inst, inst->round);
  }

  // Deferred proposal: the locked value we must propose may validate now.
  if (inst->extra.propose) {
    const std::uint32_t round = inst->extra.propose->first;
    if (rounds_.coordinator(round) == stack_->self() &&
        !inst->proposed(round) && value_ok(k, inst->extra.propose->second)) {
      util::Payload value = std::move(inst->extra.propose->second);
      inst->extra.propose.reset();
      do_propose(*inst, round, std::move(value));
    }
  }
}

void ChandraTouegConsensus::on_ack(util::ProcessId from, std::uint64_t k,
                                   std::uint32_t round) {
  Instance* inst = rounds_.open(k);
  if (inst == nullptr) return;
  if (rounds_.ack(*inst, round, from)) broadcast_decision(*inst, round);
}

void ChandraTouegConsensus::on_nack(util::ProcessId from, std::uint64_t k,
                                    std::uint32_t round) {
  (void)from;
  Instance* inst = rounds_.open(k);
  if (inst == nullptr) return;
  // Our round failed; move on as a participant of later rounds. A decision
  // can still complete if a majority of acks arrives afterwards — that is
  // safe (the value is locked by the majority).
  if (rounds_.coordinator(round) == stack_->self() && inst->round == round) {
    rotate(*inst);
  }
}

void ChandraTouegConsensus::on_rdeliver(util::ProcessId origin,
                                        const util::Payload& payload) {
  (void)origin;
  util::ByteReader r(payload);
  const std::uint8_t kind = r.u8();
  if (kind == kDecisionTag) {
    const std::uint64_t k = r.u64();
    const std::uint32_t round = r.u32();
    Instance* inst = rounds_.open(k);
    if (inst == nullptr) return;
    if (const util::Payload* value = inst->proposal(round)) {
      decide_local(k, *value);
    } else {
      // We never saw the proposal the tag refers to: pull the full value.
      inst->extra.tag_round = round;
      if (inst->extra.pull_timer == runtime::kInvalidTimer) start_pull(*inst);
    }
  } else if (kind == kDecisionFull) {
    const std::uint64_t k = r.u64();
    r.u32();  // round (diagnostic only)
    const std::uint32_t len = r.u32();
    decide_local(k, payload.slice(r.position(), len));
  } else {
    MODCAST_WARN("consensus: unknown rdeliver kind " + std::to_string(kind));
  }
}

void ChandraTouegConsensus::on_suspect(util::ProcessId q) {
  // Move every undecided instance whose current coordinator is q to the
  // next round (the paper's "new round starts only if the coordinator is
  // suspected"). Rotating can synchronously decide other instances, so the
  // engine re-checks each one before it is abandoned.
  for (std::uint64_t k : rounds_.coordinated_by(q)) {
    Instance* inst = rounds_.abandon(k, q);
    if (inst == nullptr) continue;
    send_nack(q, k, inst->round);
    rotate(*inst);
  }
}

}  // namespace modcast::consensus
