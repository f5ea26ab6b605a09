#include "monolithic/monolithic_abcast.hpp"

#include <algorithm>
#include <set>

#include "util/log.hpp"

namespace modcast::monolithic {

namespace {

constexpr std::uint8_t kCombined = 1;      ///< proposal (+ optional decision tag)
constexpr std::uint8_t kAck = 2;           ///< ack (+ piggybacked app messages)
constexpr std::uint8_t kForward = 3;       ///< standalone app messages
constexpr std::uint8_t kDecisionTag = 4;   ///< decision without value
constexpr std::uint8_t kEstimate = 5;      ///< recovery estimate (+ piggyback)
constexpr std::uint8_t kProposal = 6;      ///< recovery-round proposal
constexpr std::uint8_t kDecisionFull = 7;  ///< decision with value (relayed)
constexpr std::uint8_t kNack = 8;
constexpr std::uint8_t kPull = 9;
constexpr std::uint8_t kFullReply = 10;
constexpr std::uint8_t kSolicit = 11;      ///< recovery coordinator requests estimates

constexpr std::uint8_t kFlagHasDecision = 0x1;

// relayed_decisions_ channels.
constexpr std::uint32_t kRelayTagChannel = 0;
constexpr std::uint32_t kRelayFullChannel = 1;

/// Coordinator retransmits an unacked proposal after this long (loss
/// robustness; never fires in good runs over quasi-reliable channels).
constexpr util::Duration kAckRetransmit = util::milliseconds(400);

}  // namespace

void MonolithicAbcast::init(framework::Stack& stack) {
  stack_ = &stack;
  ordering_.init(stack.self());
  rounds_.init(stack.group_size(), stack.self(),
               fd_ != nullptr ? &fd_->suspected() : nullptr);
  stack.bind_wire(framework::kModMonolithic,
                  [this](util::ProcessId from, util::Payload msg) {
                    on_wire(from, std::move(msg));
                  });
  stack.bind(framework::kEvSuspect, [this](const framework::Event& ev) {
    on_suspect(ev.as<framework::SuspicionBody>().process);
  });
}

void MonolithicAbcast::start() {
  last_activity_ = stack_->rt().now();
  arm_liveness_timer();
}

// --------------------------------------------------------------------------
// Identity helpers
// --------------------------------------------------------------------------

bool MonolithicAbcast::i_am_initial_coordinator() const {
  return stack_->self() == rounds_.coordinator(1);
}

bool MonolithicAbcast::is_designated_resender(util::ProcessId origin,
                                              util::ProcessId relay) const {
  const auto n = static_cast<std::uint32_t>(stack_->group_size());
  const std::uint32_t resenders = (n - 1) / 2;
  for (std::uint32_t i = 1; i <= resenders; ++i) {
    if ((origin + i) % n == relay) return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// Application side
// --------------------------------------------------------------------------

std::uint64_t MonolithicAbcast::abcast(util::Bytes payload) {
  const std::uint64_t seq = ordering_.enqueue(std::move(payload));
  admit_queued();
  if (i_am_initial_coordinator()) start_instances();
  recheck_active_estimates();
  return seq;
}

void MonolithicAbcast::admit_queued() {
  ordering_.admit([this](adb::AppMessage m) {
    own_pending_[m.id] = m.payload;
    route_message(std::move(m));
  });
}

void MonolithicAbcast::route_message(adb::AppMessage m) {
  if (!config_.opt_piggyback) {
    // Modular-style diffusion: everyone gets (and pools) the message.
    util::ByteWriter w(m.payload.size() + 32);
    w.u8(kForward);
    adb::encode_batch(w, std::span(&m, 1));
    framework::TraceScope scope(*stack_, framework::kNoInstance,
                                m.payload.size());
    stack_->send_wire_to_others(framework::kModMonolithic, w.take());
    pool_add(std::move(m));
    return;
  }
  if (i_am_initial_coordinator()) {
    pool_add(std::move(m));
    return;
  }
  // §4.2: queue for the coordinator; the message rides the next ack, or a
  // small standalone FORWARD if the system is idle.
  outbox_.push_back(std::move(m));
  arm_flush_timer();
}

void MonolithicAbcast::arm_flush_timer() {
  if (flush_timer_ != runtime::kInvalidTimer || outbox_.empty()) return;
  flush_timer_ = stack_->rt().set_timer(config_.forward_flush_delay, [this] {
    flush_timer_ = runtime::kInvalidTimer;
    flush_outbox_standalone();
  });
}

void MonolithicAbcast::flush_outbox_standalone() {
  if (outbox_.empty()) return;
  std::vector<adb::AppMessage> batch;
  batch.swap(outbox_);
  // Route to the coordinator of the instance currently making progress. If
  // the initial coordinator is suspected and no instance is active, spin up
  // recovery first so the forward goes to a live coordinator.
  auto route = [this] {
    const Instance* inst = rounds_.find(ordering_.next_decide());
    return rounds_.coordinator(inst != nullptr ? inst->round : 1);
  };
  util::ProcessId target = route();
  if (rounds_.suspects(target)) {
    // Re-queue the batch so ensure_instance_progress sees it as pending,
    // then re-resolve the route.
    outbox_ = batch;
    ensure_instance_progress();
    outbox_.clear();
    target = route();
    if (rounds_.suspects(target)) {
      // Still no live coordinator known: the estimates sent while advancing
      // already carry own_pending_; nothing more to do now.
      return;
    }
  }
  if (target == stack_->self()) {
    for (auto& m : batch) pool_add(std::move(m));
    start_instances();
    return;
  }
  util::ByteWriter w(1 + adb::encoded_batch_size(batch));
  w.u8(kForward);
  adb::encode_batch(w, batch);
  framework::TraceScope scope(*stack_, framework::kNoInstance,
                              adb::payload_bytes(batch));
  stack_->send_wire(target, framework::kModMonolithic, w.take());
  ++stats_.forwards_sent;
}

void MonolithicAbcast::pool_add(adb::AppMessage m) {
  ordering_.pool_add(std::move(m), stack_->rt().now());
}

util::Bytes MonolithicAbcast::build_estimate_value() {
  // Recovery initial value: own undelivered messages plus whatever we have
  // pooled (in-flight proposals included — a crashed instance's messages
  // must not be lost) — safety over compactness in bad runs.
  std::vector<adb::AppMessage> batch;
  std::set<adb::MsgId> added;
  for (const auto& [id, payload] : own_pending_) {
    batch.push_back(adb::AppMessage{id, payload});
    added.insert(id);
  }
  const std::size_t cap = ordering_.config().max_batch * 2;
  ordering_.pool().for_each_live([&](const adb::AppMessage& m) {
    if (added.count(m.id) != 0) return;
    if (batch.size() >= cap) return;
    batch.push_back(m);
    added.insert(m.id);
  });
  return adb::encode_batch(batch);
}

// --------------------------------------------------------------------------
// Coordinator good path
// --------------------------------------------------------------------------

bool MonolithicAbcast::try_start_instance() {
  if (!i_am_initial_coordinator() || !ordering_.can_propose()) return false;
  const std::uint64_t k = ordering_.next_instance();
  if (rounds_.decided(k)) return false;
  if (const Instance* open = rounds_.find(k);
      open != nullptr && (open->proposed(1) || open->round > 1)) {
    return false;  // already started (or recovery in progress)
  }

  if (ordering_.pool().eligible() == 0) return false;
  const util::TimePoint now = stack_->rt().now();
  if (!ordering_.pool().ready(now)) {
    arm_batch_timer(now);
    return false;
  }
  const adb::BatchView batch = ordering_.cut();
  if (batch.empty()) return false;

  Instance& inst = *rounds_.open(k);
  util::ByteWriter value(adb::encoded_batch_size(batch));
  adb::encode_batch(value, batch);

  // §4.1: piggyback a decision tag on this proposal. Prefer a decision not
  // yet shipped in any COMBINED; when there is none, re-attach the latest
  // applied decision's tag — a free refresher for any process that missed
  // the standalone tag (and the pre-pipelining behavior, byte-for-byte).
  bool has_dec = false;
  std::uint64_t dec_k = 0;
  if (config_.opt_combine) {
    if (!untagged_decisions_.empty()) {
      dec_k = untagged_decisions_.front();
      untagged_decisions_.pop_front();
      has_dec = true;
    } else if (k > 0 && rounds_.decision(k - 1) != nullptr) {
      dec_k = k - 1;
      has_dec = true;
    }
  }
  util::ByteWriter w(value.size() + 32);
  w.u8(kCombined);
  w.u8(has_dec ? kFlagHasDecision : 0);
  if (has_dec) {
    w.u64(dec_k);
    w.u32(rounds_.decided_round(dec_k));
    ++stats_.combined_sent;
  }
  w.u64(k);
  const std::size_t at = w.size();
  w.raw(value.bytes());
  util::Payload sent;
  {
    framework::TraceScope scope(*stack_, k, adb::payload_bytes(batch));
    sent = stack_->send_wire_to_others(framework::kModMonolithic, w.take());
  }
  // The proposal is a view of the frame sent, so the coordinator, its n−1
  // peers and the decided store share one buffer.
  rounds_.propose(inst, 1, sent.slice(at));
  arm_retransmit(inst, 1);
  if (rounds_.majority() == 1) {
    // Degenerate tiny group: decide via a zero-delay timer so a decide →
    // start(k+1) → decide chain cannot recurse unboundedly.
    // lifecheck:allow(timer.lost): zero-delay trampoline fires before any cancel path could need its id
    stack_->rt().set_timer(0, [this, k] {
      Instance* inst = rounds_.find(k);
      if (inst != nullptr && rounds_.quorum(*inst, inst->round)) {
        coordinator_decided(*inst, inst->round);
      }
    });
  }
  return true;
}

void MonolithicAbcast::start_instances() {
  // At depth 1 the second iteration no-ops at the pipelining gate, so this
  // is exactly one legacy try_start_instance; deeper pipelines fill every
  // free slot the pool can feed.
  while (try_start_instance()) {
  }
  if (ordering_.pool().eligible() == 0) {
    // Everything eligible was cut (e.g. a size-triggered proposal beat
    // the δ-timer): a still-armed batch timer would only fire to no-op.
    cancel_batch_timer();
  }
}

void MonolithicAbcast::arm_batch_timer(util::TimePoint now) {
  // δ-time trigger: wake when the oldest eligible message has aged out.
  if (batch_timer_ != runtime::kInvalidTimer) return;
  const util::TimePoint due = ordering_.pool().deadline();
  const util::Duration wait = due > now ? due - now : 1;
  batch_timer_ = stack_->rt().set_timer(wait, [this] {
    batch_timer_ = runtime::kInvalidTimer;
    start_instances();
  });
}

void MonolithicAbcast::cancel_batch_timer() {
  if (batch_timer_ == runtime::kInvalidTimer) return;
  stack_->rt().cancel_timer(batch_timer_);
  batch_timer_ = runtime::kInvalidTimer;
}

void MonolithicAbcast::arm_retransmit(Instance& inst, std::uint32_t round) {
  const std::uint64_t k = inst.k;
  if (inst.extra.retransmit_timer != runtime::kInvalidTimer) {
    stack_->rt().cancel_timer(inst.extra.retransmit_timer);
  }
  inst.extra.retransmit_timer = stack_->rt().set_timer(
      kAckRetransmit, [this, k, round] {
        Instance* inst = rounds_.find(k);
        if (inst == nullptr) return;
        inst->extra.retransmit_timer = runtime::kInvalidTimer;
        if (inst->round != round || !inst->proposed(round)) return;
        // Resend the proposal to everyone that has not acked yet.
        const rounds::Round& r = *inst->find(round);
        util::ByteWriter w(r.proposal->size() + 32);
        w.u8(kProposal);
        w.u64(k);
        w.u32(round);
        w.raw(*r.proposal);
        const util::Bytes msg = w.take();
        const auto n = static_cast<util::ProcessId>(stack_->group_size());
        framework::TraceScope scope(*stack_, k, 0);
        for (util::ProcessId p = 0; p < n; ++p) {
          if (p == stack_->self() || r.acked_by(p)) continue;
          stack_->send_wire(p, framework::kModMonolithic, msg);
          ++stats_.retransmissions;
        }
        arm_retransmit(*inst, round);
      });
}

void MonolithicAbcast::coordinator_decided(Instance& inst,
                                           std::uint32_t round) {
  const std::uint64_t k = inst.k;
  const util::Payload batch = *inst.proposal(round);
  decide(k, round, batch);  // applies locally (releasing inst), admits more

  if (round > 1) {
    // Recovery decision: full value, relayed on first receipt for safety.
    relayed_decisions_.mark(kRelayFullChannel, k);  // don't re-relay our own
    broadcast_decision_fallback(k, round, batch, /*relay_seen=*/false);
    return;
  }

  if (!config_.opt_cheap_decision) {
    // Without §4.3: reliable-broadcast the tag (designated resenders relay),
    // same cost profile as the modular stack's decision diffusion.
    relayed_decisions_.mark(kRelayTagChannel, k);
    send_standalone_tag(k, round);
    start_instances();
    return;
  }

  // §4.1/§4.3: prefer carrying the decision tag on the next proposal; fall
  // back to a standalone (n−1)-message tag when there is nothing to order.
  if (config_.opt_combine) {
    untagged_decisions_.push_back(k);
    start_instances();
    while (!untagged_decisions_.empty()) {
      const std::uint64_t dk = untagged_decisions_.front();
      untagged_decisions_.pop_front();
      send_standalone_tag(dk, rounds_.decided_round(dk));
    }
  } else {
    start_instances();
    send_standalone_tag(k, round);
  }
}

void MonolithicAbcast::send_standalone_tag(std::uint64_t k,
                                           std::uint32_t round) {
  util::ByteWriter w(16);
  w.u8(kDecisionTag);
  w.u64(k);
  w.u32(round);
  framework::TraceScope scope(*stack_, k, 0);
  stack_->send_wire_to_others(framework::kModMonolithic, w.take());
  ++stats_.standalone_tags;
}

// --------------------------------------------------------------------------
// Round machinery (recovery)
// --------------------------------------------------------------------------

void MonolithicAbcast::rotate(Instance& inst) {
  for (const rounds::Step& s : rounds_.rotate(inst)) {
    if (s.to == stack_->self()) {
      check_estimates(inst, s.round);  // may decide, which releases inst
      return;
    }
    send_estimate(inst, s.round, s.to);
    if (s.nack) send_nack(s.to, inst.k, s.round);
  }
}

void MonolithicAbcast::send_estimate(Instance& inst, std::uint32_t round,
                                     util::ProcessId coord) {
  if (!inst.has_estimate) inst.set_initial(build_estimate_value());
  if (!rounds_.claim_estimate(inst, round)) return;
  // §4.2 fallback: re-piggyback undelivered own messages on the estimate to
  // the new coordinator.
  std::vector<adb::AppMessage> piggy;
  for (const auto& [id, payload] : own_pending_) {
    piggy.push_back(adb::AppMessage{id, payload});
  }
  outbox_.clear();  // superseded: everything undelivered rides this estimate

  util::ByteWriter w(inst.estimate.size() + adb::encoded_batch_size(piggy) +
                     64);
  w.u8(kEstimate);
  w.u64(inst.k);
  w.u32(round);
  w.u32(inst.estimate_ts);
  w.blob(inst.estimate);
  adb::encode_batch(w, piggy);
  framework::TraceScope scope(*stack_, inst.k, adb::payload_bytes(piggy));
  stack_->send_wire(coord, framework::kModMonolithic, w.take());
}

void MonolithicAbcast::send_nack(util::ProcessId to, std::uint64_t k,
                                 std::uint32_t round) {
  util::ByteWriter w(16);
  w.u8(kNack);
  w.u64(k);
  w.u32(round);
  framework::TraceScope scope(*stack_, k, 0);
  stack_->send_wire(to, framework::kModMonolithic, w.take());
}

bool MonolithicAbcast::batch_is_empty(const util::Payload& value) {
  if (value.size() < 4) return true;
  util::ByteReader r(value);
  return r.u32() == 0;
}

void MonolithicAbcast::check_estimates(Instance& inst, std::uint32_t round) {
  if (rounds_.coordinator(round) != stack_->self()) return;
  if (inst.proposed(round) || round < inst.round) return;

  if (!inst.has_estimate) inst.set_initial(build_estimate_value());
  rounds::Round& r = inst.at(round);
  if (!rounds_.record_own(inst, round)) {
    const rounds::Estimate* own = r.estimate_of(stack_->self());
    if (own != nullptr && own->ts == 0) {
      // Our recorded estimate is unlocked (ts = 0): refresh it from the
      // pool, which may have grown via piggybacked messages since we
      // recorded it.
      if (inst.estimate_ts == 0) inst.estimate = build_estimate_value();
      r.record(stack_->self(), inst.estimate_ts, inst.estimate);
    }
  }
  const std::vector<rounds::Estimate>& ests = r.estimates;
  const bool have_majority = ests.size() >= rounds_.majority();
  if (!have_majority || ests.size() < stack_->group_size()) {
    // Not enough participants (or we are holding on all-empty estimates
    // below and the value-holder may not have joined yet): solicit the
    // processes that have not sent an estimate for this round.
    if (!r.solicited) {
      r.solicited = true;
      util::ByteWriter w(16);
      w.u8(kSolicit);
      w.u64(inst.k);
      w.u32(round);
      framework::TraceScope scope(*stack_, inst.k, 0);
      stack_->send_wire_to_others(framework::kModMonolithic, w.take());
    }
  }
  if (!have_majority) return;

  // Chandra–Toueg locking rule: the highest adoption timestamp wins. Among
  // unlocked (ts = 0) candidates, prefer one that actually carries
  // messages — an all-empty set means there is nothing to order yet, so
  // hold until a value arrives (a new estimate re-triggers this check).
  // Remaining ties go to the lowest sender id.
  auto better = [](const rounds::Estimate& a, const rounds::Estimate& b) {
    if (a.ts != b.ts) return a.ts > b.ts;
    const bool a_full = !batch_is_empty(a.value);
    if (a_full != !batch_is_empty(b.value)) return a_full;
    return a.sender < b.sender;
  };
  const rounds::Estimate* best = nullptr;
  for (const rounds::Estimate& e : ests) {
    if (best == nullptr || better(e, *best)) best = &e;
  }
  if (best->ts == 0 && batch_is_empty(best->value)) return;  // hold

  util::ByteWriter w(best->value.size() + 32);
  w.u8(kProposal);
  w.u64(inst.k);
  w.u32(round);
  const std::size_t at = w.size();
  w.raw(best->value);
  util::Payload sent;
  {
    framework::TraceScope scope(*stack_, inst.k, 0);
    sent = stack_->send_wire_to_others(framework::kModMonolithic, w.take());
  }
  rounds_.propose(inst, round, sent.slice(at));  // a view, as in round 1
  arm_retransmit(inst, round);
  if (rounds_.quorum(inst, round)) coordinator_decided(inst, round);
}

void MonolithicAbcast::send_ack(Instance& inst, std::uint32_t round,
                                util::ProcessId coord) {
  // §4.2: the outbox rides the ack. Without piggybacking nothing is ever
  // queued there, so the ack carries an empty batch.
  util::ByteWriter w(adb::encoded_batch_size(outbox_) + 32);
  w.u8(kAck);
  w.u64(inst.k);
  w.u32(round);
  adb::encode_batch(w, outbox_);
  const std::size_t app_bytes = adb::payload_bytes(outbox_);
  stats_.piggybacked_messages += outbox_.size();
  outbox_.clear();
  if (flush_timer_ != runtime::kInvalidTimer) {
    stack_->rt().cancel_timer(flush_timer_);
    flush_timer_ = runtime::kInvalidTimer;
  }
  framework::TraceScope scope(*stack_, inst.k, app_bytes);
  stack_->send_wire(coord, framework::kModMonolithic, w.take());
}

void MonolithicAbcast::handle_proposal(util::ProcessId from, std::uint64_t k,
                                       std::uint32_t round,
                                       util::Payload batch) {
  Instance* inst = rounds_.open(k);
  if (inst == nullptr) return;  // decided (stale instance)
  inst->at(round).proposal = std::move(batch);

  if (inst->extra.tag_round == round) {
    decide(k, round, *inst->proposal(round));
    return;
  }

  switch (rounds_.admit(*inst, round)) {
    case rounds::Admission::kStale:
      // We advanced past this round (possibly on a wrong suspicion) — nack
      // so the old coordinator advances too.
      send_nack(from, k, round);
      return;
    case rounds::Admission::kAnswered:
      return;
    case rounds::Admission::kAcked:
      // Duplicate (retransmitted) proposal: re-ack, the coordinator may
      // have missed our first ack.
      send_ack(*inst, round, from);
      return;
    case rounds::Admission::kSuspected:
      send_nack(from, k, round);
      rotate(*inst);
      return;
    case rounds::Admission::kAdopt:
      break;
  }
  rounds_.adopt(*inst, round);
  send_ack(*inst, round, from);
}

// --------------------------------------------------------------------------
// Decisions
// --------------------------------------------------------------------------

void MonolithicAbcast::resolve_decision_tag(std::uint64_t k,
                                            std::uint32_t round) {
  Instance* inst = rounds_.open(k);
  if (inst == nullptr) return;  // already decided (possibly dropped)
  if (const util::Payload* value = inst->proposal(round)) {
    decide(k, round, *value);
    return;
  }
  inst->extra.tag_round = round;
  if (inst->extra.pull_timer == runtime::kInvalidTimer) start_pull(*inst);
}

void MonolithicAbcast::decide(std::uint64_t k, std::uint32_t round,
                              util::Payload batch) {
  if (rounds_.decided(k)) return;  // already decided (possibly dropped)
  stats_.max_round = std::max(stats_.max_round, round);
  if (round > 1) ++stats_.late_decisions;
  if (Instance* inst = rounds_.find(k)) {
    if (inst->extra.pull_timer != runtime::kInvalidTimer) {
      stack_->rt().cancel_timer(inst->extra.pull_timer);
    }
    if (inst->extra.retransmit_timer != runtime::kInvalidTimer) {
      stack_->rt().cancel_timer(inst->extra.retransmit_timer);
    }
  }
  rounds_.decide(k, round, batch);

  ordering_.add_decision(k, std::move(batch));
  apply_ready_decisions();
}

void MonolithicAbcast::apply_ready_decisions() {
  stack_->rt().charge_cpu(ordering_.apply_ready(
      [](const util::Payload& value, std::vector<adb::MessageView>& batch) {
        adb::decode_batch(value.span(), batch);
        return true;
      },
      [this](const adb::MessageView& m) {
        if (m.id.origin != stack_->self()) return;
        own_pending_.erase(m.id);
        // Drop it from the outbox too: it is ordered, no need to forward.
        std::erase_if(outbox_, [&m](const adb::AppMessage& ob) {
          return ob.id == m.id;
        });
      }));
  admit_queued();
  // Keep making progress when the initial coordinator is gone: without this
  // the next instance would only start at the silence timer, serializing
  // recovery at liveness_timeout per instance.
  if (rounds_.suspects(rounds_.coordinator(1))) ensure_instance_progress();
}

void MonolithicAbcast::recheck_active_estimates() {
  Instance* inst = rounds_.find(ordering_.next_decide());
  if (inst == nullptr || inst->round <= 1) return;
  const util::ProcessId c = rounds_.coordinator(inst->round);
  if (c == stack_->self()) {
    // Coordinator: our own (unlocked) estimate refreshes inside.
    check_estimates(*inst, inst->round);
    return;
  }
  // Participant with an unlocked estimate already sent: if the pool grew
  // since (piggybacked or forwarded messages), re-send the richer estimate
  // so the held round can choose a value that actually carries messages.
  if (inst->estimate_ts != 0) return;
  rounds::Round* r = inst->find(inst->round);
  if (r == nullptr || !r->estimate_sent) return;
  util::Payload fresh = build_estimate_value();
  if (fresh == inst->estimate) return;  // nothing new
  inst->estimate = std::move(fresh);
  r->estimate_sent = false;
  send_estimate(*inst, inst->round, c);
}

bool MonolithicAbcast::reply_decision_if_known(util::ProcessId to,
                                               std::uint64_t k) {
  const rounds::Decided* d = rounds_.decision(k);
  if (d == nullptr) return false;
  util::ByteWriter w(d->value.size() + 16);
  w.u8(kFullReply);
  w.u64(k);
  w.u32(d->round);
  w.raw(d->value);
  framework::TraceScope scope(*stack_, k, 0);
  stack_->send_wire(to, framework::kModMonolithic, w.take());
  return true;
}

void MonolithicAbcast::start_pull(Instance& inst) {
  util::ByteWriter w(16);
  w.u8(kPull);
  w.u64(inst.k);
  {
    framework::TraceScope scope(*stack_, inst.k, 0);
    stack_->send_wire_to_others(framework::kModMonolithic, w.take());
  }
  stats_.pulls_sent += stack_->group_size() - 1;
  const std::uint64_t k = inst.k;
  inst.extra.pull_timer = stack_->rt().set_timer(config_.pull_retry, [this, k] {
    Instance* inst = rounds_.find(k);
    if (inst == nullptr) return;
    inst->extra.pull_timer = runtime::kInvalidTimer;
    start_pull(*inst);
  });
}

void MonolithicAbcast::broadcast_decision_fallback(std::uint64_t k,
                                                   std::uint32_t round,
                                                   const util::Payload& batch,
                                                   bool relay_seen) {
  util::ByteWriter w(batch.size() + 16);
  w.u8(kDecisionFull);
  w.u64(k);
  w.u32(round);
  w.raw(batch);
  framework::TraceScope scope(
      *stack_, k, 0, relay_seen ? framework::kTraceFlagRelay : std::uint8_t{0});
  stack_->send_wire_to_others(framework::kModMonolithic, w.take());
}

// --------------------------------------------------------------------------
// Wire dispatch
// --------------------------------------------------------------------------

void MonolithicAbcast::on_wire(util::ProcessId from, util::Payload msg) {
  last_activity_ = stack_->rt().now();
  util::ByteReader r(msg);
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case kCombined: {
      const std::uint8_t flags = r.u8();
      if (flags & kFlagHasDecision) {
        const std::uint64_t dec_k = r.u64();
        const std::uint32_t dec_round = r.u32();
        // Resolve the decision first: it frees window slots, so the ack for
        // the new proposal can piggyback freshly admitted messages.
        resolve_decision_tag(dec_k, dec_round);
      }
      const std::uint64_t k = r.u64();
      handle_proposal(from, k, 1, msg.slice(r.position()));
      break;
    }
    case kAck: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      for (auto& m : adb::decode_batch(msg, r)) pool_add(std::move(m));
      if (Instance* inst = rounds_.open(k)) {
        if (rounds_.ack(*inst, round, from)) coordinator_decided(*inst, round);
      }
      start_instances();
      recheck_active_estimates();
      break;
    }
    case kForward: {
      for (auto& m : adb::decode_batch(msg, r)) pool_add(std::move(m));
      start_instances();
      // If we coordinate a held recovery round, the fresh pool content may
      // unblock it.
      recheck_active_estimates();
      break;
    }
    case kDecisionTag: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      resolve_decision_tag(k, round);
      if (!config_.opt_cheap_decision &&
          is_designated_resender(rounds_.coordinator(round),
                                 stack_->self()) &&
          relayed_decisions_.mark(kRelayTagChannel, k)) {
        util::ByteWriter w(16);
        w.u8(kDecisionTag);
        w.u64(k);
        w.u32(round);
        framework::TraceScope scope(*stack_, k, 0,
                                    framework::kTraceFlagRelay);
        stack_->send_wire_to_others(framework::kModMonolithic, w.take());
      }
      break;
    }
    case kEstimate: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      const std::uint32_t ts = r.u32();
      const std::uint32_t len = r.u32();
      util::Payload est = msg.slice(r.position(), len);
      r.skip(len);
      for (auto& m : adb::decode_batch(msg, r)) pool_add(std::move(m));
      Instance* inst = rounds_.open(k);
      if (inst == nullptr) {
        reply_decision_if_known(from, k);
        break;
      }
      inst->at(round).record(from, ts, std::move(est));
      check_estimates(*inst, round);
      break;
    }
    case kProposal: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      handle_proposal(from, k, round, msg.slice(r.position()));
      break;
    }
    case kDecisionFull: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      const util::Payload batch = msg.slice(r.position());
      const bool first = relayed_decisions_.mark(kRelayFullChannel, k);
      decide(k, round, batch);
      if (first) {
        // Relay on first receipt: the recovery coordinator may crash
        // mid-broadcast; all-or-none must still hold.
        broadcast_decision_fallback(k, round, batch, /*relay_seen=*/true);
      }
      break;
    }
    case kNack: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      Instance* inst = rounds_.open(k);
      if (inst == nullptr) {
        reply_decision_if_known(from, k);
        break;
      }
      if (rounds_.coordinator(round) == stack_->self() &&
          inst->round == round) {
        rotate(*inst);
      }
      break;
    }
    case kPull: {
      const std::uint64_t k = r.u64();
      reply_decision_if_known(from, k);
      break;
    }
    case kFullReply: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      decide(k, round, msg.slice(r.position()));
      break;
    }
    case kSolicit: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      // The solicitor lags behind a decided instance: hand it the value.
      if (reply_decision_if_known(from, k)) break;
      Instance* inst = rounds_.open(k);
      if (inst == nullptr) break;
      if (round > inst->round) inst->round = round;  // join the recovery round
      // Send (or refresh, if unlocked) our estimate for the round. An empty
      // pool yields an empty batch — that still counts toward majority.
      if (inst->estimate_ts == 0) {
        inst->estimate = build_estimate_value();
        inst->has_estimate = true;
        inst->at(round).estimate_sent = false;
      }
      send_estimate(*inst, round, from);
      break;
    }
    default:
      MODCAST_WARN("monolithic: unknown wire kind " + std::to_string(kind));
  }
}

// --------------------------------------------------------------------------
// Suspicion / liveness
// --------------------------------------------------------------------------

void MonolithicAbcast::on_suspect(util::ProcessId q) {
  if (q == stack_->self()) return;
  for (std::uint64_t k : rounds_.coordinated_by(q)) {
    Instance* inst = rounds_.abandon(k, q);
    if (inst == nullptr) continue;
    send_nack(q, k, inst->round);
    rotate(*inst);
  }
  ensure_instance_progress();
}

void MonolithicAbcast::ensure_instance_progress() {
  if (i_am_initial_coordinator()) {
    start_instances();
    return;
  }
  // Join recovery for the next instance even with nothing of our own to
  // order: the new coordinator needs a majority of estimates, and other
  // processes may hold undelivered messages we know nothing about (§3.3's
  // "starts a consensus even if no message arrives").
  if (!rounds_.suspects(rounds_.coordinator(1))) return;
  Instance* inst = rounds_.open(ordering_.next_decide());
  if (inst == nullptr) return;
  // Nack round 1 in case the suspected coordinator is actually alive and
  // already proposed (or will): it must not wait for our ack.
  if (inst->round == 1 && rounds_.nack_once(*inst, 1)) {
    send_nack(rounds_.coordinator(1), inst->k, 1);
    rotate(*inst);
  }
}

void MonolithicAbcast::arm_liveness_timer() {
  const util::Duration timeout = ordering_.config().liveness_timeout;
  // lifecheck:allow(timer.lost): periodic liveness tick re-arms itself for the whole process lifetime, never cancelled by design
  stack_->rt().set_timer(timeout, [this, timeout] {
    const util::TimePoint now = stack_->rt().now();
    if (now - last_activity_ >= timeout) {
      // Silence: re-forward undelivered own messages and join whatever
      // instance should be making progress (even with nothing of our own —
      // another process may be stuck waiting for majority participation).
      if (!own_pending_.empty()) {
        if (config_.opt_piggyback && !i_am_initial_coordinator()) {
          outbox_.clear();
          for (const auto& [id, payload] : own_pending_) {
            outbox_.push_back(adb::AppMessage{id, payload});
          }
          flush_outbox_standalone();
        } else if (!config_.opt_piggyback) {
          for (const auto& [id, payload] : own_pending_) {
            const adb::AppMessage m{id, payload};
            util::ByteWriter w(payload.size() + 32);
            w.u8(kForward);
            adb::encode_batch(w, std::span(&m, 1));
            framework::TraceScope scope(*stack_, framework::kNoInstance,
                                        payload.size());
            stack_->send_wire_to_others(framework::kModMonolithic, w.take());
          }
        }
      }
      ensure_instance_progress();
    }
    arm_liveness_timer();
  });
}

}  // namespace modcast::monolithic
