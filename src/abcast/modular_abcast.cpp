#include "abcast/modular_abcast.hpp"

#include "util/log.hpp"

namespace modcast::abcast {

namespace {
constexpr std::uint8_t kDiffuse = 1;
constexpr std::uint8_t kPayloadPull = 2;  ///< indirect: ids whose payloads we need
constexpr std::uint8_t kPayloadPush = 3;  ///< indirect: requested payloads

/// Indirect mode: retry period for pulling payloads named by ids we do not
/// hold, and how many delivered payloads stay to serve late pulls.
constexpr util::Duration kPayloadPullRetry = util::milliseconds(100);
constexpr std::size_t kPayloadRetention = 2048;
}

void ModularAbcast::init(framework::Stack& stack) {
  stack_ = &stack;
  ordering_.init(stack.self());
  stack.bind_wire(framework::kModAbcast,
                  [this](util::ProcessId from, util::Payload msg) {
                    on_wire(from, std::move(msg));
                  });
  stack.bind(framework::kEvDecide, [this](const framework::Event& ev) {
    auto& body = ev.as<framework::ConsensusValueBody>();
    on_decide(body.instance, body.value);
  });
  stack.bind(framework::kEvProposeRequest, [this](const framework::Event& ev) {
    on_propose_request(ev.as<framework::ProposeRequestBody>().instance);
  });
}

void ModularAbcast::on_propose_request(std::uint64_t k) {
  if (k < ordering_.next_decide()) return;  // already decided and applied
  // A recovery-round coordinator needs our initial value for instance k.
  // Propose whatever we currently hold — possibly an empty batch ("starts a
  // consensus even if no message arrives", §3.3). In-flight messages are
  // included: a recovery proposal must cover everything we hold, and
  // duplicates across instances are filtered at delivery.
  const BatchView batch = ordering_.pool().peek(ordering_.config().max_batch);
  ordering_.proposed(k);
  framework::TraceScope scope(*stack_, k, adb::payload_bytes(batch));
  stack_->raise(framework::Event::local(
      framework::kEvPropose,
      framework::ConsensusValueBody{k, encode_value(batch)}));
}

void ModularAbcast::start() {
  last_activity_ = stack_->rt().now();
  arm_liveness_timer();
}

std::uint64_t ModularAbcast::abcast(util::Bytes payload) {
  const std::uint64_t seq = ordering_.enqueue(std::move(payload));
  admit_queued();
  return seq;
}

void ModularAbcast::admit_queued() {
  ordering_.admit([this](AppMessage m) {
    if (config_.indirect_consensus) store_payload(m);
    diffuse(m);
    add_pending(std::move(m));
  });
}

void ModularAbcast::diffuse(const AppMessage& m) {
  util::ByteWriter w(m.payload.size() + 24);
  w.u8(kDiffuse);
  encode_message(w, m);
  // Diffusion belongs to no consensus instance but carries one app payload.
  framework::TraceScope scope(*stack_, framework::kNoInstance,
                              m.payload.size());
  stack_->send_wire_to_others(framework::kModAbcast, w.take());
}

void ModularAbcast::add_pending(AppMessage m) {
  if (ordering_.pool_add(std::move(m), stack_->rt().now())) maybe_propose();
}

void ModularAbcast::on_wire(util::ProcessId from, util::Payload msg) {
  last_activity_ = stack_->rt().now();
  util::ByteReader r(msg);
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case kDiffuse: {
      AppMessage m = decode_message(msg, r);
      if (config_.indirect_consensus) {
        store_payload(m);
        on_new_payloads();
      }
      add_pending(std::move(m));
      break;
    }
    case kPayloadPull: {
      // Serve whatever requested payloads we hold.
      const std::span<const std::uint8_t> ids = r.rest();
      std::vector<AppMessage> have;
      for (const MsgId& id : decode_id_batch(ids)) {
        auto it = payload_store_.find(id);
        if (it != payload_store_.end()) {
          have.push_back(AppMessage{id, it->second});
        }
      }
      if (!have.empty()) {
        util::ByteWriter w(1 + adb::encoded_batch_size(have));
        w.u8(kPayloadPush);
        encode_batch(w, have);
        stack_->send_wire(from, framework::kModAbcast, w.take());
      }
      break;
    }
    case kPayloadPush: {
      for (AppMessage& m : decode_batch(msg, r)) {
        store_payload(m);
        // A pushed payload is also a (re)diffusion: pool it if unseen.
        add_pending(std::move(m));
      }
      on_new_payloads();
      break;
    }
    default:
      MODCAST_WARN("abcast: unknown wire kind " + std::to_string(kind));
  }
}

void ModularAbcast::maybe_propose() {
  while (ordering_.can_propose()) {
    if (ordering_.pool().eligible() == 0) {
      // Everything eligible was cut (e.g. a size-triggered proposal beat
      // the δ-timer): a still-armed batch timer would only fire to no-op.
      cancel_batch_timer();
      return;
    }
    const util::TimePoint now = stack_->rt().now();
    if (!ordering_.pool().ready(now)) {
      arm_batch_timer(now);
      return;
    }
    const std::uint64_t k = ordering_.next_instance();
    const BatchView batch = ordering_.cut();
    if (batch.empty()) return;

    // Synchronous raise: the scope also covers the consensus module's
    // round-1 proposal fan-out if this process coordinates k.
    framework::TraceScope scope(*stack_, k, adb::payload_bytes(batch));
    stack_->raise(framework::Event::local(
        framework::kEvPropose,
        framework::ConsensusValueBody{k, encode_value(batch)}));
  }
}

void ModularAbcast::arm_batch_timer(util::TimePoint now) {
  // δ-time trigger: wake when the oldest eligible message has aged out.
  if (batch_timer_ != runtime::kInvalidTimer) return;
  const util::TimePoint due = ordering_.pool().deadline();
  const util::Duration wait = due > now ? due - now : 1;
  batch_timer_ = stack_->rt().set_timer(wait, [this] {
    batch_timer_ = runtime::kInvalidTimer;
    maybe_propose();
  });
}

void ModularAbcast::cancel_batch_timer() {
  if (batch_timer_ == runtime::kInvalidTimer) return;
  stack_->rt().cancel_timer(batch_timer_);
  batch_timer_ = runtime::kInvalidTimer;
}

util::Bytes ModularAbcast::encode_value(BatchView batch) const {
  if (!config_.indirect_consensus) {
    util::ByteWriter w(adb::encoded_batch_size(batch));
    encode_batch(w, batch);
    return w.take();
  }
  std::vector<MsgId> ids;
  ids.reserve(batch.size());
  for (const AppMessage& m : batch) ids.push_back(m.id);
  return encode_id_batch(ids);
}

void ModularAbcast::on_decide(std::uint64_t k, const util::Payload& value) {
  last_activity_ = stack_->rt().now();
  if (ordering_.add_decision(k, value)) apply_ready_decisions();
}

void ModularAbcast::apply_ready_decisions() {
  stack_->rt().charge_cpu(ordering_.apply_ready(
      [this](const util::Payload& value, std::vector<MessageView>& batch) {
        return decode_decision(value, batch);
      },
      [this](const MessageView& m) {
        if (config_.indirect_consensus) retain_delivered(m.id);
      }));
  admit_queued();
  maybe_propose();
}

bool ModularAbcast::decode_decision(const util::Payload& value,
                                    std::vector<MessageView>& batch) {
  if (!config_.indirect_consensus) {
    decode_batch(value.span(), batch);
    return true;
  }
  // Resolve ids to the payloads we hold; block (and pull) if any is
  // missing. The decision stays buffered so ordering is preserved.
  batch.clear();
  std::vector<MsgId> missing;
  for (const MsgId& id : decode_id_batch(value.span())) {
    if (ordering_.delivered(id)) continue;  // dup across k
    auto pit = payload_store_.find(id);
    if (pit == payload_store_.end()) {
      missing.push_back(id);
    } else {
      batch.push_back(MessageView{id, pit->second.span()});
    }
  }
  if (missing.empty()) return true;
  request_payloads(missing);
  arm_payload_timer();
  return false;
}

// ---------------------------------------------------------------------------
// Indirect-consensus support ([12])
// ---------------------------------------------------------------------------

bool ModularAbcast::payload_available(const MsgId& id) const {
  return ordering_.delivered(id) || payload_store_.count(id) != 0;
}

void ModularAbcast::store_payload(const AppMessage& m) {
  payload_store_.emplace(m.id, m.payload);
}

void ModularAbcast::retain_delivered(const MsgId& id) {
  // Keep the payload around to serve late pulls, bounded FIFO.
  retained_order_.push_back(id);
  while (retained_order_.size() > kPayloadRetention) {
    payload_store_.erase(retained_order_.front());
    retained_order_.pop_front();
  }
}

bool ModularAbcast::validate_value(std::uint64_t k,
                                   const util::Payload& value) {
  if (!config_.indirect_consensus) return true;
  std::vector<MsgId> missing;
  for (const MsgId& id : decode_id_batch(value.span())) {
    if (!payload_available(id)) missing.push_back(id);
  }
  if (missing.empty()) return true;
  ++stats_.validation_deferrals;
  waiting_validation_.insert(k);
  request_payloads(missing);
  arm_payload_timer();
  return false;
}

void ModularAbcast::request_payloads(const std::vector<MsgId>& missing) {
  util::ByteWriter w(5 + missing.size() * 12);
  w.u8(kPayloadPull);
  w.raw(encode_id_batch(missing));
  stack_->send_wire_to_others(framework::kModAbcast, w.take());
  stats_.payload_pulls += stack_->group_size() - 1;
}

void ModularAbcast::on_new_payloads() {
  if (!waiting_validation_.empty()) {
    // Re-offer deferred proposals to consensus; the validator re-adds any
    // instance that is still missing payloads.
    std::set<std::uint64_t> waiting = std::move(waiting_validation_);
    waiting_validation_.clear();
    for (std::uint64_t k : waiting) {
      stack_->raise(framework::Event::local(
          framework::kEvRevalidate, framework::ProposeRequestBody{k}));
    }
  }
  apply_ready_decisions();
  // Quiesced (mirrors the retry timer's own re-arm condition): a pending
  // pull-retry tick would only fire to no-op, so disarm it.
  if (waiting_validation_.empty() && ordering_.buffered() == 0)
    cancel_payload_timer();
}

void ModularAbcast::arm_payload_timer() {
  if (payload_timer_ != runtime::kInvalidTimer) return;
  payload_timer_ =
      stack_->rt().set_timer(kPayloadPullRetry, [this] {
        payload_timer_ = runtime::kInvalidTimer;
        if (waiting_validation_.empty() && !ordering_.blocked()) return;
        // Retry: on_new_payloads re-raises revalidations and re-attempts
        // the apply, both of which re-issue pulls for what is still
        // missing.
        on_new_payloads();
        if (!waiting_validation_.empty() || ordering_.buffered() > 0) {
          arm_payload_timer();
        }
      });
}

void ModularAbcast::cancel_payload_timer() {
  if (payload_timer_ == runtime::kInvalidTimer) return;
  stack_->rt().cancel_timer(payload_timer_);
  payload_timer_ = runtime::kInvalidTimer;
}

void ModularAbcast::arm_liveness_timer() {
  const util::Duration timeout = ordering_.config().liveness_timeout;
  // lifecheck:allow(timer.lost): periodic liveness tick re-arms itself for the whole process lifetime, never cancelled by design
  stack_->rt().set_timer(timeout, [this, timeout] {
    const util::TimePoint now = stack_->rt().now();
    if (now - last_activity_ >= timeout && !ordering_.pool().empty()) {
      // §3.3: silence while holding unordered messages — the sender of some
      // of them may have crashed mid-diffusion. Re-diffuse what we hold and
      // start a consensus ourselves.
      ++stats_.liveness_kicks;
      ordering_.pool().for_each_live(
          [this](const AppMessage& m) { diffuse(m); });
      maybe_propose();
    }
    arm_liveness_timer();
  });
}

}  // namespace modcast::abcast
