#include "abcast/modular_abcast.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace modcast::abcast {

namespace {
constexpr std::uint8_t kDiffuse = 1;
constexpr std::uint8_t kPayloadPull = 2;  ///< indirect: ids whose payloads we need
constexpr std::uint8_t kPayloadPush = 3;  ///< indirect: requested payloads

std::size_t batch_app_bytes(const std::vector<AppMessage>& batch) {
  std::size_t bytes = 0;
  for (const AppMessage& m : batch) bytes += m.payload.size();
  return bytes;
}
}

void ModularAbcast::init(framework::Stack& stack) {
  stack_ = &stack;
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
  if (k < next_decide_) return;  // already decided and applied
  // A recovery-round coordinator needs our initial value for instance k.
  // Propose whatever we currently hold — possibly an empty batch ("starts a
  // consensus even if no message arrives", §3.3). In-flight messages are
  // included: a recovery proposal must cover everything we hold, and
  // duplicates across instances are filtered at delivery.
  std::vector<AppMessage> batch = batcher_.peek(config_.max_batch);
  next_instance_ = std::max(next_instance_, k + 1);
  framework::TraceScope scope(*stack_, k, batch_app_bytes(batch));
  stack_->raise(framework::Event::local(
      framework::kEvPropose,
      framework::ConsensusValueBody{k, encode_value(batch)}));
}

void ModularAbcast::start() {
  last_activity_ = stack_->rt().now();
  arm_liveness_timer();
}

std::uint64_t ModularAbcast::abcast(util::Bytes payload) {
  app_queue_.push_back(std::move(payload));
  // Admission is strictly FIFO, so this message's eventual sequence number
  // is fixed by its queue position even if it is not admitted yet.
  const std::uint64_t seq = next_seq_ + app_queue_.size() - 1;
  admit_queued();
  return seq;
}

void ModularAbcast::admit_queued() {
  while (in_flight_ < config_.window && !app_queue_.empty()) {
    AppMessage m;
    m.id = MsgId{stack_->self(), next_seq_++};
    m.payload = std::move(app_queue_.front());
    app_queue_.pop_front();
    ++in_flight_;
    ++stats_.admitted;
    if (admit_) admit_(m.id.seq);
    seen_.mark(m.id.origin, m.id.seq);
    if (config_.indirect_consensus) store_payload(m);
    diffuse(m);
    add_pending(std::move(m));
  }
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
  if (delivered_.seen(m.id.origin, m.id.seq)) return;
  if (!batcher_.add(std::move(m), stack_->rt().now())) return;  // duplicate
  maybe_propose();
}

void ModularAbcast::on_wire(util::ProcessId from, util::Payload msg) {
  last_activity_ = stack_->rt().now();
  util::ByteReader r(msg);
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case kDiffuse: {
      AppMessage m = decode_message(r);
      if (config_.indirect_consensus) {
        store_payload(m);
        on_new_payloads();
      }
      if (!seen_.mark(m.id.origin, m.id.seq)) return;  // duplicate
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
        util::ByteWriter w;
        w.u8(kPayloadPush);
        w.raw(encode_batch(have));
        stack_->send_wire(from, framework::kModAbcast, w.take());
      }
      break;
    }
    case kPayloadPush: {
      const std::span<const std::uint8_t> pushed = r.rest();
      for (AppMessage& m : decode_batch(pushed)) {
        store_payload(m);
        // A pushed payload is also a (re)diffusion: pool it if unseen.
        if (seen_.mark(m.id.origin, m.id.seq)) add_pending(std::move(m));
      }
      on_new_payloads();
      break;
    }
    default:
      MODCAST_WARN("abcast: unknown wire kind " + std::to_string(kind));
  }
}

void ModularAbcast::maybe_propose() {
  while (true) {
    // Pipelining gate: at most pipeline_depth instances undecided at once
    // (depth 1 = the paper's strictly sequential instances).
    if (next_instance_ - next_decide_ >= config_.pipeline_depth) return;
    if (batcher_.eligible() == 0) {
      // Everything eligible was cut (e.g. a size-triggered proposal beat
      // the δ-timer): a still-armed batch timer would only fire to no-op.
      cancel_batch_timer();
      return;
    }
    const util::TimePoint now = stack_->rt().now();
    if (!batcher_.ready(now)) {
      arm_batch_timer(now);
      return;
    }
    std::vector<AppMessage> batch = batcher_.cut(next_instance_);
    if (batch.empty()) return;

    const std::uint64_t k = next_instance_++;
    stats_.max_inflight_instances =
        std::max<std::uint64_t>(stats_.max_inflight_instances,
                                next_instance_ - next_decide_);
    // Synchronous raise: the scope also covers the consensus module's
    // round-1 proposal fan-out if this process coordinates k.
    framework::TraceScope scope(*stack_, k, batch_app_bytes(batch));
    stack_->raise(framework::Event::local(
        framework::kEvPropose,
        framework::ConsensusValueBody{k, encode_value(batch)}));
  }
}

void ModularAbcast::arm_batch_timer(util::TimePoint now) {
  // δ-time trigger: wake when the oldest eligible message has aged out.
  if (batch_timer_ != runtime::kInvalidTimer) return;
  const util::TimePoint due = batcher_.deadline();
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

util::Bytes ModularAbcast::encode_value(
    const std::vector<AppMessage>& batch) const {
  if (!config_.indirect_consensus) return encode_batch(batch);
  std::vector<MsgId> ids;
  ids.reserve(batch.size());
  for (const AppMessage& m : batch) ids.push_back(m.id);
  return encode_id_batch(ids);
}

void ModularAbcast::on_decide(std::uint64_t k, const util::Payload& value) {
  last_activity_ = stack_->rt().now();
  if (k < next_decide_) return;  // already applied
  ready_decisions_[k] = value;
  apply_ready_decisions();
}

void ModularAbcast::apply_ready_decisions() {
  while (true) {
    auto it = ready_decisions_.find(next_decide_);
    if (it == ready_decisions_.end()) break;

    std::vector<AppMessage> batch;
    if (config_.indirect_consensus) {
      // Resolve ids to payloads; block (and pull) if any is missing. The
      // decision stays buffered so ordering is preserved.
      std::vector<MsgId> missing;
      for (const MsgId& id : decode_id_batch(it->second.span())) {
        if (delivered_.seen(id.origin, id.seq)) continue;  // dup across k
        auto pit = payload_store_.find(id);
        if (pit == payload_store_.end()) {
          missing.push_back(id);
        } else {
          batch.push_back(AppMessage{id, pit->second});
        }
      }
      if (!missing.empty()) {
        request_payloads(missing);
        arm_payload_timer();
        break;
      }
    } else {
      batch = decode_batch(it->second.span());
    }
    ready_decisions_.erase(it);

    // Deterministic delivery order within the batch.
    std::sort(batch.begin(), batch.end(),
              [](const AppMessage& a, const AppMessage& b) {
                return a.id < b.id;
              });
    for (AppMessage& m : batch) {
      if (!delivered_.mark(m.id.origin, m.id.seq)) continue;  // dup across k
      seen_.mark(m.id.origin, m.id.seq);
      batcher_.mark_ordered(m.id);
      if (m.id.origin == stack_->self() && in_flight_ > 0) --in_flight_;
      if (config_.indirect_consensus) retain_delivered(m.id);
      ++stats_.delivered;
      ++stats_.messages_in_decisions;
      if (deliver_) deliver_(m.id.origin, m.id.seq, m.payload);
    }
    ++stats_.instances_completed;
    // Clear the in-flight marks only now that the decision is APPLIED: a
    // decision buffered out of instance order must keep its messages marked,
    // or they would be re-proposed and the exact §5.2 accounting breaks.
    batcher_.on_decided(next_decide_);
    ++next_decide_;
    next_instance_ = std::max(next_instance_, next_decide_);
    stack_->rt().charge_cpu(config_.instance_overhead);
  }
  admit_queued();
  maybe_propose();
}

// ---------------------------------------------------------------------------
// Indirect-consensus support ([12])
// ---------------------------------------------------------------------------

bool ModularAbcast::payload_available(const MsgId& id) const {
  return delivered_.seen(id.origin, id.seq) ||
         payload_store_.count(id) != 0;
}

void ModularAbcast::store_payload(const AppMessage& m) {
  payload_store_.emplace(m.id, m.payload);
}

void ModularAbcast::retain_delivered(const MsgId& id) {
  // Keep the payload around to serve late pulls, bounded FIFO.
  retained_order_.push_back(id);
  while (retained_order_.size() > config_.payload_retention) {
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
  if (waiting_validation_.empty() && ready_decisions_.empty())
    cancel_payload_timer();
}

void ModularAbcast::arm_payload_timer() {
  if (payload_timer_ != runtime::kInvalidTimer) return;
  payload_timer_ =
      stack_->rt().set_timer(config_.payload_pull_retry, [this] {
        payload_timer_ = runtime::kInvalidTimer;
        const bool blocked_decision =
            !ready_decisions_.empty() &&
            ready_decisions_.begin()->first == next_decide_;
        if (waiting_validation_.empty() && !blocked_decision) return;
        // Retry: on_new_payloads re-raises revalidations and re-attempts
        // the apply, both of which re-issue pulls for what is still
        // missing.
        on_new_payloads();
        if (!waiting_validation_.empty() || !ready_decisions_.empty()) {
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
  // lifecheck:allow(timer.lost): periodic liveness tick re-arms itself for the whole process lifetime, never cancelled by design
  stack_->rt().set_timer(config_.liveness_timeout, [this] {
    const util::TimePoint now = stack_->rt().now();
    if (now - last_activity_ >= config_.liveness_timeout &&
        !batcher_.empty()) {
      // §3.3: silence while holding unordered messages — the sender of some
      // of them may have crashed mid-diffusion. Re-diffuse what we hold and
      // start a consensus ourselves.
      ++stats_.liveness_kicks;
      batcher_.for_each_live([this](const AppMessage& m) { diffuse(m); });
      maybe_propose();
    }
    arm_liveness_timer();
  });
}

}  // namespace modcast::abcast
