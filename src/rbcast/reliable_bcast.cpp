#include "rbcast/reliable_bcast.hpp"

#include "util/bytes.hpp"

namespace modcast::rbcast {

void ReliableBcast::init(framework::Stack& stack) {
  stack_ = &stack;
  stack.bind_wire(framework::kModRbcast,
                  [this](util::ProcessId from, util::Payload msg) {
                    on_wire(from, std::move(msg));
                  });
  stack.bind(framework::kEvRbcast, [this](const framework::Event& ev) {
    rbcast(ev.as<framework::RbcastBody>().payload);
  });
  stack.bind(framework::kEvSuspect, [this](const framework::Event& ev) {
    on_suspect(ev.as<framework::SuspicionBody>().process);
  });
}

util::Payload ReliableBcast::encode(util::ProcessId origin, std::uint64_t seq,
                                    const util::Payload& payload) const {
  util::ByteWriter w(payload.size() + 16);
  w.u32(origin);
  w.u64(seq);
  w.blob(payload);
  return util::Payload(w.take());
}

void ReliableBcast::rbcast(util::Payload payload) {
  const util::ProcessId self = stack_->self();
  const std::uint64_t seq = next_seq_++;
  const util::Payload encoded = encode(self, seq, payload);
  stack_->send_wire_to_others(framework::kModRbcast, encoded);
  // Local rdelivery: the broadcaster delivers without a network hop.
  deliver_and_maybe_relay(self, seq, std::move(payload), encoded,
                          /*i_am_origin=*/true);
}

bool ReliableBcast::is_designated_resender(util::ProcessId origin,
                                           util::ProcessId relay) const {
  const auto n = static_cast<std::uint32_t>(stack_->group_size());
  // Resenders are the ⌊(n−1)/2⌋ processes following the origin in ring
  // order; together with the origin they form a majority.
  const std::uint32_t resenders = (n - 1) / 2;
  for (std::uint32_t i = 1; i <= resenders; ++i) {
    if ((origin + i) % n == relay) return true;
  }
  return false;
}

void ReliableBcast::on_wire(util::ProcessId from, util::Payload msg) {
  (void)from;
  util::ByteReader r(msg);
  const util::ProcessId origin = r.u32();
  const std::uint64_t seq = r.u64();
  const std::uint32_t len = r.u32();
  // Zero-copy: the delivered payload is a slice of the received message,
  // and a relay forwards the received encoding verbatim.
  util::Payload payload = msg.slice(r.position(), len);
  deliver_and_maybe_relay(origin, seq, std::move(payload), msg,
                          /*i_am_origin=*/false);
}

void ReliableBcast::deliver_and_maybe_relay(util::ProcessId origin,
                                            std::uint64_t seq,
                                            util::Payload payload,
                                            const util::Payload& encoded,
                                            bool i_am_origin) {
  if (!delivered_.mark(origin, seq)) return;  // duplicate

  bool relayed = i_am_origin;  // the origin's initial send counts as a relay
  if (!i_am_origin && is_designated_resender(origin, stack_->self())) {
    relay(encoded);
    relayed = true;
  }
  remember(origin, seq, payload, relayed);

  ++rdelivered_count_;
  stack_->raise(framework::Event::local(
      framework::kEvRdeliver,
      framework::RdeliverBody{origin, std::move(payload)}));
}

void ReliableBcast::relay(const util::Payload& encoded) {
  // Relays happen before the rdeliver raise, outside any instance scope the
  // original broadcaster had; mark them so metrics can separate the
  // ⌊(n−1)/2⌋·(n−1) relay copies from initial fan-outs.
  framework::TraceScope scope(*stack_, framework::kNoInstance, 0,
                              framework::kTraceFlagRelay);
  stack_->send_wire_to_others(framework::kModRbcast, encoded);
}

void ReliableBcast::remember(util::ProcessId origin, std::uint64_t seq,
                             util::Payload payload, bool relayed) {
  recent_.push_back(Recent{origin, seq, std::move(payload), relayed});
  while (recent_.size() > kRelayBuffer) recent_.pop_front();
}

void ReliableBcast::on_suspect(util::ProcessId q) {
  // Fallback: if a process responsible for relaying (origin or designated
  // resender) is suspected, relay recent messages ourselves so the
  // all-or-none guarantee survives resender crashes.
  for (auto& rec : recent_) {
    const bool q_responsible =
        q == rec.origin || is_designated_resender(rec.origin, q);
    if (q_responsible && !rec.relayed_by_me) {
      relay(encode(rec.origin, rec.seq, rec.payload));
      rec.relayed_by_me = true;
    }
  }
}

}  // namespace modcast::rbcast
