// Reliable broadcast (§3.1).
//
// Guarantees: a message rbcast by any process is rdelivered by all correct
// processes or by none, even if the sender crashes mid-broadcast. No order.
//
// The paper's majority optimization of the classic algorithm (where every
// process re-sends on first receipt, ~n² messages per broadcast): only a
// designated set of ⌊(n−1)/2⌋ processes re-sends, giving
// (n−1)·(⌊(n−1)/2⌋+1) messages. Correct under the majority-correct
// assumption (which consensus needs anyway): sender + resenders form a
// majority, so at least one correct process relays. As a belt-and-braces
// fallback for the case where the crashed process *was* a designated
// resender, any process that suspects the sender or a resender re-relays
// recent messages itself.
//
// Input:  framework event kEvRbcast (RbcastBody{payload}), or rbcast().
// Output: framework event kEvRdeliver (RdeliverBody{origin, payload}).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fd/heartbeat_fd.hpp"
#include "framework/stack.hpp"
#include "util/seq_tracker.hpp"

namespace modcast::rbcast {

class ReliableBcast final : public framework::Module {
 public:
  /// `fd` may be null (no suspicion fallback — unit tests of good runs).
  explicit ReliableBcast(const fd::HeartbeatFd* fd = nullptr) : fd_(fd) {}

  std::string_view name() const override { return "reliable-bcast"; }
  void init(framework::Stack& stack) override;

  /// Broadcasts payload reliably; rdelivers locally right away.
  void rbcast(util::Payload payload);

  /// True if `relay` is one of the designated resenders for messages
  /// originated by `origin`.
  bool is_designated_resender(util::ProcessId origin,
                              util::ProcessId relay) const;

  std::uint64_t rdelivered_count() const { return rdelivered_count_; }

 private:
  struct Recent {
    util::ProcessId origin;
    std::uint64_t seq;
    util::Payload payload;
    bool relayed_by_me;
  };

  void on_wire(util::ProcessId from, util::Payload msg);
  void on_suspect(util::ProcessId q);
  /// `encoded` is the full wire encoding of (origin, seq, payload) — for a
  /// received message it is the message itself, so a relay forwards the
  /// received buffer without re-serializing.
  void deliver_and_maybe_relay(util::ProcessId origin, std::uint64_t seq,
                               util::Payload payload,
                               const util::Payload& encoded, bool i_am_origin);
  void relay(const util::Payload& encoded);
  util::Payload encode(util::ProcessId origin, std::uint64_t seq,
                       const util::Payload& payload) const;
  void remember(util::ProcessId origin, std::uint64_t seq,
                util::Payload payload, bool relayed);

  /// How many recent messages are retained for suspicion-triggered re-relay.
  static constexpr std::size_t kRelayBuffer = 256;

  const fd::HeartbeatFd* fd_;
  framework::Stack* stack_ = nullptr;
  std::uint64_t next_seq_ = 0;
  util::SeqTracker delivered_;
  std::deque<Recent> recent_;
  std::uint64_t rdelivered_count_ = 0;
};

}  // namespace modcast::rbcast
