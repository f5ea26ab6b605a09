// Per-link FIFO transit matcher.
//
// Both runtimes deliver each ordered pair's messages in send order, so the
// k-th message process q receives from p is the k-th one p sent to q. The
// Runtime decorator records each send's timestamp on its link; the Protocol
// decorator takes the oldest timestamp of the link when the message reaches
// on_message. No message identity is needed, and nothing is added to the
// message.
//
// Each link is a single-producer (the sender's thread) single-consumer (the
// receiver's thread) ring, safe under ThreadWorld. A link that runs
// `capacity` or more messages ahead of its receiver may lose the oldest
// timestamps; those receptions count as unmatched instead of being paired
// wrongly.
// Messages that are never received (a crashed receiver) leave entries behind
// that no reception ever reads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

namespace modbench {

class TransitMatcher {
 public:
  TransitMatcher(std::size_t n, std::size_t capacity)
      : n_(n), capacity_(capacity), links_(new Link[n * n]) {
    for (std::size_t i = 0; i < n * n; ++i) {
      links_[i].stamps =
          std::make_unique<std::atomic<std::int64_t>[]>(capacity);
    }
  }

  /// Sender's thread: one message left `from` for `to` at time `at`.
  void sent(std::size_t from, std::size_t to, std::int64_t at) {
    Link& l = links_[from * n_ + to];
    const std::uint64_t s = l.sent.load(std::memory_order_relaxed);
    l.stamps[s % capacity_].store(at, std::memory_order_release);
    l.sent.store(s + 1, std::memory_order_release);
  }

  /// Receiver's thread: the next message from `from` reached `to`; returns
  /// its send time, or nullopt if it cannot be matched.
  std::optional<std::int64_t> received(std::size_t from, std::size_t to) {
    Link& l = links_[from * n_ + to];
    const std::uint64_t r = l.received++;
    if (r >= l.sent.load(std::memory_order_acquire)) {
      ++unmatched_;
      return std::nullopt;
    }
    const std::int64_t at =
        l.stamps[r % capacity_].load(std::memory_order_acquire);
    // Re-check after the read: the slot is trusted only while the sender
    // cannot have reached it again (a full ring counts as lapped).
    if (l.sent.load(std::memory_order_relaxed) - r >= capacity_) {
      ++unmatched_;
      return std::nullopt;
    }
    return at;
  }

  /// Receptions that found no usable send record (all receiver threads;
  /// read once they are done).
  std::uint64_t unmatched() const {
    return unmatched_.load(std::memory_order_relaxed);
  }

 private:
  struct Link {
    std::unique_ptr<std::atomic<std::int64_t>[]> stamps;
    std::atomic<std::uint64_t> sent{0};
    std::uint64_t received = 0;  // receiver's thread only
  };

  std::size_t n_;
  std::size_t capacity_;
  std::unique_ptr<Link[]> links_;
  std::atomic<std::uint64_t> unmatched_{0};
};

}  // namespace modbench
