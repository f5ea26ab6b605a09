#include "adb/batcher.hpp"

#include <algorithm>

namespace modcast::adb {

Batcher::Entry* Batcher::find(const MsgId& id) {
  const std::uint64_t at = at_.find(id.origin, id.seq);
  return at == util::SeqIndex::kNone ? nullptr : &fifo_[at - popped_];
}

const Batcher::Entry* Batcher::find(const MsgId& id) const {
  const std::uint64_t at = at_.find(id.origin, id.seq);
  return at == util::SeqIndex::kNone ? nullptr : &fifo_[at - popped_];
}

bool Batcher::add(AppMessage m, util::TimePoint now) {
  if (find(m.id) != nullptr) return false;
  at_.insert(m.id.origin, m.id.seq, popped_ + fifo_.size());
  fifo_.push_back(Entry{std::move(m), now, 0, State::kLive});
  ++live_;
  ++eligible_;
  return true;
}

void Batcher::mark_ordered(const MsgId& id) {
  Entry* e = find(id);
  if (e == nullptr || e->state == State::kOrdered) return;
  if (e->state == State::kLive) --eligible_;
  --live_;
  e->state = State::kOrdered;
  e->msg.payload = {};
  while (!fifo_.empty() && fifo_.front().state == State::kOrdered) {
    const MsgId gone = fifo_.front().msg.id;
    at_.erase(gone.origin, gone.seq);
    fifo_.pop_front();
    ++popped_;
  }
}

bool Batcher::contains(const MsgId& id) const {
  const Entry* e = find(id);
  return e != nullptr && e->state != State::kOrdered;
}

bool Batcher::ready(util::TimePoint now) const {
  std::size_t count = 0;
  std::size_t bytes = 0;
  bool have_oldest = false;
  util::TimePoint oldest = 0;
  for (std::size_t i = 0; i < fifo_.size(); ++i) {
    const Entry& e = fifo_[i];
    if (e.state != State::kLive) continue;
    if (!have_oldest) {
      have_oldest = true;
      oldest = e.added_at;
    }
    if (policy_.max_delay == 0) return true;  // eager mode
    ++count;
    bytes += e.msg.payload.size();
    if (count >= policy_.max_count) return true;
    if (policy_.max_bytes > 0 && bytes >= policy_.max_bytes) return true;
  }
  if (!have_oldest) return false;
  return now - oldest >= policy_.max_delay;
}

util::TimePoint Batcher::deadline() const {
  for (std::size_t i = 0; i < fifo_.size(); ++i) {
    if (fifo_[i].state == State::kLive) {
      return fifo_[i].added_at + policy_.max_delay;
    }
  }
  return 0;
}

BatchView Batcher::cut(std::uint64_t k) {
  batch_.clear();
  std::size_t batch_bytes = 0;
  for (std::size_t i = 0; i < fifo_.size(); ++i) {
    if (batch_.size() >= policy_.max_count ||
        (policy_.max_bytes > 0 && batch_bytes >= policy_.max_bytes)) {
      break;
    }
    Entry& e = fifo_[i];
    if (e.state != State::kLive) continue;
    e.state = State::kInFlight;
    e.instance = k;
    --eligible_;
    batch_.push_back(std::cref(e.msg));
    batch_bytes += e.msg.payload.size();
  }
  if (!batch_.empty() &&
      std::find(in_flight_.begin(), in_flight_.end(), k) == in_flight_.end()) {
    in_flight_.push_back(k);
  }
  return batch_;
}

void Batcher::on_decided(std::uint64_t k) {
  if (std::erase(in_flight_, k) == 0) return;
  for (std::size_t i = 0; i < fifo_.size(); ++i) {
    Entry& e = fifo_[i];
    if (e.state == State::kInFlight && e.instance == k) {
      e.state = State::kLive;
      ++eligible_;
    }
  }
}

BatchView Batcher::peek(std::size_t cap) const {
  batch_.clear();
  for (std::size_t i = 0; i < fifo_.size() && batch_.size() < cap; ++i) {
    const Entry& e = fifo_[i];
    if (e.state != State::kOrdered) batch_.push_back(std::cref(e.msg));
  }
  return batch_;
}

}  // namespace modcast::adb
