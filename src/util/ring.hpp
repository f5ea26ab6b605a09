// Vector-backed double-ended ring buffer.
//
// A FIFO that a hot path pushes and pops once per message must not allocate
// per element the way std::deque does (one block every few elements).
// Ring keeps its elements in one power-of-two buffer that doubles when
// full and never shrinks, so after it reaches its high-water mark pushing
// and popping allocate nothing. Indexing is relative to the front.
//
// Popping resets the vacated slot to T{}, so an element's resources (a
// payload view, a callable's captures) are released when it leaves, not
// when its slot is next reused. T must be default-constructible and
// movable.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace modcast::util {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return buf_[slot(i)]; }
  const T& operator[](std::size_t i) const { return buf_[slot(i)]; }
  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_[slot(size_ - 1)]; }
  const T& back() const { return buf_[slot(size_ - 1)]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[slot(size_)] = std::move(value);
    ++size_;
  }
  void push_front(T value) {
    if (size_ == buf_.size()) grow();
    head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
    buf_[head_] = std::move(value);
    ++size_;
  }
  void pop_front() {
    buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  void pop_back() {
    buf_[slot(size_ - 1)] = T{};
    --size_;
  }
  /// Releases every element; the buffer keeps its capacity.
  void clear() {
    while (!empty()) pop_back();
    head_ = 0;
  }

 private:
  std::size_t slot(std::size_t i) const {
    return (head_ + i) & (buf_.size() - 1);
  }

  void grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[slot(i)]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< capacity is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace modcast::util
