// Heap-allocation counting for modbench.
//
// alloc_counter.cpp replaces the global operator new, so every allocation in
// the modbench process (library, runtime and benchmark code alike) bumps a
// counter owned by the allocating thread. A traced span reads its own
// thread's counter, so it never sees another thread's allocations; the
// end-to-end metric sums all threads.
#pragma once

#include <cstdint>

namespace modbench::alloc {

/// operator new calls made so far by the calling thread.
std::uint64_t thread_count();

/// operator new calls made so far by all threads of the process.
std::uint64_t total_count();

/// Allocations the tracer made for its own bookkeeping on this thread; span
/// accounting subtracts them so tracing does not inflate a layer's count.
std::uint64_t thread_excluded();

/// While alive, allocations on this thread are also added to
/// thread_excluded().
class Exclude {
 public:
  Exclude();
  ~Exclude();
  Exclude(const Exclude&) = delete;
  Exclude& operator=(const Exclude&) = delete;

 private:
  std::uint64_t start_;
};

}  // namespace modbench::alloc
