#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "alloc_counter.hpp"

namespace modbench {
namespace {

// Stores through a volatile pointer so the compiler cannot elide the
// allocations under test.
void* volatile g_sink = nullptr;

void allocate_ints(int count) {
  for (int i = 0; i < count; ++i) {
    g_sink = new int(i);
    delete static_cast<int*>(g_sink);
  }
}

TEST(AllocCounter, CountsEveryOperatorNewOnThisThread) {
  const std::uint64_t before = alloc::thread_count();
  allocate_ints(10);
  g_sink = new int[4];
  delete[] static_cast<int*>(g_sink);
  EXPECT_EQ(alloc::thread_count() - before, 11u);
}

TEST(AllocCounter, OtherThreadsAllocationsStayOnTheirOwnCounter) {
  std::atomic<bool> go{false}, done{false};
  std::uint64_t theirs = 0;
  // Constructing the thread allocates on this thread, so the counters are
  // read only once it exists and waits for the go signal.
  std::thread t([&] {
    while (!go.load()) {
    }
    const std::uint64_t start = alloc::thread_count();
    allocate_ints(25);
    theirs = alloc::thread_count() - start;
    done.store(true);
  });
  const std::uint64_t mine = alloc::thread_count();
  const std::uint64_t total = alloc::total_count();
  go.store(true);
  while (!done.load()) {
  }
  EXPECT_EQ(alloc::thread_count(), mine);
  EXPECT_EQ(alloc::total_count() - total, 25u);
  t.join();
  EXPECT_EQ(theirs, 25u);
}

TEST(AllocCounter, ExcludeScopeRecordsTheAllocationsItCovers) {
  const std::uint64_t excluded = alloc::thread_excluded();
  {
    alloc::Exclude guard;
    allocate_ints(3);
  }
  allocate_ints(2);
  EXPECT_EQ(alloc::thread_excluded() - excluded, 3u);
}

}  // namespace
}  // namespace modbench
