// Allocation budget of the per-message path, as a tier-1 test.
//
// This binary replaces the global operator new with a counting one (which
// is why it is its own executable), runs a fixed-seed SimWorld burst per
// stack in the paper's setting (n = 7, 16 KiB messages, default options,
// Fig. 8 mid-load) and asserts that heap allocations per adelivered
// message stay within a committed per-stack budget. SimWorld runs are
// deterministic, so the count is exact per seed: a change that brings back
// a per-message copy, tree node or heap-held event body fails here instead
// of waiting for the benchmark.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "core/abcast_process.hpp"
#include "runtime/sim_world.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace modcast {
namespace {

using util::milliseconds;

struct Burst {
  std::uint64_t allocs = 0;     ///< operator new calls in the window
  std::uint64_t delivered = 0;  ///< messages p0 adelivered in the window
  double per_message() const {
    return static_cast<double>(allocs) / static_cast<double>(delivered);
  }
};

/// n = 7 processes, each abcasting 16 KiB messages at a constant rate with
/// a seeded phase (500 msgs/s in aggregate, the paper's Fig. 8 mid-load),
/// measured over [warmup, warmup + window).
Burst run_burst(core::StackKind kind) {
  constexpr std::size_t kN = 7;
  constexpr std::size_t kMessageSize = 16384;
  constexpr double kRate = 500.0;
  constexpr util::Duration kWarmup = milliseconds(500);
  constexpr util::Duration kWindow = milliseconds(2000);
  const auto period = static_cast<util::Duration>(
      static_cast<double>(util::kSecond) * kN / kRate);

  runtime::SimWorldConfig wc;
  wc.n = kN;
  wc.seed = 1;
  runtime::SimWorld world(wc);
  std::vector<std::unique_ptr<core::AbcastProcess>> procs;
  Burst burst;
  bool measuring = false;
  for (util::ProcessId p = 0; p < kN; ++p) {
    core::StackOptions opts;
    opts.kind = kind;
    procs.push_back(
        std::make_unique<core::AbcastProcess>(world.runtime(p), opts));
    if (p == 0) {
      procs[p]->set_deliver_handler(
          [&burst, &measuring](util::ProcessId, std::uint64_t,
                               const util::Bytes&) {
            if (measuring) ++burst.delivered;
          });
    }
    world.attach(p, &procs[p]->protocol());
  }
  auto& sim = world.simulator();
  const util::TimePoint end = kWarmup + kWindow;
  std::function<void(util::ProcessId)> tick = [&](util::ProcessId p) {
    procs[p]->abcast(util::Bytes(kMessageSize, 0));
    const util::TimePoint next = world.now() + period;
    if (next < end) sim.at(next, [&tick, p] { tick(p); });
  };
  util::Rng phase(7);
  for (util::ProcessId p = 0; p < kN; ++p) {
    const auto start = static_cast<util::TimePoint>(
        phase.uniform(static_cast<std::uint64_t>(period)));
    sim.at(start, [&tick, p] { tick(p); });
  }
  world.start();
  world.run_until(kWarmup);
  measuring = true;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  world.run_until(end);
  burst.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  measuring = false;
  return burst;
}

// Budgets: the counts of the lean data path (21.17 modular, 22.79
// monolithic), plus 5 %. Before it, this burst made 93.86 and 52.89.
constexpr double kModularBudget = 22.2;
constexpr double kMonolithicBudget = 23.9;

TEST(AllocBudget, ModularStackPerMessage) {
  const Burst b = run_burst(core::StackKind::kModular);
  ASSERT_GT(b.delivered, 500u);
  EXPECT_LE(b.per_message(), kModularBudget)
      << b.allocs << " allocations for " << b.delivered << " messages";
}

TEST(AllocBudget, MonolithicStackPerMessage) {
  const Burst b = run_burst(core::StackKind::kMonolithic);
  ASSERT_GT(b.delivered, 500u);
  EXPECT_LE(b.per_message(), kMonolithicBudget)
      << b.allocs << " allocations for " << b.delivered << " messages";
}

}  // namespace
}  // namespace modcast
