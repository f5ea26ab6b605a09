#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace modbench::alloc {

namespace {

// One counter per thread, in static storage so a counter outlives the thread
// that owned it (total_count() still sums it). A modbench process creates a
// few dozen threads at most; any beyond kSlots share the last slot, which
// keeps the total exact.
constexpr unsigned kSlots = 256;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};

thread_local Slot* t_slot = nullptr;
thread_local std::uint64_t t_excluded = 0;

Slot& my_slot() {
  if (t_slot == nullptr) {
    const unsigned i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[i < kSlots ? i : kSlots - 1];
  }
  return *t_slot;
}

void count_one() { my_slot().count.fetch_add(1, std::memory_order_relaxed); }

void* allocate(std::size_t size) {
  count_one();
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

std::uint64_t thread_count() {
  return my_slot().count.load(std::memory_order_relaxed);
}

std::uint64_t total_count() {
  const unsigned used = g_next_slot.load(std::memory_order_relaxed);
  std::uint64_t sum = 0;
  for (unsigned i = 0; i < used && i < kSlots; ++i) {
    sum += g_slots[i].count.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t thread_excluded() { return t_excluded; }

Exclude::Exclude() : start_(thread_count()) {}

Exclude::~Exclude() { t_excluded += thread_count() - start_; }

}  // namespace modbench::alloc

// Global replacements. Every form of operator new counts one call; every
// form of operator delete returns the block to malloc's heap.
void* operator new(std::size_t size) {
  return modbench::alloc::allocate(size);
}
void* operator new[](std::size_t size) {
  return modbench::alloc::allocate(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return modbench::alloc::allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return modbench::alloc::allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return modbench::alloc::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return modbench::alloc::allocate_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return modbench::alloc::allocate_aligned(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return modbench::alloc::allocate_aligned(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
