#include "pool.hpp"

namespace mini {

void Pool::cut(std::uint64_t k) {
  marks_.push_back(k);
  parked_.push_back(k);
  stuck_.push_back(k);
}

void Pool::decided(std::uint64_t k) {
  std::erase(marks_, k);
  std::erase_if(parked_, [k](std::uint64_t p) { return p <= k; });
}

}  // namespace mini
