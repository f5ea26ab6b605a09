#pragma once
#include <cstdint>
#include <vector>

namespace mini {

class Pool {
 public:
  void cut(std::uint64_t k);
  void decided(std::uint64_t k);

 private:
  std::vector<std::uint64_t> marks_;   // released by std::erase
  std::vector<std::uint64_t> parked_;  // released by std::erase_if
  std::vector<std::uint64_t> stuck_;   // never released
};

}  // namespace mini
