#include "contract.hpp"

#include <unordered_set>

namespace modbench {

namespace {

std::string id(MsgKey k) {
  std::string s = "(";
  s += std::to_string(key_origin(k));
  s += ',';
  s += std::to_string(key_seq(k));
  s += ')';
  return s;
}

}  // namespace

std::string check_contract(const ContractInput& in) {
  const std::size_t n = in.logs.size();

  // Integrity.
  for (std::size_t p = 0; p < n; ++p) {
    std::unordered_set<MsgKey> seen;
    seen.reserve(in.logs[p].size());
    for (MsgKey k : in.logs[p]) {
      const std::uint32_t origin = key_origin(k);
      if (origin >= in.sent.size() || key_seq(k) >= in.sent[origin]) {
        return "integrity: process " + std::to_string(p) + " delivered " +
               id(k) + ", which was never sent";
      }
      if (!seen.insert(k).second) {
        return "integrity: process " + std::to_string(p) + " delivered " +
               id(k) + " twice";
      }
    }
  }

  // Total order: pairwise prefix compatibility is equivalent to every log
  // being a prefix of the longest one.
  std::size_t longest = 0;
  for (std::size_t p = 1; p < n; ++p) {
    if (in.logs[p].size() > in.logs[longest].size()) longest = p;
  }
  for (std::size_t p = 0; p < n; ++p) {
    const auto& log = in.logs[p];
    const auto& ref = in.logs[longest];
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i] != ref[i]) {
        return "total order: position " + std::to_string(i) + " is " +
               id(log[i]) + " at process " + std::to_string(p) + " but " +
               id(ref[i]) + " at process " + std::to_string(longest);
      }
    }
  }

  // Agreement: correct logs are prefixes of one another, so equal length
  // means equal content.
  std::size_t first_correct = n;
  for (std::size_t p = 0; p < n; ++p) {
    if (in.crashed[p]) continue;
    if (first_correct == n) {
      first_correct = p;
    } else if (in.logs[p].size() != in.logs[first_correct].size()) {
      return "agreement: correct processes " + std::to_string(first_correct) +
             " and " + std::to_string(p) + " delivered " +
             std::to_string(in.logs[first_correct].size()) + " vs " +
             std::to_string(in.logs[p].size()) + " messages";
    }
  }

  // Validity.
  if (first_correct < n) {
    const auto& log = in.logs[first_correct];
    const std::unordered_set<MsgKey> delivered(log.begin(), log.end());
    for (MsgKey k : in.admitted_by_correct) {
      if (!delivered.count(k)) {
        return "validity: " + id(k) +
               " was admitted by a correct process but never delivered";
      }
    }
  }
  return {};
}

}  // namespace modbench
