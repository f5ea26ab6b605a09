// The atomic-broadcast contract, checked on recorded delivery logs.
//
// modbench records every adeliver of every process in the deliver handler
// and, after the timed region and the drain, checks the logs against the
// contract both stacks promise (core/abcast_process.hpp):
//   integrity    no log delivers a message twice or one that was never sent;
//   total order  any two logs are prefix-compatible;
//   agreement    every correct process delivered the same sequence;
//   validity     every message a correct process admitted was delivered.
// A crashed process's log only has to be a prefix of the others.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace modbench {

/// (origin, seq) packed into one word: the log entry type.
using MsgKey = std::uint64_t;

constexpr MsgKey msg_key(std::uint32_t origin, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(origin) << 40) | seq;
}
constexpr std::uint32_t key_origin(MsgKey k) {
  return static_cast<std::uint32_t>(k >> 40);
}
constexpr std::uint64_t key_seq(MsgKey k) {
  return k & ((std::uint64_t{1} << 40) - 1);
}

struct ContractInput {
  std::vector<std::vector<MsgKey>> logs;  ///< adeliver order, per process
  std::vector<bool> crashed;              ///< per process
  /// Per origin: how many messages abcast() accepted. Sequence numbers are
  /// dense from 0, so seq < sent[origin] is "was sent".
  std::vector<std::uint64_t> sent;
  /// Messages admitted by processes that stayed correct.
  std::vector<MsgKey> admitted_by_correct;
};

/// Empty when the contract holds; otherwise names the first violation.
std::string check_contract(const ContractInput& in);

}  // namespace modbench
