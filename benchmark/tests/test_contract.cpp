#include <gtest/gtest.h>

#include "contract.hpp"

namespace modbench {
namespace {

const MsgKey a0 = msg_key(0, 0), a1 = msg_key(0, 1), b0 = msg_key(1, 0),
             b1 = msg_key(1, 1);

/// Three processes, all correct; p0 and p1 each sent two messages, all
/// admitted.
ContractInput base() {
  ContractInput in;
  in.logs = {{a0, b0, a1, b1}, {a0, b0, a1, b1}, {a0, b0, a1, b1}};
  in.crashed = {false, false, false};
  in.sent = {2, 2, 0};
  in.admitted_by_correct = {a0, a1, b0, b1};
  return in;
}

TEST(Contract, IdenticalLogsPass) { EXPECT_EQ(check_contract(base()), ""); }

TEST(Contract, DuplicateIsAnIntegrityViolation) {
  ContractInput in = base();
  in.logs[2].push_back(b0);
  EXPECT_NE(check_contract(in).find("integrity"), std::string::npos);
}

TEST(Contract, NeverSentMessageIsAnIntegrityViolation) {
  ContractInput in = base();
  for (auto& log : in.logs) log.push_back(msg_key(2, 0));
  EXPECT_NE(check_contract(in).find("never sent"), std::string::npos);
}

TEST(Contract, GapIsAnOrderViolation) {
  ContractInput in = base();
  in.logs[1] = {a0, a1, b1};  // skipped b0
  EXPECT_NE(check_contract(in).find("total order"), std::string::npos);
}

TEST(Contract, GapEverywhereIsAValidityViolation) {
  ContractInput in = base();
  for (auto& log : in.logs) log = {a0, a1, b1};
  EXPECT_NE(check_contract(in).find("validity"), std::string::npos);
}

TEST(Contract, ReorderIsAnOrderViolation) {
  ContractInput in = base();
  std::swap(in.logs[2][1], in.logs[2][2]);
  EXPECT_NE(check_contract(in).find("total order"), std::string::npos);
}

TEST(Contract, DivergentCorrectProcessesViolateAgreement) {
  ContractInput in = base();
  in.logs[0].pop_back();  // a correct process stopped short
  EXPECT_NE(check_contract(in).find("agreement"), std::string::npos);
}

TEST(Contract, CrashedProcessPrefixPasses) {
  ContractInput in = base();
  in.crashed[0] = true;
  in.logs[0] = {a0, b0};
  in.admitted_by_correct = {b0, b1};
  EXPECT_EQ(check_contract(in), "");
}

TEST(Contract, CrashedProcessMustStillBeAPrefix) {
  ContractInput in = base();
  in.crashed[0] = true;
  in.logs[0] = {b0, a0};
  EXPECT_NE(check_contract(in).find("total order"), std::string::npos);
}

}  // namespace
}  // namespace modbench
