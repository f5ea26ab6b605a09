// Chandra–Toueg round engine: the round machinery both atomic broadcast
// stacks run (§3.2), in one sans-I/O library.
//
// The paper's monolithic stack is the modular stack's consensus merged into
// one module, so both stacks run this engine, and the stack files keep only
// what the paper compares: wire encodings, send sites, timers, value-choice
// and solicit rules, and the §4 shortcuts. The engine sends, raises and
// schedules nothing; its methods update the round state and return what the
// caller must do (the rounds to send estimates and nacks for, whether to
// nack, re-ack or adopt a proposal, whether an ack completed the quorum).
//
// Data model: the open table holds one record per undecided instance — its
// round, its estimate with the adoption timestamp, and one flat entry per
// round touched (good runs touch round 1 only). An instance leaves the open
// table when it decides; the decided store keeps only its value and round.
// Values are util::Payload views, normally of the frame a value arrived in:
// proposing, adopting, recording and deciding share that one buffer.
// The decided watermark is contiguous (every instance below it is decided),
// so an instance stays decided after retention drops its value, no instance
// opens below it, and retention never drops a value at or above it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace modcast::rounds {

/// One estimate received (or recorded for self) by a round's coordinator.
struct Estimate {
  util::ProcessId sender = 0;
  std::uint32_t ts = 0;  ///< round of adoption; 0 = initial value
  util::Payload value;

  friend bool operator==(const Estimate&, const Estimate&) = default;
};

/// The state of one round of one instance.
struct Round {
  std::uint32_t number = 0;
  bool proposed = false;       ///< we proposed in this round (coordinator)
  bool acked = false;          ///< we acked this round's proposal
  bool nacked = false;         ///< we nacked this round
  bool estimate_sent = false;  ///< we sent our estimate for this round
  bool solicited = false;      ///< we solicited estimates (coordinator)
  bool own_estimate = false;   ///< our own estimate is among `estimates`
  std::optional<util::Payload> proposal;
  std::vector<util::ProcessId> ack_senders;
  /// Arrival order, one entry per sender.
  std::vector<Estimate> estimates;

  /// Records `sender`'s estimate; a refreshed one replaces the sender's
  /// earlier estimate instead of counting twice.
  void record(util::ProcessId sender, std::uint32_t ts, util::Payload value) {
    for (Estimate& e : estimates) {
      if (e.sender == sender) {
        e.ts = ts;
        e.value = std::move(value);
        return;
      }
    }
    estimates.push_back(Estimate{sender, ts, std::move(value)});
  }
  bool acked_by(util::ProcessId p) const {
    return std::find(ack_senders.begin(), ack_senders.end(), p) !=
           ack_senders.end();
  }
  const Estimate* estimate_of(util::ProcessId sender) const {
    for (const Estimate& e : estimates) {
      if (e.sender == sender) return &e;
    }
    return nullptr;
  }

  friend bool operator==(const Round&, const Round&) = default;
};

/// The round record of one open instance.
struct Instance {
  std::uint64_t k = 0;
  std::uint32_t round = 1;
  bool has_estimate = false;
  std::uint32_t estimate_ts = 0;  ///< round of adoption; 0 = initial value
  util::Payload estimate;
  std::vector<Round> rounds;  ///< in order of first touch

  /// Binds an initial (unlocked) estimate.
  void set_initial(util::Payload value) {
    estimate = std::move(value);
    estimate_ts = 0;
    has_estimate = true;
  }
  Round* find(std::uint32_t r) {
    for (Round& x : rounds) {
      if (x.number == r) return &x;
    }
    return nullptr;
  }
  const Round* find(std::uint32_t r) const {
    return const_cast<Instance*>(this)->find(r);
  }
  /// The state of round r, created on first touch.
  Round& at(std::uint32_t r) {
    if (Round* x = find(r)) return *x;
    rounds.push_back(Round{});
    rounds.back().number = r;
    return rounds.back();
  }
  const util::Payload* proposal(std::uint32_t r) const {
    const Round* x = find(r);
    return x == nullptr || !x->proposal ? nullptr : &*x->proposal;
  }
  bool proposed(std::uint32_t r) const {
    const Round* x = find(r);
    return x != nullptr && x->proposed;
  }

  friend bool operator==(const Instance&, const Instance&) = default;
};

/// All the decided store keeps of a decided instance.
struct Decided {
  util::Payload value;
  std::uint32_t round = 0;

  friend bool operator==(const Decided&, const Decided&) = default;
};

/// One round passed by a rotation: send our estimate for `round` to its
/// coordinator `to`, plus a nack when `to` is suspected.
struct Step {
  std::uint32_t round = 0;
  util::ProcessId to = 0;
  bool nack = false;

  friend bool operator==(const Step&, const Step&) = default;
};

/// What to do with a received proposal.
enum class Admission : std::uint8_t {
  kStale,      ///< a round we moved past, first time: nack the proposer
  kAnswered,   ///< a round already nacked: ignore
  kAcked,      ///< a round already acked (a retransmission)
  kSuspected,  ///< its coordinator is suspected: nack, then rotate()
  kAdopt,      ///< fresh: adopt() once the value may be acted on
};

struct NoExtra {};

/// The engine. Open-table records carry the caller's own per-instance
/// fields (`Extra`: its timers and deferred work) beside the round record.
template <class Extra = NoExtra>
class RoundEngine {
 public:
  struct Open : Instance {
    Extra extra;
  };

  explicit RoundEngine(std::uint64_t retention) : retention_(retention) {}

  /// Group size, own id, and the failure detector's suspected set (nullptr
  /// = suspect nobody).
  void init(std::size_t n, util::ProcessId self,
            const std::set<util::ProcessId>* suspected) {
    n_ = n;
    self_ = self;
    suspected_ = suspected;
  }

  std::size_t group_size() const { return n_; }
  /// Coordinator of round r (1-based): p_{(r−1) mod n}.
  util::ProcessId coordinator(std::uint32_t round) const {
    return (round - 1) % static_cast<std::uint32_t>(n_);
  }
  std::size_t majority() const { return group_size() / 2 + 1; }
  bool suspects(util::ProcessId q) const {
    return suspected_ != nullptr && suspected_->count(q) != 0;
  }

  // --- decided store ---
  bool decided(std::uint64_t k) const {
    return k < watermark_ || decided_.count(k) != 0;
  }
  /// nullptr if undecided or dropped by retention.
  const Decided* decision(std::uint64_t k) const {
    auto it = decided_.find(k);
    return it == decided_.end() ? nullptr : &it->second;
  }
  /// 0 if undecided or dropped by retention.
  std::uint32_t decided_round(std::uint64_t k) const {
    const Decided* d = decision(k);
    return d == nullptr ? 0 : d->round;
  }
  /// Every instance below it is decided.
  std::uint64_t watermark() const { return watermark_; }

  // --- rounds of one instance ---
  /// Coordinator proposal: `value` becomes the round's proposal and our
  /// estimate locked at `round`.
  void propose(Instance& inst, std::uint32_t round, util::Payload value) const {
    inst.round = std::max(inst.round, round);
    inst.estimate = value;
    inst.estimate_ts = round;
    inst.has_estimate = true;
    Round& r = inst.at(round);
    r.proposed = true;
    r.proposal = std::move(value);
  }
  /// True when our proposal for `round` has a majority of acks, counting
  /// the coordinator's implicit own ack.
  bool quorum(const Instance& inst, std::uint32_t round) const {
    const Round* r = inst.find(round);
    if (r == nullptr || !r->proposed) return false;
    const std::size_t acks = r->ack_senders.size() + 1;
    return acks >= majority();
  }
  /// Records `from`'s ack of our proposal for `round`; returns quorum().
  bool ack(Instance& inst, std::uint32_t round, util::ProcessId from) const {
    if (coordinator(round) != self_ || !inst.proposed(round)) return false;
    Round& r = inst.at(round);
    if (!r.acked_by(from)) {
      if (r.ack_senders.empty()) r.ack_senders.reserve(n_ - 1);
      r.ack_senders.push_back(from);
    }
    return quorum(inst, round);
  }
  /// Round rotation: moves past the current round and past every round
  /// whose coordinator is suspected (marking it nacked), up to the first
  /// round coordinated by self (the caller coordinates it) or by an
  /// unsuspected process (the caller waits for its proposal).
  std::vector<Step> rotate(Instance& inst) const {
    std::vector<Step> steps;
    for (;;) {
      const util::ProcessId c = coordinator(++inst.round);
      const bool nack = c != self_ && suspects(c);
      if (nack) inst.at(inst.round).nacked = true;
      steps.push_back(Step{inst.round, c, nack});
      if (!nack) return steps;  // our own id comes up within n rounds
    }
  }
  /// Admission of a proposal for `round`, already stored in the round;
  /// joins a later round.
  Admission admit(Instance& inst, std::uint32_t round) const {
    if (round < inst.round) {
      // A coordinator we moved past (e.g. on a wrong suspicion before its
      // proposal arrived): nack once so it advances instead of waiting.
      return nack_once(inst, round) ? Admission::kStale : Admission::kAnswered;
    }
    inst.round = round;
    Round& r = inst.at(round);
    if (r.acked) return Admission::kAcked;
    if (r.nacked) return Admission::kAnswered;
    if (!suspects(coordinator(round))) return Admission::kAdopt;
    r.nacked = true;
    return Admission::kSuspected;
  }
  /// Chandra–Toueg: estimate := proposal of `round`, ts := round; the
  /// round is marked acked.
  void adopt(Instance& inst, std::uint32_t round) const {
    Round& r = inst.at(round);
    inst.estimate = *r.proposal;
    inst.estimate_ts = round;
    inst.has_estimate = true;
    r.acked = true;
  }
  /// Marks `round` nacked unless it was acked or nacked already; true when
  /// the caller should send the nack.
  bool nack_once(Instance& inst, std::uint32_t round) const {
    Round& r = inst.at(round);
    if (r.acked || r.nacked) return false;
    r.nacked = true;
    return true;
  }
  /// Marks our estimate for `round` sent; false when there is none yet or
  /// it was sent already.
  bool claim_estimate(Instance& inst, std::uint32_t round) const {
    if (!inst.has_estimate) return false;
    Round& r = inst.at(round);
    if (r.estimate_sent) return false;
    r.estimate_sent = true;
    return true;
  }
  /// Records our own estimate for `round` once; false when there is none
  /// yet or it was recorded already.
  bool record_own(Instance& inst, std::uint32_t round) const {
    if (!inst.has_estimate) return false;
    Round& r = inst.at(round);
    if (r.own_estimate) return false;
    r.own_estimate = true;
    r.record(self_, inst.estimate_ts, inst.estimate);
    return true;
  }

  // --- open table ---
  /// The open record of k, or nullptr.
  Open* find(std::uint64_t k) {
    auto it = open_.find(k);
    return it == open_.end() ? nullptr : &it->second;
  }
  /// The open record of k, created on first touch; nullptr when k is
  /// decided.
  Open* open(std::uint64_t k) {
    if (decided(k)) return nullptr;
    auto [it, inserted] = open_.try_emplace(k);
    if (inserted) it->second.k = k;
    return &it->second;
  }
  /// k's record leaves the open table (references to it dangle) and the
  /// decided store keeps `value` and `round`, advances the watermark and
  /// applies retention, which never drops the value just stored.
  void decide(std::uint64_t k, std::uint32_t round, util::Payload value) {
    open_.erase(k);
    decided_.try_emplace(k, Decided{std::move(value), round});
    while (decided_.count(watermark_) != 0) ++watermark_;
    while (decided_.size() > retention_) {
      auto oldest = decided_.begin();
      if (oldest->first == k || oldest->first >= watermark_) break;
      decided_.erase(oldest);
    }
  }

  /// Suspicion sweep: the open instances whose current round q
  /// coordinates, in instance order. Handling one may change another, so
  /// the caller takes each through abandon().
  std::vector<std::uint64_t> coordinated_by(util::ProcessId q) const {
    std::vector<std::uint64_t> keys;
    if (q == self_) return keys;  // never suspect self
    for (const auto& [k, inst] : open_) {
      if (coordinator(inst.round) == q) keys.push_back(k);
    }
    return keys;
  }
  /// k's record with its current round marked nacked if q still
  /// coordinates it (the caller nacks q and rotates), nullptr otherwise.
  Open* abandon(std::uint64_t k, util::ProcessId q) {
    Open* inst = find(k);
    if (inst == nullptr || coordinator(inst->round) != q) return nullptr;
    inst->at(inst->round).nacked = true;
    return inst;
  }

 private:
  std::uint64_t retention_;
  std::size_t n_ = 1;
  util::ProcessId self_ = 0;
  const std::set<util::ProcessId>* suspected_ = nullptr;
  std::map<std::uint64_t, Open> open_;
  std::map<std::uint64_t, Decided> decided_;
  std::uint64_t watermark_ = 0;
};

}  // namespace modcast::rounds
