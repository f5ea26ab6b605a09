// Shared test harness: hand-wired mini-stacks on the simulator.
//
// SimGroup (src/core) wires full production stacks; these harnesses wire
// *partial* stacks (FD only, FD+RBcast, FD+RBcast+Consensus) so each module
// can be unit-tested at its own boundary with recorded events.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "consensus/chandra_toueg.hpp"
#include "fd/heartbeat_fd.hpp"
#include "framework/stack.hpp"
#include "rbcast/reliable_bcast.hpp"
#include "runtime/sim_world.hpp"

namespace modcast::test {

inline util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

inline std::string string_of(const util::Bytes& b) {
  return std::string(b.begin(), b.end());
}

/// Concatenates by appending each part in turn: GCC 12 misreads a
/// `"v" + std::to_string(k)` chain as an overlapping copy (-Wrestrict).
template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::string out;
  ((out += parts), ...);
  return out;
}

/// Sits between a world and a process's protocol and keeps every frame the
/// process receives, so a test can ask which frame a payload view slices.
class FrameTap final : public runtime::Protocol {
 public:
  explicit FrameTap(runtime::Protocol& inner) : inner_(&inner) {}

  void start() override { inner_->start(); }
  void on_message(util::ProcessId from, util::Payload msg) override {
    frames_.push_back(msg);
    inner_->on_message(from, std::move(msg));
  }

  /// The received frame whose buffer `view` shares, or nullptr.
  const util::Payload* source_of(const util::Payload& view) const {
    for (const util::Payload& f : frames_) {
      if (view.shares_buffer(f)) return &f;
    }
    return nullptr;
  }

 private:
  runtime::Protocol* inner_;
  std::vector<util::Payload> frames_;
};

/// One process running FD + RBcast (+ optionally Consensus).
struct Node {
  explicit Node(runtime::Runtime& rt, fd::FdConfig fdc = {},
                consensus::ConsensusConfig cc = {},
                bool with_consensus = true,
                util::Duration crossing_cost = 0)
      : stack(rt, crossing_cost), fd(fdc), rb(&fd), cons(cc, &fd) {
    stack.add(fd);
    stack.add(rb);
    if (with_consensus) stack.add(cons);
  }

  framework::Stack stack;
  fd::HeartbeatFd fd;
  rbcast::ReliableBcast rb;
  consensus::ChandraTouegConsensus cons;

  // Recorded module outputs.
  std::vector<std::pair<util::ProcessId, util::Bytes>> rdelivered;
  std::map<std::uint64_t, util::Bytes> decided;
  std::vector<util::ProcessId> suspect_events;
  std::vector<util::ProcessId> restore_events;

  void record_all() {
    stack.bind(framework::kEvRdeliver, [this](const framework::Event& ev) {
      auto& body = ev.as<framework::RdeliverBody>();
      rdelivered.emplace_back(body.origin, body.payload.to_bytes());
    });
    stack.bind(framework::kEvDecide, [this](const framework::Event& ev) {
      auto& body = ev.as<framework::ConsensusValueBody>();
      decided[body.instance] = body.value.to_bytes();
    });
    stack.bind(framework::kEvSuspect, [this](const framework::Event& ev) {
      suspect_events.push_back(ev.as<framework::SuspicionBody>().process);
    });
    stack.bind(framework::kEvRestore, [this](const framework::Event& ev) {
      restore_events.push_back(ev.as<framework::SuspicionBody>().process);
    });
  }
};

/// n processes, each a Node, on one SimWorld.
class NodeHarness {
 public:
  explicit NodeHarness(std::size_t n, std::uint64_t seed = 1,
                       fd::FdConfig fdc = {},
                       consensus::ConsensusConfig cc = {},
                       bool with_consensus = true) {
    runtime::SimWorldConfig wc;
    wc.n = n;
    wc.seed = seed;
    world_ = std::make_unique<runtime::SimWorld>(wc);
    for (util::ProcessId p = 0; p < n; ++p) {
      nodes_.push_back(std::make_unique<Node>(world_->runtime(p), fdc, cc,
                                              with_consensus));
      nodes_.back()->record_all();
      world_->attach(p, &nodes_.back()->stack);
    }
  }

  void start() { world_->start(); }
  runtime::SimWorld& world() { return *world_; }
  Node& node(util::ProcessId p) { return *nodes_.at(p); }
  std::size_t size() const { return nodes_.size(); }
  void run_until(util::TimePoint t) { world_->run_until(t); }

  /// Schedules a propose at virtual time `at`.
  void propose_at(util::TimePoint at, util::ProcessId p, std::uint64_t k,
                  const std::string& value) {
    world_->simulator().at(at, [this, p, k, value] {
      if (!world_->crashed(p)) node(p).cons.propose(k, bytes_of(value));
    });
  }

  /// Schedules an rbcast at virtual time `at`.
  void rbcast_at(util::TimePoint at, util::ProcessId p,
                 const std::string& value) {
    world_->simulator().at(at, [this, p, value] {
      if (!world_->crashed(p)) node(p).rb.rbcast(bytes_of(value));
    });
  }

 private:
  std::unique_ptr<runtime::SimWorld> world_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace modcast::test
