#include "runtime/sim_world.hpp"

#include <cassert>
#include <unordered_map>

namespace modcast::runtime {

/// Per-process Runtime implementation bound to the shared simulator.
class SimWorld::ProcRuntime final : public Runtime {
 public:
  ProcRuntime(SimWorld& world, util::ProcessId self, util::Rng rng)
      : world_(&world), self_(self), rng_(rng) {}

  util::ProcessId self() const override { return self_; }
  std::size_t group_size() const override { return world_->size(); }
  util::TimePoint now() const override { return world_->sim_.now(); }

  void send(util::ProcessId to, util::Payload msg) override {
    if (world_->crashed(self_)) return;
    world_->cpu(self_).charge(world_->config_.cpu.send_cost(msg.size()));
    world_->net_.send(self_, to, std::move(msg));
  }

  TimerId set_timer(util::Duration delay, std::function<void()> fn) override {
    const TimerId id = next_timer_++;
    ++timer_arms_;
    auto event = world_->sim_.after(
        delay, [this, id, fn = std::move(fn)] {
          auto it = timers_.find(id);
          if (it == timers_.end()) return;  // cancelled
          timers_.erase(it);
          world_->cpu(self_).execute(world_->config_.cpu.timer_base, fn);
        });
    timers_[id] = event;
    return id;
  }

  void cancel_timer(TimerId id) override {
    auto it = timers_.find(id);
    if (it == timers_.end()) return;
    world_->sim_.cancel(it->second);
    timers_.erase(it);
  }

  util::Rng& rng() override { return rng_; }

  std::uint64_t timer_arms() const { return timer_arms_; }
  std::size_t pending_timers() const { return timers_.size(); }

  void charge_cpu(util::Duration cost) override {
    world_->cpu(self_).charge(cost);
  }

 private:
  SimWorld* world_;
  util::ProcessId self_;
  util::Rng rng_;
  TimerId next_timer_ = 1;
  std::uint64_t timer_arms_ = 0;
  std::unordered_map<TimerId, sim::EventId> timers_;
};

SimWorld::SimWorld(SimWorldConfig config)
    : config_(config),
      // The network draws its own RNG stream off the world seed so drop
      // decisions replay identically however many worlds run in parallel.
      net_(sim_, config.n, config.net, config.seed ^ 0x6e6574647270ULL),
      protocols_(config.n, nullptr),
      root_rng_(config.seed) {
  cpus_.reserve(config_.n);
  runtimes_.reserve(config_.n);
  for (std::size_t p = 0; p < config_.n; ++p) {
    cpus_.push_back(std::make_unique<sim::Cpu>(sim_));
    runtimes_.push_back(std::make_unique<ProcRuntime>(
        *this, static_cast<util::ProcessId>(p), root_rng_.split()));
  }
}

SimWorld::~SimWorld() = default;

Runtime& SimWorld::runtime(util::ProcessId p) { return *runtimes_.at(p); }

std::uint64_t SimWorld::timer_arms(util::ProcessId p) const {
  return runtimes_.at(p)->timer_arms();
}

std::size_t SimWorld::pending_timers(util::ProcessId p) const {
  return runtimes_.at(p)->pending_timers();
}

void SimWorld::attach(util::ProcessId p, Protocol* protocol) {
  assert(p < config_.n);
  protocols_[p] = protocol;
  net_.set_endpoint(p, [this, p](util::ProcessId from, util::Payload msg) {
    const auto cost = config_.cpu.recv_cost(msg.size());
    cpus_[p]->execute(cost, [this, p, from, m = std::move(msg)]() mutable {
      protocols_[p]->on_message(from, std::move(m));
    });
  });
}

void SimWorld::start() {
  for (std::size_t p = 0; p < config_.n; ++p) {
    assert(protocols_[p] != nullptr && "attach() every process before start");
    sim_.at(0, [this, p] {
      if (!crashed(static_cast<util::ProcessId>(p))) protocols_[p]->start();
    });
  }
}

void SimWorld::crash(util::ProcessId p) {
  net_.crash(p);
  cpus_.at(p)->halt();
}

void SimWorld::crash_at(util::ProcessId p, util::TimePoint when) {
  sim_.at(when, [this, p] { crash(p); });
}

}  // namespace modcast::runtime
