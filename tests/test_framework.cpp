// Unit tests: microprotocol composition framework (framework/stack).
#include "framework/stack.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/sim_world.hpp"

namespace modcast::framework {
namespace {

constexpr EventType kTestEvent = 200;
constexpr ModuleId kTestModule = 42;

struct IntBody {
  int value;
};

class Harness {
 public:
  explicit Harness(std::size_t n = 2, util::Duration crossing = 0) {
    runtime::SimWorldConfig wc;
    wc.n = n;
    world = std::make_unique<runtime::SimWorld>(wc);
    for (util::ProcessId p = 0; p < n; ++p) {
      stacks.push_back(
          std::make_unique<Stack>(world->runtime(p), crossing));
      world->attach(p, stacks.back().get());
    }
  }
  std::unique_ptr<runtime::SimWorld> world;
  std::vector<std::unique_ptr<Stack>> stacks;
};

TEST(Stack, LocalEventDispatchInBindOrder) {
  Harness h;
  std::vector<int> calls;
  h.stacks[0]->bind(kTestEvent, [&](const Event& ev) {
    calls.push_back(ev.as<IntBody>().value * 10);
  });
  h.stacks[0]->bind(kTestEvent, [&](const Event& ev) {
    calls.push_back(ev.as<IntBody>().value * 100);
  });
  h.stacks[0]->raise(Event::local(kTestEvent, IntBody{7}));
  EXPECT_EQ(calls, (std::vector<int>{70, 700}));
  EXPECT_EQ(h.stacks[0]->counters().local_events, 2u);
}

TEST(Stack, UnboundEventIsDropped) {
  Harness h;
  h.stacks[0]->raise(Event::local(kTestEvent, IntBody{1}));
  EXPECT_EQ(h.stacks[0]->counters().local_events, 0u);
}

TEST(Stack, WireRoundTripAddsAndStripsHeader) {
  Harness h;
  std::vector<std::pair<util::ProcessId, util::Bytes>> got;
  h.stacks[1]->bind_wire(kTestModule,
                         [&](util::ProcessId from, util::Payload payload) {
                           got.emplace_back(from, payload.to_bytes());
                         });
  util::Bytes payload = {9, 8, 7};
  h.world->simulator().at(0, [&] {
    h.stacks[0]->send_wire(1, kTestModule, payload);
  });
  h.world->run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 0u);
  EXPECT_EQ(got[0].second, payload);  // header stripped
  // On the wire the message is one byte longer (the module-id header).
  EXPECT_EQ(h.world->network().total().payload_bytes, payload.size() + 1);
}

TEST(Stack, WireDemuxSelectsModule) {
  Harness h;
  int a = 0, b = 0;
  h.stacks[1]->bind_wire(1, [&](util::ProcessId, util::Payload) { ++a; });
  h.stacks[1]->bind_wire(2, [&](util::ProcessId, util::Payload) { ++b; });
  h.world->simulator().at(0, [&] {
    h.stacks[0]->send_wire(1, 1, util::Bytes{1});
    h.stacks[0]->send_wire(1, 2, util::Bytes{1});
    h.stacks[0]->send_wire(1, 2, util::Bytes{1});
  });
  h.world->run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Stack, UnknownModuleMessageDropped) {
  Harness h;
  h.world->simulator().at(0, [&] {
    h.stacks[0]->send_wire(1, 99, util::Bytes{1, 2});
  });
  h.world->run();  // must not crash
  EXPECT_EQ(h.stacks[1]->counters().wire_deliveries, 0u);
}

TEST(Stack, SendToOthersSkipsSelf) {
  Harness h(4);
  int received[4] = {0, 0, 0, 0};
  for (util::ProcessId p = 0; p < 4; ++p) {
    h.stacks[p]->bind_wire(kTestModule,
                           [&received, p](util::ProcessId, util::Payload) {
                             ++received[p];
                           });
  }
  h.world->simulator().at(0, [&] {
    h.stacks[2]->send_wire_to_others(kTestModule, util::Bytes{5});
  });
  h.world->run();
  EXPECT_EQ(received[0], 1);
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 0);
  EXPECT_EQ(received[3], 1);
}

// Owned bytes are framed in place: the returned body view shares the
// buffer each peer receives. A Payload the caller still holds is framed by
// copy, and the caller's bytes and view stay as they were.
TEST(Stack, OwnedBytesFramedInPlaceSharedPayloadCopied) {
  Harness h(3);
  std::vector<util::Payload> got;
  for (util::ProcessId p = 1; p < 3; ++p) {
    h.stacks[p]->bind_wire(kTestModule,
                           [&got](util::ProcessId, util::Payload payload) {
                             got.push_back(std::move(payload));
                           });
  }
  util::Payload owned_sent;
  const util::Payload held(util::Bytes{4, 5, 6});
  util::Payload held_sent;
  h.world->simulator().at(0, [&] {
    owned_sent =
        h.stacks[0]->send_wire_to_others(kTestModule, util::Bytes{1, 2, 3});
    held_sent = h.stacks[0]->send_wire_to_others(kTestModule, held);
  });
  h.world->run();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(owned_sent, util::Payload(util::Bytes{1, 2, 3}));
  EXPECT_EQ(held_sent, held);
  EXPECT_FALSE(held_sent.shares_buffer(held));
  EXPECT_EQ(held, util::Payload(util::Bytes{4, 5, 6}));
  EXPECT_EQ(held.use_count(), 1);  // the stack kept no reference to it
  int owned = 0;
  for (const util::Payload& p : got) {
    if (p == owned_sent) {
      ++owned;
      EXPECT_TRUE(p.shares_buffer(owned_sent));
    } else {
      EXPECT_EQ(p, held);
      EXPECT_FALSE(p.shares_buffer(held));
      EXPECT_TRUE(p.shares_buffer(held_sent));
    }
  }
  EXPECT_EQ(owned, 2);
  EXPECT_EQ(h.world->network().total().payload_bytes, 4u * 4u);
}

TEST(Stack, PerModuleWireCounters) {
  Harness h;
  h.stacks[1]->bind_wire(7, [](util::ProcessId, util::Payload) {});
  h.world->simulator().at(0, [&] {
    h.stacks[0]->send_wire(1, 7, util::Bytes(10, 0));
    h.stacks[0]->send_wire(1, 7, util::Bytes(20, 0));
  });
  h.world->run();
  EXPECT_EQ(h.stacks[0]->wire_counters(7).messages_sent, 2u);
  EXPECT_EQ(h.stacks[0]->wire_counters(7).bytes_sent, 32u);  // + 2 headers
  EXPECT_EQ(h.stacks[1]->wire_counters(7).messages_received, 2u);
  h.stacks[0]->reset_wire_counters();
  EXPECT_EQ(h.stacks[0]->wire_counters(7).messages_sent, 0u);
}

TEST(Stack, CrossingCostChargedToCpu) {
  // Two identical raises, one stack with crossing cost, one without: the
  // costed stack's CPU must accumulate busy time.
  Harness free_h(2, 0);
  Harness paid_h(2, util::microseconds(10));
  for (auto* h : {&free_h, &paid_h}) {
    h->stacks[0]->bind(kTestEvent, [](const Event&) {});
    h->world->simulator().at(0, [h] {
      h->stacks[0]->raise(Event::local(kTestEvent, IntBody{1}));
      h->stacks[0]->raise(Event::local(kTestEvent, IntBody{2}));
    });
    h->world->run();
  }
  EXPECT_EQ(free_h.world->cpu(0).busy_time(), 0);
  EXPECT_EQ(paid_h.world->cpu(0).busy_time(), util::microseconds(20));
}

TEST(Stack, ModulesStartInAddOrder) {
  class Probe : public Module {
   public:
    Probe(std::string name, std::vector<std::string>& log)
        : name_(std::move(name)), log_(&log) {}
    std::string_view name() const override { return name_; }
    void init(Stack&) override { log_->push_back("init:" + name_); }
    void start() override { log_->push_back("start:" + name_); }

   private:
    std::string name_;
    std::vector<std::string>* log_;
  };

  Harness h;
  std::vector<std::string> log;
  Probe a("a", log), b("b", log);
  h.stacks[0]->add(a);
  h.stacks[0]->add(b);
  h.world->start();
  h.world->run();
  EXPECT_EQ(log, (std::vector<std::string>{"init:a", "init:b", "start:a",
                                           "start:b"}));
}

TEST(Event, LocalBodyIsTyped) {
  Event ev = Event::local(kTestEvent, IntBody{42});
  EXPECT_EQ(ev.type, kTestEvent);
  EXPECT_EQ(ev.as<IntBody>().value, 42);
}

// The body lives inside the Event for exactly its dispatch: a handler sees
// it, and it is released when raise() returns.
TEST(Event, InlineBodyIsReleasedWithTheEvent) {
  Harness h(1);
  const util::Payload value(util::Bytes(64, 7));
  long seen_uses = 0;
  h.stacks[0]->bind(kEvDecide, [&](const Event& ev) {
    auto& body = ev.as<ConsensusValueBody>();
    EXPECT_EQ(body.instance, 9u);
    EXPECT_TRUE(body.value.shares_buffer(value));
    seen_uses = value.use_count();
  });
  h.stacks[0]->raise(Event::local(kEvDecide, ConsensusValueBody{9, value}));
  EXPECT_EQ(seen_uses, 2);  // the body held its view during dispatch
  EXPECT_EQ(value.use_count(), 1);
}

}  // namespace
}  // namespace modcast::framework
