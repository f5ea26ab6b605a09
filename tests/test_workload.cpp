// Unit tests: experiment harness (workload/experiment), ADB service wire
// types (adb/types) and the ordering front end's apply loop
// (adb/ordering).
#include "workload/experiment.hpp"

#include <gtest/gtest.h>

#include "adb/ordering.hpp"
#include "adb/types.hpp"

namespace modcast::workload {
namespace {

using util::seconds;

WorkloadConfig quick(double load, std::size_t size) {
  WorkloadConfig wl;
  wl.offered_load = load;
  wl.message_size = size;
  wl.warmup = seconds(1);
  wl.measure = seconds(2);
  return wl;
}

TEST(Experiment, LowLoadThroughputTracksOfferedLoad) {
  core::StackOptions stack;
  for (auto kind : {core::StackKind::kModular, core::StackKind::kMonolithic}) {
    stack.kind = kind;
    auto r = run_once(3, stack, quick(200, 512), 1);
    EXPECT_NEAR(r.throughput, 200.0, 12.0) << core::to_string(kind);
    EXPECT_GT(r.latencies_ms.count(), 100u);
    EXPECT_GT(r.latencies_ms.mean(), 0.0);
    EXPECT_LT(r.cpu_utilization, 0.9);
  }
}

TEST(Experiment, OverloadSaturatesBelowOffered) {
  core::StackOptions stack;
  stack.kind = core::StackKind::kModular;
  auto r = run_once(3, stack, quick(8000, 16384), 1);
  EXPECT_LT(r.throughput, 4000.0);
  EXPECT_GT(r.throughput, 100.0);
  EXPECT_GT(r.cpu_utilization, 0.5);  // the system is genuinely busy
  EXPECT_GT(r.avg_batch, 1.5);        // batching kicked in
}

TEST(Experiment, MetricsArePerConsensusConsistent) {
  core::StackOptions stack;
  stack.kind = core::StackKind::kMonolithic;
  auto r = run_once(3, stack, quick(2000, 1024), 1);
  ASSERT_GT(r.instances, 0u);
  // unique messages ≈ instances × avg batch.
  EXPECT_NEAR(static_cast<double>(r.unique_delivered),
              static_cast<double>(r.instances) * r.avg_batch,
              static_cast<double>(r.unique_delivered) * 0.10);
  EXPECT_GT(r.protocol_msgs_per_abcast, 0.0);
  EXPECT_GT(r.protocol_bytes_per_abcast, 1024.0);  // at least its own payload
}

TEST(Experiment, DeterministicPerSeed) {
  core::StackOptions stack;
  stack.kind = core::StackKind::kModular;
  auto a = run_once(3, stack, quick(500, 256), 42);
  auto b = run_once(3, stack, quick(500, 256), 42);
  EXPECT_EQ(a.unique_delivered, b.unique_delivered);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.latencies_ms.mean(), b.latencies_ms.mean());
}

TEST(Experiment, AggregateProducesConfidenceIntervals) {
  core::StackOptions stack;
  stack.kind = core::StackKind::kModular;
  auto agg = run_experiment(3, stack, quick(300, 256), 3);
  EXPECT_EQ(agg.latency_ms.count, 3u);
  EXPECT_EQ(agg.throughput.count, 3u);
  EXPECT_GT(agg.latency_ms.mean, 0.0);
  EXPECT_NEAR(agg.throughput.mean, 300.0, 15.0);
  // Different seeds differ slightly: a finite CI width is expected.
  EXPECT_GE(agg.latency_ms.half_width, 0.0);
}

}  // namespace
}  // namespace modcast::workload

namespace modcast::adb {
namespace {

TEST(AdbTypes, MessageRoundTrip) {
  AppMessage m;
  m.id = {4, 12345};
  m.payload = util::Bytes{9, 8, 7, 6};
  util::ByteWriter w;
  encode_message(w, m);
  EXPECT_EQ(w.size(), encoded_size(m));
  const util::Payload frame(w.take());
  util::ByteReader r(frame);
  AppMessage back = decode_message(frame, r);
  EXPECT_EQ(back.id, m.id);
  EXPECT_EQ(back.payload, m.payload);
  EXPECT_TRUE(back.payload.shares_buffer(frame));  // a slice, not a copy
  EXPECT_TRUE(r.done());
}

TEST(AdbTypes, BatchRoundTrip) {
  std::vector<AppMessage> batch;
  for (std::uint32_t i = 0; i < 5; ++i) {
    batch.push_back({{i, i * 100}, util::Bytes(i, static_cast<uint8_t>(i))});
  }
  const util::Payload encoded = encode_batch(batch);
  util::ByteReader r(encoded);
  auto decoded = decode_batch(encoded, r);
  ASSERT_EQ(decoded.size(), batch.size());
  std::vector<MessageView> views;
  decode_batch(encoded.span(), views);
  ASSERT_EQ(views.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded[i].id, batch[i].id);
    EXPECT_EQ(decoded[i].payload, batch[i].payload);
    EXPECT_EQ(views[i].id, batch[i].id);
    EXPECT_EQ(util::Payload(util::Bytes(views[i].payload.begin(),
                                        views[i].payload.end())),
              batch[i].payload);
  }
}

TEST(AdbTypes, EmptyBatch) {
  const util::Payload encoded = encode_batch({});
  EXPECT_EQ(encoded.size(), 4u);
  util::ByteReader r(encoded);
  EXPECT_TRUE(decode_batch(encoded, r).empty());
  std::vector<MessageView> views(3);
  decode_batch(encoded.span(), views);
  EXPECT_TRUE(views.empty());
}

TEST(AdbTypes, MsgIdOrdering) {
  EXPECT_LT((MsgId{0, 5}), (MsgId{1, 0}));
  EXPECT_LT((MsgId{1, 0}), (MsgId{1, 1}));
  EXPECT_EQ((MsgId{2, 3}), (MsgId{2, 3}));
}

TEST(AdbTypes, CorruptBatchThrows) {
  // Claims 4 billion messages.
  const util::Payload bad(util::Bytes{0xff, 0xff, 0xff, 0xff});
  util::ByteReader r(bad);
  EXPECT_THROW(decode_batch(bad, r), util::DecodeError);
  std::vector<MessageView> views;
  EXPECT_THROW(decode_batch(bad.span(), views), util::DecodeError);
}

// The apply loop delivers views into the decided value it holds, so a
// deliver handler that re-enters the front end must not replace that value
// or run a second loop: the instance being applied is refused, a later one
// is buffered, and a nested apply_ready leaves it to the running loop,
// which applies it next, in instance order.
TEST(AdbOrdering, DeliverHandlerReentryIsLeftToTheRunningApply) {
  Ordering ordering(OrderingConfig{});
  ordering.init(0);
  auto value = [](std::vector<AppMessage> batch) {
    return util::Payload(encode_batch(batch));
  };
  auto decode = [](const util::Payload& v, std::vector<MessageView>& out) {
    decode_batch(v.span(), out);
    return true;
  };
  auto nothing = [](const MessageView&) {};
  std::vector<std::pair<MsgId, std::uint8_t>> delivered;
  ordering.set_deliver_handler([&](util::ProcessId origin, std::uint64_t seq,
                                   std::span<const std::uint8_t> payload) {
    delivered.emplace_back(MsgId{origin, seq}, payload[0]);
    if (delivered.size() != 1) return;
    EXPECT_FALSE(ordering.add_decision(0, value({{{9, 9}, util::Bytes{9}}})));
    EXPECT_TRUE(ordering.add_decision(1, value({{{2, 0}, util::Bytes{3}}})));
    EXPECT_EQ(ordering.apply_ready(decode, nothing), 0);
  });
  ASSERT_TRUE(ordering.add_decision(
      0, value({{{1, 1}, util::Bytes{2}}, {{1, 0}, util::Bytes{1}}})));
  EXPECT_EQ(ordering.apply_ready(decode, nothing),
            2 * ordering.config().instance_overhead);
  const std::vector<std::pair<MsgId, std::uint8_t>> expected = {
      {{1, 0}, 1}, {{1, 1}, 2}, {{2, 0}, 3}};
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(ordering.next_decide(), 2u);
  EXPECT_EQ(ordering.buffered(), 0u);
  EXPECT_EQ(ordering.stats().delivered, 3u);
}

}  // namespace
}  // namespace modcast::adb
