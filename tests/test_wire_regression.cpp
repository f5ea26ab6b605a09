// Byte-level wire regression tests.
//
// wirecheck (tools/wirecheck) proves encoder/decoder call sequences agree
// statically; these tests pin the actual on-the-wire bytes of every
// module's messages so an accidental field reorder, width change, or header
// renumbering fails loudly. Each golden array is written out byte by byte
// (little-endian) — if one of these breaks, the protocol version changed
// and every trace/benchmark byte count shifts with it.
//
// Also covers the ByteReader bounds-check hardening: every read width
// throws TruncatedReadError naming the exact offset, requested width, and
// remaining bytes.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "abcast/modular_abcast.hpp"
#include "adb/types.hpp"
#include "channel/reliable_channel.hpp"
#include "consensus/chandra_toueg.hpp"
#include "fd/heartbeat_fd.hpp"
#include "framework/event.hpp"
#include "framework/stack.hpp"
#include "monolithic/monolithic_abcast.hpp"
#include "rbcast/reliable_bcast.hpp"
#include "util/bytes.hpp"

namespace modcast {
namespace {

using util::Bytes;
using util::ByteReader;
using util::DecodeError;
using util::Payload;
using util::TruncatedReadError;

/// Single-process runtime that records every send verbatim and holds timers
/// without firing them: what a module hands to send() IS the wire format.
class RecordingRuntime final : public runtime::Runtime {
 public:
  RecordingRuntime(util::ProcessId self, std::size_t n)
      : self_(self), n_(n) {}

  util::ProcessId self() const override { return self_; }
  std::size_t group_size() const override { return n_; }
  util::TimePoint now() const override { return 0; }
  void send(util::ProcessId to, util::Payload msg) override {
    sent.emplace_back(to, msg.to_bytes());
  }
  runtime::TimerId set_timer(util::Duration,
                             std::function<void()> fn) override {
    timers.emplace(next_timer_, std::move(fn));
    return next_timer_++;
  }
  void cancel_timer(runtime::TimerId id) override { timers.erase(id); }
  util::Rng& rng() override { return rng_; }

  std::vector<std::pair<util::ProcessId, Bytes>> sent;
  std::map<runtime::TimerId, std::function<void()>> timers;

 private:
  util::ProcessId self_;
  std::size_t n_;
  util::Rng rng_{42};
  runtime::TimerId next_timer_ = 1;
};

// ---------------------------------------------------------------------------
// Module wire formats (encode direction: recorded frames vs golden bytes)
// ---------------------------------------------------------------------------

TEST(WireFormat, FdHeartbeatFrame) {
  RecordingRuntime rt(0, 3);
  framework::Stack stack(rt);
  fd::HeartbeatFd fd;
  stack.add(fd);
  stack.start();  // first tick() sends immediately
  ASSERT_GE(rt.sent.size(), 2u);
  const Bytes expected = {
      0x04,  // kModFd demux header
      0x01,  // kHeartbeat
  };
  EXPECT_EQ(rt.sent[0].second, expected);
  EXPECT_EQ(rt.sent[1].second, expected);
}

TEST(WireFormat, RbcastMessageFrame) {
  RecordingRuntime rt(0, 3);
  framework::Stack stack(rt);
  rbcast::ReliableBcast rb;
  stack.add(rb);
  stack.start();
  rb.rbcast(Payload(Bytes{0xAB, 0xCD}));
  ASSERT_GE(rt.sent.size(), 2u);  // to processes 1 and 2
  const Bytes expected = {
      0x03,                                            // kModRbcast
      0x00, 0x00, 0x00, 0x00,                          // origin = 0 (u32)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq = 0 (u64)
      0x02, 0x00, 0x00, 0x00,                          // blob length = 2
      0xAB, 0xCD,                                      // payload
  };
  EXPECT_EQ(rt.sent[0].second, expected);
}

TEST(WireFormat, ChannelDataSegment) {
  RecordingRuntime rt(0, 3);
  channel::ChannelConfig cc;
  channel::ReliableChannel ch(rt, cc);
  ch.send(1, Payload(Bytes{0xAB, 0xCD}));
  ASSERT_EQ(rt.sent.size(), 1u);
  EXPECT_EQ(rt.sent[0].first, 1u);
  const Bytes expected = {
      0x01,                    // kData
      0x00, 0x00, 0x00, 0x00,  // seq = 0 (u32)
      0x00, 0x00, 0x00, 0x00,  // piggybacked cumulative ack = 0 (u32)
      0xAB, 0xCD,              // payload (raw, no length prefix)
  };
  EXPECT_EQ(rt.sent[0].second, expected);
}

TEST(WireFormat, ChannelAckSegmentAndDataDecode) {
  RecordingRuntime rt(0, 3);
  channel::ChannelConfig cc;
  cc.ack_delay = 0;  // ack immediately so the frame is observable
  channel::ReliableChannel ch(rt, cc);

  // Decode direction: feed the golden kData segment from process 1...
  const Bytes data_segment = {
      0x01,                    // kData
      0x00, 0x00, 0x00, 0x00,  // seq = 0
      0x00, 0x00, 0x00, 0x00,  // ack = 0
      0xEE, 0xFF,              // payload
  };
  struct Sink final : public runtime::Protocol {
    void on_message(util::ProcessId from, Payload msg) override {
      received.emplace_back(from, msg.to_bytes());
    }
    std::vector<std::pair<util::ProcessId, Bytes>> received;
  } sink;
  ch.set_upper(&sink);
  ch.on_message(1, Payload(data_segment));

  // ...the payload comes out byte-identical...
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].second, (Bytes{0xEE, 0xFF}));

  // ...and the immediate ack uses the golden kAck layout.
  ASSERT_EQ(rt.sent.size(), 1u);
  EXPECT_EQ(rt.sent[0].first, 1u);
  const Bytes expected_ack = {
      0x02,                    // kAck
      0x01, 0x00, 0x00, 0x00,  // cumulative ack = 1 (u32)
  };
  EXPECT_EQ(rt.sent[0].second, expected_ack);
}

TEST(WireFormat, ConsensusProposalFrame) {
  RecordingRuntime rt(0, 3);  // process 0 coordinates round 1
  framework::Stack stack(rt);
  consensus::ChandraTouegConsensus cons;
  stack.add(cons);
  stack.start();
  cons.propose(0, Bytes{0x11});
  ASSERT_GE(rt.sent.size(), 2u);  // proposal fan-out to 1 and 2
  const Bytes expected = {
      0x02,                                            // kModConsensus
      0x02,                                            // kProposal
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // instance k = 0
      0x01, 0x00, 0x00, 0x00,                          // round = 1 (u32)
      0x01, 0x00, 0x00, 0x00,                          // blob length = 1
      0x11,                                            // value
  };
  EXPECT_EQ(rt.sent[0].second, expected);
}

TEST(WireFormat, ConsensusAckFrameFromProposalDecode) {
  RecordingRuntime rt(1, 3);  // participant: coordinator of round 1 is 0
  framework::Stack stack(rt);
  consensus::ChandraTouegConsensus cons;
  stack.add(cons);
  stack.start();
  // Decode direction: golden kProposal frame for instance 5 from process 0.
  const Bytes proposal = {
      0x02,                                            // kModConsensus
      0x02,                                            // kProposal
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // instance k = 5
      0x01, 0x00, 0x00, 0x00,                          // round = 1
      0x01, 0x00, 0x00, 0x00,                          // blob length = 1
      0x11,                                            // value
  };
  stack.on_message(0, Payload(proposal));
  // The participant adopts the value and acks the coordinator.
  ASSERT_EQ(rt.sent.size(), 1u);
  EXPECT_EQ(rt.sent[0].first, 0u);
  const Bytes expected_ack = {
      0x02,                                            // kModConsensus
      0x03,                                            // kAck
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // instance k = 5
      0x01, 0x00, 0x00, 0x00,                          // round = 1
  };
  EXPECT_EQ(rt.sent[0].second, expected_ack);
}

TEST(WireFormat, ModularAbcastDiffuseFrame) {
  RecordingRuntime rt(0, 3);
  framework::Stack stack(rt);
  abcast::ModularAbcast ab;
  stack.add(ab);
  stack.start();
  ab.abcast(Bytes{0x42});
  ASSERT_GE(rt.sent.size(), 2u);  // diffusion to 1 and 2
  const Bytes expected = {
      0x01,                                            // kModAbcast
      0x01,                                            // kDiffuse
      0x00, 0x00, 0x00, 0x00,                          // origin = 0 (u32)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq = 0 (u64)
      0x01, 0x00, 0x00, 0x00,                          // blob length = 1
      0x42,                                            // payload
  };
  EXPECT_EQ(rt.sent[0].second, expected);
}

TEST(WireFormat, MonolithicCombinedFrame) {
  RecordingRuntime rt(0, 3);  // process 0 is the initial coordinator
  framework::Stack stack(rt);
  monolithic::MonolithicAbcast mono;
  stack.add(mono);
  stack.start();
  mono.abcast(Bytes{0x42});
  ASSERT_GE(rt.sent.size(), 2u);  // combined proposal to 1 and 2
  const Bytes expected = {
      0x05,                                            // kModMonolithic
      0x01,                                            // kCombined
      0x00,                                            // flags: no decision
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // instance k = 0
      // proposal value: an adb batch of one message
      0x01, 0x00, 0x00, 0x00,                          // batch count = 1
      0x00, 0x00, 0x00, 0x00,                          // origin = 0 (u32)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq = 0 (u64)
      0x01, 0x00, 0x00, 0x00,                          // blob length = 1
      0x42,                                            // payload
  };
  EXPECT_EQ(rt.sent[0].second, expected);
}

// A multi-message adb::Batch rides a consensus proposal through the modular
// stack: the participant decodes the golden frame and acks, proving the
// batch payload is opaque to consensus and the frame layout is unchanged by
// batching (only the value blob grew).
TEST(WireFormat, ConsensusProposalWithMultiMessageBatchDecodesAndAcks) {
  // Batch of two app messages: (origin 0, seq 0, 1 B) and (origin 2, seq 3,
  // 2 B) — 4-byte count then each message in adb::encode_message layout.
  const Bytes batch = {
      0x02, 0x00, 0x00, 0x00,                          // batch count = 2
      0x00, 0x00, 0x00, 0x00,                          // m1 origin = 0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // m1 seq = 0
      0x01, 0x00, 0x00, 0x00,                          // m1 blob length = 1
      0x42,                                            // m1 payload
      0x02, 0x00, 0x00, 0x00,                          // m2 origin = 2
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // m2 seq = 3
      0x02, 0x00, 0x00, 0x00,                          // m2 blob length = 2
      0xAB, 0xCD,                                      // m2 payload
  };
  ASSERT_EQ(batch.size(), 39u);

  RecordingRuntime rt(1, 3);  // participant: coordinator of round 1 is 0
  framework::Stack stack(rt);
  consensus::ChandraTouegConsensus cons;
  stack.add(cons);
  stack.start();
  Bytes proposal = {
      0x02,                                            // kModConsensus
      0x02,                                            // kProposal
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // instance k = 2
      0x01, 0x00, 0x00, 0x00,                          // round = 1
      0x27, 0x00, 0x00, 0x00,                          // blob length = 39
  };
  proposal.insert(proposal.end(), batch.begin(), batch.end());
  stack.on_message(0, Payload(proposal));

  ASSERT_EQ(rt.sent.size(), 1u);
  EXPECT_EQ(rt.sent[0].first, 0u);
  const Bytes expected_ack = {
      0x02,                                            // kModConsensus
      0x03,                                            // kAck
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // instance k = 2
      0x01, 0x00, 0x00, 0x00,                          // round = 1
  };
  EXPECT_EQ(rt.sent[0].second, expected_ack);
}

// The same two-message batch inside a monolithic kCombined proposal: the
// participant decodes it and acks the coordinator (empty piggyback batch).
TEST(WireFormat, MonolithicCombinedWithMultiMessageBatchDecodesAndAcks) {
  RecordingRuntime rt(1, 3);  // participant: coordinator of round 1 is 0
  framework::Stack stack(rt);
  monolithic::MonolithicAbcast mono;
  stack.add(mono);
  stack.start();
  const Bytes combined = {
      0x05,                                            // kModMonolithic
      0x01,                                            // kCombined
      0x00,                                            // flags: no decision
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // instance k = 0
      // proposal value: an adb batch of two messages (raw, no blob prefix)
      0x02, 0x00, 0x00, 0x00,                          // batch count = 2
      0x00, 0x00, 0x00, 0x00,                          // m1 origin = 0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // m1 seq = 0
      0x01, 0x00, 0x00, 0x00,                          // m1 blob length = 1
      0x42,                                            // m1 payload
      0x02, 0x00, 0x00, 0x00,                          // m2 origin = 2
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // m2 seq = 3
      0x02, 0x00, 0x00, 0x00,                          // m2 blob length = 2
      0xAB, 0xCD,                                      // m2 payload
  };
  stack.on_message(0, Payload(combined));

  ASSERT_EQ(rt.sent.size(), 1u);
  EXPECT_EQ(rt.sent[0].first, 0u);
  const Bytes expected_ack = {
      0x05,                                            // kModMonolithic
      0x02,                                            // kAck
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // instance k = 0
      0x01, 0x00, 0x00, 0x00,                          // round = 1
      0x00, 0x00, 0x00, 0x00,                          // piggyback count = 0
  };
  EXPECT_EQ(rt.sent[0].second, expected_ack);
}

TEST(WireFormat, RbcastFrameDecodesThroughStackDemux) {
  RecordingRuntime rt(1, 3);
  framework::Stack stack(rt);
  rbcast::ReliableBcast rb;
  stack.add(rb);
  std::vector<std::pair<util::ProcessId, Bytes>> rdelivered;
  stack.bind(framework::kEvRdeliver, [&](const framework::Event& ev) {
    const auto& body = ev.as<framework::RdeliverBody>();
    rdelivered.emplace_back(body.origin, body.payload.to_bytes());
  });
  stack.start();
  const Bytes frame = {
      0x03,                                            // kModRbcast
      0x00, 0x00, 0x00, 0x00,                          // origin = 0
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq = 7
      0x02, 0x00, 0x00, 0x00,                          // blob length = 2
      0xAB, 0xCD,                                      // payload
  };
  stack.on_message(0, Payload(frame));
  ASSERT_EQ(rdelivered.size(), 1u);
  EXPECT_EQ(rdelivered[0].first, 0u);
  EXPECT_EQ(rdelivered[0].second, (Bytes{0xAB, 0xCD}));
}

// ---------------------------------------------------------------------------
// adb codec golden bytes
// ---------------------------------------------------------------------------

TEST(WireFormat, AdbMessageBatchAndIdBatch) {
  adb::AppMessage m;
  m.id = adb::MsgId{7, 9};
  m.payload = Bytes{0xAA};

  util::ByteWriter w;
  adb::encode_message(w, m);
  const Bytes msg_expected = {
      0x07, 0x00, 0x00, 0x00,                          // origin = 7
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq = 9
      0x01, 0x00, 0x00, 0x00,                          // blob length = 1
      0xAA,
  };
  EXPECT_EQ(w.bytes(), msg_expected);

  Bytes batch = adb::encode_batch({m});
  Bytes batch_expected = {0x01, 0x00, 0x00, 0x00};  // count = 1
  batch_expected.insert(batch_expected.end(), msg_expected.begin(),
                        msg_expected.end());
  EXPECT_EQ(batch, batch_expected);
  const util::Payload frame(batch);
  util::ByteReader r(frame);
  const auto decoded = adb::decode_batch(frame, r);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].id.origin, 7u);
  EXPECT_EQ(decoded[0].id.seq, 9u);
  EXPECT_EQ(decoded[0].payload, m.payload);

  const Bytes ids = adb::encode_id_batch({m.id});
  const Bytes ids_expected = {
      0x01, 0x00, 0x00, 0x00,                          // count = 1
      0x07, 0x00, 0x00, 0x00,                          // origin = 7
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq = 9
  };
  EXPECT_EQ(ids, ids_expected);
}

// ---------------------------------------------------------------------------
// ByteReader truncation hardening: every width names offset/requested/have
// ---------------------------------------------------------------------------

/// Runs `read` against `data` and asserts the TruncatedReadError fields.
void expect_truncated(const Bytes& data, std::size_t offset,
                      std::size_t requested, std::size_t available,
                      const std::function<void(ByteReader&)>& read) {
  ByteReader r(data);
  try {
    read(r);
    FAIL() << "expected TruncatedReadError";
  } catch (const TruncatedReadError& e) {
    EXPECT_EQ(e.offset(), offset) << e.what();
    EXPECT_EQ(e.requested(), requested) << e.what();
    EXPECT_EQ(e.available(), available) << e.what();
  }
}

TEST(TruncatedRead, EveryFixedWidth) {
  expect_truncated({}, 0, 1, 0, [](ByteReader& r) { r.u8(); });
  expect_truncated({0x01}, 0, 2, 1, [](ByteReader& r) { r.u16(); });
  expect_truncated({0x01, 0x02, 0x03}, 0, 4, 3,
                   [](ByteReader& r) { r.u32(); });
  expect_truncated({0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}, 0, 8, 7,
                   [](ByteReader& r) { r.u64(); });
  expect_truncated({0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}, 0, 8, 7,
                   [](ByteReader& r) { r.i64(); });
  expect_truncated({0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}, 0, 8, 7,
                   [](ByteReader& r) { r.f64(); });
}

TEST(TruncatedRead, VarintAndLengthPrefixed) {
  expect_truncated({}, 0, 1, 0, [](ByteReader& r) { r.varint(); });
  // Continuation bit set, next byte missing.
  expect_truncated({0x80}, 1, 1, 0, [](ByteReader& r) { r.varint(); });
  // blob/str: length prefix says 5, only 2 bytes follow.
  expect_truncated({0x05, 0x00, 0x00, 0x00, 0xAA, 0xBB}, 4, 5, 2,
                   [](ByteReader& r) { r.blob(); });
  expect_truncated({0x05, 0x00, 0x00, 0x00, 0xAA, 0xBB}, 4, 5, 2,
                   [](ByteReader& r) { r.str(); });
  expect_truncated({0xAA, 0xBB}, 0, 3, 2, [](ByteReader& r) { r.raw(3); });
}

TEST(TruncatedRead, OffsetTracksMidStreamReads) {
  // One good u8, then a u32 with only 2 bytes left: the error names
  // offset 1, not 0.
  expect_truncated({0xFF, 0x01, 0x02}, 1, 4, 2, [](ByteReader& r) {
    r.u8();
    r.u32();
  });
}

TEST(TruncatedRead, IsADecodeError) {
  // Existing call sites catch DecodeError; the subclass must still match.
  ByteReader r(Bytes{});
  EXPECT_THROW(r.u32(), DecodeError);
  EXPECT_THROW(ByteReader(Bytes{}).u64(), TruncatedReadError);
}

}  // namespace
}  // namespace modcast
