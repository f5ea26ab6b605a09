// Unit tests: binary serialization (util/bytes).
#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace modcast::util {
namespace {

TEST(Bytes, RoundTripFixedWidth) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.25);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x04030201);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[1], 0x02);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x04);
}

TEST(Bytes, BlobAndStringRoundTrip) {
  ByteWriter w;
  Bytes payload = {1, 2, 3, 4, 5};
  w.blob(payload);
  w.str("hello, world");
  w.blob(Bytes{});  // empty blob

  ByteReader r(w.bytes());
  EXPECT_EQ(r.blob(), payload);
  EXPECT_EQ(r.str(), "hello, world");
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, RawHasNoLengthPrefix) {
  ByteWriter w;
  w.raw(Bytes{9, 8, 7});
  EXPECT_EQ(w.size(), 3u);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.raw(3), (Bytes{9, 8, 7}));
}

TEST(Bytes, VarintRoundTripBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ULL << 32) - 1,
                                  1ULL << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    ByteWriter w;
    w.varint(v);
    EXPECT_EQ(w.size(), varint_size(v)) << v;
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Bytes, VarintSizes) {
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_THROW(r.u16(), DecodeError);
}

TEST(Bytes, TruncatedBlobThrows) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.u8(1);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.blob(), DecodeError);
}

TEST(Bytes, MalformedVarintThrows) {
  // 11 continuation bytes: longer than any valid 64-bit varint.
  Bytes bad(11, 0x80);
  ByteReader r(bad);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Bytes, RestAndPosition) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  w.u8(3);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_EQ(r.position(), 1u);
  EXPECT_EQ(r.remaining(), 2u);
  auto rest = r.rest();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0], 2);
  EXPECT_EQ(rest[1], 3);
}

TEST(Bytes, TakeResetsWriter) {
  ByteWriter w;
  w.u32(5);
  Bytes b = w.take();
  EXPECT_EQ(b.size(), 4u);
  EXPECT_TRUE(w.empty());
}

TEST(Payload, CopySharesBufferWithoutCopyingBytes) {
  Payload p{Bytes(1024, 0x5a)};
  EXPECT_EQ(p.use_count(), 1);
  // n-way fan-out: every copy is a view of the same buffer.
  Payload a = p;
  Payload b = p;
  EXPECT_TRUE(a.shares_buffer(p));
  EXPECT_TRUE(b.shares_buffer(a));
  EXPECT_EQ(p.use_count(), 3);
  EXPECT_EQ(a.data(), p.data());
  EXPECT_EQ(a.size(), 1024u);
}

TEST(Payload, SliceIsZeroCopyView) {
  ByteWriter w;
  w.u8(7);          // header a consumer strips
  w.u32(0x1234);
  Payload whole{w.take()};
  Payload body = whole.slice(1);
  EXPECT_TRUE(body.shares_buffer(whole));
  EXPECT_EQ(body.size(), 4u);
  EXPECT_EQ(body.data(), whole.data() + 1);
  ByteReader r(body);
  EXPECT_EQ(r.u32(), 0x1234u);

  Payload mid = whole.slice(1, 2);
  EXPECT_EQ(mid.size(), 2u);
  EXPECT_TRUE(mid.shares_buffer(whole));
}

TEST(Payload, SliceOutOfRangeThrows) {
  Payload p{Bytes(4, 0)};
  EXPECT_THROW(p.slice(5), DecodeError);
  EXPECT_THROW(p.slice(2, 3), DecodeError);
  EXPECT_NO_THROW(p.slice(4));  // empty tail view is fine
}

TEST(Payload, ToBytesCopiesAndLeavesSharedBufferIntact) {
  Payload p{Bytes{1, 2, 3, 4}};
  Payload view = p.slice(1, 2);
  Bytes owned = view.to_bytes();  // the copy-on-write escape hatch
  EXPECT_EQ(owned, (Bytes{2, 3}));
  owned[0] = 99;  // mutating the copy must not touch the shared buffer
  EXPECT_EQ(p[1], 2);
  EXPECT_EQ(view.to_bytes(), (Bytes{2, 3}));
}

TEST(Payload, EqualityIsByteWise) {
  Payload a{Bytes{1, 2, 3}};
  Payload b{Bytes{1, 2, 3}};
  EXPECT_FALSE(a.shares_buffer(b));
  EXPECT_EQ(a, b);  // equal bytes in different buffers
  Payload framed{Bytes{9, 1, 2, 3, 9}};
  EXPECT_EQ(framed.slice(1, 3), a);  // ... and at a different offset
  EXPECT_NE(framed.slice(1, 2), a);  // a shorter view is not equal
  EXPECT_NE(framed.slice(0, 3), a);
  EXPECT_EQ(Payload{}, Payload{Bytes{}});  // with and without a buffer
}

TEST(Bytes, SkipConsumesAndThrowsPastTheEnd) {
  const Bytes data{1, 2, 3, 4, 5};
  ByteReader r(data);
  r.skip(2);
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(r.u8(), 3);
  try {
    r.skip(3);
    FAIL() << "expected TruncatedReadError";
  } catch (const TruncatedReadError& e) {
    EXPECT_EQ(e.offset(), 3u);
    EXPECT_EQ(e.requested(), 3u);
    EXPECT_EQ(e.available(), 2u);
  }
  EXPECT_EQ(r.position(), 3u);  // a failed skip consumes nothing
  r.skip(2);
  EXPECT_TRUE(r.done());
}

TEST(Payload, DetachStealsWhenSoleOwner) {
  Payload p{Bytes(256, 0xcd)};
  const std::uint8_t* before = p.data();
  Bytes out = p.detach();  // sole owner, full view: no copy
  EXPECT_EQ(out.data(), before);
  EXPECT_EQ(out.size(), 256u);
  EXPECT_TRUE(p.empty());

  // Shared: detach must copy, leaving the other view valid.
  Payload q{Bytes(8, 0x11)};
  Payload r = q;
  Bytes copied = r.detach();
  EXPECT_EQ(copied.size(), 8u);
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q[0], 0x11);
}

}  // namespace
}  // namespace modcast::util
