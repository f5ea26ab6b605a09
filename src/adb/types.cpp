#include "adb/types.hpp"

namespace modcast::adb {

void encode_message(util::ByteWriter& w, const AppMessage& m) {
  w.u32(m.id.origin);
  w.u64(m.id.seq);
  w.blob(m.payload);
}

AppMessage decode_message(const util::Payload& frame, util::ByteReader& r) {
  AppMessage m;
  m.id.origin = r.u32();
  m.id.seq = r.u64();
  const std::uint32_t len = r.u32();
  m.payload = frame.slice(r.position(), len);
  r.skip(len);
  return m;
}

std::size_t encoded_size(const AppMessage& m) {
  return 4 + 8 + 4 + m.payload.size();
}

util::Bytes encode_batch(const std::vector<AppMessage>& batch) {
  util::ByteWriter w(encoded_batch_size(batch));
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const auto& m : batch) encode_message(w, m);
  return w.take();
}

namespace {
/// Rejects a batch count a corrupt buffer cannot possibly hold before
/// anything is reserved for it: each message needs at least 16 bytes (id +
/// empty payload's length prefix).
void check_batch_count(std::uint32_t count, const util::ByteReader& r) {
  if (count > r.remaining() / 16) {
    throw util::DecodeError("decode_batch: implausible batch count " +
                            std::to_string(count));
  }
}
}  // namespace

std::vector<AppMessage> decode_batch(const util::Payload& frame,
                                     util::ByteReader& r) {
  const std::uint32_t count = r.u32();
  check_batch_count(count, r);
  std::vector<AppMessage> batch;
  batch.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    batch.push_back(decode_message(frame, r));
  }
  return batch;
}

void decode_batch(std::span<const std::uint8_t> data,
                  std::vector<MessageView>& out) {
  util::ByteReader r(data);
  const std::uint32_t count = r.u32();
  check_batch_count(count, r);
  out.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    MessageView m;
    m.id.origin = r.u32();
    m.id.seq = r.u64();
    const std::uint32_t len = r.u32();
    const std::size_t at = r.position();
    r.skip(len);
    m.payload = data.subspan(at, len);
    out.push_back(m);
  }
}

util::Bytes encode_id_batch(const std::vector<MsgId>& ids) {
  util::ByteWriter w(4 + ids.size() * 12);
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const MsgId& id : ids) {
    w.u32(id.origin);
    w.u64(id.seq);
  }
  return w.take();
}

std::vector<MsgId> decode_id_batch(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 12) {
    throw util::DecodeError("decode_id_batch: implausible count " +
                            std::to_string(count));
  }
  std::vector<MsgId> ids;
  ids.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    MsgId id;
    id.origin = r.u32();
    id.seq = r.u64();
    ids.push_back(id);
  }
  return ids;
}

}  // namespace modcast::adb
