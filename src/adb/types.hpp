// ADB service layer: message identity and batch wire format shared by both
// atomic broadcast implementations (the data format is not protocol logic,
// so sharing it keeps the modular/monolithic comparison apples-to-apples).
// Lives outside src/abcast so the monolithic stack never includes modular
// stack headers — modcheck enforces that boundary.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace modcast::adb {

/// Globally unique id of an abcast message: (origin process, per-origin seq).
struct MsgId {
  util::ProcessId origin = util::kInvalidProcess;
  std::uint64_t seq = 0;

  friend auto operator<=>(const MsgId&, const MsgId&) = default;
};

/// An application message travelling through atomic broadcast. The payload
/// is a view: decoded messages share the buffer of the frame they arrived
/// in, so pooling, forwarding and proposing a message copy no bytes.
struct AppMessage {
  MsgId id;
  util::Payload payload;
};

/// A message read in place from a buffer someone else holds: the apply path
/// decodes a decided batch into these, so delivering it neither allocates
/// nor touches the buffer's (thread-shared) reference count.
struct MessageView {
  MsgId id;
  std::span<const std::uint8_t> payload;
};

/// A batch as the pool hands it out: references to pooled messages, never
/// copies. Valid until the pool next changes.
using BatchView = std::span<const std::reference_wrapper<const AppMessage>>;

/// Serializes one message (id + length-prefixed payload).
void encode_message(util::ByteWriter& w, const AppMessage& m);
/// Decodes one message from `frame`, starting at r's position (r reads
/// frame). The payload is a slice of frame: no bytes are copied.
AppMessage decode_message(const util::Payload& frame, util::ByteReader& r);

/// Size in bytes encode_message will produce (for size accounting).
std::size_t encoded_size(const AppMessage& m);

/// Sum of a batch's app payload sizes (what a send carries for the trace).
/// `Batch` is any range of AppMessage: a vector, the pool's BatchView.
template <typename Batch>
std::size_t payload_bytes(const Batch& batch) {
  std::size_t bytes = 0;
  for (const AppMessage& m : batch) bytes += m.payload.size();
  return bytes;
}

/// Size in bytes encode_batch will produce.
template <typename Batch>
std::size_t encoded_batch_size(const Batch& batch) {
  std::size_t total = 4;
  for (const AppMessage& m : batch) total += encoded_size(m);
  return total;
}

/// Serializes a batch: count followed by messages. Batches are the values
/// consensus agrees on; they carry full payloads so a process that missed
/// the original diffusion still obtains the message content. `Batch` is
/// any sized range of AppMessage, so the pool's references encode as they
/// are.
template <typename Batch>
void encode_batch(util::ByteWriter& w, const Batch& batch) {
  w.u32(static_cast<std::uint32_t>(std::size(batch)));
  for (const AppMessage& m : batch) encode_message(w, m);
}
/// The same batch as an owned buffer of exactly its encoded size.
util::Bytes encode_batch(const std::vector<AppMessage>& batch);
/// Decodes the batch that starts at r's position in `frame` (r reads
/// frame). Each payload is a slice of frame.
std::vector<AppMessage> decode_batch(const util::Payload& frame,
                                     util::ByteReader& r);
/// Decodes a batch in place into `out` (cleared first, capacity kept): each
/// payload is a span of `data`, valid while data is.
void decode_batch(std::span<const std::uint8_t> data,
                  std::vector<MessageView>& out);

/// Id-only batch codec, used by the indirect-consensus variant ([12],
/// Ekwall & Schiper DSN'06): consensus agrees on 12-byte message ids while
/// payloads travel only via diffusion.
util::Bytes encode_id_batch(const std::vector<MsgId>& ids);
std::vector<MsgId> decode_id_batch(std::span<const std::uint8_t> data);

}  // namespace modcast::adb
