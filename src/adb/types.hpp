// ADB service layer: message identity and batch wire format shared by both
// atomic broadcast implementations (the data format is not protocol logic,
// so sharing it keeps the modular/monolithic comparison apples-to-apples).
// Lives outside src/abcast so the monolithic stack never includes modular
// stack headers — modcheck enforces that boundary.
#pragma once

#include <compare>
#include <cstdint>
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

/// An application message travelling through atomic broadcast.
struct AppMessage {
  MsgId id;
  util::Bytes payload;
};

/// Serializes one message (id + length-prefixed payload).
void encode_message(util::ByteWriter& w, const AppMessage& m);
AppMessage decode_message(util::ByteReader& r);

/// Serializes a batch: count followed by messages. Batches are the values
/// consensus agrees on; they carry full payloads so a process that missed
/// the original diffusion still obtains the message content.
util::Bytes encode_batch(const std::vector<AppMessage>& batch);
std::vector<AppMessage> decode_batch(std::span<const std::uint8_t> data);

/// Size in bytes encode_message will produce (for size accounting).
std::size_t encoded_size(const AppMessage& m);

/// Sum of a batch's app payload sizes (what a send carries for the trace).
std::size_t payload_bytes(const std::vector<AppMessage>& batch);

/// Id-only batch codec, used by the indirect-consensus variant ([12],
/// Ekwall & Schiper DSN'06): consensus agrees on 12-byte message ids while
/// payloads travel only via diffusion.
util::Bytes encode_id_batch(const std::vector<MsgId>& ids);
std::vector<MsgId> decode_id_batch(std::span<const std::uint8_t> data);

}  // namespace modcast::adb
