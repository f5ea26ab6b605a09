// Events exchanged between microprotocol modules.
//
// Mirrors the Cactus/Fortika composition model (§5.3.1 of the paper): modules
// never call each other directly; they raise named events that the stack
// dispatches to whatever modules registered interest. The body of a local
// event is a type-erased payload — a receiving module knows the agreed body
// type of an event it binds to, but can never reach into the *raising*
// module's state. This is exactly the black-box boundary whose cost the
// paper measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace modcast::framework {

/// Identifier of an inter-module event channel. Values are assigned in
/// event_types.hpp; modules agree on the id and the body type only.
using EventType = std::uint16_t;

/// Identifier of a module for network demultiplexing: every wire message of
/// a composed stack is prefixed with the destination module's id.
using ModuleId = std::uint8_t;

/// A local event: its type and a type-erased body stored inline. Raising is
/// synchronous (Stack::raise returns after every handler ran), so the body
/// lives exactly as long as its dispatch and needs no heap: every body type
/// fits kBodyCapacity bytes, which Event::local checks at compile time. An
/// Event is built in place where it is raised and never copied or moved.
class Event {
 public:
  /// The largest body: a consensus instance or origin beside a Payload view.
  static constexpr std::size_t kBodyCapacity = 40;

  template <typename T>
  static Event local(EventType type, T body_value) {
    return Event(type, std::move(body_value));
  }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { destroy_(storage()); }

  const EventType type;

  /// Returns the body as T. The binding contract of each event type fixes T;
  /// a mismatch is a wiring bug, so no runtime type check is performed.
  template <typename T>
  T& as() const {
    return *static_cast<T*>(storage());
  }

 private:
  template <typename T>
  Event(EventType event_type, T&& body)
      : type(event_type), destroy_([](void* b) noexcept {
          std::destroy_at(static_cast<T*>(b));
        }) {
    static_assert(sizeof(T) <= kBodyCapacity,
                  "event body exceeds Event::kBodyCapacity");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    std::construct_at(static_cast<T*>(storage()), std::move(body));
  }

  void* storage() const { return static_cast<void*>(body_); }

  alignas(std::max_align_t) mutable unsigned char body_[kBodyCapacity];
  void (*destroy_)(void* body) noexcept;
};

// ---------------------------------------------------------------------------
// Event-type and module-id registry for the atomic broadcast stacks.
// ---------------------------------------------------------------------------

// Inter-module local events (modular stack).
inline constexpr EventType kEvPropose = 10;   ///< ABcast -> Consensus
inline constexpr EventType kEvDecide = 11;    ///< Consensus -> ABcast
/// Consensus -> ABcast: an instance needs this process's initial value (a
/// recovery-round coordinator solicited participation) — please propose,
/// even an empty batch.
inline constexpr EventType kEvProposeRequest = 12;
/// ABcast -> Consensus: a previously-invalid proposal for this instance may
/// validate now (the extended consensus specification of indirect
/// consensus, Ekwall & Schiper DSN'06 — the paper's reference [12]).
inline constexpr EventType kEvRevalidate = 13;
inline constexpr EventType kEvRbcast = 20;    ///< Consensus -> RBcast
inline constexpr EventType kEvRdeliver = 21;  ///< RBcast -> Consensus
inline constexpr EventType kEvSuspect = 30;   ///< FD -> anyone
inline constexpr EventType kEvRestore = 31;   ///< FD -> anyone

// Module ids used as the wire-demux prefix.
inline constexpr ModuleId kModAbcast = 1;
inline constexpr ModuleId kModConsensus = 2;
inline constexpr ModuleId kModRbcast = 3;
inline constexpr ModuleId kModFd = 4;
inline constexpr ModuleId kModMonolithic = 5;

/// Body of kEvPropose / kEvDecide: a consensus instance number and an opaque
/// serialized value (the consensus module must not interpret it). Payload,
/// not Bytes: a decided value is a view of the frame it arrived in, shared
/// with the consensus module's decided store.
struct ConsensusValueBody {
  std::uint64_t instance = 0;
  util::Payload value;
};

/// Body of kEvProposeRequest.
struct ProposeRequestBody {
  std::uint64_t instance = 0;
};

/// Body of kEvRbcast: opaque payload to broadcast reliably. Payload, not
/// Bytes: the broadcast fans out to n-1 peers and the delivered view is a
/// zero-copy slice of the received wire message.
struct RbcastBody {
  util::Payload payload;
};

/// Body of kEvRdeliver: origin plus the opaque payload.
struct RdeliverBody {
  util::ProcessId origin = util::kInvalidProcess;
  util::Payload payload;
};

/// Body of kEvSuspect / kEvRestore.
struct SuspicionBody {
  util::ProcessId process = util::kInvalidProcess;
};

}  // namespace modcast::framework
