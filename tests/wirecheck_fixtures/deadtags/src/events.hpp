#pragma once
#include <cstdint>

namespace fix {

using EventType = std::uint16_t;
using ModuleId = std::uint8_t;

inline constexpr EventType kEvTick = 1;
inline constexpr EventType kEvOrphan = 2;   // raised, never bound
inline constexpr EventType kEvApp = 4;      // raised, application-facing
inline constexpr ModuleId kModCodec = 7;
inline constexpr ModuleId kModGhost = 8;    // sent, never bound

}  // namespace fix
