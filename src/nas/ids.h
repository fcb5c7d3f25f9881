// 3GPP identities used across the stack: PLMN, location/routing/tracking
// areas, cell and subscriber identities. These are the keys under which the
// network elements (MSC / SGSN / MME / HSS) store registration state.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "mck/hash.h"

namespace cnv::nas {

// Which radio system a cell or procedure belongs to (Figure 1).
enum class System : std::uint8_t { kNone, k3G, k4G };

std::string ToString(System s);
// The same token as a view into static storage ("none", "3G", "4G").
std::string_view SystemName(System s);

// Public Land Mobile Network: a carrier. The experiments use two, OP-I and
// OP-II, matching the paper's anonymized US operators.
struct Plmn {
  std::uint16_t id = 0;
  auto operator<=>(const Plmn&) const = default;
};

// Location Area (3G CS domain, managed by the MSC).
struct Lai {
  Plmn plmn;
  std::uint16_t lac = 0;
  auto operator<=>(const Lai&) const = default;
};

// Routing Area (3G PS domain, managed by the SGSN / 3G gateways).
struct Rai {
  Lai lai;
  std::uint8_t rac = 0;
  auto operator<=>(const Rai&) const = default;
};

// Tracking Area (4G, managed by the MME).
struct Tai {
  Plmn plmn;
  std::uint16_t tac = 0;
  auto operator<=>(const Tai&) const = default;
};

// A cell: one sector of one base station of one system.
struct CellId {
  System system = System::kNone;
  std::uint32_t id = 0;
  auto operator<=>(const CellId&) const = default;
};

// Subscriber identity (IMSI, abbreviated).
struct Imsi {
  std::uint64_t value = 0;
  auto operator<=>(const Imsi&) const = default;
};

std::string ToString(const Lai& lai);
std::string ToString(const Rai& rai);
std::string ToString(const Tai& tai);
std::string ToString(const CellId& cell);
std::string ToString(const Imsi& imsi);

std::size_t HashValue(const Imsi& imsi);

}  // namespace cnv::nas
