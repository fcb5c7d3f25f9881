#include "nas/ids.h"

#include "util/strings.h"

namespace cnv::nas {

std::string ToString(System s) { return std::string(SystemName(s)); }

std::string_view SystemName(System s) {
  switch (s) {
    case System::kNone:
      return "none";
    case System::k3G:
      return "3G";
    case System::k4G:
      return "4G";
  }
  return "?";
}

std::string ToString(const Lai& lai) {
  return Format("LAI(%u,%u)", lai.plmn.id, lai.lac);
}

std::string ToString(const Rai& rai) {
  return Format("RAI(%u,%u,%u)", rai.lai.plmn.id, rai.lai.lac, rai.rac);
}

std::string ToString(const Tai& tai) {
  return Format("TAI(%u,%u)", tai.plmn.id, tai.tac);
}

std::string ToString(const CellId& cell) {
  return Format("%s-cell-%u", ToString(cell.system).c_str(), cell.id);
}

std::string ToString(const Imsi& imsi) {
  return Format("IMSI%llu", static_cast<unsigned long long>(imsi.value));
}

std::size_t HashValue(const Imsi& imsi) {
  return mck::Hasher().Mix(static_cast<std::uint64_t>(imsi.value)).Digest();
}

}  // namespace cnv::nas
