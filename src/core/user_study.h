// The two-week user study (§7, Table 5 / Table 6): a Monte-Carlo population
// of volunteers — 4G-capable and 3G-only phones split across the two
// carriers — living on the simulated testbed for `days` days. Occurrences
// of S1-S6 are produced by the *mechanisms* in the stack (PDP deactivations
// while camping on 3G, CSFB returns, update/call collisions during drives,
// shared-channel calls), not by sampling outcome labels. The behaviour
// rates (calls, switches and restarts per user-day, data-on odds, call and
// drive lengths) are fixed in user_study.cc, calibrated to the paper's §7
// counts; the config picks only the population, its length and the seed.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/findings.h"
#include "util/stats.h"

namespace cnv::core {

struct UserStudyConfig {
  int users = 20;
  int users_with_4g = 12;  // the paper's 12 4G-capable phones
  int days = 14;
  std::uint64_t seed = 2014;
};

struct FindingStats {
  int occurrences = 0;
  int opportunities = 0;

  double Rate() const {
    return opportunities == 0
               ? 0.0
               : static_cast<double>(occurrences) / opportunities;
  }
};

struct UserStudyResult {
  // Aggregate activity (the §7 headline counts).
  int csfb_calls = 0;
  int cs_calls_3g = 0;
  int inter_system_switches = 0;
  int attaches = 0;

  std::array<FindingStats, 6> per_finding;  // indexed by FindingId

  // Table 6: time in 3G after the CSFB call ends, per carrier.
  Samples stuck_seconds_op1;
  Samples stuck_seconds_op2;
  // S5 row: affected data per call with ongoing traffic.
  Samples affected_data_mb;
  Samples call_durations_s;

  FindingStats& Stats(FindingId id) {
    return per_finding[static_cast<std::size_t>(id)];
  }
  const FindingStats& Stats(FindingId id) const {
    return per_finding[static_cast<std::size_t>(id)];
  }
};

class UserStudy {
 public:
  explicit UserStudy(UserStudyConfig config = UserStudyConfig{});

  UserStudyResult Run() const;

  // Renders the Table 5 rows (observed / occurrence probability).
  static std::string FormatTable5(const UserStudyResult& r);
  // Renders the Table 6 rows (duration in 3G after CSFB call ends).
  static std::string FormatTable6(const UserStudyResult& r);

 private:
  UserStudyConfig config_;
};

}  // namespace cnv::core
