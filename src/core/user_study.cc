#include "core/user_study.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "stack/testbed.h"
#include "util/strings.h"

namespace cnv::core {

namespace {

using stack::Testbed;

// Behaviour rates, chosen to land near the paper's observed event counts
// (190 CSFB calls, ~146 3G CS calls, 436 switches, 30 attaches).
constexpr double kCsfbCallsPerUserDay = 1.15;      // 4G users
constexpr double kCsCallsPerUserDay = 0.35;        // 3G-only, + drive calls
constexpr double kExtraSwitchesPerUserDay = 0.11;  // roaming/carrier switches
constexpr double kRestartProbPerUserDay = 0.036;   // + power-ons: ~30 attaches
constexpr double kProbDataAtCsfbCall = 103.0 / 190;  // mobile data on at call
constexpr double kProbDataAtCsCall = 113.0 / 146;    // ongoing data at 3G calls
constexpr double kProbDataAtSwitch = 129.0 / 218;    // data on at 4G->3G switch
constexpr double kCallDurationMeanS = 67.0;          // §7, S5 row
// Drive-time mobility for 3G users: one drive per day; boundary crossings
// during the drive produce the S4 collisions.
constexpr double kDriveMinutesPerDay = 20.0;
constexpr double kCrossingIntervalMeanS = 90.0;

void RunUntil(Testbed& tb, const std::function<bool()>& pred,
              SimDuration limit) {
  const SimTime deadline = tb.sim().now() + limit;
  while (!pred() && tb.sim().now() < deadline) {
    tb.Run(Millis(200));
  }
}

// One simulated participant. Returns through the aggregate references.
struct Participant {
  const UserStudyConfig& cfg;
  UserStudyResult& agg;
  bool has_4g;
  bool on_op1;
  std::uint64_t seed;

  int switches_to_3g_with_data = 0;
  int csfb_with_data = 0;

  void Live() {
    stack::TestbedConfig tb_cfg;
    tb_cfg.profile = on_op1 ? stack::OpI() : stack::OpII();
    tb_cfg.seed = seed;
    Testbed tb(tb_cfg);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

    ++agg.attaches;  // the initial power-on attach
    tb.ue().PowerOn(has_4g ? nas::System::k4G : nas::System::k3G);
    tb.Run(Seconds(30));

    for (int day = 0; day < cfg.days; ++day) {
      LiveOneDay(tb, rng, day);
    }

    Harvest(tb);
  }

  // Builds and executes one day of activity in time order.
  void LiveOneDay(Testbed& tb, Rng& rng, int day) {
    struct Event {
      double at_s;  // seconds into the day
      char kind;    // 'c' call, 's' switch, 'r' restart, 'd' drive
    };
    std::vector<Event> events;

    const double calls = has_4g ? kCsfbCallsPerUserDay : kCsCallsPerUserDay;
    const int n_calls =
        std::max(0, static_cast<int>(std::round(rng.Normal(calls, 0.7))));
    for (int i = 0; i < n_calls; ++i) {
      // Phone calls happen during waking hours.
      events.push_back({rng.Uniform(8 * 3600.0, 22 * 3600.0), 'c'});
    }
    if (has_4g) {
      const int n_switches = rng.Bernoulli(kExtraSwitchesPerUserDay) ? 1 : 0;
      for (int i = 0; i < n_switches; ++i) {
        events.push_back({rng.Uniform(7 * 3600.0, 23 * 3600.0), 's'});
      }
    } else {
      events.push_back({rng.Uniform(8 * 3600.0, 18 * 3600.0), 'd'});
    }
    if (rng.Bernoulli(kRestartProbPerUserDay)) {
      events.push_back({rng.Uniform(7 * 3600.0, 23 * 3600.0), 'r'});
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.at_s < b.at_s; });

    const SimTime day_start = static_cast<SimTime>(day + 1) * kHour * 24;
    for (const Event& e : events) {
      const SimTime at = day_start + FromSeconds(e.at_s);
      if (at > tb.sim().now()) tb.sim().RunUntil(at);
      switch (e.kind) {
        case 'c':
          DoCall(tb, rng);
          break;
        case 's':
          DoRoamingSwitch(tb, rng);
          break;
        case 'r':
          DoRestart(tb);
          break;
        case 'd':
          DoDrive(tb, rng);
          break;
      }
    }
  }

  void DoCall(Testbed& tb, Rng& rng) {
    if (tb.ue().out_of_service()) return;
    const bool with_data =
        rng.Bernoulli(has_4g ? kProbDataAtCsfbCall : kProbDataAtCsCall);
    if (with_data && !tb.ue().data_session_active()) {
      // Mostly light background traffic, occasionally a heavy transfer
      // (the paper's largest affected call carried 18.5 MB).
      const double demand = rng.Bernoulli(0.05) ? rng.Uniform(0.5, 1.5)
                                                : rng.Uniform(0.01, 0.06);
      tb.ue().StartDataSession(demand);
      tb.Run(Seconds(2));
    }
    const bool session_at_dial = with_data || tb.ue().data_session_active();
    const bool is_csfb = has_4g && tb.ue().serving() == nas::System::k4G;
    if (is_csfb) {
      ++agg.csfb_calls;
      agg.inter_system_switches += 2;  // fallback + return
      if (session_at_dial) ++csfb_with_data;
    }
    tb.ue().Dial();
    RunUntil(tb,
             [&] {
               return tb.ue().call_state() ==
                          stack::UeDevice::CallState::kActive ||
                      tb.ue().call_state() ==
                          stack::UeDevice::CallState::kNone;
             },
             Minutes(2));
    if (tb.ue().call_state() == stack::UeDevice::CallState::kActive) {
      tb.Run(FromSeconds(
          std::max(5.0, rng.Exponential(kCallDurationMeanS))));
      // While the call holds the device on 3G, the network may deactivate
      // the PDP context (the S1 trigger, ~3.1% per switch with data).
      if (is_csfb && session_at_dial && tb.ue().serving() == nas::System::k3G &&
          rng.Bernoulli(tb.profile().pdp_deact_in_3g_prob)) {
        tb.sgsn().DeactivatePdp(nas::PdpDeactCause::kRegularDeactivation);
        tb.Run(Seconds(1));
      }
      tb.ue().HangUp();
    }
    // Let the CSFB return play out. On OP-I the redirect lands within
    // seconds; on OP-II the device stays until the data session ends and
    // RRC decays to IDLE.
    if (has_4g) {
      RunUntil(tb, [&] { return tb.ue().serving() == nas::System::k4G; },
               Minutes(1));
      if (tb.ue().serving() == nas::System::k3G &&
          tb.ue().data_session_active()) {
        // Remaining lifetime of the data session after the call.
        tb.Run(FromSeconds(rng.Exponential(25.0)));
        tb.ue().StopDataSession();
        RunUntil(tb, [&] { return tb.ue().serving() == nas::System::k4G; },
                 Minutes(2));
      }
    }
    if (tb.ue().data_session_active() && rng.Bernoulli(0.8)) {
      tb.ue().StopDataSession();
    }
    tb.Run(Seconds(5));
  }

  void DoRoamingSwitch(Testbed& tb, Rng& rng) {
    if (tb.ue().serving() != nas::System::k4G || tb.ue().out_of_service()) {
      return;
    }
    const bool data_on = rng.Bernoulli(kProbDataAtSwitch);
    if (data_on && !tb.ue().data_session_active()) {
      tb.ue().StartDataSession(rng.Uniform(0.05, 1.0));
      tb.Run(Seconds(2));
    } else if (!data_on && tb.ue().data_session_active()) {
      tb.ue().StopDataSession();
    }
    ++agg.inter_system_switches;
    if (data_on) ++switches_to_3g_with_data;
    tb.ue().SwitchTo3g(model::SwitchReason::kMobility);
    tb.Run(FromSeconds(rng.Uniform(60.0, 600.0)));  // camp on 3G
    // While camping, the network may deactivate the PDP context (Table 3).
    if (data_on && rng.Bernoulli(tb.profile().pdp_deact_in_3g_prob)) {
      const auto& causes = nas::AllPdpDeactCauses();
      tb.sgsn().DeactivatePdp(
          causes[static_cast<std::size_t>(
                     rng.UniformInt(0, static_cast<std::int64_t>(
                                           causes.size()) - 1))]
              .cause);
      tb.Run(Seconds(1));
    }
    ++agg.inter_system_switches;  // the return switch
    tb.ue().SwitchTo4g();
    RunUntil(tb, [&] { return !tb.ue().out_of_service(); }, Minutes(2));
    tb.Run(Seconds(5));
  }

  void DoRestart(Testbed& tb) {
    tb.ue().PowerOff();
    tb.Run(Seconds(10));
    ++agg.attaches;
    tb.ue().PowerOn(has_4g ? nas::System::k4G : nas::System::k3G);
    RunUntil(tb,
             [&] {
               return has_4g ? tb.ue().emm_state() ==
                                   stack::UeDevice::EmmState::kRegistered
                             : tb.msc().registered();
             },
             Minutes(2));
    tb.Run(Seconds(5));
  }

  // 3G users: a drive with periodic area crossings; some calls of the day
  // collide with the resulting location updates (S4).
  void DoDrive(Testbed& tb, Rng& rng) {
    const double total_s = kDriveMinutesPerDay * 60.0;
    double elapsed = 0;
    while (elapsed < total_s) {
      const double gap =
          std::max(20.0, rng.Exponential(kCrossingIntervalMeanS));
      elapsed += gap;
      // Calls are placed uniformly in time, so a fraction of them lands in
      // the busy window (LAU + MM-WAIT-FOR-NET-CMD) right after a crossing
      // — the natural S4 collision rate.
      if (rng.Bernoulli(0.10)) {
        const double offset = rng.Uniform(0.0, gap);
        tb.Run(FromSeconds(offset));
        DoCall(tb, rng);  // advances past the call; close enough to `gap`
      } else {
        tb.Run(FromSeconds(gap));
      }
      tb.ue().CrossAreaBoundary();
    }
    tb.Run(Seconds(30));
  }

  void Harvest(Testbed& tb) {
    const auto& ue = tb.ue();
    if (!has_4g) agg.cs_calls_3g += static_cast<int>(ue.calls_connected());

    // S1: detaches for missing EPS bearer context, per 4G->3G switch with
    // data enabled.
    agg.Stats(FindingId::kS1).occurrences +=
        static_cast<int>(ue.detaches_no_eps_bearer());
    agg.Stats(FindingId::kS1).opportunities +=
        switches_to_3g_with_data + csfb_with_data;

    // S2: attach failures. Radio conditions are good for all participants,
    // so none occur (matching the paper's 0/30); the opportunity count is
    // filled in from the aggregate attach count after all users ran.

    // S3: CSFB calls with data that did not return to 4G promptly.
    for (const double s : ue.stuck_in_3g_seconds().Values()) {
      auto& samples = on_op1 ? agg.stuck_seconds_op1 : agg.stuck_seconds_op2;
      samples.Add(s);
      // The plain RRC decay path (no data) takes ~17s on OP-II; only
      // longer strandings are the S3 defect (data pinning the state).
      if (s > 20.0) ++agg.Stats(FindingId::kS3).occurrences;
    }
    agg.Stats(FindingId::kS3).opportunities += csfb_with_data;
    if (ue.awaiting_cell_reselection()) {
      // Still stranded in 3G at the end of the study.
      ++agg.Stats(FindingId::kS3).occurrences;
    }

    // S4: outgoing 3G calls deferred behind location updates.
    if (!has_4g) {
      agg.Stats(FindingId::kS4).occurrences +=
          static_cast<int>(ue.deferred_call_requests());
      agg.Stats(FindingId::kS4).opportunities +=
          static_cast<int>(ue.calls_connected());
    }

    // S5: 3G CS calls overlapping data traffic.
    if (!has_4g) {
      agg.Stats(FindingId::kS5).occurrences +=
          static_cast<int>(ue.calls_with_data());
      agg.Stats(FindingId::kS5).opportunities +=
          static_cast<int>(ue.calls_connected());
      for (const double mb : ue.affected_call_data_mb().Values()) {
        agg.affected_data_mb.Add(mb);
      }
      for (const double s : ue.call_durations_seconds().Values()) {
        agg.call_durations_s.Add(s);
      }
    }

    // S6: CSFB location-update failures propagated to 4G.
    if (has_4g) {
      agg.Stats(FindingId::kS6).occurrences += static_cast<int>(
          ue.detaches_implicit() + ue.detaches_msc_unreachable());
    }
  }
};

}  // namespace

UserStudy::UserStudy(UserStudyConfig config) : config_(config) {}

UserStudyResult UserStudy::Run() const {
  UserStudyResult result;
  Rng seeder(config_.seed);
  for (int u = 0; u < config_.users; ++u) {
    Participant p{.cfg = config_,
                  .agg = result,
                  .has_4g = u < config_.users_with_4g,
                  .on_op1 = (u % 2) == 0,
                  .seed = static_cast<std::uint64_t>(seeder.UniformInt(
                      1, 1'000'000'000))};
    p.Live();
  }
  result.Stats(FindingId::kS2).opportunities = result.attaches;
  result.Stats(FindingId::kS6).opportunities = result.csfb_calls;
  return result;
}

std::string UserStudy::FormatTable5(const UserStudyResult& r) {
  std::string out;
  out += "Table 5: user study summary (occurrence probability per finding)\n";
  out += Format("  activity: %d CSFB calls, %d 3G CS calls, %d switches, %d "
                "attaches\n",
                r.csfb_calls, r.cs_calls_3g, r.inter_system_switches,
                r.attaches);
  out += "  Problem     Observed   Occurrence\n";
  for (const auto& f : AllFindings()) {
    const auto& s = r.Stats(f.id);
    out += Format("  %-4s        %-9s  %5.1f%%  (%d/%d)\n", f.code.c_str(),
                  s.occurrences > 0 ? "yes" : "no", s.Rate() * 100.0,
                  s.occurrences, s.opportunities);
  }
  return out;
}

std::string UserStudy::FormatTable6(const UserStudyResult& r) {
  std::string out;
  out += "Table 6: duration in 3G after the CSFB call ends\n";
  out += "  Operator  Min     Median  Max      90th    Avg\n";
  const auto row = [](const char* name, const Samples& s) {
    if (s.Empty()) return Format("  %-9s (no samples)\n", name);
    return Format("  %-9s %-7.1fs %-6.1fs %-8.1fs %-7.1fs %-6.1fs\n", name,
                  s.Min(), s.Median(), s.Max(), s.Percentile(90), s.Mean());
  };
  out += row("OP-I", r.stuck_seconds_op1);
  out += row("OP-II", r.stuck_seconds_op2);
  return out;
}

}  // namespace cnv::core
