// Signalling-storm throughput benchmark: wall-clock cost of pushing a
// mass-attach storm through the core under each admission policy, plus a
// storm-size scaling sweep. The simulated outcome (served / rejected /
// shed counts, queue peak, drain) is deterministic per configuration and
// is reported next to the wall time so a perf regression that also changed
// behaviour is visible immediately. The legacy core (admission off) only
// counts a storm in closed form, so its row is a tally with no throughput.
//
// Usage:  ./perf_storm [--bench-json PATH] [--quick]
//   --bench-json PATH   also write a machine-readable report (default
//                       BENCH_storm.json in the working directory)
//   --quick             shrink the storms for smoke runs
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.h"
#include "stack/testbed.h"
#include "util/args.h"

namespace cnv {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct StormOutcome {
  std::string name;
  std::uint64_t injected = 0;
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::size_t queue_peak = 0;
  double wall_seconds = 0;
  double msgs_per_sec = 0;
};

// One storm cell: `count` synthetic attaches at 500/s into the MME while
// the foreground device powers on mid-storm, run to quiescence.
StormOutcome RunStorm(const std::string& name,
                      const stack::OverloadConfig& overload,
                      std::size_t count, int reps) {
  StormOutcome out;
  out.name = name;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    stack::TestbedConfig cfg;
    cfg.profile = stack::OpI();
    cfg.seed = 7;
    cfg.overload = overload;
    stack::Testbed tb(cfg);
    tb.storm().MassAttach(Millis(10), count, Millis(2));
    tb.sim().ScheduleAt(Millis(100),
                        [&tb] { tb.ue().PowerOn(nas::System::k4G); });
    const double t0 = Now();
    // Long enough for even the unbounded backlog to drain at 5 ms/msg.
    tb.Run(Seconds(ToSeconds(Millis(2)) * static_cast<double>(count)) +
           Seconds(200));
    const double dt = Now() - t0;
    if (dt < best) best = dt;
    if (r == 0) {
      const stack::OverloadStats& s = tb.mme().overload_stats();
      out.injected = tb.storm().injected();
      out.offered = s.offered();
      out.served = s.admitted + s.background_served;
      out.rejected = s.rejected_congestion;
      out.shed = s.shed;
      out.queue_peak = s.queue_peak;
    }
  }
  out.wall_seconds = best;
  out.msgs_per_sec =
      best > 0 ? static_cast<double>(out.injected) / best : 0.0;
  return out;
}

void PrintRow(const StormOutcome& o) {
  std::printf(
      "%-28s %8llu msgs  %8.4fs  %10.0f msg/s  served=%llu rejected=%llu "
      "shed=%llu queue-peak=%zu\n",
      o.name.c_str(), (unsigned long long)o.injected, o.wall_seconds,
      o.msgs_per_sec, (unsigned long long)o.served,
      (unsigned long long)o.rejected, (unsigned long long)o.shed,
      o.queue_peak);
}

std::string JsonRow(const StormOutcome& o) {
  return "    {\"name\": \"" + o.name + "\", \"injected\": " +
         std::to_string(o.injected) + ", \"offered\": " +
         std::to_string(o.offered) + ", \"served\": " +
         std::to_string(o.served) + ", \"rejected\": " +
         std::to_string(o.rejected) + ", \"shed\": " +
         std::to_string(o.shed) + ", \"queue_peak\": " +
         std::to_string(o.queue_peak) + ", \"wall_seconds\": " +
         std::to_string(o.wall_seconds) + ", \"msgs_per_sec\": " +
         std::to_string(o.msgs_per_sec) + "}";
}

}  // namespace
}  // namespace cnv

int main(int argc, char** argv) {
  using namespace cnv;
  args::ArgParser parser(argc, argv,
                         "usage: perf_storm [--bench-json PATH] [--quick]");
  std::string json_path = "BENCH_storm.json";
  parser.StrValue("--bench-json", &json_path);
  const bool quick = parser.Flag("--quick");
  parser.Finish(0);

  const std::size_t base = quick ? 5'000 : 30'000;
  const int reps = quick ? 2 : 3;

  stack::OverloadConfig off;  // legacy zero-queueing core
  stack::OverloadConfig unbounded;
  unbounded.policy = stack::AdmissionPolicy::kUnbounded;
  stack::OverloadConfig reject = unbounded;
  reject.policy = stack::AdmissionPolicy::kRejectBackoff;
  stack::OverloadConfig shed = unbounded;
  shed.policy = stack::AdmissionPolicy::kPriorityShed;

  std::printf("storm throughput by admission policy (%zu msgs)\n\n", base);
  std::vector<StormOutcome> policy_rows = {
      RunStorm("unbounded queue", unbounded, base, reps),
      RunStorm("reject-backoff", reject, base, reps),
      RunStorm("priority-shed", shed, base, reps),
  };
  for (const auto& o : policy_rows) PrintRow(o);

  const StormOutcome legacy = RunStorm("legacy (overload off)", off, base, 1);
  std::printf("\nlegacy core (overload off): storm counted as a tally\n");
  std::printf("%-28s %8llu msgs  served=%llu queue-peak=%zu\n",
              legacy.name.c_str(), (unsigned long long)legacy.injected,
              (unsigned long long)legacy.served, legacy.queue_peak);

  std::printf("\nstorm-size scaling (reject-backoff)\n");
  std::vector<StormOutcome> scale_rows;
  for (const std::size_t n :
       {base / 10, base / 2, base, quick ? base : base * 2}) {
    scale_rows.push_back(
        RunStorm("reject @ " + std::to_string(n), reject, n, reps));
    PrintRow(scale_rows.back());
  }

  std::string json = "{\n  \"storm_msgs\": " + std::to_string(base) +
                     ",\n  \"legacy\": {\"name\": \"" + legacy.name +
                     "\", \"injected\": " + std::to_string(legacy.injected) +
                     ", \"offered\": " + std::to_string(legacy.offered) +
                     ", \"served\": " + std::to_string(legacy.served) +
                     ", \"queue_peak\": " + std::to_string(legacy.queue_peak) +
                     "},\n  \"policies\": [\n";
  for (std::size_t i = 0; i < policy_rows.size(); ++i) {
    if (i > 0) json += ",\n";
    json += JsonRow(policy_rows[i]);
  }
  json += "\n  ],\n  \"scaling\": [\n";
  for (std::size_t i = 0; i < scale_rows.size(); ++i) {
    if (i > 0) json += ",\n";
    json += JsonRow(scale_rows[i]);
  }
  json += "\n  ]\n}\n";
  if (!obs::WriteFile(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
