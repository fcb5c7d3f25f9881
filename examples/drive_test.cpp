// Drive test on Route-2 (28.3 miles, freeway + local): the phone camps on
// 3G, crosses location/routing areas as it moves, and the user places calls
// along the way. Demonstrates the measurement workflow of §6.1.2: collect
// the trace, then derive call setup times and update durations from it.
//
// Build and run:  ./drive_test
#include <cstdio>

#include "obs/span.h"
#include "sim/radio.h"
#include "stack/scenarios.h"
#include "stack/testbed.h"
#include "util/stats.h"

using namespace cnv;
using stack::scenario::RunUntil;

int main() {
  std::printf("Drive test: Route-2 (28.3 mi), carrier OP-II\n\n");

  stack::TestbedConfig cfg;
  cfg.profile = stack::OpII();
  cfg.seed = 7;
  stack::Testbed tb(cfg);
  Rng rng(99);
  const sim::RssiProfile route = sim::Route2Profile();

  tb.ue().PowerOn(nas::System::k3G);
  tb.Run(Seconds(20));

  constexpr double kMph = 45.0;  // freeway + local mix
  const SimTime start = tb.sim().now();
  auto mile_now = [&] {
    return ToSeconds(tb.sim().now() - start) / 3600.0 * kMph;
  };

  double next_crossing_mile = 3.0;
  double next_call_mile = rng.Uniform(1.0, 4.0);
  while (mile_now() < route.EndMile()) {
    tb.ue().SetRssi(route.At(mile_now()));
    if (mile_now() >= next_crossing_mile) {
      next_crossing_mile += rng.Uniform(2.5, 5.0);
      std::printf("mile %5.1f: crossing area boundary (RSSI %.0f dBm)\n",
                  mile_now(), route.At(mile_now()));
      tb.ue().CrossAreaBoundary();
    }
    if (mile_now() >= next_call_mile &&
        tb.ue().call_state() == stack::UeDevice::CallState::kNone) {
      next_call_mile += rng.Uniform(3.0, 6.0);
      const double dial_mile = mile_now();
      const std::size_t before = tb.ue().call_setup_seconds().Count();
      tb.ue().Dial();
      RunUntil(tb,
               [&] { return tb.ue().call_setup_seconds().Count() > before; },
               Minutes(2));
      if (tb.ue().call_setup_seconds().Count() > before) {
        std::printf("mile %5.1f: call connected after %.1fs%s\n", dial_mile,
                    tb.ue().call_setup_seconds().Values().back(),
                    tb.ue().call_setup_seconds().Values().back() > 14.0
                        ? "  <-- inflated by a location update (S4)"
                        : "");
        tb.Run(Seconds(30));
        tb.ue().HangUp();
      }
    }
    tb.Run(Seconds(10));
  }

  std::printf("\n--- measurements derived from the collected trace ---\n");
  // Figure 8's update durations: the completed location-update (LAU) and
  // routing-area-update (RAU) procedure spans stitched from the trace.
  Samples lau;
  Samples rau;
  for (const obs::ProcedureSpan& s : obs::StitchSpans(tb.traces().records())) {
    if (s.outcome != obs::SpanOutcome::kSuccess) continue;
    if (s.kind == obs::SpanKind::kLocationUpdate) {
      lau.Add(ToSeconds(s.Duration()));
    } else if (s.kind == obs::SpanKind::kRoutingUpdate) {
      rau.Add(ToSeconds(s.Duration()));
    }
  }
  std::printf("location updates: %s\n", SummaryLine(lau, "s").c_str());
  std::printf("routing updates:  %s\n", SummaryLine(rau, "s").c_str());
  std::printf("call setups:      %s\n",
              SummaryLine(tb.ue().call_setup_seconds(), "s").c_str());
  std::printf("deferred CM service requests (HOL blocking): %llu\n",
              (unsigned long long)tb.ue().deferred_call_requests());
  return 0;
}
