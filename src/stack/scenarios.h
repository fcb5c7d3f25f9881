// Canned validation scenarios: the experiment scripts that the validation
// runner, benches and examples replay on a Testbed. Each returns once the
// scenario has settled (or the bounded wait expires), so callers can read
// the counters/traces directly.
#pragma once

#include <functional>

#include "stack/testbed.h"

namespace cnv::stack::scenario {

// Steps the simulation in 100 ms slices until `pred` holds or `limit`
// simulated time has elapsed. Returns whether the predicate held.
bool RunUntil(Testbed& tb, const std::function<bool()>& pred,
              SimDuration limit);

// Powers on in 4G and waits for the attach to complete.
bool AttachIn4g(Testbed& tb);

// Powers on in 3G and waits for both CS and PS registrations.
bool AttachIn3g(Testbed& tb);

// Dials and waits until the call is active (through CSFB when on 4G).
bool EstablishCall(Testbed& tb);

}  // namespace cnv::stack::scenario
