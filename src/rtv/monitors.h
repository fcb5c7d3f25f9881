// Online property monitors: the paper's S1-S6 findings recast as streaming
// automata over one trace stream. Each record is classified once against
// the trace-event vocabulary (trace::Classify, trace/vocab.h) and stepped
// through a set of small per-stream state machines; the moment a finding's
// signature completes, a typed Alert is emitted — instead of probing defect
// counters after the run, as the batch harness does.
//
// The signatures (also documented in DESIGN.md "Runtime verification"):
//
//   S1  4G->3G switch, PDP context deactivated while away in 3G, switch
//       back to 4G, TAU Reject "no EPS bearer context activated".
//   S2  TAU Reject "implicitly detached" followed by the network detach —
//       the observable of a lost Attach Complete.
//   S3  CSFB call ends in 3G while a data session is active, and the RRC
//       layer reports waiting for IDLE to reselect back to 4G (stranded).
//   S4  An outgoing call dialed at the CM layer is deferred behind an
//       in-progress location update (HOL blocking).
//   S5  64QAM disabled for a CS voice call while an independent data
//       session is active on a *native* 3G attachment (a CSFB visit is
//       S3's territory, not a coupling defect).
//   S6  A location update disrupted by an inter-system switch, followed by
//       a network-originated Detach Request.
//
// Monitors see the row's abstract kind *and* its facts (trace::EventFact):
// causes, the detach path and the dialing module distinguish findings that
// share an abstract event, and a power-on marks a session boundary.
//
// Each record is read in two steps. Observe() is stateless: it classifies
// the record into a trivially-copyable Observation, so the gateway runs it
// on its ingest thread and ships only the Observation through its ring.
// FindingMonitors::Step(Observation) runs the per-stream automata. The
// offline Step(TraceRecord) is exactly Observe + Step, so every finding is
// defined once for both paths.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "rtv/alert.h"
#include "trace/record.h"
#include "trace/vocab.h"

namespace cnv::rtv {

// What the automata read of one record.
struct Observation {
  using enum trace::EventFact;

  SimTime time = 0;
  std::optional<trace::AbstractKind> kind;  // nullopt: no model counterpart
  std::uint8_t facts = 0;                   // trace::EventFact bits

  bool Has(trace::EventFact f) const { return (facts & f) != 0; }
  // The two overload kinds quote the record's trimmed description in their
  // alert detail; no other kind reads the description text.
  bool NeedsText() const {
    return kind == trace::AbstractKind::kStormBegins ||
           kind == trace::AbstractKind::kCongestionBackoff;
  }
};
static_assert(std::is_trivially_copyable_v<Observation>);

// Observes one record (any thread; no state). When the result NeedsText(),
// `*text` is set to the trimmed description; otherwise it is untouched.
Observation Observe(std::string_view module, std::string_view description,
                    SimTime time, std::string* text);

class FindingMonitors {
 public:
  explicit FindingMonitors(std::uint32_t stream = 0) : stream_(stream) {}

  // Steps every automaton with the next observation of this stream;
  // appends any alerts whose signature completed on it. `text` is the
  // trimmed description when o.NeedsText() (ignored otherwise); `ordinal`
  // is the record's 0-based index within the stream.
  void Step(const Observation& o, std::string_view text,
            std::uint64_t ordinal, std::vector<Alert>* out);

  // Observe(r) + Step: the offline path.
  void Step(const trace::TraceRecord& r, std::uint64_t ordinal,
            std::vector<Alert>* out);

 private:
  std::uint32_t stream_;

  // Inter-system context shared by several automata.
  bool in_3g_ = false;        // a 4G->3G switch happened, no switch back yet
  bool in_3g_csfb_ = false;   // ... and it was a CSFB fallback
  bool data_session_ = false; // UE-level data session active

  // S1: switch-out / context-loss / switch-back progression.
  bool pdp_lost_in_3g_ = false;
  bool returned_after_loss_ = false;

  // S2: a TAU Reject with the implicit-detach cause is pending.
  bool tau_implicit_reject_ = false;

  // S3: the CSFB call ended but the UE is still camped on 3G.
  bool csfb_call_ended_ = false;

  // S4: an unresolved CM-layer dial.
  bool dialed_cm_ = false;

  // S6: a location update was torn down by an inter-system switch.
  bool lu_disrupted_ = false;
};

}  // namespace cnv::rtv
