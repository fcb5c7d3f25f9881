// Procedure spans: typed intervals stitched out of the flat TraceRecord
// stream a run produces. Where QXDM gives the paper individual trace items
// (§3.3), a span covers one whole control-plane procedure — an attach from
// first Attach Request to Accept/Reject, a CSFB call from dial to
// establishment, an outage window from "outage begins" to "recovered" —
// with its outcome and how many retransmissions it took. Spans export to
// Chrome trace-event JSON so a run opens directly in a trace viewer
// (chrome://tracing, Perfetto).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "trace/record.h"
#include "trace/vocab.h"

namespace cnv::obs {

// The procedures (and the Chrome-trace thread order) are part of the
// trace-event vocabulary, trace/vocab.h.
using trace::SpanKind;

enum class SpanOutcome : std::uint8_t {
  kSuccess,
  kFailure,  // explicit reject, or superseded by a restarted procedure
  kOpen,     // still pending when the run ended
};

std::string ToString(SpanOutcome o);

struct ProcedureSpan {
  SpanKind kind = SpanKind::kAttach;
  SimTime start = 0;
  SimTime end = 0;  // for kOpen spans: the time of the last trace record
  SpanOutcome outcome = SpanOutcome::kOpen;
  int retries = 0;      // retransmissions observed inside the span
  std::string detail;   // closing record's description (cause, property...)

  SimDuration Duration() const { return end - start; }

  bool operator==(const ProcedureSpan&) const = default;
};

// Scans the records in order and pairs procedure starts with their ends:
// each record's span procedure and role are the columns of the row
// trace::Classify matches. A start arriving while the same-kind span is
// open closes the open span as kFailure (the stack restarted the
// procedure); spans still open at the end of the log are emitted with
// outcome kOpen. Output is ordered by span end time (open spans last, by
// start time), deterministically.
std::vector<ProcedureSpan> StitchSpans(
    const std::vector<trace::TraceRecord>& records);

// Chrome trace-event JSON for one process. `pid` groups the spans in the
// viewer; pass distinct pids to merge several runs into one file via
// ChromeTraceCombine. ts/dur are microseconds — exactly SimTime's unit.
std::string ChromeTraceEvents(const std::vector<ProcedureSpan>& spans,
                              const std::string& process_name, int pid);

// Wraps per-process event fragments into one loadable trace document.
std::string ChromeTraceDocument(const std::vector<std::string>& fragments);

// Folds spans into a registry: per-kind counters ("span.attach.count",
// ".success", ".failure", ".retries") and latency histograms
// ("span.attach.latency_s", completed spans only).
void RecordSpans(Registry& reg, const std::vector<ProcedureSpan>& spans);

}  // namespace cnv::obs
