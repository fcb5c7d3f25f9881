// Trace abstraction layer: maps concrete modem-style trace records
// (src/trace) back into the screening models' vocabulary (src/model/vocab)
// so a simulator replay can be checked as a *refinement* of a model
// counterexample — the abstracted concrete trace must contain the model's
// observable events in the model's order.
//
// A record's abstract kind is the `kind` column of the one row
// trace::Classify matches in the trace-event vocabulary (trace/vocab.cc,
// described in DESIGN.md "Trace-event vocabulary"); this layer adds the
// per-trace walk and the refinement check on top.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/record.h"
#include "trace/vocab.h"

namespace cnv::conf {

// The model-vocabulary kinds live with the trace-event vocabulary
// (trace/vocab.h), which the span stitcher and the runtime monitors read
// too.
using trace::AbstractKind;
using trace::ToString;

// One abstracted event: the model-vocabulary kind plus where it came from
// in the concrete record stream.
struct AbstractEvent {
  AbstractKind kind = AbstractKind::kAttachRequest;
  SimTime time = 0;
  std::size_t record_index = 0;
};

// Abstracts one record: the kind of the row trace::Classify matches;
// std::nullopt when no row matches or the row has no model-vocabulary
// counterpart.
std::optional<AbstractKind> MatchAbstractKind(const trace::TraceRecord& r);

// Abstracts a concrete record stream. Records with no model-vocabulary
// counterpart are dropped; the result preserves record order. Equivalent to
// MatchAbstractKind applied record by record.
std::vector<AbstractEvent> AbstractTrace(
    const std::vector<trace::TraceRecord>& records);

// Refinement check: `expected` (derived from the model counterexample) must
// appear as an in-order subsequence of the abstracted concrete trace.
struct RefinementCheck {
  bool refines = false;
  // Index into `expected` of the first event with no match (only meaningful
  // when !refines).
  std::size_t failed_index = 0;
  // The expected kinds that never matched, in order.
  std::vector<AbstractKind> missing;
};

RefinementCheck CheckRefinement(const std::vector<AbstractEvent>& concrete,
                                const std::vector<AbstractKind>& expected);

}  // namespace cnv::conf
