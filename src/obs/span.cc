#include "obs/span.h"

#include <array>
#include <map>
#include <optional>

#include "obs/json.h"
#include "util/time.h"

namespace cnv::obs {

std::string ToString(SpanOutcome o) {
  switch (o) {
    case SpanOutcome::kSuccess:
      return "success";
    case SpanOutcome::kFailure:
      return "failure";
    case SpanOutcome::kOpen:
      return "open";
  }
  return "?";
}

std::vector<ProcedureSpan> StitchSpans(
    const std::vector<trace::TraceRecord>& records) {
  std::vector<ProcedureSpan> out;
  // One open slot per procedure; outages are per-property, so keyed by name.
  constexpr std::size_t kProcedures =
      static_cast<std::size_t>(SpanKind::kOutage);
  std::array<std::optional<ProcedureSpan>, kProcedures> open;
  std::map<std::string, ProcedureSpan> open_outages;

  for (const auto& r : records) {
    const trace::EventRow* row = trace::Classify(r.module, r.description);
    if (row == nullptr || row->role == trace::SpanRole::kNone) continue;

    if (row->spans == trace::SpanBit(SpanKind::kOutage)) {
      if (r.type != trace::TraceType::kRecovery) continue;
      // The description reads "<property><needle>...".
      std::string prop =
          r.description.substr(0, r.description.find(row->needle));
      if (row->role == trace::SpanRole::kStart) {
        ProcedureSpan s;
        s.kind = SpanKind::kOutage;
        s.start = r.time;
        s.detail = prop;
        open_outages[std::move(prop)] = s;
        continue;
      }
      const auto it = open_outages.find(prop);
      if (it != open_outages.end()) {
        it->second.end = r.time;
        it->second.outcome = SpanOutcome::kSuccess;
        out.push_back(it->second);
        open_outages.erase(it);
      }
      continue;
    }

    // A row names more than one procedure only for a shared failure: it
    // closes the first of them that is open.
    for (std::size_t i = 0; i < kProcedures; ++i) {
      const auto kind = static_cast<SpanKind>(i);
      if ((row->spans & trace::SpanBit(kind)) == 0) continue;
      if (row->role == trace::SpanRole::kStart) {
        if (open[i]) {
          // The stack restarted the procedure: the superseded attempt
          // never completed.
          open[i]->end = r.time;
          open[i]->outcome = SpanOutcome::kFailure;
          open[i]->detail = "superseded by restarted procedure";
          out.push_back(*open[i]);
        }
        ProcedureSpan s;
        s.kind = kind;
        s.start = r.time;
        open[i] = s;
        break;
      }
      if (!open[i]) continue;
      if (row->role == trace::SpanRole::kRetry) {
        ++open[i]->retries;
        break;
      }
      open[i]->end = r.time;
      open[i]->outcome = row->role == trace::SpanRole::kSuccess
                             ? SpanOutcome::kSuccess
                             : SpanOutcome::kFailure;
      open[i]->detail = r.description;
      out.push_back(*open[i]);
      open[i].reset();
      break;
    }
  }

  // Flush procedures still pending at the end of the log.
  const SimTime log_end = records.empty() ? 0 : records.back().time;
  for (auto& s : open) {
    if (!s) continue;
    s->end = log_end;
    s->outcome = SpanOutcome::kOpen;
    out.push_back(*s);
  }
  for (auto& [prop, s] : open_outages) {
    s.end = log_end;
    s.outcome = SpanOutcome::kOpen;
    out.push_back(s);
  }
  return out;
}

std::string ChromeTraceEvents(const std::vector<ProcedureSpan>& spans,
                              const std::string& process_name, int pid) {
  JsonWriter w;
  // Metadata event naming the process row in the viewer.
  w.BeginObject()
      .Key("name")
      .String("process_name")
      .Key("ph")
      .String("M")
      .Key("pid")
      .Int(pid)
      .Key("args")
      .BeginObject()
      .Key("name")
      .String(process_name)
      .EndObject()
      .EndObject();
  std::string out = w.Take();
  for (const auto& s : spans) {
    std::string name = ToString(s.kind);
    if (s.kind == SpanKind::kOutage && !s.detail.empty()) {
      name += ":" + s.detail;
    }
    JsonWriter e;
    e.BeginObject()
        .Key("name")
        .String(name)
        .Key("cat")
        .String("procedure")
        .Key("ph")
        .String("X")
        .Key("ts")
        .Int(s.start)
        .Key("dur")
        .Int(s.Duration())
        .Key("pid")
        .Int(pid)
        .Key("tid")
        .Int(static_cast<int>(s.kind) + 1)
        .Key("args")
        .BeginObject()
        .Key("outcome")
        .String(ToString(s.outcome))
        .Key("retries")
        .Int(s.retries)
        .Key("detail")
        .String(s.detail)
        .EndObject()
        .EndObject();
    out += ',';
    out += e.Take();
  }
  return out;
}

std::string ChromeTraceDocument(const std::vector<std::string>& fragments) {
  std::string events;
  for (const auto& f : fragments) {
    if (f.empty()) continue;
    if (!events.empty()) events += ',';
    events += f;
  }
  return "{\"traceEvents\":[" + events + "],\"displayTimeUnit\":\"ms\"}";
}

void RecordSpans(Registry& reg, const std::vector<ProcedureSpan>& spans) {
  for (const auto& s : spans) {
    const std::string prefix = "span." + ToString(s.kind);
    reg.GetCounter(prefix + ".count").Increment();
    reg.GetCounter(prefix + "." + ToString(s.outcome)).Increment();
    if (s.retries > 0) {
      reg.GetCounter(prefix + ".retries")
          .Increment(static_cast<std::uint64_t>(s.retries));
    }
    if (s.outcome != SpanOutcome::kOpen) {
      reg.GetHistogram(prefix + ".latency_s")
          .Observe(ToSeconds(s.Duration()));
    }
  }
}

}  // namespace cnv::obs
