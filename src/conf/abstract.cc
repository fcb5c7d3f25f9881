#include "conf/abstract.h"

namespace cnv::conf {

std::optional<AbstractKind> MatchAbstractKind(const trace::TraceRecord& r) {
  const trace::EventRow* row = trace::Classify(r.module, r.description);
  return row != nullptr ? row->kind : std::nullopt;
}

std::vector<AbstractEvent> AbstractTrace(
    const std::vector<trace::TraceRecord>& records) {
  std::vector<AbstractEvent> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (const auto kind = MatchAbstractKind(records[i])) {
      out.push_back({*kind, records[i].time, i});
    }
  }
  return out;
}

RefinementCheck CheckRefinement(const std::vector<AbstractEvent>& concrete,
                                const std::vector<AbstractKind>& expected) {
  RefinementCheck check;
  std::size_t pos = 0;
  for (std::size_t e = 0; e < expected.size(); ++e) {
    bool found = false;
    while (pos < concrete.size()) {
      if (concrete[pos].kind == expected[e]) {
        found = true;
        ++pos;
        break;
      }
      ++pos;
    }
    if (!found) {
      if (check.missing.empty()) check.failed_index = e;
      check.missing.push_back(expected[e]);
    }
  }
  check.refines = check.missing.empty();
  return check;
}

}  // namespace cnv::conf
