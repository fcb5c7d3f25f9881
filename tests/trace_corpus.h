// The trace corpus the event-vocabulary suites read: the committed goldens
// plus the kept trace of every chaos-grid cell at seed 1 (each canned fault
// plan on OP-I and on OP-II). Tests that link it define CNV_GOLDEN_DIR.
#pragma once

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "fault/plan.h"
#include "stack/carrier.h"
#include "trace/qxdm.h"
#include "trace/record.h"

namespace cnv::testing {

inline const std::vector<std::string>& GoldenNames() {
  static const std::vector<std::string> kNames = {
      "s1_context_loss_opi",         "s2_lost_attach_complete_opi",
      "s3_stuck_in_3g_opii",         "s4_hol_blocking_opi",
      "s5_call_data_coupling_opi",   "s6_lu_failure_detach_opi",
      "congestion_attach_storm_opi",
  };
  return kNames;
}

inline std::string ReadGoldenLog(const std::string& name) {
  std::ifstream in(std::string(CNV_GOLDEN_DIR) + "/" + name + ".log",
                   std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The 38 chaos cells at seed 1, in plans::All() x {OP-I, OP-II} order, each
// with its formatted trace kept.
inline const std::vector<fault::RunOutcome>& ChaosGridCells() {
  static const std::vector<fault::RunOutcome> kCells = [] {
    const fault::CampaignRunner runner(fault::CampaignConfig{},
                                       /*keep_traces=*/true);
    std::vector<fault::RunOutcome> cells;
    for (const auto& plan : fault::plans::All()) {
      for (const auto& profile : {stack::OpI(), stack::OpII()}) {
        cells.push_back(runner.RunOne(1, plan, profile));
      }
    }
    return cells;
  }();
  return kCells;
}

struct CorpusTrace {
  std::string name;  // golden name, or "<plan>@<profile>"
  std::vector<trace::TraceRecord> records;
};

inline const std::vector<CorpusTrace>& VocabCorpus() {
  static const std::vector<CorpusTrace> kCorpus = [] {
    std::vector<CorpusTrace> corpus;
    for (const auto& name : GoldenNames()) {
      corpus.push_back({name, trace::ParseLog(ReadGoldenLog(name))});
    }
    for (const auto& cell : ChaosGridCells()) {
      corpus.push_back({cell.plan + "@" + cell.profile,
                        trace::ParseLog(cell.trace_log)});
    }
    return corpus;
  }();
  return kCorpus;
}

}  // namespace cnv::testing
