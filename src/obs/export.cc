#include "obs/export.h"

#include <cctype>
#include <filesystem>
#include <fstream>

#include "obs/json.h"

namespace cnv::obs {

SnapshotScheduler::SnapshotScheduler(sim::Simulator& sim, Refresh refresh,
                                     SimDuration period)
    : sim_(sim), refresh_(std::move(refresh)), period_(period) {}

void SnapshotScheduler::Start() {
  if (running_) return;
  running_ = true;
  sim_.ScheduleIn(period_, [this] {
    SnapshotNow();
    running_ = false;
    Start();
  });
}

void SnapshotScheduler::SnapshotNow() {
  Registry reg;
  refresh_(reg);
  snapshots_.push_back(reg.ToJson(sim_.now()));
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("meta").BeginObject();
  for (const auto& [k, v] : meta) w.Key(k).String(v);
  w.EndObject();
  w.Key("snapshots").BeginArray();
  for (const auto& s : snapshots) w.Raw(s);
  w.EndArray();
  w.Key("final");
  if (final_metrics.empty()) {
    w.Null();
  } else {
    w.Raw(final_metrics);
  }
  w.Key("spans").BeginArray();
  for (const auto& s : spans) {
    w.BeginObject()
        .Key("kind")
        .String(ToString(s.kind))
        .Key("start_us")
        .Int(s.start)
        .Key("end_us")
        .Int(s.end)
        .Key("outcome")
        .String(ToString(s.outcome))
        .Key("retries")
        .Int(s.retries)
        .Key("detail")
        .String(s.detail)
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

std::string RunReport::ChromeFragment(int pid) const {
  return ChromeTraceEvents(spans, Label(), pid);
}

std::string RunReport::Label() const {
  std::string label;
  for (const auto& [k, v] : meta) {
    if (!label.empty()) label += ' ';
    label += k + "=" + v;
  }
  return label;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) return false;
  }
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << content;
  // The bytes may sit in the stream's buffer until close flushes them, so
  // only a clean close means they were written (e.g. /dev/full fails here).
  f.close();
  return !f.fail();
}

std::string SanitizeFilename(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
            c == '_' || c == '.')
               ? c
               : '-';
  }
  return out;
}

}  // namespace cnv::obs
