// Shared helpers for the experiment harnesses in bench/. Each binary
// regenerates one table or figure from the paper's evaluation.
#pragma once

#include <cstdio>
#include <string>

#include "stack/scenarios.h"
#include "stack/testbed.h"

namespace cnv::bench {

using stack::scenario::RunUntil;

inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

// Renders an ASCII bar scaled to `max` over `width` columns.
inline std::string Bar(double value, double max, int width = 40) {
  if (max <= 0) return "";
  int n = static_cast<int>(value / max * width + 0.5);
  if (n < 0) n = 0;
  if (n > width) n = width;
  return std::string(static_cast<std::size_t>(n), '#');
}

}  // namespace cnv::bench
