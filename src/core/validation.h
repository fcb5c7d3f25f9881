// Phase 2 of CNetVerifier (§3.3): experimental validation. For each
// screening counterexample class an experiment scenario is set up on the
// simulated carrier testbed, protocol traces are collected from the device,
// and the anticipated misbehaviour is checked against them. The two
// operational slips (S5, S6) are — as in the paper — only discoverable
// here, not by screening.
#pragma once

#include <string>
#include <vector>

#include "core/findings.h"
#include "stack/carrier.h"
#include "stack/ue.h"

namespace cnv::core {

struct ValidationResult {
  FindingId id = FindingId::kS1;
  std::string carrier;
  bool observed = false;
  std::string evidence;  // measurement / trace summary
};

struct ValidationOptions {
  stack::SolutionConfig solutions;  // all-off reproduces the findings
  std::uint64_t seed = 1;
};

class ValidationRunner {
 public:
  explicit ValidationRunner(ValidationOptions options = ValidationOptions{});

  // Runs the six experiments against one carrier profile.
  std::vector<ValidationResult> RunAll(
      const stack::CarrierProfile& profile) const;

  ValidationResult RunS1(const stack::CarrierProfile& profile) const;
  ValidationResult RunS2(const stack::CarrierProfile& profile) const;
  ValidationResult RunS3(const stack::CarrierProfile& profile) const;
  ValidationResult RunS4(const stack::CarrierProfile& profile) const;
  ValidationResult RunS5(const stack::CarrierProfile& profile) const;
  ValidationResult RunS6(const stack::CarrierProfile& profile) const;

  static std::string Format(const std::vector<ValidationResult>& results);

 private:
  ValidationOptions options_;
};

}  // namespace cnv::core
