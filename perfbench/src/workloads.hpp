// The three named workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< weights, span files and results go here
};

struct RunResult {
  Report end_to_end;  ///< every end-to-end metric, untraced runs
  /// End-to-end figures printed but kept out of the result line: on a
  /// shared host the tail latency spreads far wider between runs than
  /// any regression bound, so it is reported, not gated.
  Report printed_only;
  Report per_layer;   ///< every per-layer metric, traced runs
  Outcomes outcomes;
  bool correct = true;
  /// Set when the run must not be reported (the open-loop generator fell
  /// behind its own schedule); says why.
  std::string invalid;
};

/// Run one workload; throws std::invalid_argument on an unknown name.
RunResult run_workload(const RunOptions& opt);

}  // namespace perfbench
