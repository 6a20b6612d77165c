// Layer probes: each public layer function timed from outside, on the
// workload's own instance and parameters, after a warm-up.
#pragma once

#include <cstdint>
#include <string>

#include "abs/solver.hpp"
#include "common.hpp"
#include "ga/solution_pool.hpp"
#include "obs/metrics.hpp"
#include "qubo/weight_matrix.hpp"

namespace absbench {

struct ProbeInput {
  const absq::WeightMatrix* w = nullptr;
  /// The instance as shipped (canonical qubo text).
  std::string text;
  /// The workload's solver configuration (device template, GA knobs).
  absq::AbsConfig config;
  /// A pool left by a solve of this instance: parents and straight-search
  /// targets come from it.
  const absq::SolutionPool* pool = nullptr;
  /// Registry the traced run filled (scrape probe).
  const absq::obs::MetricsRegistry* registry = nullptr;
  /// Directory for the journal-append probe.
  std::string journal_dir;
  std::uint64_t seed = 1;
  bool smoke = false;
};

void run_layer_probes(const ProbeInput& input, Result& result);

}  // namespace absbench
