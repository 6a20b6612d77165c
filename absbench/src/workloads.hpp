// The benchmark's workloads. Each runs in its own process, makes its
// inputs from the workload seed, measures for Options::seconds and fills a
// Result: end-to-end metrics untraced, per-layer metrics traced.
#pragma once

#include "common.hpp"

namespace absbench {

/// dense-tts and sparse-tts: closed-loop solves to a committed target.
void run_solve_workload(const Options& options, Result& result);

}  // namespace absbench
