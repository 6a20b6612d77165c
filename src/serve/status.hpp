// /status body builder — the serving layer's live JSON self-portrait.
//
// status_json() joins three sources into one application/json document
// for the HTTP exporter's GET /status endpoint:
//
//   * the JobManager's job table (every job ever submitted, with states,
//     queue/run latencies and final results) plus queue depth, running
//     count and slot capacity;
//   * the shared MetricsRegistry, sliced per job: the live incumbent
//     energy of a *running* job is its absq_pool_best_energy{job="<id>"}
//     gauge (relaxed atomics — safe to read while the solver flips), so
//     /status shows progress before the job has a result;
//   * per-device health/restart series (absq_device_health{job=...,
//     device=...}), giving each running job a devices array.
//
// The function is deliberately free of HTTP concerns: absq_serve binds it
// into ListenerConfig::status as a lambda, tests call it directly.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "serve/job_manager.hpp"

namespace absq::serve {

/// The /status document. `registry` may be null (no per-job live slices).
/// `uptime_seconds` is the server's own clock; pass 0.0 when unknown.
[[nodiscard]] std::string status_json(const JobManager& manager,
                                      const obs::MetricsRegistry* registry,
                                      double uptime_seconds);

}  // namespace absq::serve
