// Wire protocol of the job server — line-delimited JSON over TCP.
//
// Each request is one JSON object on one line; the server answers with
// exactly one JSON object line. Every reply carries `"ok": true|false`;
// failures add a machine-readable `"code"` and a human `"error"`:
//
//   request                                  reply (ok case)
//   ------------------------------------------------------------------
//   {"cmd":"ping"}                           {"ok":true,"pong":true}
//   {"cmd":"submit","problem":"qubo 4\n...", {"ok":true,"id":7,
//     "seconds":5,"target":-12,                 "state":"queued",
//     "idempotency_key":"k1",                   "deduplicated":false,...}
//     "deadline_seconds":30,...}
//   {"cmd":"status","id":7}                  {"ok":true,"job":{...}}
//   {"cmd":"result","id":7}                  {"ok":true,"job":{...},
//                                              "solution":"0101...",...}
//   {"cmd":"cancel","id":7}                  {"ok":true,"state":"..."}
//   {"cmd":"list"}                           {"ok":true,"jobs":[...]}
//   {"cmd":"metrics"}                        {"ok":true,"prometheus":"..."}
//   {"cmd":"shutdown"}                       {"ok":true,"draining":true}
//
// Error codes: bad_request (malformed JSON / missing or mistyped fields /
// unparsable problem), queue_full (typed backpressure — retry later),
// shutting_down, not_found, not_done, internal. A malformed request is a
// *reply*, never a dropped connection and never a server death.
//
// Durability on the wire: a submit may carry an `idempotency_key` (a
// resubmission with a known key returns the original job's id with
// `"deduplicated":true`) and a `deadline_seconds` TTL. A failed
// write-ahead journal append surfaces as code `internal`: the job was NOT
// accepted and the submit is safe to repeat.
//
// The dispatcher lives here, decoupled from sockets, so the whole protocol
// is unit-testable in-process (tests/test_protocol.cpp) and the TCP layer
// (a line-framed obs::Listener) stays a dumb line pump. Full spec:
// docs/serving.md.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "serve/job.hpp"
#include "serve/job_manager.hpp"
#include "serve/json.hpp"

namespace absq::serve {

/// Outcome of one request line.
struct ProtocolReply {
  Json reply;
  /// True when the request was a `shutdown` — the owner latches it, and
  /// begins the drain after the reply is sent.
  bool shutdown = false;
};

/// Dispatches one request line against the manager. Never throws: every
/// failure becomes an `ok:false` reply. `metrics` (nullable) backs the
/// `metrics` command.
[[nodiscard]] ProtocolReply handle_request_line(
    JobManager& manager, const std::string& line,
    const obs::MetricsRegistry* metrics = nullptr);

/// JSON form of a status snapshot (the `job` member of status/list/result
/// replies).
[[nodiscard]] Json job_to_json(const JobStatus& status);
/// Parses the wire form back into a JobStatus (client-side convenience;
/// unknown members are ignored). Throws JsonError/CheckError on bad input.
[[nodiscard]] JobStatus job_from_json(const Json& json);

/// Builds the standard error reply.
[[nodiscard]] Json error_reply(const std::string& code,
                               const std::string& message);

/// Parses a submit request's problem payload (inline `problem` text or a
/// server-local `file` path, in any supported `format`) into a weight
/// matrix. Throws CheckError on unparsable input.
[[nodiscard]] std::shared_ptr<const WeightMatrix> parse_problem(
    const Json& request);

}  // namespace absq::serve
