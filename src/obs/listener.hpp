// Listener — the process's one connection loop.
//
// A single poll() thread per instance that owns a listening socket and
// every connection accepted on it. An instance speaks one framing:
//
//   Framing::kHttp — the live observability surface (GET-only HTTP/1.1):
//
//     GET /healthz   200 "ok"                      liveness probe
//     GET /metrics   Prometheus text exposition    from the MetricsRegistry
//                    (plus absq_trace_*_total from the tracer when attached)
//     GET /trace     Chrome trace_event JSON       EventTracer ring snapshot
//     GET /status    application/json              owner-provided handler
//                    (absq_serve: job table / queue / slots / device health;
//                    default: uptime + request counters)
//     GET /          text index of the endpoints
//
//   Framing::kLine — newline-delimited requests (the job protocol of
//     serve/protocol.hpp): `\r` is stripped, blank lines are skipped, each
//     line goes to `on_line` and its return value is queued as the reply
//     with a trailing `\n`. A line that does not fit in kMaxLineBytes gets
//     one `bad_request` reply and the connection closes. The `serve.accept`,
//     `serve.read` and `serve.write` fail points fire here only.
//
// Transport model (the host loop's model, paper Fig. 5: one thread polls
// and never blocks on a peer): non-blocking sockets in one poll() set.
// Replies are queued per connection and drained on POLLOUT; a connection
// with unsent replies is not read from, so a client that never reads
// cannot grow the outbox. Everything is bounded: connections
// (`max_connections`; the excess gets a 503 or a `queue_full` line, then
// close), unterminated input (`max_request_bytes` HTTP head → 431,
// kMaxLineBytes line → bad_request), and idle time (`idle_timeout_seconds`
// without a complete request or send progress → close; the slow-loris
// defence). Handlers run on the loop thread, so a slow one delays only
// its own instance: absq_serve runs one instance per port, and a scrape
// never waits behind a submit.
//
// Security posture: binds 127.0.0.1 by default (`listen_any` opts into
// 0.0.0.0 for a network you trust). A throwing handler becomes an error
// reply (HTTP 500 / `internal` line), never a crash.
//
// Every HTTP sink is optional: a null registry turns /metrics into 503, a
// null tracer does the same for /trace — /healthz keeps serving either way.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace absq::obs {

enum class Framing { kHttp, kLine };

/// Longest request line (newline included) a kLine listener buffers: above
/// the inline problems the job protocol carries (bigger instances travel
/// as a server-side `file`).
inline constexpr std::size_t kMaxLineBytes = std::size_t{256} << 20;

struct ListenerConfig {
  /// Port to bind; 0 picks an ephemeral port (see port()).
  int port = 0;
  /// Bind 0.0.0.0 instead of loopback (off by default on purpose).
  bool listen_any = false;
  Framing framing = Framing::kHttp;
  /// Close a connection with no complete request and no reply progress
  /// for this long.
  double idle_timeout_seconds = 60.0;
  /// Concurrent connection bound; the excess gets 503 / queue_full + close.
  std::size_t max_connections = 64;
  /// HTTP request-head bound (request line + headers); excess gets 431 +
  /// close.
  std::size_t max_request_bytes = 8192;
  /// Metrics source for /metrics; also receives the listener's own
  /// absq_http_requests_total series. Null = /metrics replies 503.
  MetricsRegistry* metrics = nullptr;
  /// Trace source for /trace and the absq_trace_*_total series appended
  /// to /metrics. Null = /trace replies 503.
  const EventTracer* tracer = nullptr;
  /// Body of /status (application/json). Runs on the loop thread — must
  /// be thread-safe against the rest of the process. Null = a built-in
  /// uptime/request-count body.
  std::function<std::string()> status;
  /// kLine: answers one request line (without its newline). Runs on the
  /// loop thread.
  std::function<std::string(const std::string& line)> on_line;
};

class Listener {
 public:
  explicit Listener(ListenerConfig config);
  /// Calls stop().
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds, listens, and starts the loop thread. Throws CheckError when
  /// the port cannot be bound.
  void start();
  /// Joins the loop thread, gives every queued reply one last
  /// non-blocking send, then closes the listener and every connection.
  /// Idempotent.
  void stop();

  /// The actual bound port (resolves port 0 requests).
  [[nodiscard]] int port() const { return port_; }

  /// Requests fully parsed and answered (any status code / reply).
  [[nodiscard]] std::uint64_t requests_served() const {
    // absq-lint: allow(atomic-audit) cold read of a monotonic stat counter
    return requests_.load(std::memory_order_relaxed);
  }
  /// Connections ever accepted (including the ones turned away at the
  /// bound; not the ones the serve.accept fail point dropped).
  [[nodiscard]] std::uint64_t connections_accepted() const {
    // absq-lint: allow(atomic-audit) cold read of a monotonic stat counter
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    std::string inbox;        ///< bytes read, not yet parsed into requests
    std::size_t scanned = 0;  ///< inbox prefix known to hold no newline
    std::string outbox;       ///< bytes queued, drained on POLLOUT
    double last_activity = 0.0;
    bool close_after_flush = false;
  };

  void loop();
  void accept_pending(double now);
  /// One recv(2) into the inbox; false once the peer has finished sending.
  bool read_input(Connection& connection);
  /// Sends queued bytes until the socket would block.
  void flush(Connection& connection, double now);
  /// Parses and answers every complete HTTP request in the inbox.
  void handle_http(Connection& connection, double now);
  /// Answers every complete line in the inbox.
  void handle_lines(Connection& connection, double now);
  /// Routes one parsed GET to its endpoint body.
  void respond(Connection& connection, const std::string& method,
               const std::string& target, bool keep_alive);
  void enqueue_response(Connection& connection, int code,
                        const std::string& content_type,
                        const std::string& body, bool keep_alive);
  [[nodiscard]] std::string metrics_body() const;
  [[nodiscard]] std::string default_status_body() const;

  ListenerConfig config_;
  int listen_fd_ = -1;
  // Self-pipe: stop() writes a byte so the loop's poll() returns at once.
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> accepted_{0};
  double started_monotonic_ = 0.0;
  std::vector<Connection> connections_;

  // Self-observation (registered when a registry is attached).
  Counter* m_requests_ = nullptr;
  Counter* m_not_found_ = nullptr;
  Counter* m_rejected_ = nullptr;
};

/// Prometheus text for the tracer's own health counters
/// (absq_trace_recorded_total / absq_trace_dropped_total) — appended to
/// /metrics so ring overflow is visible live, not just in post-mortems.
[[nodiscard]] std::string tracer_prometheus(const EventTracer& tracer);

}  // namespace absq::obs
