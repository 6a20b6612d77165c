#include "obs/listener.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/log.hpp"
#include "obs/json_text.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace absq::obs {
namespace {

/// Poll granularity: how often the idle-timeout sweep runs. stop() does
/// not wait for it: it wakes the loop through the self-pipe.
constexpr int kPollMs = 50;

/// Bytes one recv(2) may add to an inbox per poll round.
constexpr std::size_t kReadChunk = 64 * 1024;

constexpr const char* kComponent = "listener";

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

void close_connection(int& fd) {
  close_quietly(fd);
  fd = -1;
}

/// EWOULDBLOCK aliases EAGAIN on Linux; comparing both trips -Wlogical-op,
/// so only check the alias where it is distinct.
bool would_block() {
  return errno == EAGAIN
#if EWOULDBLOCK != EAGAIN
         || errno == EWOULDBLOCK
#endif
      ;
}

/// A kLine error reply line in the job protocol's shape
/// (serve/protocol.hpp).
std::string line_error(const char* code, const char* message) {
  return std::string("{\"ok\":false,\"code\":\"") + code +
         "\",\"error\":\"" + message + "\"}";
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* reason_phrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "Unknown";
}

/// Case-insensitive "does this header line name this header?".
bool header_is(const std::string& line, const char* name) {
  const std::size_t len = std::strlen(name);
  if (line.size() < len + 1) return false;
  for (std::size_t i = 0; i < len; ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return line[len] == ':';
}

bool header_value_contains(const std::string& line, const char* token) {
  const std::size_t colon = line.find(':');
  if (colon == std::string::npos) return false;
  std::string value = line.substr(colon + 1);
  std::transform(value.begin(), value.end(), value.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return value.find(token) != std::string::npos;
}

}  // namespace

std::string tracer_prometheus(const EventTracer& tracer) {
  std::string out;
  out += "# TYPE absq_trace_recorded_total counter\n";
  out += "absq_trace_recorded_total " + std::to_string(tracer.recorded()) +
         "\n";
  out += "# TYPE absq_trace_dropped_total counter\n";
  out +=
      "absq_trace_dropped_total " + std::to_string(tracer.dropped()) + "\n";
  return out;
}

Listener::Listener(ListenerConfig config)
    : config_(std::move(config)) {
  if (config_.metrics != nullptr) {
    m_requests_ = &config_.metrics->counter("absq_http_requests_total");
    m_not_found_ =
        &config_.metrics->counter("absq_http_not_found_total");
    m_rejected_ = &config_.metrics->counter("absq_http_rejected_total");
  }
}

Listener::~Listener() { stop(); }

void Listener::start() {
  ABSQ_CHECK(listen_fd_ < 0, "Listener::start called twice");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ABSQ_CHECK(fd >= 0, "socket(): " << std::strerror(errno));

  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      htonl(config_.listen_any ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string reason = std::strerror(errno);
    close_quietly(fd);
    ABSQ_CHECK(false, "cannot bind port " << config_.port << ": " << reason);
  }
  if (::listen(fd, 64) != 0) {
    const std::string reason = std::strerror(errno);
    close_quietly(fd);
    ABSQ_CHECK(false, "listen(): " << reason);
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ABSQ_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                           &bound_len) == 0,
             "getsockname(): " << std::strerror(errno));
  port_ = static_cast<int>(ntohs(bound.sin_port));

  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) {
    const std::string reason = std::strerror(errno);
    close_quietly(fd);
    ABSQ_CHECK(false, "pipe(): " << reason);
  }
  set_nonblocking(fd);
  set_nonblocking(wake[1]);
  listen_fd_ = fd;
  wake_read_fd_ = wake[0];
  wake_write_fd_ = wake[1];
  started_monotonic_ = monotonic_seconds();
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  log_info(kComponent, "listening",
           {{"port", static_cast<std::int64_t>(port_)},
            {"bind", config_.listen_any ? "0.0.0.0" : "127.0.0.1"},
            {"framing",
             config_.framing == Framing::kLine ? "line" : "http"}});
}

void Listener::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (wake_write_fd_ >= 0) {
    // One byte makes the loop's poll() return now instead of at its
    // timeout; the loop then sees stopping_ and exits. A full pipe
    // (EAGAIN) already holds a wake-up.
    const char byte = 0;
    (void)!::write(wake_write_fd_, &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
  close_connection(wake_read_fd_);
  close_connection(wake_write_fd_);
  close_quietly(listen_fd_);
  listen_fd_ = -1;
  for (Connection& connection : connections_) {
    flush(connection, monotonic_seconds());
    close_quietly(connection.fd);
  }
  connections_.clear();
}

std::string Listener::metrics_body() const {
  std::string body = to_prometheus(config_.metrics->scrape());
  if (config_.tracer != nullptr) {
    body += tracer_prometheus(*config_.tracer);
  }
  return body;
}

std::string Listener::default_status_body() const {
  std::string body = "{\"uptime_seconds\":";
  body += json_number(monotonic_seconds() - started_monotonic_);
  body += ",\"requests_served\":";
  // absq-lint: allow(atomic-audit) status snapshot read of a stat counter
  body += std::to_string(requests_.load(std::memory_order_relaxed));
  body += ",\"connections_accepted\":";
  // absq-lint: allow(atomic-audit) status snapshot read of a stat counter
  body += std::to_string(accepted_.load(std::memory_order_relaxed));
  body += "}";
  return body;
}

void Listener::enqueue_response(Connection& connection, int code,
                                    const std::string& content_type,
                                    const std::string& body,
                                    bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(code) + " " +
                     reason_phrase(code) + "\r\n";
  head += "Content-Type: " + content_type + "\r\n";
  head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  head += keep_alive ? "Connection: keep-alive\r\n"
                     : "Connection: close\r\n";
  head += "\r\n";
  connection.outbox += head;
  connection.outbox += body;
  if (!keep_alive) connection.close_after_flush = true;
}

void Listener::respond(Connection& connection, const std::string& method,
                           const std::string& target, bool keep_alive) {
  // absq-lint: allow(atomic-audit) single-writer stat on the loop thread
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (m_requests_ != nullptr) m_requests_->add();

  if (method != "GET") {
    enqueue_response(connection, 405, "text/plain; charset=utf-8",
                     "only GET is served here\n", keep_alive);
    return;
  }
  // Strip any query string; none of the endpoints take parameters.
  std::string path = target.substr(0, target.find('?'));

  if (path == "/healthz") {
    enqueue_response(connection, 200, "text/plain; charset=utf-8", "ok\n",
                     keep_alive);
    return;
  }
  if (path == "/metrics") {
    if (config_.metrics == nullptr) {
      enqueue_response(connection, 503, "text/plain; charset=utf-8",
                       "no metrics registry attached\n", keep_alive);
      return;
    }
    enqueue_response(connection, 200,
                     "text/plain; version=0.0.4; charset=utf-8",
                     metrics_body(), keep_alive);
    return;
  }
  if (path == "/trace") {
    if (config_.tracer == nullptr) {
      enqueue_response(connection, 503, "text/plain; charset=utf-8",
                       "no event tracer attached\n", keep_alive);
      return;
    }
    enqueue_response(connection, 200, "application/json",
                     chrome_trace_json(config_.tracer->snapshot()),
                     keep_alive);
    return;
  }
  if (path == "/status") {
    std::string body;
    if (config_.status != nullptr) {
      try {
        body = config_.status();
      } catch (const std::exception& error) {
        log_error(kComponent, "status handler threw",
                  {{"error", error.what()}});
        enqueue_response(connection, 500, "text/plain; charset=utf-8",
                         "status handler failed\n", keep_alive);
        return;
      }
    } else {
      body = default_status_body();
    }
    enqueue_response(connection, 200, "application/json", body, keep_alive);
    return;
  }
  if (path == "/") {
    enqueue_response(connection, 200, "text/plain; charset=utf-8",
                     "absqubo observability endpoints:\n"
                     "  /healthz  liveness\n"
                     "  /metrics  Prometheus text exposition\n"
                     "  /status   JSON process/job status\n"
                     "  /trace    Chrome trace_event JSON snapshot\n",
                     keep_alive);
    return;
  }
  if (m_not_found_ != nullptr) m_not_found_->add();
  enqueue_response(connection, 404, "text/plain; charset=utf-8",
                   "unknown path\n", keep_alive);
}

void Listener::handle_http(Connection& connection, double now) {
  while (connection.fd >= 0 && !connection.close_after_flush) {
    // A request head ends at the first blank line; tolerate bare-LF
    // clients (nc, test harnesses).
    std::size_t head_end = connection.inbox.find("\r\n\r\n");
    std::size_t terminator = 4;
    if (head_end == std::string::npos) {
      head_end = connection.inbox.find("\n\n");
      terminator = 2;
    }
    if (head_end == std::string::npos) {
      if (connection.inbox.size() > config_.max_request_bytes) {
        if (m_rejected_ != nullptr) m_rejected_->add();
        // absq-lint: allow(atomic-audit) single-writer stat, loop thread
        requests_.fetch_add(1, std::memory_order_relaxed);
        enqueue_response(connection, 431, "text/plain; charset=utf-8",
                         "request head too large\n", /*keep_alive=*/false);
      }
      return;
    }
    const std::string head = connection.inbox.substr(0, head_end);
    connection.inbox.erase(0, head_end + terminator);
    connection.last_activity = now;

    // Request line: METHOD SP target SP version.
    const std::size_t line_end = head.find_first_of("\r\n");
    std::string request_line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      // absq-lint: allow(atomic-audit) single-writer stat, loop thread
      requests_.fetch_add(1, std::memory_order_relaxed);
      enqueue_response(connection, 400, "text/plain; charset=utf-8",
                       "malformed request line\n", /*keep_alive=*/false);
      return;
    }
    const std::string method = request_line.substr(0, sp1);
    const std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = request_line.substr(sp2 + 1);

    // Keep-alive: HTTP/1.1 default-on unless "Connection: close";
    // anything older is one-shot.
    bool keep_alive = version.rfind("HTTP/1.1", 0) == 0;
    std::size_t cursor = line_end;
    while (cursor != std::string::npos && cursor < head.size()) {
      const std::size_t start = head.find_first_not_of("\r\n", cursor);
      if (start == std::string::npos) break;
      std::size_t end = head.find_first_of("\r\n", start);
      if (end == std::string::npos) end = head.size();
      const std::string line = head.substr(start, end - start);
      if (header_is(line, "connection")) {
        if (header_value_contains(line, "close")) keep_alive = false;
        if (header_value_contains(line, "keep-alive")) keep_alive = true;
      }
      cursor = end;
    }

    respond(connection, method, target, keep_alive);
  }
}

void Listener::handle_lines(Connection& connection, double now) {
  std::size_t begin = 0;
  while (!connection.close_after_flush) {
    const std::size_t newline =
        connection.inbox.find('\n', std::max(begin, connection.scanned));
    if (newline == std::string::npos) break;
    std::size_t end = newline;
    const std::size_t line_begin = begin;
    begin = newline + 1;
    if (end > line_begin && connection.inbox[end - 1] == '\r') --end;
    if (end == line_begin) continue;  // blank line
    connection.last_activity = now;
    // absq-lint: allow(atomic-audit) single-writer stat, loop thread
    requests_.fetch_add(1, std::memory_order_relaxed);
    std::string reply;
    try {
      reply = config_.on_line(
          connection.inbox.substr(line_begin, end - line_begin));
    } catch (const std::exception& error) {
      log_error(kComponent, "line handler threw", {{"error", error.what()}});
      reply = line_error("internal", "request handler failed");
    }
    // Fault-injection site: the reply is dropped after the request took
    // effect — the ambiguous-outcome case idempotent retries exist for.
    if (fail::triggered("serve.write")) {
      connection.close_after_flush = true;
      break;
    }
    connection.outbox += reply;
    connection.outbox += '\n';
  }
  connection.inbox.erase(0, begin);
  connection.scanned = connection.inbox.size();
  if (!connection.close_after_flush &&
      connection.inbox.size() >= kMaxLineBytes) {
    // Reads stop at the bound, so a full inbox without a newline is a
    // line that cannot fit.
    // absq-lint: allow(atomic-audit) single-writer stat, loop thread
    requests_.fetch_add(1, std::memory_order_relaxed);
    connection.outbox +=
        line_error("bad_request", "request line too long") + '\n';
    connection.close_after_flush = true;
  }
  if (connection.close_after_flush) connection.inbox.clear();
}

void Listener::accept_pending(double now) {
  const bool line = config_.framing == Framing::kLine;
  while (true) {  // drain the backlog; the listener is non-blocking
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    // Fault-injection site: a flaky accept path drops the fresh
    // connection — the client sees a reset before any request.
    if (line && fail::triggered("serve.accept")) {
      close_quietly(fd);
      continue;
    }
    // absq-lint: allow(atomic-audit) single-writer stat, loop thread
    accepted_.fetch_add(1, std::memory_order_relaxed);
    set_nonblocking(fd);
    if (connections_.size() >= config_.max_connections) {
      if (m_rejected_ != nullptr) m_rejected_->add();
      const std::string busy =
          line ? line_error("queue_full", "connection limit reached") + '\n'
               : std::string(
                     "HTTP/1.1 503 Service Unavailable\r\n"
                     "Content-Type: text/plain\r\nContent-Length: 5\r\n"
                     "Connection: close\r\n\r\nbusy\n");
      // absq-lint: allow(hot-path-blocking) not a hot path — listener
      // thread, best-effort single write on a fresh socket.
      (void)::send(fd, busy.data(), busy.size(), MSG_NOSIGNAL);
      close_quietly(fd);
      continue;
    }
    Connection connection;
    connection.fd = fd;
    connection.last_activity = now;
    connections_.push_back(std::move(connection));
  }
}

bool Listener::read_input(Connection& connection) {
  // Fault-injection site: a read that dies mid-request (peer reset from
  // the client's point of view).
  if (config_.framing == Framing::kLine && fail::triggered("serve.read")) {
    close_connection(connection.fd);
    return false;
  }
  char chunk[kReadChunk];
  std::size_t room = sizeof(chunk);
  if (config_.framing == Framing::kLine) {
    // Never buffer past the line bound (handle_lines leaves less).
    room = std::min(room, kMaxLineBytes - connection.inbox.size());
  }
  const ssize_t n = ::recv(connection.fd, chunk, room, 0);
  if (n > 0) {
    // Bytes alone do not reset the idle clock (a trickle would hold the
    // connection forever); only a complete request or send progress does.
    connection.inbox.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  if (n == 0) return false;  // peer finished sending
  if (errno != EINTR && !would_block()) close_connection(connection.fd);
  return connection.fd >= 0;
}

void Listener::flush(Connection& connection, double now) {
  while (connection.fd >= 0 && !connection.outbox.empty()) {
    const ssize_t n = ::send(connection.fd, connection.outbox.data(),
                             connection.outbox.size(), MSG_NOSIGNAL);
    if (n > 0) {
      connection.outbox.erase(0, static_cast<std::size_t>(n));
      connection.last_activity = now;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && would_block()) return;  // wait for POLLOUT
    close_connection(connection.fd);
  }
}

void Listener::loop() {
  std::vector<pollfd> waiters;
  while (!stopping_.load(std::memory_order_acquire)) {
    waiters.clear();
    waiters.push_back({listen_fd_, POLLIN, 0});
    waiters.push_back({wake_read_fd_, POLLIN, 0});
    for (const Connection& connection : connections_) {
      // A connection with unsent replies is not read from: a peer that
      // does not read its replies cannot make the outbox grow.
      waiters.push_back(
          {connection.fd,
           static_cast<short>(connection.outbox.empty() ? POLLIN : POLLOUT),
           0});
    }

    const int ready = ::poll(waiters.data(), waiters.size(), kPollMs);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const double now = monotonic_seconds();
    // `waiters[i + 2]` pairs with `connections_[i]`.
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      Connection& connection = connections_[i];
      const short revents = waiters[i + 2].revents;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (revents & POLLIN) == 0) {
        close_connection(connection.fd);
        continue;
      }
      if ((revents & POLLIN) != 0) {
        const bool peer_open = read_input(connection);
        if (connection.fd >= 0) {
          if (config_.framing == Framing::kLine) {
            handle_lines(connection, now);
          } else {
            handle_http(connection, now);
          }
          // Requests sent before a half-close are still answered.
          if (!peer_open) connection.close_after_flush = true;
        }
      }
      flush(connection, now);
      if (connection.fd >= 0 && connection.close_after_flush &&
          connection.outbox.empty()) {
        close_connection(connection.fd);
      }
      // Idle sweep: no complete request and no send progress for too
      // long — drop the connection (slow-loris defence).
      if (connection.fd >= 0 &&
          now - connection.last_activity > config_.idle_timeout_seconds) {
        close_connection(connection.fd);
      }
    }

    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const Connection& c) { return c.fd < 0; }),
        connections_.end());
    // Accept last, so slots freed this round count against the bound.
    if ((waiters[0].revents & POLLIN) != 0) accept_pending(now);
  }
}

}  // namespace absq::obs
