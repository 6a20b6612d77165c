// Shared pieces of the benchmark binary: options, sample statistics, the
// result record every workload fills, and the span helpers of the traced
// run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace absbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short self-test run: fewer repetitions, no minimum sample counts.
  bool smoke = false;
  /// Flip one bit of one returned answer before it is checked, so the
  /// correctness gate must fire.
  bool corrupt = false;
  /// Scratch directory for the journal-append probe.
  std::string workdir;
  /// Where the chrome trace of a traced run is written.
  std::string trace_out;
};

/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double sum(const std::vector<double>& values);

/// Everything one run reports: metrics with units and sample counts, raw
/// samples, free-form facts, and the operation tally of the correctness
/// gate.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t count, const std::string& note = "");
  void samples(const std::string& name, std::vector<double> values);
  void fact(const std::string& key, const std::string& value);
  void fact(const std::string& key, double value);
  /// One attempted operation; `ok` false counts it failed.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A returned answer did not check out: the run fails as a whole.
  void mismatch(const std::string& what);

  [[nodiscard]] bool correct() const { return mismatches_.empty(); }
  void write_json(std::ostream& out) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::uint64_t count = 0;
    std::string note;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> text_facts_;
  std::map<std::string, double> number_facts_;
  std::vector<std::string> mismatches_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Trace pid stride per request: the benchmark's spans of request `id` and
/// the spans the program emits for it share pids [id*stride, (id+1)*stride).
inline constexpr std::uint32_t kPidStride = 256;
/// Thread id the benchmark's own spans carry (program spans use device and
/// block indices).
inline constexpr std::uint32_t kBenchTid = 1u << 20;

/// Records one benchmark span ending now (no-op without a tracer).
void record_span(absq::obs::EventTracer* tracer, const char* name,
                 const char* layer, std::uint64_t start_ns, std::uint32_t id);

/// Per-layer self time of a trace: span time minus the part of it covered
/// by child spans of the same request. The program's spans are leaves; the
/// benchmark's spans (tid kBenchTid) nest them.
struct LayerTime {
  double self_ms = 0.0;
  double total_ms = 0.0;
};
[[nodiscard]] std::map<std::string, LayerTime> self_time_by_layer(
    const std::vector<absq::obs::TraceEvent>& events);

/// Durations (µs) of the program spans called `name`.
[[nodiscard]] std::vector<double> span_durations_us(
    const std::vector<absq::obs::TraceEvent>& events, const char* name);

/// Writes the chrome trace plus the self-time table.
void write_trace(const std::string& path,
                 const std::vector<absq::obs::TraceEvent>& events);

/// Peak resident set of this process, MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

}  // namespace absbench
