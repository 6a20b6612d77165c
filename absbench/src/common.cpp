#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace absbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t count,
                    const std::string& note) {
  metrics_[name] = Metric{value, unit, count, note};
}

void Result::samples(const std::string& name, std::vector<double> values) {
  samples_[name] = std::move(values);
}

void Result::fact(const std::string& key, const std::string& value) {
  text_facts_[key] = value;
}

void Result::fact(const std::string& key, double value) {
  number_facts_[key] = value;
}

void Result::mismatch(const std::string& what) {
  // Keep the first few diagnoses; the count is what gates the run.
  if (mismatches_.size() < 16) std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  mismatches_.push_back(what);
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Result::write_json(std::ostream& out) const {
  out << "{\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"mismatches\":" << mismatches_.size() << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ",") << quoted(name) << ":{\"value\":"
        << number(m.value) << ",\"unit\":" << quoted(m.unit)
        << ",\"count\":" << m.count;
    if (!m.note.empty()) out << ",\"note\":" << quoted(m.note);
    out << "}";
    first = false;
  }
  out << "},\"facts\":{";
  first = true;
  for (const auto& [key, value] : text_facts_) {
    out << (first ? "" : ",") << quoted(key) << ":" << quoted(value);
    first = false;
  }
  for (const auto& [key, value] : number_facts_) {
    out << (first ? "" : ",") << quoted(key) << ":" << number(value);
    first = false;
  }
  out << "},\"samples\":{";
  first = true;
  for (const auto& [name, values] : samples_) {
    out << (first ? "" : ",") << quoted(name) << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i == 0 ? "" : ",") << number(values[i]);
    }
    out << "]";
    first = false;
  }
  out << "}}\n";
}

void record_span(absq::obs::EventTracer* tracer, const char* name,
                 const char* layer, std::uint64_t start_ns, std::uint32_t id) {
  if (tracer == nullptr) return;
  tracer->complete(name, layer, start_ns, id * kPidStride, kBenchTid);
}

namespace {

/// The layer a span belongs to: the benchmark's spans name it as their
/// category; the program's host-loop spans are `abs`, its block spans
/// `search`.
std::string layer_of(const absq::obs::TraceEvent& event) {
  const std::string category = event.category;
  return event.tid != kBenchTid && category == "host" ? "abs" : category;
}

struct Interval {
  std::uint64_t begin;
  std::uint64_t end;
};

/// Length of [begin, end) covered by the sorted, disjoint `merged` set.
std::uint64_t covered(const std::vector<Interval>& merged, std::uint64_t begin,
                      std::uint64_t end) {
  std::uint64_t total = 0;
  auto it = std::lower_bound(
      merged.begin(), merged.end(), begin,
      [](const Interval& iv, std::uint64_t t) { return iv.end <= t; });
  for (; it != merged.end() && it->begin < end; ++it) {
    const std::uint64_t lo = std::max(begin, it->begin);
    const std::uint64_t hi = std::min(end, it->end);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

std::vector<Interval> merge(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::vector<Interval> merged;
  for (const auto& iv : intervals) {
    if (!merged.empty() && iv.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

}  // namespace

std::map<std::string, LayerTime> self_time_by_layer(
    const std::vector<absq::obs::TraceEvent>& events) {
  // Group spans by request; within a request, a benchmark span's children
  // are every other span of the request that lies inside it.
  std::map<std::uint32_t, std::vector<const absq::obs::TraceEvent*>> requests;
  for (const auto& event : events) {
    if (event.phase != 'X') continue;
    requests[event.pid / kPidStride].push_back(&event);
  }
  std::map<std::string, LayerTime> layers;
  for (const auto& [id, spans] : requests) {
    std::vector<const absq::obs::TraceEvent*> bench;
    for (const auto* span : spans) {
      LayerTime& layer = layers[layer_of(*span)];
      layer.total_ms += static_cast<double>(span->dur_ns) / 1e6;
      if (span->tid == kBenchTid) {
        bench.push_back(span);
      } else {
        layer.self_ms += static_cast<double>(span->dur_ns) / 1e6;
      }
    }
    for (const auto* outer : bench) {
      const std::uint64_t begin = outer->ts_ns;
      const std::uint64_t end = outer->ts_ns + outer->dur_ns;
      std::vector<Interval> children;
      for (const auto* span : spans) {
        if (span == outer) continue;
        const std::uint64_t s = span->ts_ns;
        const std::uint64_t e = span->ts_ns + span->dur_ns;
        if (s >= begin && e <= end && !(s == begin && e == end)) {
          children.push_back({s, e});
        }
      }
      const std::uint64_t child_ns =
          covered(merge(std::move(children)), begin, end);
      layers[layer_of(*outer)].self_ms +=
          static_cast<double>(outer->dur_ns - std::min(outer->dur_ns, child_ns)) /
          1e6;
    }
  }
  return layers;
}

std::vector<double> span_durations_us(
    const std::vector<absq::obs::TraceEvent>& events, const char* name) {
  std::vector<double> out;
  const std::string wanted = name;
  for (const auto& event : events) {
    if (event.phase == 'X' && event.tid != kBenchTid && wanted == event.name) {
      out.push_back(static_cast<double>(event.dur_ns) / 1e3);
    }
  }
  return out;
}

void write_trace(const std::string& path,
                 const std::vector<absq::obs::TraceEvent>& events) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("cannot write trace " + path);
  out << absq::obs::chrome_trace_json(events);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace absbench
