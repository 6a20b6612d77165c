// dense-tts and sparse-tts: one caller runs solves back to back (closed
// loop). Every solve builds a fresh AbsSolver — 1 device, 3 worker
// threads, plus the host loop on the caller's thread — and runs it to a
// committed target energy under a cap. The instance is fixed per workload;
// the solve seeds come from the workload seed.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "abs/solver.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "problems/graph.hpp"
#include "problems/maxcut.hpp"
#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "qubo/io.hpp"
#include "qubo/kernel.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace absbench {
namespace {

// dense-tts: a Table 1(c)-style random QUBO (1024^2 int16 weights, 2 MiB).
// The target is 99.83 % of the best energy found (-380157222): aimed at the
// best energy itself, about one solve in 300 stalled in another basin until
// the cap, and a capped solve is a failed operation.
constexpr absq::BitIndex kDenseBits = 1024;
constexpr std::uint64_t kDenseInstanceSeed = 2020;
constexpr absq::Energy kDenseTarget = -379500000;

// sparse-tts: ±1 Max-Cut on G(n, m) with average degree 6. The best cut
// found is 477. Now and then a solve stalls just below its target until
// the cap (at cut 467 and 468 aiming at 470, at 464 aiming at 465), so the
// target leaves room below those levels.
constexpr absq::BitIndex kSparseVertices = 512;
constexpr std::size_t kSparseEdges = 1536;
constexpr std::uint64_t kSparseInstanceSeed = 2020;
constexpr std::int64_t kSparseTargetCut = 460;

constexpr double kCapSeconds = 10.0;
/// setup_s repeats parse + plan in bursts of at least one repetition and
/// kSetupBurstSeconds: one before the solves, then one between solves
/// each time kSetupGap times the last burst's length (at least a second)
/// has passed, so set-up takes at most ~1/kSetupGap of the run. On a
/// shared host the CPU speed changes from one second to the next; bursts
/// spread over the run sample it the way the solves do.
constexpr double kSetupBurstSeconds = 0.025;
constexpr double kSetupGap = 10.0;
constexpr std::uint32_t kWorkers = 3;
/// Tracing of new solves stops once this many events were recorded, so no
/// shard of the tracer below can wrap.
constexpr std::uint64_t kTraceBudget = 250000;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 22;
/// The tail percentile reported (p90) needs >= 10 solves beyond it.
constexpr std::size_t kMinSolvesForTail = 100;

/// One AbsSolver solve timed from outside.
struct SolveSample {
  bool reached = false;
  double construct_ms = 0.0;  ///< AbsSolver constructor
  double tts_ms = 0.0;        ///< constructor start -> target crossing
  double stop_ms = 0.0;       ///< target crossing -> run() returned
  double run_s = 0.0;         ///< run() wall time
  double search_rate = 0.0;   ///< evaluated solutions / run() wall time
  double wall_ms = 0.0;       ///< whole solve incl. destruction and check
  std::uint32_t blocks = 0;   ///< resident blocks of device 0
  absq::AbsResult result;
};

struct Instance {
  absq::WeightMatrix w;
  std::string text;
  std::optional<absq::WeightedGraph> graph;
  absq::Energy target = 0;
};

Instance make_instance(bool dense) {
  Instance inst;
  if (dense) {
    inst.w = absq::random_qubo(kDenseBits, kDenseInstanceSeed);
    inst.target = kDenseTarget;
  } else {
    absq::Rng rng(kSparseInstanceSeed);
    inst.graph = absq::random_gnm_graph(
        kSparseVertices, kSparseEdges, absq::EdgeWeights::kPlusMinusOne, rng);
    inst.w = absq::maxcut_to_qubo(*inst.graph);
    inst.target = -kSparseTargetCut;
  }
  std::ostringstream text;
  absq::write_qubo(text, inst.w);
  inst.text = text.str();
  return inst;
}

absq::AbsConfig solver_config() {
  absq::AbsConfig config;
  config.num_devices = 1;
  config.device.threads_per_device = kWorkers;
  return config;
}

/// The correctness gate: the returned energy must equal full_energy of
/// the returned bits, and for Max-Cut the decoded cut must match it.
bool verify(const Instance& inst, const absq::BitVector& bits,
            absq::Energy reported, Result& result) {
  const absq::Energy energy = absq::full_energy(inst.w, bits);
  bool ok = energy == reported;
  if (inst.graph.has_value()) {
    ok = ok && absq::cut_weight(*inst.graph, bits) == -reported;
  }
  if (!ok) {
    result.mismatch("reported energy " + std::to_string(reported) +
                    " but full_energy gives " + std::to_string(energy));
  }
  return ok;
}

std::vector<double> field(const std::vector<SolveSample>& solves,
                          double SolveSample::*member) {
  std::vector<double> out;
  out.reserve(solves.size());
  for (const auto& s : solves) out.push_back(s.*member);
  return out;
}

/// Runs one solve of `w` under `config`/`stop`; with a tracer, records the
/// benchmark's spans of request `id` around the calls.
SolveSample timed_solve(const absq::WeightMatrix& w,
                        const absq::AbsConfig& config,
                        const absq::StopCriteria& stop,
                        absq::obs::EventTracer* tracer, std::uint32_t id,
                        absq::SolutionPool* pool_out = nullptr) {
  absq::AbsConfig traced = config;
  if (tracer != nullptr) {
    traced.telemetry.tracer = tracer;
    traced.telemetry.pid_base = id * kPidStride;
  }
  SolveSample s;
  const std::uint64_t construct_ns = tracer != nullptr ? tracer->now_ns() : 0;
  const auto t0 = Clock::now();
  auto solver = std::make_unique<absq::AbsSolver>(w, traced);
  const auto t1 = Clock::now();
  record_span(tracer, "construct", "abs", construct_ns, id);
  const std::uint64_t run_ns = tracer != nullptr ? tracer->now_ns() : 0;
  s.result = solver->run(stop);
  const auto t2 = Clock::now();
  record_span(tracer, "run", "abs", run_ns, id);
  if (pool_out != nullptr) *pool_out = solver->pool();
  s.blocks = solver->device(0).block_count();

  s.construct_ms = seconds_between(t0, t1) * 1e3;
  s.run_s = seconds_between(t1, t2);
  s.search_rate =
      static_cast<double>(s.result.evaluated_solutions) / s.run_s;
  if (stop.target_energy.has_value()) {
    for (const auto& [seconds, energy] : s.result.best_trace) {
      if (energy <= *stop.target_energy) {
        s.reached = true;
        s.tts_ms = s.construct_ms + seconds * 1e3;
        s.stop_ms = (s.run_s - seconds) * 1e3;
        break;
      }
    }
  }
  return s;
}

/// The solve-derived layer metrics (abs, ga, sim) over a set of solves,
/// plus the trace-derived host-loop and block shares.
void report_solve_layers(const std::vector<SolveSample>& solves,
                         const std::vector<absq::obs::TraceEvent>& events,
                         double traced_run_seconds, std::uint32_t workers,
                         Result& result) {
  double iterations = 0, misses = 0, run_s = 0, received = 0, inserted = 0,
         duplicates = 0, reports = 0, sol_dropped = 0, tgt_dropped = 0,
         generated = 0;
  for (const auto& s : solves) {
    for (const auto& d : s.result.devices) {
      iterations += static_cast<double>(d.iterations);
      misses += static_cast<double>(d.target_misses);
      reports += static_cast<double>(d.reports);
    }
    run_s += s.run_s;
    received += static_cast<double>(s.result.reports_received);
    inserted += static_cast<double>(s.result.reports_inserted);
    duplicates += static_cast<double>(s.result.duplicates_rejected);
    sol_dropped += static_cast<double>(s.result.solutions_dropped);
    tgt_dropped += static_cast<double>(s.result.targets_dropped);
    generated += static_cast<double>(s.result.targets_generated);
  }
  const auto n = static_cast<std::uint64_t>(solves.size());
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  result.metric("abs.construct_ms", median(field(solves, &SolveSample::construct_ms)),
                "ms", n, "AbsSolver constructor");
  result.metric("abs.stop_ms", median(field(solves, &SolveSample::stop_ms)),
                "ms", n, "target crossing -> run() returned");
  result.metric("abs.iterations_per_s", ratio(iterations, run_s), "1/s",
                static_cast<std::uint64_t>(iterations));
  result.metric("abs.target_miss_ratio", ratio(misses, iterations), "ratio",
                static_cast<std::uint64_t>(iterations),
                "block iterations that found no fresh target");
  result.metric("ga.accept_ratio", ratio(inserted, received), "ratio",
                static_cast<std::uint64_t>(received), "inserted / received");
  result.metric("ga.duplicate_ratio", ratio(duplicates, received), "ratio",
                static_cast<std::uint64_t>(received),
                "duplicates rejected / received");
  result.metric("sim.solution_drop_ratio", ratio(sol_dropped, reports),
                "ratio", static_cast<std::uint64_t>(reports),
                "solution-mailbox overwrites / reports pushed");
  result.metric("sim.target_drop_ratio", ratio(tgt_dropped, generated),
                "ratio", static_cast<std::uint64_t>(generated),
                "target-mailbox overwrites / targets generated");

  // Host loop and block time from the program's own spans.
  const auto rounds = span_durations_us(events, "ga_round");
  const auto straight = span_durations_us(events, "straight");
  const auto local = span_durations_us(events, "local");
  const double run_us = traced_run_seconds * 1e6;
  result.metric("abs.host_round_p50_us", quantile(rounds, 0.5), "us",
                rounds.size(), "ga_round span");
  result.metric("abs.host_round_p99_us", quantile(rounds, 0.99), "us",
                rounds.size(), "ga_round span");
  result.metric("abs.host_busy_share", ratio(sum(rounds), run_us), "ratio",
                rounds.size(), "ga_round time / traced run() time");
  result.metric("abs.straight_share",
                ratio(sum(straight), run_us * workers), "ratio",
                straight.size(), "straight span time / worker time");
  result.metric("abs.local_share", ratio(sum(local), run_us * workers),
                "ratio", local.size(), "local span time / worker time");
}

}  // namespace

void run_solve_workload(const Options& o, Result& result) {
  const bool dense = o.workload == "dense-tts";
  const Instance inst = make_instance(dense);
  const absq::AbsConfig config = solver_config();
  const absq::StopCriteria stop{inst.target, kCapSeconds, 0};
  result.fact("instance", dense ? "random_qubo n=1024" : "maxcut pm1 G(512,1536)");
  result.fact("target_energy", static_cast<double>(inst.target));
  result.fact("cap_seconds", kCapSeconds);

  // setup_s: instance parse through qubo/io plus the first kernel plan.
  // The first (cold) repetition checks the parse and is not counted.
  {
    std::istringstream text(inst.text);
    const absq::WeightMatrix parsed = absq::read_qubo(text);
    if (!(parsed == inst.w)) result.mismatch("parsed instance differs");
    result.fact("kernel",
                absq::QuboKernel(parsed, config.device.kernel).description());
  }
  std::vector<double> setup;
  // Runs one burst and returns its length in seconds.
  auto setup_burst = [&] {
    const auto burst_begin = Clock::now();
    do {
      const auto t0 = Clock::now();
      std::istringstream text(inst.text);
      const absq::WeightMatrix parsed = absq::read_qubo(text);
      const absq::QuboKernel kernel(parsed, config.device.kernel);
      setup.push_back(seconds_between(t0, Clock::now()));
    } while (seconds_between(burst_begin, Clock::now()) < kSetupBurstSeconds);
    return seconds_between(burst_begin, Clock::now());
  };
  double setup_gap_s = std::max(1.0, kSetupGap * setup_burst());

  absq::Rng seeds(absq::mix64(o.seed ^ (dense ? 0xd0 : 0x5a)));
  // Warm-up solve: caches and lazy set-up, and the pool the probes use.
  absq::SolutionPool warm_pool(config.pool_capacity);
  {
    absq::AbsConfig warm = config;
    warm.seed = seeds();
    SolveSample s = timed_solve(inst.w, warm, stop, nullptr, 0, &warm_pool);
    if (!verify(inst, s.result.best, s.result.best_energy, result)) return;
    result.fact("blocks", static_cast<double>(s.blocks));
  }

  std::unique_ptr<absq::obs::MetricsRegistry> registry;
  std::unique_ptr<absq::obs::EventTracer> tracer;
  if (o.trace) {
    registry = std::make_unique<absq::obs::MetricsRegistry>();
    tracer = std::make_unique<absq::obs::EventTracer>(kTraceCapacity);
  }

  std::vector<SolveSample> solves;      // every measured solve
  std::vector<SolveSample> traced;      // traced solves (trace run)
  std::vector<SolveSample> untraced;    // untraced solves (trace run)
  double traced_run_s = 0.0;
  const auto begin = Clock::now();
  double next_setup_s = setup_gap_s;
  for (std::uint32_t i = 1; seconds_between(begin, Clock::now()) < o.seconds;
       ++i) {
    const double elapsed_s = seconds_between(begin, Clock::now());
    if (elapsed_s >= next_setup_s) {
      setup_gap_s = std::max(1.0, kSetupGap * setup_burst());
      next_setup_s = elapsed_s + setup_gap_s;
    }
    absq::AbsConfig solve_config = config;
    solve_config.seed = seeds();
    // The traced run alternates traced and untraced solves, so the
    // tracing overhead is measured on the same instance and seeds stream.
    const bool trace_this = tracer != nullptr && i % 2 == 1 &&
                            tracer->recorded() < kTraceBudget;
    absq::obs::EventTracer* t = trace_this ? tracer.get() : nullptr;
    if (trace_this) solve_config.telemetry.metrics = registry.get();
    const std::uint64_t root_ns = t != nullptr ? t->now_ns() : 0;
    const auto solve_start = Clock::now();
    SolveSample s = timed_solve(inst.w, solve_config, stop, t, i);
    absq::BitVector answer = s.result.best;
    if (o.corrupt && i == 1) answer.flip(0);
    const std::uint64_t verify_ns = t != nullptr ? t->now_ns() : 0;
    const bool ok = verify(inst, answer, s.result.best_energy, result);
    s.wall_ms = seconds_between(solve_start, Clock::now()) * 1e3;
    record_span(t, "verify", "qubo", verify_ns, i);
    record_span(t, "solve", "bench", root_ns, i);
    result.attempt(ok && s.reached);
    if (trace_this) {
      traced_run_s += s.run_s;
      traced.push_back(s);
    } else if (tracer != nullptr) {
      untraced.push_back(s);
    }
    solves.push_back(std::move(s));
  }
  result.metric("setup_s", median(setup), "s", setup.size(),
                "read_qubo + QuboKernel plan, median of warm repetitions over the run");
  result.samples("setup_s", setup);

  std::vector<double> tts, construct, stop_ms, rates, energies, wall_ms;
  double evaluated = 0.0, run_s = 0.0;
  for (const auto& s : solves) {
    // A capped solve counts with the time it ran, which is at least the
    // cap, so it sorts after every solve that reached the target.
    if (s.reached) {
      tts.push_back(s.tts_ms);
      stop_ms.push_back(s.stop_ms);
    } else {
      tts.push_back(s.construct_ms + s.run_s * 1e3);
    }
    construct.push_back(s.construct_ms);
    wall_ms.push_back(s.wall_ms);
    rates.push_back(s.search_rate);
    energies.push_back(static_cast<double>(s.result.best_energy));
    evaluated += static_cast<double>(s.result.evaluated_solutions);
    run_s += s.run_s;
  }
  const auto count = static_cast<std::uint64_t>(solves.size());
  if (!o.smoke && solves.size() < kMinSolvesForTail) {
    result.fact("warning", "fewer solves than the p90 tail needs");
  }
  result.metric("latency_p50_ms", quantile(tts, 0.5), "ms", tts.size(),
                "time to target: AbsSolver construction -> target crossing; "
                "a capped solve counts as its run time");
  result.metric("latency_tail_ms", quantile(tts, 0.9), "ms", tts.size(),
                "p90 time to target");
  // A closed loop of one caller completes 1/(solve time) solves per
  // second; the median solve keeps a rare multi-second solve from
  // deciding the figure (the mean-based rate is kept in the record).
  result.metric("rate_per_s", 1e3 / quantile(wall_ms, 0.5), "1/s", count,
                "solves per second at the median solve wall time "
                "(construct, run, verify)");
  result.fact("mean_rate_per_s",
              static_cast<double>(count) / sum(wall_ms) * 1e3);
  result.metric("search_rate", evaluated / run_s, "1/s", count,
                "evaluated solutions per second over all solves");
  result.samples("tts_ms", tts);
  result.samples("construct_ms", construct);
  result.samples("stop_ms", stop_ms);
  result.samples("solve_wall_ms", wall_ms);
  result.samples("solve_search_rate", rates);
  result.samples("best_energy", energies);
  result.fact("solves", static_cast<double>(count));

  if (!o.trace) {
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM");
    return;
  }

  const auto events = tracer->snapshot();
  report_solve_layers(solves, events, traced_run_s, kWorkers, result);
  std::vector<double> rate_traced, rate_untraced;
  for (const auto& s : traced) rate_traced.push_back(s.search_rate);
  for (const auto& s : untraced) rate_untraced.push_back(s.search_rate);
  result.metric("obs.trace_overhead_pct",
                (median(rate_untraced) / median(rate_traced) - 1.0) * 100.0,
                "%", traced.size() + untraced.size(),
                "median per-solve search rate, untraced vs traced solves");
  result.metric("obs.trace_dropped", static_cast<double>(tracer->dropped()),
                "count", tracer->recorded());
  if (tracer->dropped() != 0) result.mismatch("tracer dropped events");
  for (const auto& [layer, t] : self_time_by_layer(events)) {
    result.fact("self_ms." + layer, t.self_ms);
    result.fact("total_ms." + layer, t.total_ms);
  }
  result.fact("traced_solves", static_cast<double>(traced.size()));

  ProbeInput probe;
  probe.w = &inst.w;
  probe.text = inst.text;
  probe.config = config;
  probe.pool = &warm_pool;
  probe.registry = registry.get();
  probe.journal_dir = o.workdir;
  probe.seed = o.seed;
  probe.smoke = o.smoke;
  run_layer_probes(probe, result);
  if (!o.trace_out.empty()) write_trace(o.trace_out, events);
}

}  // namespace absbench
