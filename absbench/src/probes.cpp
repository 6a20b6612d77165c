#include "probes.hpp"

#include <filesystem>
#include <sstream>
#include <vector>

#include "abs/search_block.hpp"
#include "ga/operators.hpp"
#include "qubo/delta_state.hpp"
#include "qubo/io.hpp"
#include "qubo/kernel.hpp"
#include "search/straight.hpp"
#include "serve/journal.hpp"
#include "serve/json.hpp"
#include "sim/mailbox.hpp"
#include "util/rng.hpp"

namespace absbench {
namespace {

/// Keeps probe results observable so the timed calls are not optimized
/// away.
volatile std::int64_t g_sink = 0;

/// Repeats `batch` (which returns the operations it performed) until
/// `budget` seconds have passed and at least `min_batches` ran; returns the
/// nanoseconds per operation of every batch and the total operation count.
template <class F>
std::vector<double> per_op_ns(F&& batch, double budget, int min_batches,
                              std::uint64_t* total_ops = nullptr) {
  std::vector<double> out;
  std::uint64_t ops_total = 0;
  const auto start = Clock::now();
  while (static_cast<int>(out.size()) < min_batches ||
         seconds_between(start, Clock::now()) < budget) {
    const auto t0 = Clock::now();
    const std::uint64_t ops = batch();
    const double ns = seconds_between(t0, Clock::now()) * 1e9;
    if (ops > 0) out.push_back(ns / static_cast<double>(ops));
    ops_total += ops;
  }
  if (total_ops != nullptr) *total_ops = ops_total;
  return out;
}

std::vector<absq::BitIndex> window_ladder(absq::BitIndex n) {
  std::vector<absq::BitIndex> ladder;
  for (absq::BitIndex l = 2; l <= n / 2; l *= 2) ladder.push_back(l);
  if (ladder.empty()) ladder.push_back(1);
  return ladder;
}

}  // namespace

void run_layer_probes(const ProbeInput& in, Result& result) {
  const absq::WeightMatrix& w = *in.w;
  const absq::BitIndex n = w.size();
  const double budget = in.smoke ? 0.02 : 0.3;
  const int min_batches = in.smoke ? 1 : 5;
  absq::Rng rng(absq::mix64(in.seed ^ 0x70726f6265ULL));
  const absq::KernelOptions& kernel_options = in.config.device.kernel;

  // --- qubo: parse, plan, flip, argmin -----------------------------------
  {
    std::uint64_t reps = 0;
    auto parse = per_op_ns(
        [&] {
          std::istringstream text(in.text);
          const absq::WeightMatrix parsed = absq::read_qubo(text);
          g_sink = g_sink + parsed.size();
          return std::uint64_t{1};
        },
        budget, in.smoke ? 1 : 3, &reps);
    result.metric("qubo.parse_ms", median(parse) / 1e6, "ms", reps);

    auto plan = per_op_ns(
        [&] {
          const absq::QuboKernel kernel(w, kernel_options);
          g_sink = g_sink + static_cast<std::int64_t>(kernel.stored_nonzeros());
          return std::uint64_t{1};
        },
        budget, in.smoke ? 1 : 3, &reps);
    result.metric("qubo.plan_ms", median(plan) / 1e6, "ms", reps);
  }
  const absq::QuboKernel kernel(w, kernel_options);
  result.fact("kernel", kernel.description());
  const absq::BitVector& start = in.pool->best().bits;
  {
    std::vector<absq::BitIndex> bits(4096);
    for (auto& b : bits) b = static_cast<absq::BitIndex>(rng.below(n));
    absq::DeltaState state(kernel, start);
    const std::uint64_t reads_before = state.matrix_reads();
    const std::uint64_t flips_before = state.flips();
    std::uint64_t flips = 0;
    auto flip = per_op_ns(
        [&] {
          std::int64_t acc = 0;
          for (const absq::BitIndex k : bits) {
            acc += state.flip_tracked(k).best_neighbor_energy;
          }
          g_sink = g_sink + acc;
          return static_cast<std::uint64_t>(bits.size());
        },
        budget, min_batches, &flips);
    result.metric("qubo.flip_ns", median(flip), "ns", flips,
                  "DeltaState::flip_tracked, planner's form");
    const double reads_per_flip =
        static_cast<double>(state.matrix_reads() - reads_before) /
        static_cast<double>(state.flips() - flips_before);
    const double entry_bytes =
        kernel.form() == absq::KernelForm::kSparse
            ? static_cast<double>(sizeof(absq::Weight) + sizeof(absq::BitIndex))
            : static_cast<double>(sizeof(absq::Weight));
    result.metric("qubo.matrix_reads_per_flip", reads_per_flip,
                  "reads/flip", flips,
                  "computed by the kernel's own read counter");
    result.metric("qubo.bytes_per_flip", reads_per_flip * entry_bytes,
                  "B/flip", flips,
                  "computed: matrix reads x bytes per stored entry; "
                  "excludes the delta array");

    const auto ladder = window_ladder(n);
    std::vector<std::pair<absq::BitIndex, absq::BitIndex>> windows(4096);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const absq::BitIndex len = ladder[i % ladder.size()];
      windows[i] = {static_cast<absq::BitIndex>(rng.below(n)), len};
    }
    std::uint64_t calls = 0;
    auto argmin = per_op_ns(
        [&] {
          std::int64_t acc = 0;
          for (const auto& [offset, len] : windows) {
            acc += state.argmin_window(offset, len);
          }
          g_sink = g_sink + acc;
          return static_cast<std::uint64_t>(windows.size());
        },
        budget, min_batches, &calls);
    result.metric("qubo.argmin_ns", median(argmin), "ns", calls,
                  "DeltaState::argmin_window over the device window ladder");
  }

  // --- search: straight search per GA target -----------------------------
  const absq::SolutionPool& pool = *in.pool;
  {
    absq::DeltaState state(kernel, start);
    std::vector<double> us;
    std::vector<double> flips;
    const auto begin = Clock::now();
    while (us.size() < (in.smoke ? 4u : 50u) ||
           seconds_between(begin, Clock::now()) < budget) {
      const absq::BitVector target =
          absq::generate_target(pool, in.config.ga, rng);
      absq::BestTracker tracker;
      const auto t0 = Clock::now();
      const absq::SearchStats stats =
          absq::straight_search(state, target, tracker);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      flips.push_back(static_cast<double>(stats.flips));
    }
    result.metric("search.straight_us", median(us), "us", us.size(),
                  "straight_search per GA target");
    result.metric("search.straight_flips", median(flips), "flips",
                  flips.size());
  }

  // --- abs: SearchBlock::iterate, collecting reports for the pool probe ---
  std::vector<absq::sim::ReportedSolution> reports;
  {
    const auto ladder = window_ladder(n);
    const std::uint64_t local_steps = in.config.device.local_steps != 0
                                          ? in.config.device.local_steps
                                          : n;
    std::vector<std::unique_ptr<absq::SearchBlock>> blocks;
    for (std::uint32_t b = 0; b < 8; ++b) {
      absq::SearchBlock::Config config;
      config.block_id = b;
      config.window = ladder[b % ladder.size()];
      config.local_steps = local_steps;
      config.seed = absq::mix64(in.seed + b);
      config.kernel = &kernel;
      blocks.push_back(std::make_unique<absq::SearchBlock>(w, config));
    }
    std::vector<double> us;
    std::vector<double> flips;
    const auto begin = Clock::now();
    std::size_t b = 0;
    while (us.size() < (in.smoke ? 8u : 64u) ||
           seconds_between(begin, Clock::now()) < budget) {
      absq::SearchBlock& block = *blocks[b++ % blocks.size()];
      const absq::BitVector target =
          absq::generate_target(pool, in.config.ga, rng);
      const std::uint64_t flips_before = block.stats().flips;
      const auto t0 = Clock::now();
      absq::sim::ReportedSolution report = block.iterate(target);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      flips.push_back(static_cast<double>(block.stats().flips - flips_before));
      reports.push_back(std::move(report));
    }
    result.metric("abs.iterate_us", median(us), "us", us.size(),
                  "SearchBlock::iterate (straight + local search)");
    result.metric("abs.flips_per_iter", median(flips), "flips", flips.size());
  }

  // --- ga: pool insert and breeding ---------------------------------------
  {
    std::vector<double> insert;
    std::uint64_t inserts = 0;
    const auto begin = Clock::now();
    while (static_cast<int>(insert.size()) < min_batches ||
           seconds_between(begin, Clock::now()) < budget) {
      absq::SolutionPool copy = pool;
      std::int64_t accepted = 0;
      const auto t0 = Clock::now();
      for (const auto& r : reports) accepted += copy.insert(r.bits, r.energy);
      insert.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                       static_cast<double>(reports.size()));
      g_sink = g_sink + accepted;
      inserts += reports.size();
    }
    result.metric("ga.insert_ns", median(insert), "ns", inserts,
                  "SolutionPool::insert of SearchBlock reports");
    std::uint64_t bred = 0;
    auto breed = per_op_ns(
        [&] {
          std::int64_t acc = 0;
          for (int i = 0; i < 256; ++i) {
            acc += absq::generate_target(pool, in.config.ga, rng).popcount();
          }
          g_sink = g_sink + acc;
          return std::uint64_t{256};
        },
        budget, min_batches, &bred);
    result.metric("ga.breed_ns", median(breed), "ns", bred,
                  "generate_target");
  }

  // --- sim: target push -> poll, solution push -> drain -------------------
  {
    const std::size_t capacity = 64;
    const std::size_t shards = in.config.device.threads_per_device.value_or(1);
    absq::sim::TargetBuffer targets(capacity, std::max<std::size_t>(1, shards));
    absq::sim::SolutionBuffer solutions(capacity,
                                        std::max<std::size_t>(1, shards));
    std::uint64_t trips = 0;
    auto roundtrip = per_op_ns(
        [&] {
          std::int64_t acc = 0;
          for (int i = 0; i < 256; ++i) {
            targets.push(start);
            const auto got = targets.poll();
            absq::sim::ReportedSolution report;
            report.bits = got.has_value() ? *got : start;
            report.energy = i;
            solutions.push(std::move(report));
            acc += static_cast<std::int64_t>(solutions.drain().size());
          }
          g_sink = g_sink + acc;
          return std::uint64_t{256};
        },
        budget, min_batches, &trips);
    result.metric("sim.roundtrip_ns", median(roundtrip), "ns", trips,
                  "TargetBuffer push+poll and SolutionBuffer push+drain");
  }

  // --- serve: decode of the submit payload, journal append + fsync --------
  {
    absq::serve::Json request = absq::serve::Json::object();
    request.set("cmd", "submit");
    request.set("format", "qubo");
    request.set("problem", in.text);
    const std::string line = request.dump();
    std::uint64_t decodes = 0;
    auto decode = per_op_ns(
        [&] {
          const absq::serve::Json parsed = absq::serve::Json::parse(line);
          std::istringstream text(parsed.at("problem").as_string());
          const absq::WeightMatrix problem = absq::read_qubo(text);
          g_sink = g_sink + problem.size();
          return std::uint64_t{1};
        },
        budget, in.smoke ? 1 : 3, &decodes);
    result.metric("serve.decode_us", median(decode) / 1e3, "us", decodes,
                  "Json::parse + read_qubo of the submit payload");

    const std::string path = in.journal_dir + "/probe.journal";
    std::filesystem::remove(path);
    std::vector<double> append_us;
    {
      absq::serve::Journal journal(path);
      absq::serve::JournalRecord record;
      record.event = absq::serve::JournalEvent::kSubmitted;
      record.name = "probe";
      record.problem_file = in.journal_dir + "/job-0.problem";
      const auto begin = Clock::now();
      while (append_us.size() < (in.smoke ? 5u : 200u) ||
             (seconds_between(begin, Clock::now()) < budget &&
              append_us.size() < 2000u)) {
        record.id = append_us.size() + 1;
        const auto t0 = Clock::now();
        journal.append(record);
        append_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      }
    }
    std::filesystem::remove(path);
    result.metric("serve.journal_append_p50_us", quantile(append_us, 0.5),
                  "us", append_us.size(), "Journal::append incl. fsync");
    result.metric("serve.journal_append_p99_us", quantile(append_us, 0.99),
                  "us", append_us.size(), "Journal::append incl. fsync");
  }

  // --- obs: scrape of the registry the traced run filled ------------------
  if (in.registry != nullptr) {
    std::uint64_t scrapes = 0;
    auto scrape = per_op_ns(
        [&] {
          const std::string text =
              absq::obs::to_prometheus(in.registry->scrape());
          g_sink = g_sink + static_cast<std::int64_t>(text.size());
          return std::uint64_t{1};
        },
        budget, min_batches, &scrapes);
    result.metric("obs.scrape_ms", median(scrape) / 1e6, "ms", scrapes,
                  "MetricsRegistry::scrape + to_prometheus");
  }
}

}  // namespace absbench
