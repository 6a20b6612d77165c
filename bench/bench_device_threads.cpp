// Device threading ablation: flips/sec of AbsSolver::run as a function of
// threads_per_device on one instance.
//
// The paper's premise is that a GPU runs thousands of search blocks
// concurrently; our Device approximates that by sharding its block set
// over a worker pool. This bench measures what that buys on the current
// host: one worker is the baseline, and each additional worker should
// scale the flip rate until the hardware runs out of cores (on a 1-core
// host the curve is flat — the point of printing hardware_concurrency in
// the header).
//
//   ./bench/bench_device_threads [--bits 1024] [--seconds 2] [--blocks 8]
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "abs/solver.hpp"
#include "problems/random.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  absq::CliParser cli("Device threading — flip rate vs threads_per_device");
  cli.add_flag("bits", std::int64_t{1024}, "instance size");
  cli.add_flag("seconds", 2.0, "measurement window per point");
  cli.add_flag("blocks", std::int64_t{8}, "search blocks per device");
  cli.add_flag("seed", std::int64_t{17}, "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = static_cast<absq::BitIndex>(cli.get_int("bits"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const absq::WeightMatrix w = absq::random_qubo(n, seed);

  std::printf("Device threading ablation — %u-bit instance, %" PRId64
              " blocks, %.1fs per point, hardware_concurrency = %u\n",
              n, cli.get_int("blocks"), cli.get_double("seconds"),
              std::thread::hardware_concurrency());
  std::printf("%8s | %12s %14s | %8s | %s\n", "threads", "flips/s",
              "solutions/s", "speedup", "misses / drops");
  for (int i = 0; i < 72; ++i) std::putchar('-');
  std::putchar('\n');

  double baseline_flip_rate = 0.0;
  const std::vector<std::uint32_t> sweep = {1, 2, 4, 8};
  for (const std::uint32_t threads : sweep) {
    absq::AbsConfig config;
    config.device.block_limit =
        static_cast<std::uint32_t>(cli.get_int("blocks"));
    config.device.threads_per_device = threads;
    config.seed = seed;
    absq::AbsSolver solver(w, config);
    absq::StopCriteria stop;
    stop.time_limit_seconds = cli.get_double("seconds");
    const absq::AbsResult result = solver.run(stop);

    const double flip_rate =
        result.seconds > 0.0
            ? static_cast<double>(result.total_flips) / result.seconds
            : 0.0;
    if (threads == 1) baseline_flip_rate = flip_rate;
    const auto& dev = result.devices[0];
    std::printf("%8u | %12.4e %14.4e | %7.2fx | %" PRIu64 " / %" PRIu64 "\n",
                threads, flip_rate, result.search_rate,
                baseline_flip_rate > 0.0 ? flip_rate / baseline_flip_rate
                                         : 0.0,
                dev.target_misses, dev.solutions_dropped);
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: with W hardware cores the speedup column should\n"
      "approach min(W, blocks) for threads >= W; on a single-core host\n"
      "all rows are ~1.0x and the run only demonstrates that extra\n"
      "workers cost nothing.\n");
  return 0;
}
