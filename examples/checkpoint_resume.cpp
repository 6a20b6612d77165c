// Checkpoint/resume demo: snapshot the GA population mid-run, then start a
// brand-new runner warm-started from the saved pool and compare it against
// a cold restart with the same budget.
//
//   ./examples/checkpoint_resume [--bits 512] [--rounds 40]
//
// Uses AbsSolver's deterministic step mode (run_rounds) so the printout is
// reproducible.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "abs/solver.hpp"
#include "ga/pool_io.hpp"
#include "problems/random.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  absq::CliParser cli("checkpoint_resume — snapshot and resume a run");
  cli.add_flag("bits", std::int64_t{512}, "instance size");
  cli.add_flag("rounds", std::int64_t{40}, "rounds per phase");
  cli.add_flag("seed", std::int64_t{9}, "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = static_cast<absq::BitIndex>(cli.get_int("bits"));
  const auto rounds = static_cast<std::uint64_t>(cli.get_int("rounds"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const absq::WeightMatrix w = absq::random_qubo(n, seed);

  absq::AbsConfig config;
  config.device.block_limit = 8;
  config.device.threads_per_device = 1;  // step mode needs an explicit count
  config.pool_capacity = 32;
  config.seed = seed;

  // Phase 1: run, then checkpoint the population to disk.
  const std::string checkpoint = "/tmp/absq_checkpoint.pool";
  absq::Energy phase1_best = 0;
  {
    absq::AbsSolver runner(w, config);
    const absq::AbsResult result = runner.run_rounds(rounds);
    phase1_best = result.best_energy;
    absq::write_pool_file(checkpoint, runner.pool());
    std::printf("phase 1: best %" PRId64 " after %" PRIu64
                " rounds; pool saved to %s\n",
                result.best_energy, rounds, checkpoint.c_str());
  }

  // Phase 2a: cold restart (fresh random pool), same budget.
  absq::AbsConfig cold = config;
  cold.seed = seed + 1;
  absq::AbsSolver cold_runner(w, cold);
  const absq::Energy cold_best = cold_runner.run_rounds(rounds).best_energy;

  // Phase 2b: warm restart from the checkpoint, same budget and seed.
  absq::AbsConfig warm = cold;
  warm.warm_start = std::make_shared<absq::SolutionPool>(
      absq::read_pool_file(checkpoint));
  absq::AbsSolver warm_runner(w, warm);
  const absq::Energy warm_best = warm_runner.run_rounds(rounds).best_energy;

  std::printf("phase 2 (cold restart): best %" PRId64 "\n", cold_best);
  std::printf("phase 2 (warm restart): best %" PRId64 "\n", warm_best);
  std::printf("warm start kept the incumbent: %s\n",
              warm_best <= phase1_best ? "yes" : "no");
  std::printf("warm start %s the cold restart\n",
              warm_best < cold_best   ? "beat"
              : warm_best == cold_best ? "tied"
                                       : "lost to");
  return 0;
}
