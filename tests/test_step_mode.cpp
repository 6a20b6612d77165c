// Step mode — AbsSolver::run_rounds, the deterministic round-based entry
// point of the ABS host loop. The suite keeps its historical "SyncRunner"
// name.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "abs/solver.hpp"
#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "util/check.hpp"

namespace absq {
namespace {

AbsConfig runner_config(std::uint64_t seed = 7) {
  AbsConfig config;
  config.device.block_limit = 4;
  config.device.local_steps = 32;
  config.device.threads_per_device = 1;
  config.pool_capacity = 16;
  config.seed = seed;
  return config;
}

TEST(SyncRunner, RunsAreBitReproducible) {
  const WeightMatrix w = random_qubo(64, 1);
  AbsSolver runner_a(w, runner_config());
  AbsSolver runner_b(w, runner_config());
  const AbsResult a = runner_a.run_rounds(20);
  const AbsResult b = runner_b.run_rounds(20);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.total_flips, b.total_flips);
  EXPECT_EQ(a.reports_inserted, b.reports_inserted);
  ASSERT_EQ(a.best_trace.size(), b.best_trace.size());
  for (std::size_t i = 0; i < a.best_trace.size(); ++i) {
    EXPECT_EQ(a.best_trace[i].first, b.best_trace[i].first);
    EXPECT_EQ(a.best_trace[i].second, b.best_trace[i].second);
  }
}

TEST(SyncRunner, DifferentSeedsDiverge) {
  // Different seeds may find the same optimum, but whole 16-entry pools
  // coinciding would mean the seed is ignored somewhere.
  const WeightMatrix w = random_qubo(64, 2);
  AbsSolver runner_a(w, runner_config(1));
  AbsSolver runner_b(w, runner_config(2));
  (void)runner_a.run_rounds(10);
  (void)runner_b.run_rounds(10);
  ASSERT_EQ(runner_a.pool().size(), runner_b.pool().size());
  bool any_difference = false;
  for (std::size_t i = 0; i < runner_a.pool().size(); ++i) {
    any_difference |=
        runner_a.pool().entry(i).bits != runner_b.pool().entry(i).bits;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SyncRunner, EnergiesAreExact) {
  const WeightMatrix w = random_qubo(48, 3);
  AbsSolver runner(w, runner_config());
  const AbsResult result = runner.run_rounds(15);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
  EXPECT_TRUE(runner.pool().check_invariants());
}

TEST(SyncRunner, RoundsAccumulateAcrossCalls) {
  // Each call starts a fresh population, but the devices keep their
  // search state: their lifetime counters span both calls while each
  // result covers only its own rounds.
  const WeightMatrix w = random_qubo(32, 4);
  AbsSolver runner(w, runner_config());
  const AbsResult first = runner.run_rounds(5);
  const AbsResult second = runner.run_rounds(5);
  EXPECT_EQ(runner.device(0).total_iterations(), 10u * 4u);
  EXPECT_EQ(runner.device(0).total_flips(),
            first.total_flips + second.total_flips);
  // 5 rounds × 4 blocks × ≥ local_steps flips each.
  EXPECT_GE(second.total_flips, 5u * 4u * 32u);
}

TEST(SyncRunner, BestTraceIsStampedWithTheRoundIndex) {
  const WeightMatrix w = random_qubo(48, 5);
  AbsSolver runner(w, runner_config());
  const AbsResult result = runner.run_rounds(10);
  ASSERT_FALSE(result.best_trace.empty());
  EXPECT_EQ(result.best_trace.front().first, 0.0);
  for (std::size_t i = 1; i < result.best_trace.size(); ++i) {
    EXPECT_GE(result.best_trace[i].first, result.best_trace[i - 1].first);
    EXPECT_LT(result.best_trace[i].second, result.best_trace[i - 1].second);
  }
  EXPECT_LT(result.best_trace.back().first, 10.0);
  EXPECT_EQ(result.best_trace.back().second, result.best_energy);
}

TEST(SyncRunner, RunToTargetStopsEarly) {
  const WeightMatrix w = random_qubo(32, 6);
  // Establish an easy target with one runner, then verify another stops
  // as soon as it crosses it.
  AbsSolver probe(w, runner_config(11));
  const Energy target = probe.run_rounds(3).best_energy;

  AbsSolver runner(w, runner_config(12));
  const AbsResult result = runner.run_rounds(10000, target);
  EXPECT_TRUE(result.reached_target);
  EXPECT_LE(result.best_energy, target);
  ASSERT_EQ(result.devices.size(), 1u);
  EXPECT_LT(result.devices[0].iterations, 10000u * 4u);
}

TEST(SyncRunner, RunToTargetRespectsRoundCap) {
  const WeightMatrix w = random_qubo(32, 7);
  AbsSolver runner(w, runner_config());
  const AbsResult result =
      runner.run_rounds(3, std::numeric_limits<Energy>::min());
  EXPECT_FALSE(result.reached_target);
  ASSERT_EQ(result.devices.size(), 1u);
  EXPECT_EQ(result.devices[0].iterations, 3u * 4u);
  EXPECT_THROW((void)runner.run_rounds(0, 0), CheckError);
}

TEST(SyncRunner, RequiresExplicitThreadsPerDevice) {
  const WeightMatrix w = random_qubo(32, 17);
  AbsConfig config = runner_config();
  config.device.threads_per_device.reset();
  AbsSolver runner(w, config);
  EXPECT_THROW((void)runner.run_rounds(1), CheckError);
}

TEST(SyncRunner, WarmStartKeepsIncumbentAndSeedsTargets) {
  const WeightMatrix w = random_qubo(48, 9);
  // Produce a snapshot.
  AbsSolver first(w, runner_config(20));
  const Energy snapshot_best = first.run_rounds(15).best_energy;
  auto snapshot = std::make_shared<SolutionPool>(first.pool());

  // Resume: even a 1-round continuation may not rediscover that energy,
  // but the warm-started pool must already hold it.
  AbsConfig config = runner_config(21);
  config.warm_start = snapshot;
  AbsSolver resumed(w, config);
  const AbsResult result = resumed.run_rounds(1);
  EXPECT_LE(result.best_energy, snapshot_best);
}

TEST(SyncRunner, WarmStartSizeMismatchThrows) {
  const WeightMatrix w = random_qubo(32, 10);
  auto snapshot = std::make_shared<SolutionPool>(4);
  snapshot->insert(BitVector(16), 0);  // wrong width
  AbsConfig config = runner_config();
  config.warm_start = snapshot;
  AbsSolver runner(w, config);
  EXPECT_THROW((void)runner.run_rounds(1), CheckError);
}

TEST(SyncRunner, RunRoundsReportsSearchRateAndEvaluatedSolutions) {
  const WeightMatrix w = random_qubo(64, 13);
  AbsSolver runner(w, runner_config());
  const AbsResult result = runner.run_rounds(10);
  EXPECT_GT(result.total_flips, 0u);
  EXPECT_EQ(result.evaluated_solutions, result.total_flips * 64u);
  ASSERT_GT(result.seconds, 0.0);
  EXPECT_GT(result.search_rate, 0.0);
  EXPECT_NEAR(result.search_rate,
              static_cast<double>(result.evaluated_solutions) / result.seconds,
              result.search_rate * 1e-9);
}

TEST(SyncRunner, ContinuationRateCoversOnlyTheCall) {
  // A reused solver's devices carry lifetime flips, but the second call's
  // result — flips and rate — covers only that call.
  const WeightMatrix w = random_qubo(32, 16);
  AbsSolver runner(w, runner_config());
  (void)runner.run_rounds(5);
  const AbsResult second = runner.run_rounds(5);
  ASSERT_GT(second.seconds, 0.0);
  EXPECT_GT(second.search_rate, 0.0);
  EXPECT_LT(second.total_flips, runner.device(0).total_flips());
  EXPECT_NEAR(second.search_rate,
              static_cast<double>(second.evaluated_solutions) / second.seconds,
              second.search_rate * 1e-9);
}

TEST(SyncRunner, RunToTargetReportsSearchRate) {
  const WeightMatrix w = random_qubo(32, 14);
  AbsSolver runner(w, runner_config());
  const AbsResult result =
      runner.run_rounds(5, std::numeric_limits<Energy>::min());
  EXPECT_GT(result.evaluated_solutions, 0u);
  EXPECT_GT(result.search_rate, 0.0);
}

TEST(SyncRunner, DeviceSummariesUseDeterministicSchedule) {
  const WeightMatrix w = random_qubo(32, 15);
  AbsConfig config = runner_config();
  config.num_devices = 2;
  // The explicit worker count is honoured: it only fixes the mailbox
  // sharding, while the blocks still step on the calling thread.
  config.device.threads_per_device = 4;
  AbsSolver runner_a(w, config);
  AbsSolver runner_b(w, config);
  const AbsResult result = runner_a.run_rounds(3);
  EXPECT_EQ(runner_b.run_rounds(3).best, result.best);
  ASSERT_EQ(result.devices.size(), 2u);
  std::uint64_t summary_flips = 0;
  for (const auto& summary : result.devices) {
    EXPECT_EQ(summary.workers, 4u);
    EXPECT_EQ(summary.iterations, 3u * 4u);
    summary_flips += summary.flips;
  }
  EXPECT_EQ(summary_flips, result.total_flips);
}

TEST(SyncRunner, MultiDeviceDeterminismHolds) {
  const WeightMatrix w = random_qubo(48, 8);
  AbsConfig config = runner_config();
  config.num_devices = 3;
  AbsSolver runner_a(w, config);
  AbsSolver runner_b(w, config);
  EXPECT_EQ(runner_a.run_rounds(8).best_energy,
            runner_b.run_rounds(8).best_energy);
}

}  // namespace
}  // namespace absq
