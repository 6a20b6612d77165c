// Tests for the straight search (Algorithm 5) — the bridge that lets a
// block adopt a GA target without recomputing energies.
#include "search/straight.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qubo/energy.hpp"
#include "qubo/kernel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

WeightMatrix random_matrix(BitIndex n, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
    return static_cast<Weight>(rng.range(-100, 100));
  });
}

TEST(StraightSearch, EndsExactlyAtTarget) {
  Rng rng(1);
  const WeightMatrix w = random_matrix(50, 2);
  DeltaState state(w, BitVector::random(50, rng));
  const BitVector target = BitVector::random(50, rng);
  BestTracker tracker;
  (void)straight_search(state, target, tracker);
  EXPECT_EQ(state.bits(), target);
  EXPECT_EQ(state.energy(), full_energy(w, target));
}

TEST(StraightSearch, FlipCountEqualsHammingDistance) {
  Rng rng(3);
  const WeightMatrix w = random_matrix(64, 4);
  for (int trial = 0; trial < 10; ++trial) {
    DeltaState state(w, BitVector::random(64, rng));
    const BitVector target = BitVector::random(64, rng);
    const BitIndex distance = state.bits().hamming_distance(target);
    BestTracker tracker;
    const SearchStats stats = straight_search(state, target, tracker);
    EXPECT_EQ(stats.flips, distance);
  }
}

TEST(StraightSearch, ZeroDistanceIsNoOp) {
  Rng rng(5);
  const WeightMatrix w = random_matrix(20, 6);
  const BitVector start = BitVector::random(20, rng);
  DeltaState state(w, start);
  BestTracker tracker;
  const SearchStats stats = straight_search(state, start, tracker);
  EXPECT_EQ(stats.flips, 0u);
  EXPECT_EQ(state.bits(), start);
  EXPECT_FALSE(tracker.valid());  // nothing was visited
}

TEST(StraightSearch, DeltaStateRemainsValidAfterWalk) {
  // The whole point: Δ is intact at the target, ready for the local search.
  Rng rng(7);
  const WeightMatrix w = random_matrix(40, 8);
  DeltaState state(w, BitVector::random(40, rng));
  const BitVector target = BitVector::random(40, rng);
  BestTracker tracker;
  (void)straight_search(state, target, tracker);
  const auto reference = all_deltas(w, target);
  for (BitIndex i = 0; i < 40; ++i) {
    EXPECT_EQ(state.delta(i), reference[i]);
  }
}

TEST(StraightSearch, TrackerHoldsBestVisitedOrNeighbor) {
  Rng rng(9);
  const WeightMatrix w = random_matrix(30, 10);
  DeltaState state(w, BitVector::random(30, rng));
  const BitVector target = BitVector::random(30, rng);
  BestTracker tracker;
  (void)straight_search(state, target, tracker);
  ASSERT_TRUE(tracker.valid());
  // The tracker's claim must be exact.
  EXPECT_EQ(tracker.energy(), full_energy(w, tracker.best()));
  // And at least as good as the endpoint (the endpoint was offered).
  EXPECT_LE(tracker.energy(), state.energy());
}

TEST(StraightSearch, GreedyOrderPicksMinimumDeltaFirst) {
  // Construct a case where the greedy rule is observable: two differing
  // bits, one with a clearly lower Δ. The first flip must be that bit.
  WeightMatrixBuilder builder(2);
  builder.add_linear(0, 100);  // flipping bit 0 first costs +100
  builder.add_linear(1, -100); // flipping bit 1 first gains −100
  const WeightMatrix w = builder.build();

  DeltaState state(w);  // start 00
  const BitVector target = BitVector::from_string("11");
  BestTracker tracker;
  (void)straight_search(state, target, tracker);
  // Best intermediate solution is "01" (energy −100): greedy flipped bit 1
  // first. Had it flipped bit 0 first the best intermediate would be +100.
  EXPECT_EQ(tracker.energy(), -100);
}

TEST(StraightSearch, SizeMismatchThrows) {
  const WeightMatrix w = random_matrix(8, 11);
  DeltaState state(w);
  BestTracker tracker;
  EXPECT_THROW((void)straight_search(state, BitVector(9), tracker),
               CheckError);
}

TEST(StraightSearch, EvaluationAccountingMatchesFlips) {
  Rng rng(12);
  const WeightMatrix w = random_matrix(25, 13);
  DeltaState state(w, BitVector::random(25, rng));
  const BitVector target = BitVector::random(25, rng);
  BestTracker tracker;
  const SearchStats stats = straight_search(state, target, tracker);
  EXPECT_EQ(stats.ops, stats.flips * 25);
  EXPECT_EQ(stats.evaluated_solutions, stats.flips * 25);
}

TEST(StraightSearch, ChainedWalksStayConsistent) {
  // A block's whole life is straight search → local flips → straight
  // search → ...; chain several walks and verify the state never drifts.
  Rng rng(14);
  const WeightMatrix w = random_matrix(33, 15);
  DeltaState state(w);
  BestTracker tracker;
  for (int leg = 0; leg < 6; ++leg) {
    const BitVector target = BitVector::random(33, rng);
    (void)straight_search(state, target, tracker);
    ASSERT_EQ(state.energy(), full_energy(w, state.bits())) << "leg " << leg;
  }
}

/// Algorithm 5 written out on the dense scalar reference: flip the
/// differing bit with the smallest Δ (the leftmost on ties) until none is
/// left. Returns the tracker improvements, counted as straight_search does.
std::uint64_t reference_walk(DeltaState& state, const BitVector& target,
                             BestTracker& tracker) {
  const BitIndex n = state.size();
  std::uint64_t improvements = 0;
  while (true) {
    BitIndex k = n;
    for (BitIndex i = 0; i < n; ++i) {
      if (state.bits().get(i) == target.get(i)) continue;
      if (k == n || state.delta(i) < state.delta(k)) k = i;
    }
    if (k == n) return improvements;
    const auto outcome = state.flip_tracked(k);
    if (tracker.offer(state.bits(), outcome.energy)) ++improvements;
    if (tracker.offer_neighbor(state.bits(), outcome.best_neighbor_bit,
                               outcome.best_neighbor_energy)) {
      ++improvements;
    }
  }
}

TEST(StraightSearch, EveryKernelPlanWalksTheReferencePath) {
  // The masked argmin runs per ISA in the dense-simd form and as a word
  // walk elsewhere; every plan must pick the same bit at every step. The
  // best solution seen along a walk depends on the flip order, so chained
  // walks from one start pin it. Weights in [-2, 2] make Δ ties common.
  for (const BitIndex n : {17u, 65u, 200u}) {
    Rng weights(20 + n);
    const WeightMatrix w =
        WeightMatrix::generate_symmetric(n, [&weights](BitIndex, BitIndex) {
          return static_cast<Weight>(weights.range(-2, 2));
        });
    Rng rng(30 + n);
    const BitVector start = BitVector::random(n, rng);
    std::vector<BitVector> targets;
    for (int leg = 0; leg < 8; ++leg) {
      targets.push_back(BitVector::random(n, rng));
    }
    for (const auto form :
         {KernelOptions::Form::kDense, KernelOptions::Form::kDenseSimd,
          KernelOptions::Form::kSparse}) {
      for (const bool narrow : {false, true}) {
        KernelOptions options;
        options.form = form;
        options.narrow_delta = narrow;
        const QuboKernel kernel(w, options);
        DeltaState reference(w, start);
        DeltaState state(kernel, start);
        for (std::size_t leg = 0; leg < targets.size(); ++leg) {
          BestTracker expected;
          BestTracker tracker;
          const std::uint64_t improvements =
              reference_walk(reference, targets[leg], expected);
          const SearchStats stats =
              straight_search(state, targets[leg], tracker);
          const std::string lane = kernel.description() + " leg " +
                                   std::to_string(leg);
          ASSERT_EQ(stats.improvements, improvements) << lane;
          ASSERT_EQ(tracker.energy(), expected.energy()) << lane;
          ASSERT_EQ(tracker.best(), expected.best()) << lane;
          ASSERT_EQ(state.energy(), reference.energy()) << lane;
        }
      }
    }
  }
}

}  // namespace
}  // namespace absq
