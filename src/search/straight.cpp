#include "search/straight.hpp"

#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace absq {

SearchStats straight_search(DeltaState& state, const BitVector& target,
                            BestTracker& tracker) {
  ABSQ_CHECK(state.size() == target.size(), "state/target size mismatch");
  SearchStats stats;

  // Word-wide XOR difference mask: bit b is set iff state and target still
  // differ at b. It is the lane mask of the masked argmin, and a flip
  // clears exactly one bit of it.
  const std::span<const std::uint64_t> sw = state.bits().words();
  const std::span<const std::uint64_t> tw = target.words();
  std::vector<std::uint64_t> diff(sw.size());
  std::uint64_t remaining = 0;
  for (std::size_t wi = 0; wi < diff.size(); ++wi) {
    diff[wi] = sw[wi] ^ tw[wi];
    remaining += static_cast<std::uint64_t>(std::popcount(diff[wi]));
  }

  while (remaining > 0) {
    // Greedy rule of Algorithm 5: minimum Δ_k among differing bits, the
    // leftmost one on ties.
    const BitIndex k = state.argmin_masked(diff);

    const std::uint64_t reads_before = state.matrix_reads();
    const auto outcome = state.flip_tracked(k);
    diff[k >> 6] &= ~(1ULL << (k & 63));
    --remaining;
    ++stats.flips;
    ++stats.accepted;
    // Honest per-flip cost: n matrix reads dense, degree(k) sparse.
    stats.ops += state.matrix_reads() - reads_before;
    stats.evaluated_solutions += state.size();
    if (tracker.offer(state.bits(), outcome.energy)) ++stats.improvements;
    if (tracker.offer_neighbor(state.bits(), outcome.best_neighbor_bit,
                               outcome.best_neighbor_energy)) {
      ++stats.improvements;
    }
  }
  ABSQ_DCHECK(state.bits() == target, "straight search must end at target");
  return stats;
}

}  // namespace absq
