// Tests for the per-instance kernel plan (QuboKernel), the CSR
// SparseWeightMatrix, and — the load-bearing part — the lockstep contract:
// every kernel form × Δ width must be bit-identical to the dense scalar
// reference on energies, Δ vectors, argmin windows and FlipOutcomes
// (including tie-breaks), so kernel selection is purely a throughput choice.
#include "qubo/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "problems/random.hpp"
#include "qubo/delta_state.hpp"
#include "qubo/energy.hpp"
#include "qubo/sparse_matrix.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

WeightMatrix random_dense(BitIndex n, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
    return static_cast<Weight>(rng.range(-200, 200));
  });
}

/// G-set-style instance: most entries zero, nonzeros small.
WeightMatrix random_sparse(BitIndex n, double density, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(
      n, [&rng, density](BitIndex, BitIndex) {
        if (!rng.chance(density)) return static_cast<Weight>(0);
        return static_cast<Weight>(rng.range(-100, 100));
      });
}

// ---------------------------------------------------------------------------
// SparseWeightMatrix
// ---------------------------------------------------------------------------

TEST(SparseMatrix, MatchesDenseScan) {
  const BitIndex n = 40;
  const WeightMatrix w = random_sparse(n, 0.15, 21);
  const SparseWeightMatrix sp(w);

  ASSERT_EQ(sp.size(), n);
  std::size_t dense_nonzeros = 0;
  for (BitIndex i = 0; i < n; ++i) {
    for (BitIndex j = 0; j < n; ++j) {
      EXPECT_EQ(sp.at(i, j), w.at(i, j)) << "(" << i << ", " << j << ")";
      if (w.at(i, j) != 0) ++dense_nonzeros;
    }
  }
  EXPECT_EQ(sp.stored_nonzeros(), dense_nonzeros);
  EXPECT_DOUBLE_EQ(sp.density(),
                   static_cast<double>(dense_nonzeros) / (double{n} * n));

  std::size_t max_deg = 0;
  for (BitIndex k = 0; k < n; ++k) {
    const auto row = sp.row(k);
    EXPECT_EQ(row.size(), sp.degree(k));
    max_deg = std::max(max_deg, sp.degree(k));
    std::size_t nz = 0;
    for (BitIndex j = 0; j < n; ++j) {
      if (w.at(k, j) != 0) ++nz;
    }
    EXPECT_EQ(sp.degree(k), nz);
    for (std::size_t t = 0; t + 1 < row.size(); ++t) {
      EXPECT_LT(row.cols[t], row.cols[t + 1]) << "row " << k << " not sorted";
    }
    for (std::size_t t = 0; t < row.size(); ++t) {
      EXPECT_EQ(row.weights[t], w.at(k, row.cols[t]));
    }
  }
  EXPECT_EQ(sp.max_degree(), max_deg);
  EXPECT_GT(sp.bytes(), 0u);
}

TEST(SparseMatrix, FromTripletsMirrorsOffDiagonal) {
  const std::vector<SparseWeightMatrix::Triplet> terms = {
      {0, 0, 5}, {0, 2, -3}, {1, 3, 7}, {2, 2, -1}, {1, 2, 0} /* dropped */};
  const SparseWeightMatrix sp = SparseWeightMatrix::from_triplets(4, terms);

  EXPECT_EQ(sp.at(0, 0), 5);
  EXPECT_EQ(sp.at(0, 2), -3);
  EXPECT_EQ(sp.at(2, 0), -3);  // mirror added implicitly
  EXPECT_EQ(sp.at(1, 3), 7);
  EXPECT_EQ(sp.at(3, 1), 7);
  EXPECT_EQ(sp.at(2, 2), -1);
  EXPECT_EQ(sp.at(1, 2), 0);  // zero-weight triplet ignored
  EXPECT_EQ(sp.at(3, 3), 0);
  // Diagonal stored once, off-diagonals twice: 2 + 2·2 = 6 entries.
  EXPECT_EQ(sp.stored_nonzeros(), 6u);
  EXPECT_EQ(sp.degree(0), 2u);  // (0,0) and (0,2)
  EXPECT_EQ(sp.degree(3), 1u);  // mirror of (1,3)
}

TEST(SparseMatrix, FromTripletsRejectsDuplicateKeys) {
  const std::vector<SparseWeightMatrix::Triplet> terms = {{0, 1, 2}, {0, 1, 3}};
  EXPECT_THROW((void)SparseWeightMatrix::from_triplets(3, terms), CheckError);
}

TEST(SparseMatrix, BuilderBuildSparseMatchesBuild) {
  // Includes an odd off-diagonal coefficient so the ×2 energy_scale path is
  // exercised identically by both build paths.
  WeightMatrixBuilder dense_builder(6);
  WeightMatrixBuilder sparse_builder(6);
  for (auto* b : {&dense_builder, &sparse_builder}) {
    b->add(0, 1, 7);  // odd → doubles every coefficient
    b->add(2, 4, -6);
    b->add_linear(3, 11);
    b->add(5, 5, -2);
    b->add(1, 0, 1);  // accumulates onto (0, 1)
  }
  const WeightMatrix w = dense_builder.build();
  const SparseWeightMatrix sp = sparse_builder.build_sparse();
  EXPECT_EQ(dense_builder.energy_scale(), sparse_builder.energy_scale());
  ASSERT_EQ(sp.size(), w.size());
  for (BitIndex i = 0; i < w.size(); ++i) {
    for (BitIndex j = 0; j < w.size(); ++j) {
      EXPECT_EQ(sp.at(i, j), w.at(i, j)) << "(" << i << ", " << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// QuboKernel planning
// ---------------------------------------------------------------------------

TEST(QuboKernel, AutoSelectsSparseForLargeLowDensityInstances) {
  // ~2 stored entries per row out of 4096: the CSR kernel wins by more
  // than 2× on every ISA, even against the fastest dense-simd variant.
  const WeightMatrix w = random_sparse(4096, 0.0005, 31);
  const QuboKernel kernel(w);
  EXPECT_EQ(kernel.form(), KernelForm::kSparse);
  ASSERT_NE(kernel.sparse(), nullptr);
  EXPECT_EQ(kernel.sparse()->size(), w.size());
  EXPECT_EQ(kernel.width(), DeltaWidth::kNarrow32);  // int32 is the default
  EXPECT_TRUE(QuboKernel::sparse_pays_off(w.size(), kernel.stored_nonzeros(),
                                          KernelIsa::kX86_64_V4,
                                          DeltaWidth::kNarrow32));
}

TEST(QuboKernel, DefaultPlanOfTheDenseBenchmarkInstanceIsSimd32) {
  const WeightMatrix w = random_qubo(1024, 2020);
  const QuboKernel kernel(w);
  EXPECT_EQ(kernel.form(), KernelForm::kDenseSimd);
  EXPECT_EQ(kernel.width(), DeltaWidth::kNarrow32);
  EXPECT_FALSE(kernel.narrow_fallback());
  EXPECT_EQ(kernel.isa(), runnable_isas().back());
  const std::string text = kernel.description();
  EXPECT_EQ(text.rfind(std::string("dense-simd/32-bit [") +
                           to_string(kernel.isa()) + "]",
                       0),
            0u)
      << text;
}

TEST(QuboKernel, SparseRuleTracksTheDenseKernelSpeed) {
  // G22-like (n = 2000, ~21 entries per row): the CSR kernel beats the
  // 64-bit SSE2 pass by 2× but not the int32 AVX-512 one.
  const std::size_t g22_nonzeros = 2000 * 21;
  EXPECT_TRUE(QuboKernel::sparse_pays_off(2000, g22_nonzeros,
                                          KernelIsa::kPortable,
                                          DeltaWidth::kWide64));
  EXPECT_FALSE(QuboKernel::sparse_pays_off(2000, g22_nonzeros,
                                           KernelIsa::kX86_64_V4,
                                           DeltaWidth::kNarrow32));
  // Tiny instances stay dense whatever their density: the tree's fixed
  // per-flip cost exceeds a whole dense row.
  for (const KernelIsa isa :
       {KernelIsa::kPortable, KernelIsa::kAvx2, KernelIsa::kX86_64_V4}) {
    EXPECT_FALSE(
        QuboKernel::sparse_pays_off(32, 32, isa, DeltaWidth::kWide64));
  }
}

TEST(QuboKernel, RunnableIsasStartPortableAndAscend) {
  const std::vector<KernelIsa> isas = runnable_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), KernelIsa::kPortable);
  for (std::size_t i = 1; i < isas.size(); ++i) {
    EXPECT_LT(isas[i - 1], isas[i]);
  }
}

TEST(QuboKernel, AutoKeepsDenseInstancesOnSimd) {
  const WeightMatrix w = random_dense(80, 32);
  const QuboKernel kernel(w);
  EXPECT_EQ(kernel.form(), KernelForm::kDenseSimd);
  EXPECT_EQ(kernel.sparse(), nullptr);
}

TEST(QuboKernel, AutoKeepsTinyInstancesDense) {
  // Sparse but below sparse_min_bits: the tournament tree would cost more
  // than the dense row it replaces.
  const WeightMatrix w = random_sparse(32, 0.05, 33);
  const QuboKernel kernel(w);
  EXPECT_EQ(kernel.form(), KernelForm::kDenseSimd);
  EXPECT_EQ(kernel.sparse(), nullptr);
}

TEST(QuboKernel, ForcedFormsAreRespected) {
  const WeightMatrix w = random_sparse(70, 0.05, 34);
  for (const auto& [requested, planned] :
       std::vector<std::pair<KernelOptions::Form, KernelForm>>{
           {KernelOptions::Form::kDense, KernelForm::kDenseScalar},
           {KernelOptions::Form::kDenseSimd, KernelForm::kDenseSimd},
           {KernelOptions::Form::kSparse, KernelForm::kSparse}}) {
    KernelOptions options;
    options.form = requested;
    const QuboKernel kernel(w, options);
    EXPECT_EQ(kernel.form(), planned);
    EXPECT_EQ(kernel.sparse() != nullptr, planned == KernelForm::kSparse);
  }
}

TEST(QuboKernel, ParseKernelFormRoundTrips) {
  EXPECT_EQ(parse_kernel_form("auto"), KernelOptions::Form::kAuto);
  EXPECT_EQ(parse_kernel_form("dense"), KernelOptions::Form::kDense);
  EXPECT_EQ(parse_kernel_form("dense-simd"), KernelOptions::Form::kDenseSimd);
  EXPECT_EQ(parse_kernel_form("sparse"), KernelOptions::Form::kSparse);
  EXPECT_THROW((void)parse_kernel_form("cuda"), CheckError);
}

TEST(QuboKernel, WorstCaseDeltaBoundIsExactOnSmallInstances) {
  // The precheck bound must equal the true max |Δ_k(X)| over every state X
  // and bit k — exhaustively enumerated for small n. Exactness matters: a
  // loose bound would refuse narrow mode on instances that are in fact
  // safe; an unsound one would corrupt searches.
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    const BitIndex n = 10;
    const WeightMatrix w = random_dense(n, seed);
    Energy max_abs = 0;
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      BitVector x(n);
      for (BitIndex i = 0; i < n; ++i) x.set(i, (mask >> i) & 1u);
      for (const Energy d : all_deltas(w, x)) {
        max_abs = std::max(max_abs, d < 0 ? -d : d);
      }
    }
    EXPECT_EQ(QuboKernel::worst_case_delta_bound(w), max_abs)
        << "seed " << seed;
  }
}

/// The plan's analysis as a plain 64-bit scan: nonzero count and max_k B_k.
std::pair<std::size_t, Energy> plan_reference(const WeightMatrix& w) {
  const BitIndex n = w.size();
  std::size_t nonzeros = 0;
  Energy bound = 0;
  for (BitIndex k = 0; k < n; ++k) {
    Energy pos = 0;
    Energy neg = 0;
    for (BitIndex i = 0; i < n; ++i) {
      const Energy v = w.at(k, i);
      if (v != 0) ++nonzeros;
      if (i == k) continue;
      if (v > 0) {
        pos += v;
      } else {
        neg -= v;
      }
    }
    const Energy diag = w.at(k, k);
    bound = std::max({bound, diag + 2 * pos, 2 * neg - diag});
  }
  return {nonzeros, bound};
}

TEST(QuboKernel, OnePassPlanMatchesA64BitScalarReference) {
  std::vector<WeightMatrix> instances;
  for (const BitIndex n : {1u, 2u, 17u, 100u, 333u}) {
    instances.push_back(random_dense(n, 1400 + n));
    instances.push_back(random_sparse(n, 0.05, 1500 + n));
  }
  Rng rng(1600);
  instances.push_back(WeightMatrix::generate_symmetric(
      64, [&rng](BitIndex, BitIndex) {
        return static_cast<Weight>(rng.chance(0.5) ? kMinWeight : kMaxWeight);
      }));
  // Saturated rows at n = 4096: |row sum| = 2^27, inside the plan's int32
  // accumulators (whose bound is 2^30 at kMaxBits) but far past int16.
  for (const Weight v : {kMinWeight, kMaxWeight}) {
    instances.push_back(WeightMatrix::generate_symmetric(
        4096, [v](BitIndex, BitIndex) { return v; }));
  }
  for (const WeightMatrix& w : instances) {
    const auto [nonzeros, bound] = plan_reference(w);
    const QuboKernel kernel(w);
    EXPECT_EQ(kernel.stored_nonzeros(), nonzeros) << "n=" << w.size();
    EXPECT_EQ(kernel.delta_bound(), bound) << "n=" << w.size();
    EXPECT_EQ(QuboKernel::worst_case_delta_bound(w), bound) << "n=" << w.size();
  }
}

TEST(QuboKernel, NarrowPrecheckStraddlesTheLimit) {
  const WeightMatrix w = random_dense(48, 44);
  const Energy bound = QuboKernel::worst_case_delta_bound(w);
  ASSERT_GT(bound, 0);

  KernelOptions options;  // default: narrow wherever the precheck passes
  options.narrow_limit = bound;  // exactly representable → narrow engages
  const QuboKernel at_limit(w, options);
  EXPECT_EQ(at_limit.width(), DeltaWidth::kNarrow32);
  EXPECT_FALSE(at_limit.narrow_fallback());
  EXPECT_EQ(at_limit.delta_bound(), bound);

  options.narrow_limit = bound - 1;  // one below → provably unsafe → 64-bit
  const QuboKernel over_limit(w, options);
  EXPECT_EQ(over_limit.width(), DeltaWidth::kWide64);
  EXPECT_TRUE(over_limit.narrow_fallback());

  options.narrow_delta = false;  // not requested → wide, no fallback flag
  options.narrow_limit = std::numeric_limits<std::int32_t>::max();
  const QuboKernel wide(w, options);
  EXPECT_EQ(wide.width(), DeltaWidth::kWide64);
  EXPECT_FALSE(wide.narrow_fallback());
}

TEST(QuboKernel, DescriptionNamesFormAndWidth) {
  KernelOptions options;
  options.form = KernelOptions::Form::kSparse;
  options.narrow_delta = true;
  const WeightMatrix w = random_sparse(64, 0.05, 45);  // must outlive the plan
  const QuboKernel kernel(w, options);
  const std::string text = kernel.description();
  EXPECT_NE(text.find("sparse"), std::string::npos) << text;
  EXPECT_NE(text.find("32-bit"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Lockstep: every form × width is bit-identical to the dense scalar
// reference over long random mixed flip/flip_tracked/argmin sequences.
// ---------------------------------------------------------------------------

struct KernelCase {
  std::string name;
  KernelOptions options;
};

std::vector<KernelCase> all_kernel_cases() {
  std::vector<KernelCase> cases;
  for (const auto& [form, form_name] :
       std::vector<std::pair<KernelOptions::Form, const char*>>{
           {KernelOptions::Form::kDense, "dense"},
           {KernelOptions::Form::kDenseSimd, "dense-simd"},
           {KernelOptions::Form::kSparse, "sparse"}}) {
    for (const bool narrow : {false, true}) {
      KernelOptions options;
      options.form = form;
      options.narrow_delta = narrow;
      cases.push_back(
          {std::string(form_name) + (narrow ? "/32-bit" : "/64-bit"),
           options});
    }
  }
  return cases;
}

/// First-in-traversal-order (strict <) wrapping-window argmin oracle.
BitIndex argmin_window_oracle(const DeltaState& s, BitIndex offset,
                              BitIndex len) {
  const BitIndex n = s.size();
  BitIndex best = offset % n;
  Energy best_value = s.delta(best);
  for (BitIndex t = 1; t < len; ++t) {
    const BitIndex i = (offset + t) % n;
    if (s.delta(i) < best_value) {
      best_value = s.delta(i);
      best = i;
    }
  }
  return best;
}

void run_lockstep(const WeightMatrix& w, std::uint64_t seed, int steps,
                  bool random_start) {
  const BitIndex n = w.size();
  Rng rng(seed);
  const BitVector start =
      random_start ? BitVector::random(n, rng) : BitVector(n);

  const DeltaState reference_seed(w, start);  // legacy ctor: dense scalar/64
  ASSERT_EQ(reference_seed.form(), KernelForm::kDenseScalar);
  ASSERT_EQ(reference_seed.width(), DeltaWidth::kWide64);
  DeltaState reference = reference_seed;

  struct Lane {
    std::string name;
    std::unique_ptr<QuboKernel> kernel;
    std::unique_ptr<DeltaState> state;
  };
  std::vector<Lane> lanes;
  for (const auto& c : all_kernel_cases()) {
    auto kernel = std::make_unique<QuboKernel>(w, c.options);
    if (c.options.narrow_delta) {
      // The test matrices are small enough that narrow must engage, or the
      // case would silently collapse into its 64-bit twin.
      ASSERT_EQ(kernel->width(), DeltaWidth::kNarrow32) << c.name;
    }
    auto state = std::make_unique<DeltaState>(*kernel, start);
    lanes.push_back({c.name, std::move(kernel), std::move(state)});
  }

  for (int step = 0; step < steps; ++step) {
    const auto k = static_cast<BitIndex>(rng.below(n));
    if (rng.chance(0.5)) {
      const auto expected = reference.flip_tracked(k);
      for (auto& lane : lanes) {
        const auto got = lane.state->flip_tracked(k);
        ASSERT_EQ(got.energy, expected.energy)
            << lane.name << " step " << step;
        ASSERT_EQ(got.best_neighbor_energy, expected.best_neighbor_energy)
            << lane.name << " step " << step;
        ASSERT_EQ(got.best_neighbor_bit, expected.best_neighbor_bit)
            << lane.name << " step " << step;
      }
    } else {
      const Energy expected = reference.flip(k);
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->flip(k), expected)
            << lane.name << " step " << step;
      }
    }

    if (step % 16 == 0) {
      const auto offset = static_cast<BitIndex>(rng.below(n));
      const auto len = static_cast<BitIndex>(1 + rng.below(n));
      const BitIndex expected = argmin_window_oracle(reference, offset, len);
      ASSERT_EQ(reference.argmin_window(offset, len), expected);
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->argmin_window(offset, len), expected)
            << lane.name << " step " << step << " window (" << offset << ", "
            << len << ")";
      }
    }
  }

  // Final deep cross-check: bits, energy and every Δ against both the
  // reference lane and the from-scratch Eq. (4) computation.
  ASSERT_EQ(reference.energy(), full_energy(w, reference.bits()));
  const auto expected_deltas = all_deltas(w, reference.bits());
  for (auto& lane : lanes) {
    ASSERT_EQ(lane.state->bits(), reference.bits()) << lane.name;
    ASSERT_EQ(lane.state->energy(), reference.energy()) << lane.name;
    ASSERT_EQ(lane.state->evaluated_solutions(),
              reference.evaluated_solutions())
        << lane.name;
    for (BitIndex i = 0; i < n; ++i) {
      ASSERT_EQ(lane.state->delta(i), expected_deltas[i])
          << lane.name << " Δ_" << i;
    }
  }
}

class KernelLockstep : public ::testing::TestWithParam<BitIndex> {};

TEST_P(KernelLockstep, DenseInstanceFromZeroState) {
  const BitIndex n = GetParam();
  run_lockstep(random_dense(n, 500 + n), 600 + n, 300, false);
}

TEST_P(KernelLockstep, DenseInstanceFromRandomState) {
  const BitIndex n = GetParam();
  run_lockstep(random_dense(n, 700 + n), 800 + n, 300, true);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelLockstep,
                         ::testing::Values(1, 2, 3, 17, 64, 65, 130));

TEST(KernelLockstep, GsetStyleSparseInstance) {
  // ~6 nonzeros per row out of 96 — the regime the CSR kernel exists for.
  run_lockstep(random_sparse(96, 0.06, 901), 902, 500, true);
}

TEST(KernelLockstep, SaturatedWeightExtremes) {
  Rng rng(903);
  const WeightMatrix w =
      WeightMatrix::generate_symmetric(48, [&rng](BitIndex, BitIndex) {
        return rng.chance(0.5) ? kMinWeight : kMaxWeight;
      });
  // |Δ| reaches ~48·2·32768 ≈ 3.1M — comfortably int32, so the narrow lanes
  // still engage and must stay exact at the weight extremes.
  run_lockstep(w, 904, 400, true);
}

TEST(KernelLockstep, NarrowLanesAgreeEitherSideOfThePrecheck) {
  // Straddle the precheck *during a lockstep run*: one narrow lane planned
  // right at the bound (engages) and one just below it (falls back to
  // 64-bit). Both must match the reference exactly.
  const WeightMatrix w = random_dense(40, 905);
  const Energy bound = QuboKernel::worst_case_delta_bound(w);

  KernelOptions engaged_options;
  engaged_options.narrow_delta = true;
  engaged_options.narrow_limit = bound;
  const QuboKernel engaged(w, engaged_options);
  ASSERT_EQ(engaged.width(), DeltaWidth::kNarrow32);

  KernelOptions fallback_options;
  fallback_options.narrow_delta = true;
  fallback_options.narrow_limit = bound - 1;
  const QuboKernel fallback(w, fallback_options);
  ASSERT_EQ(fallback.width(), DeltaWidth::kWide64);
  ASSERT_TRUE(fallback.narrow_fallback());

  DeltaState reference(w);
  DeltaState narrow_state(engaged);
  DeltaState wide_state(fallback);
  Rng rng(906);
  for (int step = 0; step < 400; ++step) {
    const auto k = static_cast<BitIndex>(rng.below(40));
    const auto expected = reference.flip_tracked(k);
    const auto narrow_got = narrow_state.flip_tracked(k);
    const auto wide_got = wide_state.flip_tracked(k);
    ASSERT_EQ(narrow_got.energy, expected.energy) << "step " << step;
    ASSERT_EQ(narrow_got.best_neighbor_bit, expected.best_neighbor_bit);
    ASSERT_EQ(narrow_got.best_neighbor_energy, expected.best_neighbor_energy);
    ASSERT_EQ(wide_got.energy, expected.energy) << "step " << step;
    ASSERT_EQ(wide_got.best_neighbor_bit, expected.best_neighbor_bit);
    ASSERT_EQ(wide_got.best_neighbor_energy, expected.best_neighbor_energy);
  }
}

// ---------------------------------------------------------------------------
// ISA lockstep: every dense-simd pass variant the host can run, in both
// widths, drives its own Δ lane against the scalar reference.
// ---------------------------------------------------------------------------

template <class D>
void run_isa_lane(const WeightMatrix& w, const BitVector& start,
                  KernelIsa isa, const std::vector<BitIndex>& flips) {
  const BitIndex n = w.size();
  const DenseSimdPasses<D>& passes = dense_simd_passes<D>(isa);
  const std::string lane = std::string(to_string(isa)) + "/" +
                           std::to_string(sizeof(D) * 8) + "-bit n=" +
                           std::to_string(n);
  DeltaState reference(w, start);  // legacy ctor: dense scalar/64
  std::vector<D> deltas(n);
  std::vector<std::int8_t> signs(n);
  for (BitIndex i = 0; i < n; ++i) {
    deltas[i] = static_cast<D>(reference.delta(i));
    signs[i] = static_cast<std::int8_t>(phi(start.get(i)));
  }
  Energy energy = reference.energy();

  for (std::size_t step = 0; step < flips.size(); ++step) {
    const BitIndex k = flips[step];
    const Energy old_delta_k = static_cast<Energy>(deltas[k]);
    passes.repair(deltas.data(), w.row(k).data(), signs.data(), 2 * signs[k],
                  n);
    deltas[k] = static_cast<D>(-old_delta_k);
    signs[k] = static_cast<std::int8_t>(-signs[k]);
    energy += old_delta_k;
    const auto expected = reference.flip_tracked(k);

    ASSERT_EQ(energy, expected.energy) << lane << " step " << step;
    for (BitIndex i = 0; i < n; ++i) {
      ASSERT_EQ(static_cast<Energy>(deltas[i]), reference.delta(i))
          << lane << " step " << step << " Δ_" << i;
    }
    // Best neighbour: leftmost min over [0, k) ++ (k, n).
    const std::size_t pos = passes.leftmost_min(deltas.data(), k,
                                                deltas.data() + k + 1,
                                                std::size_t{n} - k - 1);
    if (n == 1) {
      ASSERT_EQ(pos, 0u) << lane;  // both segments empty
    } else {
      const auto bit = static_cast<BitIndex>(pos < k ? pos : pos + 1);
      ASSERT_EQ(bit, expected.best_neighbor_bit)
          << lane << " step " << step << " flipped " << k;
      ASSERT_EQ(energy + static_cast<Energy>(deltas[bit]),
                expected.best_neighbor_energy)
          << lane << " step " << step;
    }
    // A wrapping window [offset, offset + first) ++ [0, rest), as
    // argmin_window scans it, placed and sized from k so it varies.
    const BitIndex offset = (k * 7 + 3) % n;
    const BitIndex len = 1 + (k + n / 2) % n;
    const BitIndex first = std::min(len, n - offset);
    const std::size_t at = passes.leftmost_min(
        deltas.data() + offset, first, deltas.data(), len - first);
    const auto window_bit =
        static_cast<BitIndex>(at < first ? offset + at : at - first);
    ASSERT_EQ(window_bit, reference.argmin_window(offset, len))
        << lane << " step " << step << " window (" << offset << ", " << len
        << ")";
  }
}

TEST(KernelLockstep, EveryIsaVariantMatchesTheScalarReference) {
  for (const BitIndex n :
       {1u, 2u, 15u, 16u, 17u, 31u, 33u, 63u, 65u, 1023u, 1025u}) {
    // Wide weights, and weights in [-2, 2] whose Δ values tie constantly,
    // so the leftmost tie-break is exercised across vector chunks.
    Rng weights(950 + n);
    const WeightMatrix tiny =
        WeightMatrix::generate_symmetric(n, [&weights](BitIndex, BitIndex) {
          return static_cast<Weight>(weights.range(-2, 2));
        });
    const WeightMatrix wide = random_dense(n, 960 + n);
    Rng rng(970 + n);
    const BitVector start = BitVector::random(n, rng);
    // Flip indices on vector-lane boundaries (4, 8 and 16 lanes), then
    // random ones.
    std::vector<BitIndex> flips;
    for (const BitIndex k :
         {0u, 1u, 3u, 4u, 7u, 8u, 15u, 16u, 31u, 32u, 47u, 48u, 63u, 64u}) {
      if (k < n) flips.push_back(k);
    }
    if (n >= 2) flips.push_back(n - 2);
    flips.push_back(n - 1);
    for (int i = 0; i < 40; ++i) {
      flips.push_back(static_cast<BitIndex>(rng.below(n)));
    }
    for (const KernelIsa isa : runnable_isas()) {
      for (const WeightMatrix* w : {&wide, &tiny}) {
        ASSERT_NO_FATAL_FAILURE(
            run_isa_lane<std::int32_t>(*w, start, isa, flips));
        ASSERT_NO_FATAL_FAILURE(
            run_isa_lane<std::int64_t>(*w, start, isa, flips));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Masked argmin (the straight-search step): every ISA variant of the pass,
// in both widths, and DeltaState::argmin_masked in every form, against a
// plain left-to-right scan of the masked values.
// ---------------------------------------------------------------------------

/// Leftmost i with the minimum values[i] among the set bits of `mask`; n
/// when the mask is empty.
template <class V>
std::size_t masked_min_oracle(const std::vector<V>& values,
                              const std::vector<std::uint64_t>& mask) {
  const std::size_t n = values.size();
  std::size_t best = n;
  for (std::size_t i = 0; i < n; ++i) {
    if ((mask[i / 64] >> (i % 64) & 1) == 0) continue;
    if (best == n || values[i] < values[best]) best = i;
  }
  return best;
}

/// The masks every lane is checked under: empty, every single bit on a
/// lane or word edge, all bits, and random ones of several densities.
std::vector<std::vector<std::uint64_t>> masks_for(std::size_t n, Rng& rng) {
  const std::size_t words = (n + 63) / 64;
  std::vector<std::vector<std::uint64_t>> masks;
  const auto with_bits = [&](auto&& keep) {
    std::vector<std::uint64_t> mask(words, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (keep(i)) mask[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    masks.push_back(std::move(mask));
  };
  with_bits([](std::size_t) { return false; });
  with_bits([](std::size_t) { return true; });
  for (const std::size_t bit :
       {std::size_t{0}, std::size_t{7}, std::size_t{8}, std::size_t{15},
        std::size_t{16}, std::size_t{63}, std::size_t{64}, n / 2, n - 1}) {
    if (bit < n) with_bits([bit](std::size_t i) { return i == bit; });
  }
  for (const double density : {0.02, 0.3, 0.9}) {
    with_bits([&rng, density](std::size_t) { return rng.chance(density); });
  }
  with_bits([n](std::size_t i) { return i + 5 >= n; });  // the tail only
  return masks;
}

template <class D>
void run_masked_min_lane(const std::vector<D>& values, KernelIsa isa,
                         const std::vector<std::vector<std::uint64_t>>& masks,
                         const std::string& lane) {
  const DenseSimdPasses<D>& passes = dense_simd_passes<D>(isa);
  for (std::size_t m = 0; m < masks.size(); ++m) {
    ASSERT_EQ(passes.masked_min(values.data(), masks[m].data(), values.size()),
              masked_min_oracle(values, masks[m]))
        << lane << " mask #" << m;
  }
}

template <class D>
void run_masked_min_values(std::size_t n, Rng& rng) {
  constexpr D kMin = std::numeric_limits<D>::min();
  constexpr D kMax = std::numeric_limits<D>::max();
  std::vector<std::vector<D>> value_sets;
  std::vector<D> wide(n);
  std::vector<D> ties(n);    // constant ties across vector chunks
  std::vector<D> flat(n);    // every value equal
  std::vector<D> top(n);     // everything at the type's extremes
  for (std::size_t i = 0; i < n; ++i) {
    wide[i] = static_cast<D>(rng.range(-1000000, 1000000));
    ties[i] = static_cast<D>(rng.range(-2, 2));
    flat[i] = 7;
    const D extremes[] = {kMin, static_cast<D>(kMin + 1), 0,
                          static_cast<D>(kMax - 1), kMax};
    top[i] = extremes[rng.below(5)];
  }
  std::vector<D> max_only(n, kMax);  // the empty-min sentinel is a value too
  const std::vector<std::vector<std::uint64_t>> masks = masks_for(n, rng);
  for (const KernelIsa isa : runnable_isas()) {
    for (const std::vector<D>* values :
         {&wide, &ties, &flat, &top, &max_only}) {
      ASSERT_NO_FATAL_FAILURE(run_masked_min_lane(
          *values, isa, masks,
          std::string(to_string(isa)) + "/" + std::to_string(sizeof(D) * 8) +
              "-bit n=" + std::to_string(n)));
    }
  }
}

TEST(KernelLockstep, MaskedArgminMatchesTheScalarWalkInEveryIsa) {
  for (const std::size_t n : {1u, 15u, 17u, 63u, 64u, 65u, 1000u}) {
    Rng rng(1100 + n);
    ASSERT_NO_FATAL_FAILURE(run_masked_min_values<std::int32_t>(n, rng));
    ASSERT_NO_FATAL_FAILURE(run_masked_min_values<std::int64_t>(n, rng));
  }
}

TEST(KernelLockstep, ArgminMaskedAgreesInEveryForm) {
  for (const BitIndex n : {1u, 15u, 17u, 63u, 65u, 1000u}) {
    // Weights in [-2, 2] keep Δ values tied, so the leftmost rule decides.
    Rng weights(1200 + n);
    const WeightMatrix w =
        WeightMatrix::generate_symmetric(n, [&weights](BitIndex, BitIndex) {
          return static_cast<Weight>(weights.range(-2, 2));
        });
    Rng rng(1300 + n);
    const BitVector start = BitVector::random(n, rng);
    const std::vector<std::vector<std::uint64_t>> masks = masks_for(n, rng);
    for (const auto& c : all_kernel_cases()) {
      const QuboKernel kernel(w, c.options);
      const DeltaState state(kernel, start);
      std::vector<Energy> deltas(n);
      for (BitIndex i = 0; i < n; ++i) deltas[i] = state.delta(i);
      for (std::size_t m = 0; m < masks.size(); ++m) {
        ASSERT_EQ(state.argmin_masked(masks[m]),
                  masked_min_oracle(deltas, masks[m]))
            << c.name << " n=" << n << " mask #" << m;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tie-break and edge-case contracts, per form
// ---------------------------------------------------------------------------

TEST(KernelContract, AllEqualDeltaTiesResolveLeftmostInEveryForm) {
  // Zero matrix: every Δ is 0 forever, so after flipping k the best
  // neighbour is a pure tie across all i ≠ k — the contract demands the
  // leftmost index: 1 when k == 0, else 0.
  const WeightMatrix w(33);
  for (const auto& c : all_kernel_cases()) {
    const QuboKernel kernel(w, c.options);
    DeltaState state(kernel);
    Rng rng(910);
    for (int step = 0; step < 60; ++step) {
      const auto k = static_cast<BitIndex>(rng.below(33));
      const auto outcome = state.flip_tracked(k);
      const BitIndex expected = (k == 0) ? 1u : 0u;
      ASSERT_EQ(outcome.best_neighbor_bit, expected)
          << c.name << " flipped " << k;
      ASSERT_EQ(outcome.best_neighbor_energy, 0) << c.name;
    }
  }
}

TEST(KernelContract, SizeOneReportsFlipBackInEveryForm) {
  const WeightMatrix w =
      WeightMatrix::generate_symmetric(1, [](BitIndex, BitIndex) {
        return static_cast<Weight>(-7);
      });
  for (const auto& c : all_kernel_cases()) {
    const QuboKernel kernel(w, c.options);
    DeltaState state(kernel);
    const Energy before = state.energy();
    const auto outcome = state.flip_tracked(0);
    EXPECT_EQ(outcome.best_neighbor_bit, 0u) << c.name;
    EXPECT_EQ(outcome.best_neighbor_energy, before) << c.name;
    EXPECT_EQ(outcome.energy, -7) << c.name;
  }
}

TEST(KernelContract, MatrixReadsCountDenseRowsAndSparseDegrees) {
  const BitIndex n = 72;
  const WeightMatrix w = random_sparse(n, 0.08, 920);

  KernelOptions dense_options;
  dense_options.form = KernelOptions::Form::kDenseSimd;
  const QuboKernel dense_kernel(w, dense_options);
  DeltaState dense_state(dense_kernel);
  EXPECT_EQ(dense_state.matrix_reads(), n);  // zero-state init reads W_ii
  dense_state.flip(5);
  EXPECT_EQ(dense_state.matrix_reads(), 2u * n);  // one full row per flip

  KernelOptions sparse_options;
  sparse_options.form = KernelOptions::Form::kSparse;
  const QuboKernel sparse_kernel(w, sparse_options);
  DeltaState sparse_state(sparse_kernel);
  EXPECT_EQ(sparse_state.matrix_reads(), n);
  sparse_state.flip(5);
  EXPECT_EQ(sparse_state.matrix_reads(),
            n + sparse_kernel.sparse()->degree(5));

  // Evaluated-solution accounting is form-independent (Theorem 1): the
  // sparse kernel still evaluates all n neighbours per flip.
  EXPECT_EQ(dense_state.evaluated_solutions(),
            sparse_state.evaluated_solutions());
  EXPECT_LT(sparse_state.matrix_reads(), dense_state.matrix_reads());

  // From-bits initialization costs the full Eq. (4) pass in any form.
  Rng rng(921);
  const BitVector x = BitVector::random(n, rng);
  const DeltaState seeded(sparse_kernel, x);
  EXPECT_EQ(seeded.matrix_reads(), static_cast<std::uint64_t>(n) * n);
}

}  // namespace
}  // namespace absq
