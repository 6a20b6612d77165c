// Dense symmetric weight matrix W of a QUBO instance.
//
// The matrix is stored row-major and fully materialized (both triangles) so
// that the hot loop of the Δ update — a streaming read of row k — is a
// contiguous, prefetch-friendly scan, exactly as the CUDA kernel in the
// paper reads one matrix row per flip from global memory. For n = 32k the
// matrix occupies 2 GiB of int16, matching the paper's memory budget on an
// 11 GB GPU.
//
// Construction paths:
//   * WeightMatrixBuilder — accumulates arbitrary (i, j, w) energy terms
//     sparsely in 64-bit, folds them into a symmetric matrix, and range-
//     checks the final 16-bit weights. All problem converters (Max-Cut,
//     TSP, ...) target the builder so saturation bugs surface at build
//     time, not as silent wrap-around during a search.
//   * WeightMatrix::generate_symmetric — direct dense fill from a callable;
//     used by the synthetic random workload whose n² nonzeros would make
//     sparse accumulation pointless.
//   * read_qubo (qubo/io.hpp) — writes each parsed, range-checked entry
//     straight into the matrix: a file holds final weights, not terms.
#pragma once

#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "qubo/types.hpp"

namespace absq {

class SparseWeightMatrix;

class WeightMatrix {
 public:
  WeightMatrix() = default;

  /// An n×n all-zero matrix.
  explicit WeightMatrix(BitIndex n);

  /// Builds a dense symmetric matrix by calling `entry(i, j)` once per
  /// upper-triangle position (i ≤ j) and mirroring the result.
  template <std::invocable<BitIndex, BitIndex> F>
  static WeightMatrix generate_symmetric(BitIndex n, F&& entry) {
    WeightMatrix w(n);
    for (BitIndex i = 0; i < n; ++i) {
      for (BitIndex j = i; j < n; ++j) {
        w.set_symmetric(i, j, static_cast<Weight>(entry(i, j)));
      }
    }
    return w;
  }

  [[nodiscard]] BitIndex size() const { return n_; }

  /// W_ij. Symmetry (W_ij == W_ji) is a class invariant.
  [[nodiscard]] Weight at(BitIndex i, BitIndex j) const {
    return data_[static_cast<std::size_t>(i) * n_ + j];
  }

  /// Contiguous row k — the access pattern of the Δ update loop.
  [[nodiscard]] std::span<const Weight> row(BitIndex k) const {
    return {data_.data() + static_cast<std::size_t>(k) * n_, n_};
  }

  /// The diagonal W_kk, used to initialize Δ_k(0) = W_kk.
  [[nodiscard]] std::vector<Weight> diagonal() const;

  /// Number of nonzero entries in the upper triangle incl. diagonal.
  [[nodiscard]] std::size_t nonzeros() const;

  /// True if W_ij == W_ji for all pairs. Always true for matrices produced
  /// by the builder/factory; exposed for tests.
  [[nodiscard]] bool is_symmetric() const;

  /// Memory footprint of the weight data in bytes.
  [[nodiscard]] std::size_t bytes() const {
    return data_.size() * sizeof(Weight);
  }

  friend bool operator==(const WeightMatrix& a,
                         const WeightMatrix& b) = default;

 private:
  friend class WeightMatrixBuilder;
  friend WeightMatrix read_qubo(std::istream& in);

  void set_symmetric(BitIndex i, BitIndex j, Weight w) {
    data_[static_cast<std::size_t>(i) * n_ + j] = w;
    data_[static_cast<std::size_t>(j) * n_ + i] = w;
  }

  BitIndex n_ = 0;
  std::vector<Weight> data_;
};

/// Accumulating sparse builder; see file comment.
class WeightMatrixBuilder {
 public:
  /// Prepares an n-bit instance. n must be in [1, kMaxBits].
  explicit WeightMatrixBuilder(BitIndex n);

  [[nodiscard]] BitIndex size() const { return n_; }

  /// Adds `w · x_i · x_j` to the energy function (order of i, j irrelevant).
  /// At build time an off-diagonal pair coefficient c is split evenly as
  /// W_ij = W_ji = c/2; if any off-diagonal coefficient is odd, *all*
  /// coefficients are doubled first (a positive rescaling, so the argmin is
  /// unchanged; reported via energy_scale()). Accumulation is 64-bit; the
  /// 16-bit range is enforced at build().
  void add(BitIndex i, BitIndex j, Energy w);

  /// Adds `w` to the linear coefficient of x_i (the diagonal W_ii, since
  /// x_i² = x_i for binary variables).
  void add_linear(BitIndex i, Energy w) { add(i, i, w); }

  /// Largest |accumulated coefficient| so far — converters use this to size
  /// penalty terms before calling build().
  [[nodiscard]] Energy max_abs_coefficient() const;

  /// Validates the 16-bit weight range and produces the symmetric matrix.
  /// Throws CheckError when any resulting weight would fall outside
  /// [kMinWeight, kMaxWeight].
  [[nodiscard]] WeightMatrix build() const;

  /// Like build(), but right-shifts all coefficients by the smallest shift
  /// that brings them into 16-bit range, returning the shift used. Shifting
  /// truncates *toward zero* for both signs (so +c and −c quantize to ±v
  /// with the same magnitude), making this a *lossy quantization*: the
  /// argmin of the scaled instance may differ from the exact one when
  /// coefficients are not divisible — callers must treat decoded energies
  /// as E_true ≈ E_scaled · 2^shift. Used by TSP conversions whose raw
  /// penalties can exceed 16 bits.
  [[nodiscard]] WeightMatrix build_scaled(int* shift_out = nullptr) const;

  /// Builds the CSR form directly from the accumulated terms, without ever
  /// materializing the n² dense array. Same range checks, coefficient
  /// splitting, and energy_scale() contract as build().
  [[nodiscard]] SparseWeightMatrix build_sparse() const;

  /// Factor build() multiplied the energy function by (1 or 2, see add()).
  /// Valid after build().
  [[nodiscard]] int energy_scale() const { return energy_scale_; }

 private:
  /// Packed upper-triangle key for the sparse accumulator.
  [[nodiscard]] std::uint64_t key(BitIndex i, BitIndex j) const;
  [[nodiscard]] bool any_odd_offdiagonal() const;
  /// value / 2^shift, truncated toward zero for both signs.
  [[nodiscard]] static Energy quantize(Energy value, int shift);
  [[nodiscard]] WeightMatrix assemble(Energy scale, int shift) const;

  BitIndex n_;
  std::unordered_map<std::uint64_t, Energy> acc_;
  mutable int energy_scale_ = 1;
};

}  // namespace absq
