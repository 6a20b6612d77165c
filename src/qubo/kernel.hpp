// QuboKernel — per-instance flip-kernel plan (form + Δ width selection).
//
// The Δ-update of Eq. (16) is the hot loop of the whole system, and the
// cheapest correct implementation depends on the instance:
//
//   * kSparse      — CSR rows, O(degree) matrix reads per flip plus an
//                    O(degree·log n) tournament-tree repair that keeps the
//                    fused best-neighbour argmin exact. Wins whenever the
//                    matrix is sparse (G-set-style graphs).
//   * kDenseSimd   — contiguous dense row, repair and argmin as separate
//                    vectorizable passes (#pragma omp simd). Wins on dense
//                    instances (synthetic random, TSP permutation QUBOs).
//   * kDenseScalar — the original fused single-pass loop; the reference
//                    the other forms are pinned bit-identical against.
//
// Orthogonally, Δ values are stored 32-bit — QUBO++'s ABS3 narrow-
// coefficient mode, twice the lanes per vector — or 64-bit (always safe:
// |Δ| < 2^32 for in-range instances, see qubo/types.hpp). Unlike ABS3,
// whose "overflow checks are omitted for performance", the narrow width is
// guarded by a one-time worst-case precheck at plan time:
//
//     max_X |Δ_k(X)| = max(W_kk + 2·Σ_{i≠k} max(W_ki, 0),
//                          −W_kk + 2·Σ_{i≠k} max(−W_ki, 0))  =: B_k,
//
// so if max_k B_k fits int32 no reachable Δ (or repair intermediate — each
// repair step lands on a Δ of a reachable state) can overflow and the plan
// picks 32-bit; otherwise it falls back to 64-bit.
//
// The dense-SIMD passes are compiled once per instruction set (KernelIsa)
// with GCC target attributes, and the plan picks the best variant the
// host CPU runs — the build itself stays portable (no -march).
//
// Every form × width × ISA combination produces bit-identical energies, Δ
// vectors and flip outcomes — pinned by the lockstep property tests — so
// kernel selection is purely a performance decision. docs/kernels.md
// records selection rules and the measured crossover.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "qubo/sparse_matrix.hpp"
#include "qubo/types.hpp"
#include "qubo/weight_matrix.hpp"

namespace absq {

/// Implementation form of the Δ-repair loop.
enum class KernelForm : std::uint8_t {
  kDenseScalar = 0,  ///< original fused single-pass dense loop
  kDenseSimd = 1,    ///< dense two-pass, vectorizable repair + argmin
  kSparse = 2,       ///< CSR rows + tournament tree for the argmin
};

/// Storage width of the Δ vector.
enum class DeltaWidth : std::uint8_t {
  kWide64 = 0,   ///< int64 (always safe)
  kNarrow32 = 1, ///< int32 (default wherever the precheck proves it safe)
};

/// Instruction set the dense-SIMD passes were compiled for.
enum class KernelIsa : std::uint8_t {
  kPortable = 0,  ///< the build's baseline (SSE2 on x86-64)
  kAvx2 = 1,      ///< AVX2
  kX86_64_V4 = 2, ///< x86-64-v4: AVX2 plus AVX-512 F/BW/CD/DQ/VL
};

[[nodiscard]] const char* to_string(KernelForm form);
[[nodiscard]] const char* to_string(DeltaWidth width);
[[nodiscard]] const char* to_string(KernelIsa isa);

/// Every KernelIsa variant this CPU can run, in ascending order:
/// kPortable first, the best one last. Non-x86-64 builds have only
/// kPortable.
[[nodiscard]] std::vector<KernelIsa> runnable_isas();

struct KernelOptions {
  enum class Form : std::uint8_t {
    kAuto = 0,    ///< sparse when profitable, dense-SIMD otherwise (see
                  ///< QuboKernel::sparse_pays_off)
    kDense = 1,   ///< force the scalar dense reference kernel
    kDenseSimd = 2,
    kSparse = 3,
  };
  Form form = Form::kAuto;

  /// 32-bit Δ wherever the worst-case precheck proves every reachable Δ
  /// fits (see QuboKernel::delta_bound), 64-bit otherwise. Tests and
  /// benches set it to false to force the 64-bit width.
  bool narrow_delta = true;

  /// Largest |Δ| the narrow mode may represent. The default is the honest
  /// int32 limit; tests lower it to exercise both sides of the precheck
  /// without building 2 GiB instances.
  Energy narrow_limit = std::numeric_limits<std::int32_t>::max();
};

[[nodiscard]] KernelOptions::Form parse_kernel_form(const std::string& name);

/// The planned kernel for one instance: the dense matrix (always kept —
/// reference energies, baselines and the dense forms read it), the CSR
/// form when the plan selected it, and the chosen form/width. One plan is
/// shared read-only by every search block of a device.
class QuboKernel {
 public:
  /// Plans the kernel. One O(n²) analysis pass (nonzero count + worst-case
  /// Δ bound); builds the CSR form only when selected. `w` must outlive
  /// the kernel.
  explicit QuboKernel(const WeightMatrix& w, const KernelOptions& options = {});

  [[nodiscard]] const WeightMatrix& dense() const { return *w_; }
  /// Non-null exactly when form() == KernelForm::kSparse.
  [[nodiscard]] const SparseWeightMatrix* sparse() const {
    return sparse_.get();
  }

  [[nodiscard]] KernelForm form() const { return form_; }
  [[nodiscard]] DeltaWidth width() const { return width_; }
  /// The dense-SIMD variant states of this plan run: the best entry of
  /// runnable_isas(), probed once per process.
  [[nodiscard]] KernelIsa isa() const { return isa_; }
  [[nodiscard]] const KernelOptions& options() const { return options_; }

  /// max_k B_k — the worst-case |Δ| over every reachable state, the value
  /// the narrow-mode precheck compares against narrow_limit.
  [[nodiscard]] Energy delta_bound() const { return delta_bound_; }

  /// True when narrow_delta was requested but the precheck forced 64-bit.
  [[nodiscard]] bool narrow_fallback() const { return narrow_fallback_; }

  [[nodiscard]] std::size_t stored_nonzeros() const { return nonzeros_; }
  [[nodiscard]] double density() const;

  /// e.g. "dense-simd/32-bit [x86-64-v4] (n=1024, density 100.00%,
  /// |delta|<=18774775)" — for logs/benches. The ISA is named for the
  /// dense-simd form only, the one form compiled per ISA.
  [[nodiscard]] std::string description() const;

  /// The precheck bound max_k B_k (see the file comment) — the exact
  /// maximum of |Δ_k(X)| over every k and X. Exposed for boundary tests.
  [[nodiscard]] static Energy worst_case_delta_bound(const WeightMatrix& w);

  /// kAuto's form rule: true when the CSR kernel's predicted per-flip
  /// cost for an n-bit instance with `nonzeros` stored entries is at most
  /// half that of the dense-simd kernel in `isa` and `width`. The
  /// per-bit and per-entry costs are measured constants (EXPERIMENTS.md);
  /// the 2× margin is the one scripts/perfgate.sh holds sparse picks to.
  [[nodiscard]] static bool sparse_pays_off(BitIndex n, std::size_t nonzeros,
                                            KernelIsa isa, DeltaWidth width);

 private:
  const WeightMatrix* w_;
  KernelOptions options_;
  std::shared_ptr<const SparseWeightMatrix> sparse_;
  KernelForm form_ = KernelForm::kDenseScalar;
  DeltaWidth width_ = DeltaWidth::kWide64;
  KernelIsa isa_ = KernelIsa::kPortable;
  Energy delta_bound_ = 0;
  std::size_t nonzeros_ = 0;
  bool narrow_fallback_ = false;
};

}  // namespace absq
