#include "qubo/kernel.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/check.hpp"

namespace absq {

const char* to_string(KernelForm form) {
  switch (form) {
    case KernelForm::kDenseScalar:
      return "dense";
    case KernelForm::kDenseSimd:
      return "dense-simd";
    case KernelForm::kSparse:
      return "sparse";
  }
  return "?";
}

const char* to_string(DeltaWidth width) {
  switch (width) {
    case DeltaWidth::kWide64:
      return "64-bit";
    case DeltaWidth::kNarrow32:
      return "32-bit";
  }
  return "?";
}

const char* to_string(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return "portable";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kX86_64_V4:
      return "x86-64-v4";
  }
  return "?";
}

std::vector<KernelIsa> runnable_isas() {
  std::vector<KernelIsa> isas{KernelIsa::kPortable};
#if defined(__x86_64__)
  // Probes the CPU and the OS (XCR0 state saving) — the same conditions
  // under which the target-attributed variants in delta_state.cpp may run.
  // x86-64-v4 is checked feature by feature so the probe does not depend
  // on the compiler knowing the level names.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    isas.push_back(KernelIsa::kAvx2);
    if (__builtin_cpu_supports("fma") && __builtin_cpu_supports("bmi") &&
        __builtin_cpu_supports("bmi2") &&
        __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512cd") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl")) {
      isas.push_back(KernelIsa::kX86_64_V4);
    }
  }
#endif
  return isas;
}

KernelOptions::Form parse_kernel_form(const std::string& name) {
  if (name == "auto") return KernelOptions::Form::kAuto;
  if (name == "dense") return KernelOptions::Form::kDense;
  if (name == "dense-simd") return KernelOptions::Form::kDenseSimd;
  if (name == "sparse") return KernelOptions::Form::kSparse;
  ABSQ_CHECK(false, "unknown kernel form '"
                        << name << "' (expected auto|dense|dense-simd|sparse)");
  return KernelOptions::Form::kAuto;  // unreachable
}

namespace {

struct MatrixScan {
  std::size_t nonzeros = 0;
  Energy delta_bound = 0;
};

// The plan's one O(n²) pass: per row, the nonzero count and the sums
// behind B_k (see worst_case_delta_bound). Every solver construction plans
// its kernel, so this pass is on the path of every solve; it is branch-free
// and int32 so `#pragma omp simd` vectorizes it on the baseline ISA.
// int32 cannot overflow: |row sum| ≤ 2^15 · kMaxBits = 2^30.
MatrixScan scan_matrix(const WeightMatrix& w) {
  MatrixScan scan;
  const BitIndex n = w.size();
  for (BitIndex k = 0; k < n; ++k) {
    const Weight* row = w.row(k).data();
    std::int32_t pos = 0;
    std::int32_t neg = 0;
    std::int32_t nonzero = 0;
#pragma omp simd reduction(+ : pos, neg, nonzero)
    for (BitIndex i = 0; i < n; ++i) {
      const std::int32_t v = row[i];
      pos += v > 0 ? v : 0;
      neg += v < 0 ? -v : 0;
      nonzero += v != 0 ? 1 : 0;
    }
    // The sums ran over i == k too; take the diagonal back out.
    const Energy diag = row[k];
    const Energy pos_k = pos - (diag > 0 ? diag : 0);
    const Energy neg_k = neg - (diag < 0 ? -diag : 0);
    scan.nonzeros += static_cast<std::size_t>(nonzero);
    scan.delta_bound =
        std::max({scan.delta_bound, diag + 2 * pos_k, 2 * neg_k - diag});
  }
  return scan;
}

}  // namespace

Energy QuboKernel::worst_case_delta_bound(const WeightMatrix& w) {
  // Eq. (4): Δ_k(X) = φ(x_k)(2 Σ_{i≠k} W_ki x_i + W_kk). Over all X the
  // inner sum ranges over subset sums of row k, so with P_k = Σ_{i≠k}
  // max(W_ki, 0) and N_k = Σ_{i≠k} max(−W_ki, 0)
  //
  //     max_X |Δ_k(X)| = max(W_kk + 2 P_k,  2 N_k − W_kk)  =: B_k
  //
  // — exact (both extremes are reached by X selecting exactly the
  // positive / the negative entries), and every Δ the repair loop ever
  // stores is the Δ of some reachable state, so max_k B_k bounds the whole
  // run. Tightness is pinned by enumeration tests on small instances.
  return scan_matrix(w).delta_bound;
}

QuboKernel::QuboKernel(const WeightMatrix& w, const KernelOptions& options)
    : w_(&w), options_(options) {
  static const KernelIsa kHostIsa = runnable_isas().back();
  isa_ = kHostIsa;
  const BitIndex n = w.size();
  const MatrixScan scan = scan_matrix(w);
  nonzeros_ = scan.nonzeros;
  delta_bound_ = scan.delta_bound;

  if (options.narrow_delta) {
    const Energy limit =
        std::min<Energy>(options.narrow_limit,
                         std::numeric_limits<std::int32_t>::max());
    if (delta_bound_ <= limit) {
      width_ = DeltaWidth::kNarrow32;
    } else {
      narrow_fallback_ = true;  // provably unsafe → 64-bit
    }
  }

  switch (options.form) {
    case KernelOptions::Form::kDense:
      form_ = KernelForm::kDenseScalar;
      break;
    case KernelOptions::Form::kDenseSimd:
      form_ = KernelForm::kDenseSimd;
      break;
    case KernelOptions::Form::kSparse:
      form_ = KernelForm::kSparse;
      break;
    case KernelOptions::Form::kAuto:
      form_ = sparse_pays_off(n, nonzeros_, isa_, width_)
                  ? KernelForm::kSparse
                  : KernelForm::kDenseSimd;
      break;
  }
  if (form_ == KernelForm::kSparse) {
    sparse_ = std::make_shared<const SparseWeightMatrix>(w);
  }
}

bool QuboKernel::sparse_pays_off(BitIndex n, std::size_t nonzeros,
                                 KernelIsa isa, DeltaWidth width) {
  // Per-flip costs in picoseconds, measured with bench_kernels-style
  // flip_tracked loops on Max-Cut instances (EXPERIMENTS.md, "Kernel
  // crossover after ISA dispatch"). Dense-simd pays per bit of the row,
  // by [isa][width]; the CSR kernel pays a fixed tournament-tree cost plus
  // a cost per stored entry of the row.
  constexpr std::uint64_t kDensePsPerBit[3][2] = {
      {1750, 800},  // portable: 64-bit, 32-bit
      {1050, 420},  // avx2
      {450, 250},   // x86-64-v4
  };
  constexpr std::uint64_t kSparsePsPerFlip = 300000;
  constexpr std::uint64_t kSparsePsPerEntry = 35000;
  // Both sides times n, so the average degree nonzeros / n needs no
  // division: 2·(F + E·nnz/n) ≤ D·n  ⇔  2·(F·n + E·nnz) ≤ D·n².
  const std::uint64_t bits = n;
  const std::uint64_t dense = kDensePsPerBit[static_cast<int>(isa)]
                                            [static_cast<int>(width)] *
                              bits * bits;
  const std::uint64_t sparse =
      2 * (kSparsePsPerFlip * bits + kSparsePsPerEntry * nonzeros);
  return sparse <= dense;
}

double QuboKernel::density() const {
  const double n = static_cast<double>(w_->size());
  if (n == 0.0) return 0.0;
  return static_cast<double>(nonzeros_) / (n * n);
}

std::string QuboKernel::description() const {
  std::ostringstream os;
  os << to_string(form_) << '/' << to_string(width_);
  if (form_ == KernelForm::kDenseSimd) os << " [" << to_string(isa_) << ']';
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", density() * 100.0);
  os << " (n=" << w_->size() << ", density " << buf << "%, |delta|<="
     << delta_bound_;
  if (narrow_fallback_) os << ", narrow fallback";
  os << ')';
  return os.str();
}

}  // namespace absq
