#include "qubo/delta_state.hpp"

#include <bit>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "qubo/energy.hpp"
#include "util/check.hpp"

namespace absq {

namespace {

// Repair step d + adj in the Δ storage type. In the 32-bit width the dense
// loops also touch i == k with the i ≠ k rule (branchless, exactly like the
// 64-bit reference); that one transient value can exceed int32 range, so
// the addition runs on uint32 (defined wraparound, identical bits for every
// in-range value) and the k slot is overwritten with −Δ_k right after.
// Always inlined, also into the per-ISA passes below: an out-of-line call
// would keep their loops from vectorizing.
template <class D>
[[gnu::always_inline]] inline D add_repair(D d, int adj) {
  if constexpr (sizeof(D) == sizeof(std::int32_t)) {
    return static_cast<D>(static_cast<std::uint32_t>(d) +
                          static_cast<std::uint32_t>(adj));
  } else {
    return d + adj;
  }
}

constexpr Energy kNoDelta = std::numeric_limits<Energy>::max();

// ---------------------------------------------------------------------------
// Dense-simd passes (see DenseSimdPasses), written once and compiled per
// KernelIsa by the thin target-attributed wrappers below.

template <class D>
[[gnu::always_inline]] inline void repair_pass(D* deltas, const Weight* row,
                                               const std::int8_t* signs,
                                               int two_phi_k, BitIndex n) {
  // 2·φ(x_k)·φ(x_i)·W_ki as a select on φ(x_i) == φ(x_k) — the same value
  // as the scalar loop's product, without two vector multiplies.
  const std::int8_t phi_k = two_phi_k > 0 ? 1 : -1;
#pragma omp simd
  for (BitIndex i = 0; i < n; ++i) {
    const int twice = 2 * static_cast<int>(row[i]);
    deltas[i] = add_repair(deltas[i], signs[i] == phi_k ? twice : -twice);
  }
}

// Integer min is order-independent, so the vectorized reduction equals the
// scalar left-to-right min exactly. Spans are a pointer plus a std::size_t
// length: a 32-bit index starting mid-vector (at k + 1, at a window
// offset) may wrap as far as the compiler knows, which turns the loads
// into per-lane gathers.
template <class D>
[[gnu::always_inline]] inline D min_span(const D* values, std::size_t len,
                                         D best) {
#pragma omp simd reduction(min : best)
  for (std::size_t i = 0; i < len; ++i) {
    best = values[i] < best ? values[i] : best;
  }
  return best;
}

// Leftmost i < len with values[i] == target (len when none). Whole chunks
// are skipped by one vectorized any-equal test each; only the chunk that
// hits is scanned element by element.
template <class D>
[[gnu::always_inline]] inline std::size_t find_first(const D* values,
                                                     std::size_t len,
                                                     D target) {
  constexpr std::size_t kChunk = 64;
  std::size_t base = 0;
  for (; base + kChunk <= len; base += kChunk) {
    int hit = 0;
#pragma omp simd reduction(| : hit)
    for (std::size_t i = 0; i < kChunk; ++i) {
      hit |= values[base + i] == target ? 1 : 0;
    }
    if (hit != 0) break;
  }
  while (base < len && values[base] != target) ++base;
  return base;
}

// DenseSimdPasses::leftmost_min: the minimum value first, then its first
// occurrence in head ++ tail order.
template <class D>
[[gnu::always_inline]] inline std::size_t leftmost_min_pass(
    const D* head, std::size_t head_len, const D* tail, std::size_t tail_len) {
  const D best = min_span(tail, tail_len,
                          min_span(head, head_len,
                                   std::numeric_limits<D>::max()));
  const std::size_t in_head = find_first(head, head_len, best);
  if (in_head < head_len) return in_head;
  return head_len + find_first(tail, tail_len, best);
}

template <class D>
void repair_portable(D* deltas, const Weight* row, const std::int8_t* signs,
                     int two_phi_k, BitIndex n) {
  repair_pass(deltas, row, signs, two_phi_k, n);
}
template <class D>
std::size_t leftmost_min_portable(const D* head, std::size_t head_len,
                                  const D* tail, std::size_t tail_len) {
  return leftmost_min_pass(head, head_len, tail, tail_len);
}

// DenseSimdPasses::masked_min, portable: the scalar word walk — 64
// candidates per word via countr_zero, strict < so the first-seen
// (leftmost) minimum wins. Also the pass of the sparse and dense-scalar
// forms.
template <class D>
std::size_t masked_min_portable(const D* values, const std::uint64_t* mask,
                                std::size_t n) {
  std::size_t best = n;
  D best_value = 0;
  const std::size_t words = (n + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    for (std::uint64_t word = mask[wi]; word != 0; word &= word - 1) {
      const std::size_t i =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(word));
      if (best == n || values[i] < best_value) {
        best = i;
        best_value = values[i];
      }
    }
  }
  return best;
}

#if defined(__x86_64__)
template <class D>
[[gnu::target("avx2")]] void repair_avx2(D* deltas, const Weight* row,
                                         const std::int8_t* signs,
                                         int two_phi_k, BitIndex n) {
  repair_pass(deltas, row, signs, two_phi_k, n);
}
template <class D>
[[gnu::target("avx2")]] std::size_t leftmost_min_avx2(const D* head,
                                                      std::size_t head_len,
                                                      const D* tail,
                                                      std::size_t tail_len) {
  return leftmost_min_pass(head, head_len, tail, tail_len);
}
template <class D>
[[gnu::target("arch=x86-64-v4")]] void repair_v4(D* deltas, const Weight* row,
                                                 const std::int8_t* signs,
                                                 int two_phi_k, BitIndex n) {
  repair_pass(deltas, row, signs, two_phi_k, n);
}
template <class D>
[[gnu::target("arch=x86-64-v4")]] std::size_t leftmost_min_v4(
    const D* head, std::size_t head_len, const D* tail, std::size_t tail_len) {
  return leftmost_min_pass(head, head_len, tail, tail_len);
}

// The vector masked_min variants share one shape: slice each mask word
// into vector-width lane masks (a slice covers kLanes consecutive values),
// take the masked minimum over every slice, then return the first lane of
// the first slice whose masked compare-equal hits. Only slices holding a
// value < n are formed (the last word may be partial), and the loads are
// masked, so no lane past n is read. Words with no set bit are skipped.
// mask_slices() is the number of such slices of word wi.
template <std::size_t kLanes>
[[gnu::always_inline]] inline std::size_t mask_slices(std::size_t n,
                                                      std::size_t wi) {
  const std::size_t lanes = n - wi * 64 < 64 ? n - wi * 64 : 64;
  return (lanes + kLanes - 1) / kLanes;
}

// The horizontal minimum of an accumulator stored to memory (GCC 12's
// _mm512_reduce_min_* intrinsics trip -Wmaybe-uninitialized).
template <class D, std::size_t kLanes>
[[gnu::always_inline]] inline D min_lane(const D* lanes) {
  D best = lanes[0];
  for (std::size_t i = 1; i < kLanes; ++i) {
    best = lanes[i] < best ? lanes[i] : best;
  }
  return best;
}

// Lane operations of masked_min_avx2: a slice is 8 int32 or 4 int64 lanes,
// selected by broadcasting the slice's mask bits, AND-ing them with the
// lane's own bit and comparing (AVX2 has no mask registers).
template <class D>
struct Avx2Lanes;

template <>
struct Avx2Lanes<std::int32_t> {
  static constexpr std::size_t kLanes = 8;
  [[gnu::target("avx2"), gnu::always_inline]] static __m256i select(
      std::uint64_t bits) {
    const __m256i lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i slice = _mm256_set1_epi32(static_cast<int>(bits & 0xFF));
    return _mm256_cmpeq_epi32(_mm256_and_si256(slice, lane_bits), lane_bits);
  }
  [[gnu::target("avx2"), gnu::always_inline]] static __m256i load(
      __m256i sel, const std::int32_t* at) {
    return _mm256_maskload_epi32(at, sel);
  }
  [[gnu::target("avx2"), gnu::always_inline]] static __m256i splat(
      std::int32_t value) {
    return _mm256_set1_epi32(value);
  }
  [[gnu::target("avx2"), gnu::always_inline]] static __m256i min(__m256i a,
                                                                 __m256i b) {
    return _mm256_min_epi32(a, b);
  }
  [[gnu::target("avx2"), gnu::always_inline]] static unsigned hits(
      __m256i values, __m256i target, __m256i sel) {
    const __m256i eq =
        _mm256_and_si256(_mm256_cmpeq_epi32(values, target), sel);
    return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
  }
};

template <>
struct Avx2Lanes<std::int64_t> {
  static constexpr std::size_t kLanes = 4;
  [[gnu::target("avx2"), gnu::always_inline]] static __m256i select(
      std::uint64_t bits) {
    const __m256i lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i slice =
        _mm256_set1_epi64x(static_cast<long long>(bits & 0xF));
    return _mm256_cmpeq_epi64(_mm256_and_si256(slice, lane_bits), lane_bits);
  }
  [[gnu::target("avx2"), gnu::always_inline]] static __m256i load(
      __m256i sel, const std::int64_t* at) {
    return _mm256_maskload_epi64(reinterpret_cast<const long long*>(at), sel);
  }
  [[gnu::target("avx2"), gnu::always_inline]] static __m256i splat(
      std::int64_t value) {
    return _mm256_set1_epi64x(value);
  }
  [[gnu::target("avx2"), gnu::always_inline]] static __m256i min(__m256i a,
                                                                 __m256i b) {
    return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
  }
  [[gnu::target("avx2"), gnu::always_inline]] static unsigned hits(
      __m256i values, __m256i target, __m256i sel) {
    const __m256i eq =
        _mm256_and_si256(_mm256_cmpeq_epi64(values, target), sel);
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
  }
};

template <class D>
[[gnu::target("avx2")]] std::size_t masked_min_avx2(const D* values,
                                                    const std::uint64_t* mask,
                                                    std::size_t n) {
  using L = Avx2Lanes<D>;
  constexpr std::size_t kLanes = L::kLanes;
  const std::size_t words = (n + 63) / 64;
  // Unselected lanes load as 0; blending them to the maximum keeps them
  // out of the minimum.
  const __m256i top = L::splat(std::numeric_limits<D>::max());
  __m256i acc = top;
  bool any = false;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::uint64_t word = mask[wi];
    if (word == 0) continue;
    any = true;
    const std::size_t slices = mask_slices<kLanes>(n, wi);
    for (std::size_t s = 0; s < slices; ++s) {
      const __m256i sel = L::select(word >> (s * kLanes));
      const __m256i v = L::load(sel, values + wi * 64 + s * kLanes);
      acc = L::min(acc, _mm256_blendv_epi8(top, v, sel));
    }
  }
  if (!any) return n;
  alignas(32) D lanes[kLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  const __m256i target = L::splat(min_lane<D, kLanes>(lanes));
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::uint64_t word = mask[wi];
    if (word == 0) continue;
    const std::size_t slices = mask_slices<kLanes>(n, wi);
    for (std::size_t s = 0; s < slices; ++s) {
      const __m256i sel = L::select(word >> (s * kLanes));
      const std::size_t at = wi * 64 + s * kLanes;
      const unsigned hit = L::hits(L::load(sel, values + at), target, sel);
      if (hit != 0) return at + static_cast<std::size_t>(std::countr_zero(hit));
    }
  }
  return n;  // unreachable: the minimum came from a selected lane
}

// Lane operations of masked_min_v4: the mask word's bits are AVX-512 lane
// masks as they stand — a slice of 16 (int32) or 8 (int64) bits, cut off
// by a shift, masks both the load and the min/compare.
template <class D>
struct V4Lanes;

template <>
struct V4Lanes<std::int32_t> {
  using Mask = __mmask16;
  static constexpr std::size_t kLanes = 16;
  [[gnu::target("arch=x86-64-v4"), gnu::always_inline]] static __m512i load(
      Mask m, const std::int32_t* at) {
    return _mm512_maskz_loadu_epi32(m, at);
  }
  [[gnu::target("arch=x86-64-v4"), gnu::always_inline]] static __m512i splat(
      std::int32_t value) {
    return _mm512_set1_epi32(value);
  }
  [[gnu::target("arch=x86-64-v4"), gnu::always_inline]] static __m512i min(
      __m512i acc, Mask m, __m512i v) {
    return _mm512_mask_min_epi32(acc, m, acc, v);
  }
  [[gnu::target("arch=x86-64-v4"), gnu::always_inline]] static Mask equal(
      Mask m, __m512i v, __m512i target) {
    return _mm512_mask_cmpeq_epi32_mask(m, v, target);
  }
};

template <>
struct V4Lanes<std::int64_t> {
  using Mask = __mmask8;
  static constexpr std::size_t kLanes = 8;
  [[gnu::target("arch=x86-64-v4"), gnu::always_inline]] static __m512i load(
      Mask m, const std::int64_t* at) {
    return _mm512_maskz_loadu_epi64(m, at);
  }
  [[gnu::target("arch=x86-64-v4"), gnu::always_inline]] static __m512i splat(
      std::int64_t value) {
    return _mm512_set1_epi64(value);
  }
  [[gnu::target("arch=x86-64-v4"), gnu::always_inline]] static __m512i min(
      __m512i acc, Mask m, __m512i v) {
    return _mm512_mask_min_epi64(acc, m, acc, v);
  }
  [[gnu::target("arch=x86-64-v4"), gnu::always_inline]] static Mask equal(
      Mask m, __m512i v, __m512i target) {
    return _mm512_mask_cmpeq_epi64_mask(m, v, target);
  }
};

template <class D>
[[gnu::target("arch=x86-64-v4")]] std::size_t masked_min_v4(
    const D* values, const std::uint64_t* mask, std::size_t n) {
  using L = V4Lanes<D>;
  using Mask = typename L::Mask;
  constexpr std::size_t kLanes = L::kLanes;
  const std::size_t words = (n + 63) / 64;
  __m512i acc = L::splat(std::numeric_limits<D>::max());
  bool any = false;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::uint64_t word = mask[wi];
    if (word == 0) continue;
    any = true;
    const std::size_t slices = mask_slices<kLanes>(n, wi);
    for (std::size_t s = 0; s < slices; ++s) {
      const auto m = static_cast<Mask>(word >> (s * kLanes));
      acc = L::min(acc, m, L::load(m, values + wi * 64 + s * kLanes));
    }
  }
  if (!any) return n;
  alignas(64) D lanes[kLanes];
  _mm512_store_si512(lanes, acc);
  const __m512i target = L::splat(min_lane<D, kLanes>(lanes));
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::uint64_t word = mask[wi];
    if (word == 0) continue;
    const std::size_t slices = mask_slices<kLanes>(n, wi);
    for (std::size_t s = 0; s < slices; ++s) {
      const auto m = static_cast<Mask>(word >> (s * kLanes));
      const std::size_t at = wi * 64 + s * kLanes;
      const Mask hit = L::equal(m, L::load(m, values + at), target);
      if (hit != 0) return at + static_cast<std::size_t>(std::countr_zero(hit));
    }
  }
  return n;  // unreachable: the minimum came from a selected lane
}
#endif

}  // namespace

template <class D>
const DenseSimdPasses<D>& dense_simd_passes(KernelIsa isa) {
  static constexpr DenseSimdPasses<D> kPortable{
      &repair_portable<D>, &leftmost_min_portable<D>, &masked_min_portable<D>};
#if defined(__x86_64__)
  static constexpr DenseSimdPasses<D> kAvx2{
      &repair_avx2<D>, &leftmost_min_avx2<D>, &masked_min_avx2<D>};
  static constexpr DenseSimdPasses<D> kV4{&repair_v4<D>, &leftmost_min_v4<D>,
                                          &masked_min_v4<D>};
  switch (isa) {
    case KernelIsa::kPortable:
      return kPortable;
    case KernelIsa::kAvx2:
      return kAvx2;
    case KernelIsa::kX86_64_V4:
      return kV4;
  }
#endif
  ABSQ_CHECK(isa == KernelIsa::kPortable,
             "kernel ISA " << to_string(isa) << " is not built for this target");
  return kPortable;
}

template const DenseSimdPasses<std::int32_t>& dense_simd_passes(KernelIsa);
template const DenseSimdPasses<std::int64_t>& dense_simd_passes(KernelIsa);

// ---------------------------------------------------------------------------
// MinTree — leftmost-min tournament tree (sparse form only).

void DeltaState::MinTree::build(const DeltaState& s) {
  n = s.size();
  m = std::bit_ceil(n > 1 ? n : 1);
  nodes.assign(static_cast<std::size_t>(m) * 2, Entry{kNoDelta, n});
  for (BitIndex i = 0; i < n; ++i) nodes[m + i] = Entry{s.delta(i), i};
  for (BitIndex p = m; p-- > 1;) {
    const Entry& a = nodes[2 * p];
    const Entry& b = nodes[2 * p + 1];
    nodes[p] = b.val < a.val ? b : a;
  }
}

void DeltaState::MinTree::update(BitIndex i, Energy v) {
  std::size_t p = static_cast<std::size_t>(m) + i;
  nodes[p].val = v;
  for (p >>= 1; p >= 1; p >>= 1) {
    const Entry& a = nodes[2 * p];
    const Entry& b = nodes[2 * p + 1];
    const Entry next = b.val < a.val ? b : a;
    // An ancestor depends on this subtree only through nodes[p]; once the
    // recombined node is unchanged the climb can stop. Typical updates
    // (leaf is not its subtree's minimum) terminate after one level, which
    // is what makes the O(deg · log n) sparse repair O(deg) in practice.
    if (next.val == nodes[p].val && next.idx == nodes[p].idx) return;
    nodes[p] = next;
  }
}

DeltaState::MinTree::Entry DeltaState::MinTree::query(BitIndex lo,
                                                      BitIndex hi) const {
  // Ordered two-accumulator walk on the power-of-two tree: `left` combines
  // visited segments left-to-right, `right` right-to-left, so the tie-break
  // (left operand wins on equal values) yields the leftmost minimum — the
  // same answer as a left-to-right strict-< scan of [lo, hi).
  Entry left{kNoDelta, n};
  Entry right{kNoDelta, n};
  std::size_t l = static_cast<std::size_t>(m) + lo;
  std::size_t r = static_cast<std::size_t>(m) + hi;
  for (; l < r; l >>= 1, r >>= 1) {
    if (l & 1) {
      const Entry& e = nodes[l++];
      if (e.val < left.val) left = e;
    }
    if (r & 1) {
      const Entry& e = nodes[--r];
      if (right.val < e.val) {
        // keep right
      } else {
        right = e;
      }
    }
  }
  return right.val < left.val ? right : left;
}

// ---------------------------------------------------------------------------
// Construction.

DeltaState::DeltaState(const WeightMatrix& w) : w_(&w), x_(w.size()) {
  init_zero_state();
}

DeltaState::DeltaState(const WeightMatrix& w, const BitVector& x)
    : w_(&w), x_(x) {
  init_from_bits(x);
}

DeltaState::DeltaState(const QuboKernel& kernel)
    : w_(&kernel.dense()),
      sparse_(kernel.sparse()),
      x_(kernel.dense().size()),
      form_(kernel.form()),
      width_(kernel.width()),
      isa_(kernel.isa()) {
  init_zero_state();
}

DeltaState::DeltaState(const QuboKernel& kernel, const BitVector& x)
    : w_(&kernel.dense()),
      sparse_(kernel.sparse()),
      x_(x),
      form_(kernel.form()),
      width_(kernel.width()),
      isa_(kernel.isa()) {
  init_from_bits(x);
}

void DeltaState::init_zero_state() {
  // X = 0: E(0) = 0, Δ_i(0) = W_ii.
  const BitIndex n = w_->size();
  signs_.assign(n, +1);
  if (width_ == DeltaWidth::kNarrow32) {
    deltas32_.resize(n);
    for (BitIndex i = 0; i < n; ++i) {
      deltas32_[i] = static_cast<std::int32_t>(w_->at(i, i));
    }
  } else {
    deltas_.resize(n);
    for (BitIndex i = 0; i < n; ++i) deltas_[i] = w_->at(i, i);
  }
  energy_ = 0;
  matrix_reads_ = n;
  if (form_ == KernelForm::kSparse) tree_.build(*this);
}

void DeltaState::init_from_bits(const BitVector& x) {
  ABSQ_CHECK(w_->size() == x.size(), "matrix/vector size mismatch");
  const BitIndex n = w_->size();
  signs_.resize(n);
  for (BitIndex i = 0; i < n; ++i) {
    signs_[i] = static_cast<std::int8_t>(phi(x.get(i)));
  }
  const std::vector<Energy> d = all_deltas(*w_, x);
  if (width_ == DeltaWidth::kNarrow32) {
    // Safe: the kernel plan only selects the narrow width when the
    // worst-case bound max_k B_k fits, and every Δ is within that bound.
    deltas32_.resize(n);
    for (BitIndex i = 0; i < n; ++i) {
      deltas32_[i] = static_cast<std::int32_t>(d[i]);
    }
  } else {
    deltas_ = d;
  }
  energy_ = full_energy(*w_, x);
  matrix_reads_ = static_cast<std::uint64_t>(n) * n;
  if (form_ == KernelForm::kSparse) tree_.build(*this);
}

std::span<const Energy> DeltaState::deltas() const {
  ABSQ_CHECK(width_ == DeltaWidth::kWide64,
             "deltas() span is unavailable in the 32-bit Δ mode; use "
             "delta()/argmin_window()");
  return deltas_;
}

// ---------------------------------------------------------------------------
// Dense forms.

template <class D>
Energy DeltaState::flip_dense(D* deltas, BitIndex k) {
  const auto row = w_->row(k);
  // 2·φ(x_k) before the flip; Eq. (16) applies the pre-flip signs.
  const int two_phi_k = 2 * signs_[k];
  const Energy old_delta_k = static_cast<Energy>(deltas[k]);
  const BitIndex n = size();
  const std::int8_t* signs = signs_.data();
  if (form_ == KernelForm::kDenseSimd) {
    dense_simd_passes<D>(isa_).repair(deltas, row.data(), signs, two_phi_k, n);
  } else {
    for (BitIndex i = 0; i < n; ++i) {
      deltas[i] =
          add_repair(deltas[i], two_phi_k * signs[i] * static_cast<int>(row[i]));
    }
  }
  // The loop touched i == k with the i ≠ k rule; the k = i case of Eq. (6)
  // is Δ_k ← −Δ_k (pre-flip value), so overwrite it.
  energy_ += old_delta_k;
  deltas[k] = static_cast<D>(-old_delta_k);
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += n;
  return energy_;
}

template <class D>
DeltaState::FlipOutcome DeltaState::flip_tracked_dense_scalar(D* deltas,
                                                              BitIndex k) {
  const auto row = w_->row(k);
  const int two_phi_k = 2 * signs_[k];
  const Energy old_delta_k = static_cast<Energy>(deltas[k]);
  const Energy new_energy = energy_ + old_delta_k;

  // Single fused pass: repair Δ_i and track min_{i≠k} Δ_i(new X). Strict <
  // keeps the leftmost minimum — the tie-break every form must match.
  D best_delta = 0;
  BitIndex best_bit = k;
  bool have_best = false;
  const BitIndex n = size();
  for (BitIndex i = 0; i < n; ++i) {
    const D d =
        add_repair(deltas[i], two_phi_k * signs_[i] * static_cast<int>(row[i]));
    deltas[i] = d;
    if (i != k && (!have_best || d < best_delta)) {
      best_delta = d;
      best_bit = i;
      have_best = true;
    }
  }
  deltas[k] = static_cast<D>(-old_delta_k);
  energy_ = new_energy;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += n;

  // n == 1 has no neighbour other than k itself; report flipping back.
  if (!have_best) {
    return FlipOutcome{new_energy, new_energy + static_cast<Energy>(deltas[k]),
                       k};
  }
  return FlipOutcome{new_energy, new_energy + static_cast<Energy>(best_delta),
                     best_bit};
}

template <class D>
DeltaState::FlipOutcome DeltaState::flip_tracked_dense_simd(D* deltas,
                                                            BitIndex k) {
  const auto row = w_->row(k);
  const int two_phi_k = 2 * signs_[k];
  const Energy old_delta_k = static_cast<Energy>(deltas[k]);
  const Energy new_energy = energy_ + old_delta_k;
  const BitIndex n = size();
  const DenseSimdPasses<D>& passes = dense_simd_passes<D>(isa_);

  // Pass 1: branchless repair (the argmin is hoisted out so this loop
  // vectorizes — the fused scalar loop's per-element compare defeats GCC's
  // vectorizer on the int64 path).
  passes.repair(deltas, row.data(), signs_.data(), two_phi_k, n);
  deltas[k] = static_cast<D>(-old_delta_k);
  energy_ = new_energy;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += n;

  if (n == 1) {
    return FlipOutcome{new_energy, new_energy + static_cast<Energy>(deltas[k]),
                       k};
  }

  // Pass 2: leftmost argmin over i ≠ k, i.e. over [0, k) ++ (k, n) —
  // bit-identical to the fused scalar pass.
  const std::size_t pos = passes.leftmost_min(deltas, k, deltas + k + 1,
                                              std::size_t{n} - k - 1);
  const auto best_bit = static_cast<BitIndex>(pos < k ? pos : pos + 1);
  const D best = deltas[best_bit];
  return FlipOutcome{new_energy, new_energy + static_cast<Energy>(best),
                     best_bit};
}

// ---------------------------------------------------------------------------
// Sparse form.

template <class D>
void DeltaState::repair_sparse(D* deltas, BitIndex k) {
  const SparseWeightMatrix::Row row = sparse_->row(k);
  const int two_phi_k = 2 * signs_[k];
  const std::size_t deg = row.size();
  for (std::size_t p = 0; p < deg; ++p) {
    const BitIndex i = row.cols[p];
    if (i == k) continue;  // Δ_k gets the negation rule, not Eq. (16)
    const D d = add_repair(
        deltas[i], two_phi_k * signs_[i] * static_cast<int>(row.weights[p]));
    deltas[i] = d;
    tree_.update(i, static_cast<Energy>(d));
  }
}

Energy DeltaState::flip_sparse(BitIndex k) {
  const Energy old_delta_k = delta(k);
  if (width_ == DeltaWidth::kNarrow32) {
    repair_sparse(deltas32_.data(), k);
    deltas32_[k] = static_cast<std::int32_t>(-old_delta_k);
  } else {
    repair_sparse(deltas_.data(), k);
    deltas_[k] = -old_delta_k;
  }
  tree_.update(k, -old_delta_k);
  energy_ += old_delta_k;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += sparse_->degree(k);
  return energy_;
}

DeltaState::FlipOutcome DeltaState::flip_tracked_sparse(BitIndex k) {
  const Energy new_energy = flip_sparse(k);
  // The repair already refreshed the tournament tree; the fused argmin of
  // the dense forms becomes two leftmost-min range queries around k.
  const BitIndex n = size();
  const MinTree::Entry a = tree_.query(0, k);
  const MinTree::Entry b = tree_.query(k + 1, n);
  const MinTree::Entry best = b.val < a.val ? b : a;
  if (best.idx >= n) {  // n == 1: only neighbour is flipping k back
    return FlipOutcome{new_energy, new_energy + delta(k), k};
  }
  return FlipOutcome{new_energy, new_energy + best.val, best.idx};
}

// ---------------------------------------------------------------------------
// Public dispatch.

Energy DeltaState::flip(BitIndex k) {
  ABSQ_DCHECK(k < size(), "flip index out of range");
  if (form_ == KernelForm::kSparse) return flip_sparse(k);
  return width_ == DeltaWidth::kWide64
             ? flip_dense(deltas_.data(), k)
             : flip_dense(deltas32_.data(), k);
}

DeltaState::FlipOutcome DeltaState::flip_tracked(BitIndex k) {
  ABSQ_DCHECK(k < size(), "flip index out of range");
  switch (form_) {
    case KernelForm::kSparse:
      return flip_tracked_sparse(k);
    case KernelForm::kDenseSimd:
      return width_ == DeltaWidth::kWide64
                 ? flip_tracked_dense_simd(deltas_.data(), k)
                 : flip_tracked_dense_simd(deltas32_.data(), k);
    case KernelForm::kDenseScalar:
      break;
  }
  return width_ == DeltaWidth::kWide64
             ? flip_tracked_dense_scalar(deltas_.data(), k)
             : flip_tracked_dense_scalar(deltas32_.data(), k);
}

template <class D>
BitIndex DeltaState::argmin_span(const D* deltas, BitIndex offset,
                                 BitIndex len) const {
  // Wrapping strict-< scan: first segment [offset, offset+first), then
  // [0, rest). First-seen minimum wins, exactly like the Fig. 2 policy.
  const BitIndex n = size();
  const BitIndex first = len < n - offset ? len : n - offset;
  BitIndex best = offset;
  D best_delta = deltas[offset];
  for (BitIndex i = offset + 1; i < offset + first; ++i) {
    if (deltas[i] < best_delta) {
      best_delta = deltas[i];
      best = i;
    }
  }
  for (BitIndex i = 0; i < len - first; ++i) {
    if (deltas[i] < best_delta) {
      best_delta = deltas[i];
      best = i;
    }
  }
  return best;
}

template <class D>
BitIndex DeltaState::argmin_window_simd(const D* deltas, BitIndex offset,
                                        BitIndex first, BitIndex rest) const {
  // The window is [offset, offset + first) ++ [0, rest) in traversal order.
  const std::size_t pos = dense_simd_passes<D>(isa_).leftmost_min(
      deltas + offset, first, deltas, rest);
  return static_cast<BitIndex>(pos < first ? offset + pos : pos - first);
}

BitIndex DeltaState::argmin_window(BitIndex offset, BitIndex len) const {
  const BitIndex n = size();
  ABSQ_DCHECK(len >= 1 && len <= n, "window length outside [1, n]");
  offset %= n;
  const BitIndex first = len < n - offset ? len : n - offset;
  if (form_ == KernelForm::kSparse) {
    const MinTree::Entry a = tree_.query(offset, offset + first);
    if (len == first) return a.idx;
    const MinTree::Entry b = tree_.query(0, len - first);
    return b.val < a.val ? b.idx : a.idx;
  }
  if (form_ == KernelForm::kDenseSimd) {
    return width_ == DeltaWidth::kWide64
               ? argmin_window_simd(deltas_.data(), offset, first, len - first)
               : argmin_window_simd(deltas32_.data(), offset, first,
                                    len - first);
  }
  return width_ == DeltaWidth::kWide64
             ? argmin_span(deltas_.data(), offset, len)
             : argmin_span(deltas32_.data(), offset, len);
}

BitIndex DeltaState::argmin_masked(std::span<const std::uint64_t> mask) const {
  const BitIndex n = size();
  ABSQ_DCHECK(mask.size() == (std::size_t{n} + 63) / 64,
              "mask word count does not match the state size");
  // Every form stores the Δ array, so the sparse and dense-scalar forms
  // run the portable word walk over it.
  const KernelIsa isa =
      form_ == KernelForm::kDenseSimd ? isa_ : KernelIsa::kPortable;
  const std::size_t pos =
      width_ == DeltaWidth::kWide64
          ? dense_simd_passes<Energy>(isa).masked_min(deltas_.data(),
                                                      mask.data(), n)
          : dense_simd_passes<std::int32_t>(isa).masked_min(
                deltas32_.data(), mask.data(), n);
  return static_cast<BitIndex>(pos);
}

}  // namespace absq
