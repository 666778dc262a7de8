// Dense vector operations (BLAS level-1 style).
//
// Vectors are std::vector<double> over a 64-byte-aligned allocator; the
// solver stack composes these free functions rather than introducing an
// expression-template layer the project does not need.
//
// Determinism contract (DESIGN.md §12): every reduction below accumulates
// strictly serially in ascending index order and is never lane-split, so
// MDO_SIMD=ON and =OFF builds return bit-identical values and a sparse sum
// over the nonzero terms equals the dense one. Map kernels carry
// MDO_SIMD_LOOP — element-independent, so lane width cannot change a bit
// either.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/simd.hpp"

namespace mdo::linalg {

/// Minimal stateless allocator handing out 64-byte-aligned storage so the
/// vectorized kernels never touch an unaligned-load penalty path.
template <class T>
class AlignedAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t(util::kVecAlignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(util::kVecAlignment));
  }

  template <class U>
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator<U>&) noexcept {
    return true;
  }
};

using Vec = std::vector<double, AlignedAllocator<double>>;

/// Dot product; sizes must match.
double dot(const Vec& a, const Vec& b);

/// out = y - alpha * g, single pass; sizes must match and out must be
/// pre-sized (the hot-path kernels never allocate).
void scaled_sub(const Vec& y, double alpha, const Vec& g, Vec& out);

/// out[i] = clamp(y[i] - alpha * g[i], lo[i], hi[i]) — the fused gradient
/// step + box projection used by the first-order and knapsack-projection
/// inner loops. out must be pre-sized.
void scaled_sub_clamp(const Vec& y, double alpha, const Vec& g,
                      const Vec& lo, const Vec& hi, Vec& out);

/// mu[i] = max(0, mu[i] + delta * (y[i] - x[i])) over raw spans — the fused
/// projected dual-ascent step. Per-coordinate arithmetic matches the scalar
/// update the shard core historically applied, so dense and compact mu
/// paths agree bitwise.
void dual_ascent_project(double* mu, const double* y, const double* x,
                         double delta, std::size_t n);

/// Returns {a . x, b . x} in one pass over x. Each accumulator sums
/// serially in dot()'s index order, so the results are bit-identical to two
/// separate dot()s.
std::pair<double, double> dot_pair(const Vec& a, const Vec& b, const Vec& x);

}  // namespace mdo::linalg
