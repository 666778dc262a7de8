#include "linalg/vec.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace mdo::linalg {

// Determinism contract (DESIGN.md §12): MAP loops (one output per input
// coordinate, no cross-coordinate flow) carry MDO_SIMD_LOOP — each lane
// computes the exact expression the scalar loop computes, so SIMD and
// scalar builds are bitwise-identical. REDUCTIONS stay strictly serial in
// ascending index order and are NEVER vectorized or lane-split: the sparse
// demand paths accumulate only the nonzero terms of the corresponding dense
// sums (model/sparse_demand.hpp), and skipping exact zeros preserves the
// result only under left-to-right association. Lane accumulators would
// regroup the dense terms and break the repo-wide sparse-vs-dense bitwise
// invariant.

double dot(const Vec& a, const Vec& b) {
  MDO_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  MDO_ASSERT_VEC_ALIGNED(a.data());
  MDO_ASSERT_VEC_ALIGNED(b.data());
  const double* pa = a.data();
  const double* pb = b.data();
  const std::size_t n = a.size();
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += pa[i] * pb[i];
  return acc;
}

void scaled_sub(const Vec& y, double alpha, const Vec& g, Vec& out) {
  MDO_REQUIRE(y.size() == g.size() && y.size() == out.size(),
              "scaled_sub: size mismatch");
  MDO_ASSERT_VEC_ALIGNED(y.data());
  MDO_ASSERT_VEC_ALIGNED(g.data());
  MDO_ASSERT_VEC_ALIGNED(out.data());
  const double* py = y.data();
  const double* pg = g.data();
  double* po = out.data();
  const std::size_t n = y.size();
  MDO_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) po[i] = py[i] - alpha * pg[i];
}

void scaled_sub_clamp(const Vec& y, double alpha, const Vec& g,
                      const Vec& lo, const Vec& hi, Vec& out) {
  MDO_REQUIRE(y.size() == g.size() && y.size() == lo.size() &&
                  y.size() == hi.size() && y.size() == out.size(),
              "scaled_sub_clamp: size mismatch");
  MDO_ASSERT_VEC_ALIGNED(y.data());
  MDO_ASSERT_VEC_ALIGNED(out.data());
  const double* py = y.data();
  const double* pg = g.data();
  const double* plo = lo.data();
  const double* phi = hi.data();
  double* po = out.data();
  const std::size_t n = y.size();
  MDO_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    po[i] = std::clamp(py[i] - alpha * pg[i], plo[i], phi[i]);
  }
}

void dual_ascent_project(double* mu, const double* y, const double* x,
                         double delta, std::size_t n) {
  MDO_SIMD_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    mu[i] = std::max(0.0, mu[i] + delta * (y[i] - x[i]));
  }
}

std::pair<double, double> dot_pair(const Vec& a, const Vec& b, const Vec& x) {
  MDO_REQUIRE(a.size() == x.size() && b.size() == x.size(),
              "dot_pair: size mismatch");
  MDO_ASSERT_VEC_ALIGNED(a.data());
  MDO_ASSERT_VEC_ALIGNED(b.data());
  MDO_ASSERT_VEC_ALIGNED(x.data());
  const double* pa = a.data();
  const double* pb = b.data();
  const double* px = x.data();
  // One pass, two serial accumulators in the same index order as dot(), so
  // each component equals the separate dot() bitwise.
  double acc_a = 0.0;
  double acc_b = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    acc_a += pa[i] * px[i];
    acc_b += pb[i] * px[i];
  }
  return {acc_a, acc_b};
}

}  // namespace mdo::linalg
