#include "solver/projection.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace mdo::solver {

void BoxKnapsackSet::validate() const {
  MDO_REQUIRE(lo.size() == hi.size() && lo.size() == weights.size(),
              "BoxKnapsackSet: size mismatch");
  double min_value = 0.0;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    MDO_REQUIRE(std::isfinite(lo[i]) && std::isfinite(hi[i]),
                "BoxKnapsackSet: bounds must be finite");
    MDO_REQUIRE(lo[i] <= hi[i], "BoxKnapsackSet: lo > hi");
    MDO_REQUIRE(weights[i] >= 0.0, "BoxKnapsackSet: negative weight");
    min_value += weights[i] * lo[i];
  }
  MDO_REQUIRE(min_value <= budget + 1e-9,
              "BoxKnapsackSet: empty set (weights . lo > budget)");
}

bool BoxKnapsackSet::contains(const linalg::Vec& y, double tol) const {
  if (y.size() != lo.size()) return false;
  double value = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] < lo[i] - tol || y[i] > hi[i] + tol) return false;
    value += weights[i] * y[i];
  }
  return value <= budget + tol;
}

namespace {
/// Knapsack value of clamp(point - theta * weights) as a function of theta.
/// Serial in-order reduction — the sparse-restricted sets sum the same
/// nonzero terms as the dense ones, which is bit-preserving only under
/// left-to-right accumulation (DESIGN.md §12).
double knapsack_value(const linalg::Vec& point, const BoxKnapsackSet& set,
                      double theta) {
  const std::size_t n = point.size();
  const double* p = point.data();
  const double* wt = set.weights.data();
  const double* lo = set.lo.data();
  const double* hi = set.hi.data();
  double value = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    value += wt[i] * std::clamp(p[i] - theta * wt[i], lo[i], hi[i]);
  }
  return value;
}
}  // namespace

void project_box_knapsack_into(const linalg::Vec& point,
                               const BoxKnapsackSet& set, linalg::Vec& out,
                               double tol) {
  MDO_REQUIRE(point.size() == set.lo.size(), "projection: size mismatch");
  MDO_REQUIRE(out.size() == point.size(), "projection: out size mismatch");

  // Fast path: box projection already satisfies the knapsack row.
  const std::size_t n = point.size();
  {
    const double* p = point.data();
    const double* lo = set.lo.data();
    const double* hi = set.hi.data();
    double* o = out.data();
    MDO_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
      o[i] = std::clamp(p[i], lo[i], hi[i]);
    }
  }
  {
    const double* wt = set.weights.data();
    const double* o = out.data();
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) value += wt[i] * o[i];
    if (value <= set.budget + 1e-12) return;
  }

  // Bisection on theta >= 0. Upper bracket: grow until feasible; the set is
  // non-empty, so a feasible theta exists (value converges to a . lo).
  double theta_lo = 0.0;
  double theta_hi = 1.0;
  while (knapsack_value(point, set, theta_hi) > set.budget) {
    theta_hi *= 2.0;
    MDO_CHECK(theta_hi < 1e30, "projection bisection failed to bracket");
  }
  while (theta_hi - theta_lo > tol * std::max(1.0, theta_hi)) {
    const double mid = 0.5 * (theta_lo + theta_hi);
    if (knapsack_value(point, set, mid) > set.budget) theta_lo = mid;
    else theta_hi = mid;
  }
  linalg::scaled_sub_clamp(point, theta_hi, set.weights, set.lo, set.hi, out);
}

}  // namespace mdo::solver
