// Unit and property tests for the box-knapsack projection.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/vec.hpp"
#include "solver/projection.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::solver {
namespace {

using linalg::Vec;

BoxKnapsackSet unit_set(std::size_t n, Vec weights, double budget) {
  BoxKnapsackSet set;
  set.lo.assign(n, 0.0);
  set.hi.assign(n, 1.0);
  set.weights = std::move(weights);
  set.budget = budget;
  set.validate();
  return set;
}

/// Euclidean distance between two same-size points.
double euclidean_distance(const Vec& a, const Vec& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(acc);
}

/// True when the sizes match and every |a[i] - b[i]| <= tol.
bool near(const Vec& a, const Vec& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

/// Projects `point` onto a set validated when it was built.
Vec project(const Vec& point, const BoxKnapsackSet& set) {
  Vec out(point.size());
  project_box_knapsack_into(point, set, out);
  return out;
}

TEST(BoxKnapsack, ValidateCatchesEmptySet) {
  BoxKnapsackSet set;
  set.lo = {1.0, 1.0};
  set.hi = {1.0, 1.0};
  set.weights = {1.0, 1.0};
  set.budget = 1.0;  // weights . lo = 2 > 1
  EXPECT_THROW(set.validate(), InvalidArgument);
}

TEST(BoxKnapsack, ContainsChecksEverything) {
  const auto set = unit_set(2, {1.0, 1.0}, 1.5);
  EXPECT_TRUE(set.contains({0.5, 0.5}));
  EXPECT_FALSE(set.contains({1.0, 1.0}));    // knapsack
  EXPECT_FALSE(set.contains({-0.5, 0.5}));   // box
  EXPECT_FALSE(set.contains({0.5}));         // size
}

TEST(BoxKnapsack, FeasiblePointIsFixed) {
  const auto set = unit_set(3, {1.0, 2.0, 3.0}, 10.0);
  const Vec point{0.2, 0.4, 0.6};
  const Vec out = project(point, set);
  EXPECT_TRUE(near(out, point, 1e-12));
}

TEST(BoxKnapsack, InfeasiblePointLandsOnHyperplane) {
  const auto set = unit_set(2, {1.0, 1.0}, 1.0);
  const Vec out = project({1.0, 1.0}, set);
  EXPECT_NEAR(out[0] + out[1], 1.0, 1e-7);
  EXPECT_NEAR(out[0], 0.5, 1e-7);  // symmetric projection
}

TEST(BoxKnapsack, ZeroWeightCoordinatesUnconstrained) {
  // Second coordinate has zero knapsack weight: only the box applies.
  const auto set = unit_set(2, {1.0, 0.0}, 0.5);
  const Vec out = project({2.0, 0.7}, set);
  EXPECT_NEAR(out[0], 0.5, 1e-7);
  EXPECT_DOUBLE_EQ(out[1], 0.7);
}

TEST(BoxKnapsack, TightBudgetForcesLowerBounds) {
  const auto set = unit_set(2, {1.0, 1.0}, 0.0);
  const Vec out = project({1.0, 1.0}, set);
  EXPECT_NEAR(out[0], 0.0, 1e-6);
  EXPECT_NEAR(out[1], 0.0, 1e-6);
}

/// Property harness over random sets and points.
class ProjectionRandomTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 7));
    set_.lo.resize(n);
    set_.hi.resize(n);
    set_.weights.resize(n);
    double min_value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      set_.lo[i] = rng.uniform(-1.0, 0.5);
      set_.hi[i] = set_.lo[i] + rng.uniform(0.0, 2.0);
      set_.weights[i] = rng.uniform(0.0, 3.0);
      min_value += set_.weights[i] * set_.lo[i];
    }
    set_.budget = min_value + rng.uniform(0.1, 4.0);
    set_.validate();
    point_.resize(n);
    for (auto& v : point_) v = rng.uniform(-2.0, 3.0);
  }

  BoxKnapsackSet set_;
  Vec point_;
};

TEST_P(ProjectionRandomTest, ResultIsFeasible) {
  const Vec out = project(point_, set_);
  EXPECT_TRUE(set_.contains(out, 1e-6));
}

TEST_P(ProjectionRandomTest, Idempotent) {
  const Vec once = project(point_, set_);
  const Vec twice = project(once, set_);
  EXPECT_TRUE(near(once, twice, 1e-6));
}

TEST_P(ProjectionRandomTest, NoFeasiblePointIsCloser) {
  // Optimality check by random feasible sampling: the projection must be
  // at least as close to the point as any sampled feasible candidate.
  const Vec projected = project(point_, set_);
  const double best = euclidean_distance(projected, point_);
  Rng rng(GetParam() + 777);
  for (int trial = 0; trial < 200; ++trial) {
    Vec candidate(point_.size());
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      candidate[i] = rng.uniform(set_.lo[i], set_.hi[i]);
    }
    if (!set_.contains(candidate, 0.0)) continue;
    const double dist = euclidean_distance(candidate, point_);
    EXPECT_GE(dist, best - 1e-6);
  }
}

TEST_P(ProjectionRandomTest, NonExpansive) {
  Rng rng(GetParam() + 555);
  Vec other(point_.size());
  for (auto& v : other) v = rng.uniform(-2.0, 3.0);
  const Vec pa = project(point_, set_);
  const Vec pb = project(other, set_);
  const double input_dist = euclidean_distance(point_, other);
  const double output_dist = euclidean_distance(pa, pb);
  EXPECT_LE(output_dist, input_dist + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomSets, ProjectionRandomTest,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace mdo::solver
