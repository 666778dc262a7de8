// Unit tests for the projected-gradient / FISTA solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "linalg/vec.hpp"
#include "solver/first_order.hpp"
#include "solver/projection.hpp"
#include "solver/subgradient.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::solver {
namespace {

using linalg::Vec;

/// f(x) = sum (x_i - target_i)^2, gradient 2 (x - target), L = 2.
ValueGradientFn quadratic(const Vec& target) {
  return [target](const Vec& x, Vec& grad) {
    double value = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target[i];
      grad[i] = 2.0 * d;
      value += d * d;
    }
    return value;
  };
}

ProjectionFn box(double lo, double hi) {
  return [lo, hi](const Vec& x) {
    Vec out = x;
    for (auto& v : out) v = std::clamp(v, lo, hi);
    return out;
  };
}

TEST(FirstOrder, UnconstrainedQuadraticConverges) {
  const Vec target{1.0, -2.0, 3.0};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.gradient_tolerance = 1e-10;
  options.max_iterations = 2000;
  const auto result = minimize_projected(
      quadratic(target), [](const Vec& x) { return x; }, Vec(3, 0.0),
      options);
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(result.x[i], target[i], 1e-6);
  EXPECT_NEAR(result.objective_value, 0.0, 1e-10);
}

TEST(FirstOrder, BoxConstraintClampsOptimum) {
  const Vec target{2.0, -3.0, 0.25};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.gradient_tolerance = 1e-10;
  options.max_iterations = 2000;
  const auto result = minimize_projected(quadratic(target), box(0.0, 1.0),
                                         Vec(3, 0.5), options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 1.0, 1e-7);
  EXPECT_NEAR(result.x[1], 0.0, 1e-7);
  EXPECT_NEAR(result.x[2], 0.25, 1e-6);
}

TEST(FirstOrder, PlainGradientAlsoConverges) {
  const Vec target{0.5, 0.5};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.accelerate = false;
  options.gradient_tolerance = 1e-10;
  options.max_iterations = 5000;
  const auto result = minimize_projected(quadratic(target), box(0.0, 1.0),
                                         Vec(2, 0.0), options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 0.5, 1e-6);
}

TEST(FirstOrder, AccelerationIsFasterOnIllConditionedProblem) {
  // f(x) = x0^2 + 100 x1^2 shifted; FISTA should need fewer iterations.
  auto objective = [](const Vec& x, Vec& grad) {
    const double d0 = x[0] - 1.0;
    const double d1 = x[1] - 1.0;
    grad[0] = 2.0 * d0;
    grad[1] = 200.0 * d1;
    return d0 * d0 + 100.0 * d1 * d1;
  };
  FirstOrderOptions fast;
  fast.lipschitz = 200.0;
  fast.gradient_tolerance = 1e-8;
  fast.max_iterations = 20000;
  FirstOrderOptions slow = fast;
  slow.accelerate = false;
  const auto id = [](const Vec& x) { return x; };
  const auto accelerated =
      minimize_projected(objective, id, Vec(2, 0.0), fast);
  const auto plain = minimize_projected(objective, id, Vec(2, 0.0), slow);
  EXPECT_TRUE(accelerated.converged);
  EXPECT_TRUE(plain.converged);
  EXPECT_LT(accelerated.iterations, plain.iterations);
}

TEST(FirstOrder, InfeasibleStartIsProjectedFirst) {
  const Vec target{0.5};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.max_iterations = 100;
  const auto result = minimize_projected(quadratic(target), box(0.0, 1.0),
                                         Vec{25.0}, options);
  EXPECT_GE(result.x[0], 0.0);
  EXPECT_LE(result.x[0], 1.0);
}

TEST(FirstOrder, IterationLimitReported) {
  const Vec target{1.0};
  FirstOrderOptions options;
  options.lipschitz = 2000.0;  // absurdly small steps
  options.max_iterations = 3;
  options.gradient_tolerance = 1e-14;
  const auto result = minimize_projected(quadratic(target),
                                         [](const Vec& x) { return x; },
                                         Vec{0.0}, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 3u);
}

TEST(FirstOrder, ValidatesInputs) {
  FirstOrderOptions options;
  options.lipschitz = 0.0;
  EXPECT_THROW(minimize_projected(quadratic({1.0}),
                                  [](const Vec& x) { return x; }, Vec{0.0},
                                  options),
               InvalidArgument);
  options.lipschitz = 1.0;
  EXPECT_THROW(minimize_projected(quadratic({}),
                                  [](const Vec& x) { return x; }, Vec{},
                                  options),
               InvalidArgument);
}

/// Property: FISTA over a random box-knapsack set reaches a point whose
/// objective no sampled feasible point beats by more than a tolerance.
class FirstOrderRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FirstOrderRandomTest, NearOptimalOnRandomQuadratics) {
  Rng rng(GetParam());
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 5));
  Vec target(n);
  for (auto& v : target) v = rng.uniform(-2.0, 2.0);

  BoxKnapsackSet set;
  set.lo.assign(n, 0.0);
  set.hi.assign(n, 1.0);
  set.weights.resize(n);
  for (auto& w : set.weights) w = rng.uniform(0.0, 2.0);
  set.budget = rng.uniform(0.2, 2.0);

  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.gradient_tolerance = 1e-9;
  options.max_iterations = 5000;
  const auto result = minimize_projected(
      quadratic(target),
      [&set](const Vec& x) { return project_box_knapsack(x, set); },
      Vec(n, 0.0), options);
  EXPECT_TRUE(set.contains(result.x, 1e-6));

  Rng sampler(GetParam() + 99);
  for (int trial = 0; trial < 300; ++trial) {
    Vec candidate(n);
    for (std::size_t i = 0; i < n; ++i)
      candidate[i] = sampler.uniform(set.lo[i], set.hi[i]);
    if (!set.contains(candidate, 0.0)) continue;
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = candidate[i] - target[i];
      value += d * d;
    }
    EXPECT_GE(value, result.objective_value - 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, FirstOrderRandomTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ----------------------------------------------------------- subgradient ----

TEST(Subgradient, StepScheduleMatchesEq16) {
  // delta_l = alpha / (1 + l): alpha scales the magnitude (the old
  // 1 / (1 + alpha l) form pinned delta_0 at 1.0 regardless of alpha).
  const DiminishingStep step(0.5);
  EXPECT_DOUBLE_EQ(step(0), 0.5);
  EXPECT_DOUBLE_EQ(step(1), 0.25);
  EXPECT_DOUBLE_EQ(step(4), 0.1);
}

TEST(Subgradient, AlphaScalesTheWholeSchedule) {
  const DiminishingStep unit(1.0);
  const DiminishingStep doubled(2.0);
  for (std::size_t l = 0; l < 6; ++l) {
    EXPECT_DOUBLE_EQ(doubled(l), 2.0 * unit(l)) << l;
  }
}

TEST(Subgradient, RejectsNonPositiveAlpha) {
  EXPECT_THROW(DiminishingStep{0.0}, InvalidArgument);
}

TEST(Subgradient, AscendProjectsOntoNonNegativeOrthant) {
  // The subgradient y - x = {1, -2, -1}, as P2 loads y minus P1 bits x.
  Vec mu{0.5, 0.1, 0.0};
  const Vec y{1.0, 0.0, 0.0};
  const Vec x{0.0, 2.0, 1.0};
  linalg::dual_ascent_project(mu.data(), y.data(), x.data(), 0.5, mu.size());
  EXPECT_DOUBLE_EQ(mu[0], 1.0);
  EXPECT_DOUBLE_EQ(mu[1], 0.0);  // clipped at zero (eq. 15)
  EXPECT_DOUBLE_EQ(mu[2], 0.0);
}

TEST(Subgradient, AscendMatchesScalarUpdateAcrossSimdBodyAndTail) {
  // 19 coordinates: a vectorized build runs the SIMD body and then the
  // scalar tail. Every coordinate must equal the scalar update bitwise.
  Rng rng(5);
  Vec mu(19), y(19), x(19);
  // Every third coordinate is cached but unserved (x = 1, y = 0), so the
  // step takes it below zero and the projection clips it.
  for (std::size_t i = 0; i < mu.size(); ++i) {
    const bool clipped = i % 3 == 0;
    mu[i] = rng.uniform(0.0, 1.0);
    y[i] = clipped ? 0.0 : rng.uniform(0.0, 1.0);
    x[i] = clipped ? 1.0 : 0.0;
  }
  const double delta = 1.5;
  Vec expected(mu.size());
  for (std::size_t i = 0; i < mu.size(); ++i) {
    expected[i] = std::max(0.0, mu[i] + delta * (y[i] - x[i]));
  }
  linalg::dual_ascent_project(mu.data(), y.data(), x.data(), delta,
                              mu.size());
  for (std::size_t i = 0; i < mu.size(); ++i) {
    EXPECT_EQ(mu[i], expected[i]) << i;
  }
  EXPECT_EQ(std::count(mu.begin(), mu.end(), 0.0), 7);
}

}  // namespace
}  // namespace mdo::solver
