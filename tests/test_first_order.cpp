// Unit tests for the projected-gradient / FISTA solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "core/dual_ascent.hpp"
#include "linalg/vec.hpp"
#include "solver/first_order.hpp"
#include "solver/projection.hpp"
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

/// Componentwise clamp onto [lo, hi].
ProjectionIntoFn box(double lo, double hi) {
  return [lo, hi](const Vec& in, Vec& out) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = std::clamp(in[i], lo, hi);
    }
  };
}

const ProjectionIntoFn identity = [](const Vec& in, Vec& out) { out = in; };

TEST(FirstOrder, UnconstrainedQuadraticConverges) {
  const Vec target{1.0, -2.0, 3.0};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.gradient_tolerance = 1e-10;
  options.max_iterations = 2000;
  FirstOrderWorkspace ws;
  ws.x = Vec(3, 0.0);
  const auto result =
      minimize_projected(quadratic(target), identity, ws, options);
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ws.x[i], target[i], 1e-6);
  EXPECT_NEAR(result.objective_value, 0.0, 1e-10);
}

TEST(FirstOrder, BoxConstraintClampsOptimum) {
  const Vec target{2.0, -3.0, 0.25};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.gradient_tolerance = 1e-10;
  options.max_iterations = 2000;
  FirstOrderWorkspace ws;
  ws.x = Vec(3, 0.5);
  const auto result =
      minimize_projected(quadratic(target), box(0.0, 1.0), ws, options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(ws.x[0], 1.0, 1e-7);
  EXPECT_NEAR(ws.x[1], 0.0, 1e-7);
  EXPECT_NEAR(ws.x[2], 0.25, 1e-6);
}

TEST(FirstOrder, PlainGradientAlsoConverges) {
  const Vec target{0.5, 0.5};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.accelerate = false;
  options.gradient_tolerance = 1e-10;
  options.max_iterations = 5000;
  FirstOrderWorkspace ws;
  ws.x = Vec(2, 0.0);
  const auto result =
      minimize_projected(quadratic(target), box(0.0, 1.0), ws, options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(ws.x[0], 0.5, 1e-6);
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
  FirstOrderWorkspace fast_ws, slow_ws;
  fast_ws.x = Vec(2, 0.0);
  slow_ws.x = Vec(2, 0.0);
  const auto accelerated = minimize_projected(objective, identity, fast_ws, fast);
  const auto plain = minimize_projected(objective, identity, slow_ws, slow);
  EXPECT_TRUE(accelerated.converged);
  EXPECT_TRUE(plain.converged);
  EXPECT_LT(accelerated.iterations, plain.iterations);
}

TEST(FirstOrder, InfeasibleStartIsProjectedFirst) {
  const Vec target{0.5};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.max_iterations = 100;
  FirstOrderWorkspace ws;
  ws.x = Vec{25.0};
  minimize_projected(quadratic(target), box(0.0, 1.0), ws, options);
  EXPECT_GE(ws.x[0], 0.0);
  EXPECT_LE(ws.x[0], 1.0);
}

TEST(FirstOrder, IterationLimitReported) {
  const Vec target{1.0};
  FirstOrderOptions options;
  options.lipschitz = 2000.0;  // absurdly small steps
  options.max_iterations = 3;
  options.gradient_tolerance = 1e-14;
  FirstOrderWorkspace ws;
  ws.x = Vec{0.0};
  const auto result =
      minimize_projected(quadratic(target), identity, ws, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 3u);
}

TEST(FirstOrder, ValidatesInputs) {
  FirstOrderOptions options;
  options.lipschitz = 0.0;
  FirstOrderWorkspace ws;
  ws.x = Vec{0.0};
  EXPECT_THROW(minimize_projected(quadratic({1.0}), identity, ws, options),
               InvalidArgument);
  options.lipschitz = 1.0;
  ws.x.clear();
  EXPECT_THROW(minimize_projected(quadratic({}), identity, ws, options),
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

  set.validate();

  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.gradient_tolerance = 1e-9;
  options.max_iterations = 5000;
  FirstOrderWorkspace ws;
  ws.x = Vec(n, 0.0);
  const auto result = minimize_projected(
      quadratic(target),
      [&set](const Vec& in, Vec& out) {
        project_box_knapsack_into(in, set, out);
      },
      ws, options);
  EXPECT_TRUE(set.contains(ws.x, 1e-6));

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

/// The stub backend's solution: what run_dual_ascent fills.
struct StubSolution {
  double upper_bound = 0.0;
  double lower_bound = 0.0;
  std::size_t iterations = 0;
  std::vector<int> schedule;
  SolveStatus status = SolveStatus::kConverged;
};

TEST(Subgradient, StepScheduleMatchesEq16) {
  // delta_l = step_scale / (1 + l), eq. (16): iteration l + 1 applies
  // delta_l before it solves, and finish() gets the step left pending when
  // the iteration cap ends the loop.
  core::DualAscentParams params;
  params.max_iterations = 4;
  params.epsilon = 1e-3;  // never reached: the stub's gap stays at 1/2
  params.step_scale = 0.75;
  std::vector<std::pair<bool, double>> steps;
  const auto iterate = [&](bool apply_step, double delta,
                           std::vector<int>& repaired) {
    steps.emplace_back(apply_step, delta);
    repaired.assign(1, static_cast<int>(steps.size()));
    return std::optional<core::DualIterate>({1.0, 2.0});
  };
  const auto finish = [&](bool apply_step, double delta) {
    steps.emplace_back(apply_step, delta);
    return true;
  };
  StubSolution best;
  ASSERT_TRUE(core::run_dual_ascent(params, nullptr, iterate, finish, best));

  const auto delta = [&](std::size_t l) {
    return params.step_scale * (1.0 / (1.0 + static_cast<double>(l)));
  };
  ASSERT_EQ(steps.size(), 5u);
  EXPECT_FALSE(steps[0].first);
  EXPECT_EQ(steps[0].second, 0.0);
  for (std::size_t l = 0; l < 4; ++l) {
    EXPECT_TRUE(steps[l + 1].first) << l;
    const double expected = delta(l);
    EXPECT_EQ(std::memcmp(&steps[l + 1].second, &expected, sizeof(double)), 0)
        << l;
  }
  EXPECT_EQ(steps[1].second, 0.75);    // delta_0 = step_scale
  EXPECT_EQ(steps[4].second, 0.1875);  // 0.75 / 4, exact in binary
  EXPECT_EQ(best.iterations, 4u);
  EXPECT_EQ(best.upper_bound, 2.0);
  EXPECT_EQ(best.lower_bound, 1.0);
  EXPECT_EQ(best.schedule, std::vector<int>{1});  // the first 2.0 incumbent
  EXPECT_EQ(best.status, SolveStatus::kIterationLimit);

  // A gap exit leaves no step pending.
  params.epsilon = 0.5;
  steps.clear();
  ASSERT_TRUE(core::run_dual_ascent(params, nullptr, iterate, finish, best));
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_FALSE(steps[1].first);
  EXPECT_EQ(best.iterations, 1u);
  EXPECT_EQ(best.status, SolveStatus::kConverged);
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
