// Tests for Algorithm 1 (primal-dual) and the exact DP oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/exact_dp.hpp"
#include "core/primal_dual.hpp"
#include "model/feasibility.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace mdo::core {
namespace {

/// Small random instance suitable for the exact DP (K <= 8).
model::ProblemInstance small_instance(std::uint64_t seed,
                                      std::size_t contents = 5,
                                      std::size_t classes = 3,
                                      std::size_t horizon = 4,
                                      double beta = 2.0,
                                      double omega_sbs_factor = 0.0) {
  workload::PaperScenario scenario;
  scenario.seed = seed;
  scenario.num_contents = contents;
  scenario.classes_per_sbs = classes;
  scenario.horizon = horizon;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 3.0;
  scenario.beta = beta;
  scenario.omega_sbs_factor = omega_sbs_factor;
  scenario.workload.rank_swaps_per_slot = 1;
  return scenario.build();
}

HorizonProblem as_problem(const model::ProblemInstance& instance) {
  HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &instance.demand;
  problem.initial_cache = instance.initial_cache;
  return problem;
}

TEST(PrimalDual, ProducesFeasibleSchedule) {
  const auto instance = small_instance(3);
  const auto problem = as_problem(instance);
  const auto solution = PrimalDualSolver().solve(problem);
  ASSERT_EQ(solution.schedule.size(), instance.horizon());
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    EXPECT_TRUE(model::is_feasible(instance.config, instance.demand.slot(t),
                                   solution.schedule[t], 1e-5))
        << "slot " << t;
  }
}

TEST(PrimalDual, BoundsAreOrdered) {
  const auto instance = small_instance(4);
  const auto solution = PrimalDualSolver().solve(as_problem(instance));
  EXPECT_LE(solution.lower_bound, solution.upper_bound + 1e-9);
  EXPECT_GE(solution.gap(), 0.0);
  EXPECT_GE(solution.iterations, 1u);
}

TEST(PrimalDual, UpperBoundMatchesScheduleCost) {
  const auto instance = small_instance(5);
  const auto solution = PrimalDualSolver().solve(as_problem(instance));
  const auto cost =
      model::schedule_cost(instance.config, instance.demand,
                           solution.schedule, instance.initial_cache);
  EXPECT_NEAR(cost.total(), solution.upper_bound, 1e-9);
}

TEST(PrimalDual, DeterministicAcrossRuns) {
  const auto instance = small_instance(6);
  const auto a = PrimalDualSolver().solve(as_problem(instance));
  const auto b = PrimalDualSolver().solve(as_problem(instance));
  EXPECT_DOUBLE_EQ(a.upper_bound, b.upper_bound);
  EXPECT_DOUBLE_EQ(a.lower_bound, b.lower_bound);
}

TEST(PrimalDual, NegativeDenseRateReturnsNonFiniteFallback) {
  // The dense window is converted at the solver boundary; the conversion
  // keeps the negative rate, so the solve must still refuse the window.
  auto instance = small_instance(11);
  instance.demand.slot(1)[0].at(0, 2) = -0.5;
  const auto solution = PrimalDualSolver().solve(as_problem(instance));
  EXPECT_EQ(solution.status, solver::SolveStatus::kNonFiniteInput);
  EXPECT_TRUE(solution.mu.empty());
  EXPECT_TRUE(std::isinf(solution.upper_bound));
  ASSERT_EQ(solution.schedule.size(), instance.horizon());
  for (const auto& slot : solution.schedule) {
    EXPECT_EQ(slot.cache, instance.initial_cache);
    for (std::size_t n = 0; n < instance.config.num_sbs(); ++n) {
      for (const double y : slot.load.sbs_data(n)) EXPECT_EQ(y, 0.0);
    }
  }
}

TEST(PrimalDual, ValidatesProblem) {
  HorizonProblem empty;
  EXPECT_THROW(PrimalDualSolver().solve(empty), InvalidArgument);
}

TEST(PrimalDual, OptionValidation) {
  PrimalDualOptions options;
  options.max_iterations = 0;
  EXPECT_THROW(PrimalDualSolver{options}, InvalidArgument);
  options = {};
  options.epsilon = 0.0;
  EXPECT_THROW(PrimalDualSolver{options}, InvalidArgument);
}

/// Property: the primal-dual upper bound is within a few percent of the
/// exact DP optimum, and the lower bound does not exceed it.
class PrimalDualVsExactTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrimalDualVsExactTest, CloseToExactOptimum) {
  for (const double omega_sbs_factor : {0.0, 0.3}) {
    SCOPED_TRACE("omega_sbs_factor " + std::to_string(omega_sbs_factor));
    const auto instance =
        small_instance(GetParam(), 5, 3, 4, 2.0, omega_sbs_factor);
    const auto problem = as_problem(instance);

    PrimalDualOptions options;
    options.max_iterations = 60;
    const auto pd = PrimalDualSolver(options).solve(problem);
    const auto exact = solve_joint_exact(problem);

    // Exact DP is the ground truth: PD is an upper bound on it and its dual
    // a lower bound. Both solve P2 exactly, so only rounding separates them.
    const double tolerance = 1e-9 * std::abs(exact.objective);
    EXPECT_GE(pd.upper_bound, exact.objective - tolerance);
    EXPECT_LE(pd.lower_bound, exact.objective + tolerance);
    EXPECT_LE(pd.upper_bound, exact.objective * 1.05 + 1e-6)
        << "primal-dual more than 5% above the exact optimum";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PrimalDualVsExactTest,
                         ::testing::Range<std::uint64_t>(20, 32));

// ------------------------------------------------------------- exact DP ----

TEST(ExactDp, MatchesScheduleReevaluation) {
  const auto instance = small_instance(11);
  const auto problem = as_problem(instance);
  const auto exact = solve_joint_exact(problem);
  const auto cost =
      model::schedule_cost(instance.config, instance.demand, exact.schedule,
                           instance.initial_cache);
  EXPECT_NEAR(cost.total(), exact.objective, 1e-5);
}

TEST(ExactDp, ScheduleIsFeasible) {
  const auto instance = small_instance(12);
  const auto problem = as_problem(instance);
  const auto exact = solve_joint_exact(problem);
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    EXPECT_TRUE(model::is_feasible(instance.config, instance.demand.slot(t),
                                   exact.schedule[t], 1e-5));
  }
}

TEST(ExactDp, SparseWindowMatchesDenseBitwise) {
  // The oracle reads a sparse window through the same conversion as a
  // dense one, so both give the same objective and schedule.
  workload::PaperScenario scenario;
  scenario.num_sbs = 1;
  scenario.num_contents = 4;
  scenario.horizon = 3;
  scenario.classes_per_sbs = 2;
  scenario.cache_capacity = 2;
  const auto dense = scenario.build();
  const auto sparse = scenario.build_sparse();
  HorizonProblem sparse_problem;
  sparse_problem.config = &sparse.config;
  sparse_problem.sparse_demand = &sparse.sparse_demand;
  sparse_problem.initial_cache = sparse.initial_cache;
  const auto from_dense = solve_joint_exact(as_problem(dense));
  const auto from_sparse = solve_joint_exact(sparse_problem);
  EXPECT_EQ(from_dense.objective, from_sparse.objective);
  ASSERT_EQ(from_dense.schedule.size(), from_sparse.schedule.size());
  for (std::size_t t = 0; t < from_dense.schedule.size(); ++t) {
    EXPECT_EQ(from_dense.schedule[t].cache, from_sparse.schedule[t].cache)
        << "slot " << t;
    EXPECT_EQ(from_dense.schedule[t].load.sbs_data(0),
              from_sparse.schedule[t].load.sbs_data(0))
        << "slot " << t;
  }
}

TEST(ExactDp, RefusesHugeCatalogues) {
  workload::PaperScenario scenario;
  scenario.num_contents = 25;  // 2^25 subsets: must refuse
  scenario.horizon = 2;
  scenario.classes_per_sbs = 2;
  const auto instance = scenario.build();
  EXPECT_THROW(solve_joint_exact(as_problem(instance)), InvalidArgument);
}

TEST(ExactDp, ZeroBetaCachesGreedily) {
  // With beta = 0, each slot independently caches the best set; the DP
  // must reach at least the quality of any fixed cache.
  const auto instance = small_instance(13, 4, 2, 3, /*beta=*/0.0);
  const auto problem = as_problem(instance);
  const auto exact = solve_joint_exact(problem);
  const auto pd = PrimalDualSolver().solve(problem);
  EXPECT_LE(exact.objective, pd.upper_bound + 1e-6);
}

}  // namespace
}  // namespace mdo::core
