// Edge cases and failure-injection tests across the stack: horizon
// boundaries, zero demand, degenerate capacities, and window clipping.
#include <gtest/gtest.h>

#include "online/chc.hpp"
#include "online/offline_controller.hpp"
#include "online/rhc.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo {
namespace {

model::ProblemInstance tiny_instance(std::size_t horizon,
                                     double density_max = 2.0) {
  workload::PaperScenario scenario;
  scenario.num_contents = 5;
  scenario.classes_per_sbs = 3;
  scenario.horizon = horizon;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 3.0;
  scenario.beta = 2.0;
  scenario.workload.density_max = density_max;
  return scenario.build();
}

// ---- Horizon boundaries ----------------------------------------------------

TEST(EdgeCases, SingleSlotHorizonWorksEndToEnd) {
  const auto instance = tiny_instance(1);
  const workload::PerfectPredictor predictor(instance.demand);
  const sim::Simulator simulator(instance, predictor);
  online::OfflineController offline;
  online::RhcController rhc(4);  // window longer than the horizon
  EXPECT_NO_THROW(simulator.run(offline));
  EXPECT_NO_THROW(simulator.run(rhc));
}

TEST(EdgeCases, WindowLargerThanHorizonClipsCleanly) {
  const auto instance = tiny_instance(3);
  const workload::PerfectPredictor predictor(instance.demand);
  const sim::Simulator simulator(instance, predictor);
  online::RhcController rhc(50);
  const auto result = simulator.run(rhc);
  EXPECT_EQ(result.slots.size(), 3u);
}

TEST(EdgeCases, ChcCommitLargerThanRemainingHorizon) {
  const auto instance = tiny_instance(3);
  const workload::PerfectPredictor predictor(instance.demand);
  const sim::Simulator simulator(instance, predictor);
  online::ChcController chc(5, 5);  // w = r = 5 > T = 3
  EXPECT_NO_THROW(simulator.run(chc));
}

TEST(EdgeCases, PredictorWindowAtLastSlot) {
  const auto instance = tiny_instance(4);
  const workload::NoisyPredictor predictor(instance.demand, 0.2, 3);
  const auto window = predictor.predict_window(3, 10);
  EXPECT_EQ(window.horizon(), 1u);
  EXPECT_THROW(predictor.predict(3, 4), InvalidArgument);
}

// ---- Degenerate demand -----------------------------------------------------

TEST(EdgeCases, ZeroDemandTraceCostsNothingBeyondReplacements) {
  auto instance = tiny_instance(3);
  for (std::size_t t = 0; t < 3; ++t) {
    for (auto& sbs_demand : instance.demand.slot(t)) {
      for (auto& v : sbs_demand.data()) v = 0.0;
    }
  }
  const workload::PerfectPredictor predictor(instance.demand);
  const sim::Simulator simulator(instance, predictor);
  online::OfflineController offline;
  const auto result = simulator.run(offline);
  // Nothing to serve: the optimum caches nothing and every cost is zero.
  EXPECT_NEAR(result.total_cost(), 0.0, 1e-9);
  EXPECT_EQ(result.total_replacements, 0u);
}

TEST(EdgeCases, SingleClassSingleContent) {
  workload::PaperScenario scenario;
  scenario.num_contents = 1;
  scenario.classes_per_sbs = 1;
  scenario.cache_capacity = 1;
  scenario.horizon = 3;
  scenario.beta = 0.1;
  scenario.bandwidth = 100.0;
  const auto instance = scenario.build();
  const workload::PerfectPredictor predictor(instance.demand);
  const sim::Simulator simulator(instance, predictor);
  online::OfflineController offline;
  const auto result = simulator.run(offline);
  // With ample bandwidth and near-free caching, (almost) everything is
  // offloaded to the SBS.
  EXPECT_GT(result.offload_ratio(), 0.9);
}

// ---- Degenerate capacities --------------------------------------------------

TEST(EdgeCases, ZeroBandwidthMeansZeroOffload) {
  workload::PaperScenario scenario;
  scenario.num_contents = 5;
  scenario.classes_per_sbs = 3;
  scenario.horizon = 3;
  scenario.bandwidth = 0.0;
  const auto instance = scenario.build();
  const workload::PerfectPredictor predictor(instance.demand);
  const sim::Simulator simulator(instance, predictor);
  online::RhcController rhc(3);
  const auto result = simulator.run(rhc);
  EXPECT_DOUBLE_EQ(result.offload_ratio(), 0.0);
}

TEST(EdgeCases, ZeroCacheCapacitySbsNeverCachesOrReplaces) {
  workload::PaperScenario scenario;
  scenario.num_contents = 5;
  scenario.classes_per_sbs = 3;
  scenario.horizon = 4;
  scenario.cache_capacity = 0;
  const auto instance = scenario.build();
  const workload::PerfectPredictor predictor(instance.demand);
  sim::SimulatorOptions options;
  options.record_schedule = true;
  const sim::Simulator simulator(instance, predictor, options);
  online::RhcController rhc(3);
  const auto result = simulator.run(rhc);
  EXPECT_EQ(result.total_replacements, 0u);
  EXPECT_DOUBLE_EQ(result.total.replacement, 0.0);
  EXPECT_DOUBLE_EQ(result.offload_ratio(), 0.0);  // nothing cached => BS only
  for (const auto& decision : result.schedule) {
    EXPECT_EQ(decision.cache.count(0), 0u);
  }
}

TEST(EdgeCases, ZeroBandwidthSbsStillCachesButServesNothing) {
  workload::PaperScenario scenario;
  scenario.num_contents = 5;
  scenario.classes_per_sbs = 3;
  scenario.horizon = 3;
  scenario.bandwidth = 0.0;
  const auto instance = scenario.build();
  const workload::PerfectPredictor predictor(instance.demand);
  sim::SimulatorOptions options;
  options.record_schedule = true;
  const sim::Simulator simulator(instance, predictor, options);
  online::RhcController rhc(3);
  const auto result = simulator.run(rhc);
  ASSERT_EQ(result.schedule.size(), 3u);
  for (std::size_t t = 0; t < result.schedule.size(); ++t) {
    const auto& decision = result.schedule[t];
    // Per-slot: the executed allocation moves no traffic through the SBS.
    EXPECT_NEAR(
        model::sbs_load(decision.load, 0, instance.demand.slot(t)[0]), 0.0,
        1e-12);
    EXPECT_LE(decision.cache.count(0), instance.config.sbs[0].cache_capacity);
  }
  // All demand is billed at the BS.
  EXPECT_DOUBLE_EQ(result.total.sbs, 0.0);
}

TEST(EdgeCases, InitialCacheCarriesOverWithoutCharge) {
  auto instance = tiny_instance(2);
  // Pre-load the cache with contents 0 and 1.
  instance.initial_cache.set(0, 0, true);
  instance.initial_cache.set(0, 1, true);
  instance.validate();
  const workload::PerfectPredictor predictor(instance.demand);
  const sim::Simulator simulator(instance, predictor);
  online::OfflineController offline;
  const auto result = simulator.run(offline);
  // Keeping the preloaded contents costs nothing; the optimum should not
  // pay more replacements than a cold start would.
  auto cold = instance;
  cold.initial_cache = model::CacheState(cold.config);
  const workload::PerfectPredictor cold_predictor(cold.demand);
  const sim::Simulator cold_simulator(cold, cold_predictor);
  online::OfflineController cold_offline;
  const auto cold_result = cold_simulator.run(cold_offline);
  EXPECT_LE(result.total_cost(), cold_result.total_cost() + 1e-6);
}

// ---- Heavy load ------------------------------------------------------------

TEST(EdgeCases, OverloadedCellStillFeasible) {
  // Demand far above bandwidth: decisions must stay feasible and the BS
  // absorbs the overflow.
  const auto instance = tiny_instance(3, /*density_max=*/50.0);
  const workload::NoisyPredictor predictor(instance.demand, 0.3, 7);
  const sim::Simulator simulator(instance, predictor);
  online::RhcController rhc(3);
  const auto result = simulator.run(rhc);
  for (const auto& slot : result.slots) {
    EXPECT_LE(slot.sbs_served, instance.config.sbs[0].bandwidth + 1e-6);
    EXPECT_GT(slot.cost.bs, 0.0);
  }
}

// ---- Misuse ----------------------------------------------------------------

TEST(EdgeCases, ControllersRejectMissingPredictor) {
  const auto instance = tiny_instance(3);
  online::RhcController rhc(2);
  rhc.reset(instance);
  online::DecisionContext ctx;
  ctx.slot = 0;
  ctx.true_demand = &instance.demand.slot(0);
  ctx.predictor = nullptr;
  EXPECT_THROW(rhc.decide(ctx), InvalidArgument);

  online::ChcController chc(2, 1);
  chc.reset(instance);
  EXPECT_THROW(chc.decide(ctx), InvalidArgument);
}

TEST(EdgeCases, RhcBeyondHorizonThrows) {
  const auto instance = tiny_instance(2);
  const workload::PerfectPredictor predictor(instance.demand);
  online::RhcController rhc(2);
  rhc.reset(instance);
  online::DecisionContext ctx;
  ctx.slot = 2;  // == horizon
  ctx.true_demand = &instance.demand.slot(0);
  ctx.predictor = &predictor;
  EXPECT_THROW(rhc.decide(ctx), InvalidArgument);
}

}  // namespace
}  // namespace mdo
