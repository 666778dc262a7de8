// Tests for the simulation engine.
#include <gtest/gtest.h>

#include "online/baselines.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo::sim {
namespace {

model::ProblemInstance small_instance(std::uint64_t seed = 3) {
  workload::PaperScenario scenario;
  scenario.seed = seed;
  scenario.num_contents = 6;
  scenario.classes_per_sbs = 3;
  scenario.horizon = 5;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 3.0;
  scenario.beta = 2.0;
  return scenario.build();
}

/// A deliberately sloppy controller: overfull load on uncached contents.
class SloppyController final : public online::Controller {
 public:
  std::string name() const override { return "Sloppy"; }
  void reset(const model::ProblemInstance& instance) override {
    instance_ = &instance;
  }
  model::SlotDecision decide(const online::DecisionContext&) override {
    model::SlotDecision decision;
    decision.cache = model::CacheState(instance_->config);
    decision.cache.set(0, 0, true);
    decision.load = model::LoadAllocation(instance_->config);
    for (std::size_t m = 0; m < instance_->config.sbs[0].num_classes(); ++m) {
      for (std::size_t k = 0; k < instance_->config.num_contents; ++k) {
        decision.load.set(0, m, k, 1.0);  // violates (2) and (3)
      }
    }
    return decision;
  }

 private:
  const model::ProblemInstance* instance_ = nullptr;
};

/// A controller that ignores the cache capacity: must always be rejected.
class OverCapacityController final : public online::Controller {
 public:
  std::string name() const override { return "OverCapacity"; }
  void reset(const model::ProblemInstance& instance) override {
    instance_ = &instance;
  }
  model::SlotDecision decide(const online::DecisionContext&) override {
    model::SlotDecision decision;
    decision.cache = model::CacheState(instance_->config);
    for (std::size_t k = 0; k < instance_->config.num_contents; ++k) {
      decision.cache.set(0, k, true);
    }
    decision.load = model::LoadAllocation(instance_->config);
    return decision;
  }

 private:
  const model::ProblemInstance* instance_ = nullptr;
};

TEST(Simulator, TotalsMatchSlotRecords) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  const Simulator simulator(instance, predictor);
  online::LrfuController controller;
  const auto result = simulator.run(controller);

  ASSERT_EQ(result.slots.size(), instance.horizon());
  model::CostBreakdown sum;
  std::size_t replacements = 0;
  for (const auto& slot : result.slots) {
    sum += slot.cost;
    replacements += slot.replacements;
  }
  EXPECT_NEAR(sum.total(), result.total_cost(), 1e-9);
  EXPECT_EQ(replacements, result.total_replacements);
  EXPECT_EQ(result.controller, "LRFU");
}

TEST(Simulator, RepairMakesSloppyControllerFeasible) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  const Simulator simulator(instance, predictor);
  SloppyController controller;
  const auto result = simulator.run(controller);
  // After repair the SBS load must respect the bandwidth each slot.
  for (const auto& slot : result.slots) {
    EXPECT_LE(slot.sbs_served, instance.config.sbs[0].bandwidth + 1e-6);
  }
}

TEST(Simulator, StrictModeRejectsViolations) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  SimulatorOptions options;
  options.repair = false;
  const Simulator simulator(instance, predictor, options);
  SloppyController controller;
  EXPECT_THROW(simulator.run(controller), InvalidArgument);
}

TEST(Simulator, CapacityViolationAlwaysRejected) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  const Simulator simulator(instance, predictor);
  OverCapacityController controller;
  EXPECT_THROW(simulator.run(controller), InvalidArgument);
}

TEST(Simulator, OffloadRatioWithinUnitInterval) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  const Simulator simulator(instance, predictor);
  online::LrfuController controller;
  const auto result = simulator.run(controller);
  EXPECT_GE(result.offload_ratio(), 0.0);
  EXPECT_LE(result.offload_ratio(), 1.0);
  EXPECT_GT(result.offload_ratio(), 0.0);  // something must be served locally
}

TEST(Simulator, RejectsMismatchedPredictor) {
  const auto instance = small_instance(3);
  const auto other = small_instance(4);
  const workload::PerfectPredictor predictor(other.demand);
  EXPECT_NO_THROW(Simulator(instance, predictor));  // same horizon is fine

  workload::PaperScenario scenario;
  scenario.horizon = 3;
  scenario.num_contents = 6;
  scenario.classes_per_sbs = 3;
  const auto shorter = scenario.build();
  const workload::PerfectPredictor short_predictor(shorter.demand);
  EXPECT_THROW(Simulator(instance, short_predictor), InvalidArgument);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto instance = small_instance();
  const workload::NoisyPredictor predictor(instance.demand, 0.2, 11);
  const Simulator simulator(instance, predictor);
  online::LrfuController a, b;
  const auto ra = simulator.run(a);
  const auto rb = simulator.run(b);
  EXPECT_DOUBLE_EQ(ra.total_cost(), rb.total_cost());
  EXPECT_EQ(ra.total_replacements, rb.total_replacements);
}

}  // namespace
}  // namespace mdo::sim
