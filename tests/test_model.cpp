// Unit tests for the network / demand / decision / cost model.
#include <gtest/gtest.h>

#include "model/costs.hpp"
#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/feasibility.hpp"
#include "model/instance.hpp"
#include "model/network.hpp"
#include "util/error.hpp"

namespace mdo::model {
namespace {

/// Two SBSs, two classes each, three contents; hand-checkable weights.
NetworkConfig small_config() {
  NetworkConfig config;
  config.num_contents = 3;
  for (int n = 0; n < 2; ++n) {
    SbsConfig sbs;
    sbs.cache_capacity = 2;
    sbs.bandwidth = 4.0;
    sbs.replacement_beta = 10.0;
    sbs.classes = {MuClass{.omega_bs = 1.0, .omega_sbs = 0.1},
                   MuClass{.omega_bs = 0.5, .omega_sbs = 0.05}};
    config.sbs.push_back(sbs);
  }
  return config;
}

SlotDemand uniform_demand(const NetworkConfig& config, double rate) {
  SlotDemand demand = make_zero_slot_demand(config);
  for (auto& d : demand)
    for (auto& v : d.data()) v = rate;
  return demand;
}

// ---------------------------------------------------------------- config ----

TEST(Network, ValidatesGoodConfig) {
  EXPECT_NO_THROW(small_config().validate());
}

TEST(Network, RejectsBadConfigs) {
  NetworkConfig config = small_config();
  config.num_contents = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = small_config();
  config.sbs.clear();
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = small_config();
  config.sbs[0].cache_capacity = 99;
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = small_config();
  config.sbs[0].bandwidth = -1.0;
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = small_config();
  config.sbs[1].classes[0].omega_bs = -0.1;
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = small_config();
  config.sbs[1].classes.clear();
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(Network, CountsClasses) {
  EXPECT_EQ(small_config().total_classes(), 4u);
  EXPECT_NE(small_config().summary().find("K=3"), std::string::npos);
}

// ---------------------------------------------------------------- demand ----

TEST(Demand, AccessorsAndTotals) {
  SbsDemand d(2, 3);
  d.at(0, 0) = 1.0;
  d.at(1, 2) = 2.5;
  EXPECT_DOUBLE_EQ(d.content_total(0), 1.0);
  EXPECT_DOUBLE_EQ(d.content_total(2), 2.5);
  EXPECT_DOUBLE_EQ(d.total(), 3.5);
  EXPECT_THROW(d.at(2, 0), InvalidArgument);
  EXPECT_THROW(d.content_total(9), InvalidArgument);
}

TEST(Demand, TraceWindowClipsAtHorizon) {
  const auto config = small_config();
  DemandTrace trace;
  for (int t = 0; t < 5; ++t) trace.push_back(uniform_demand(config, t));
  const DemandTrace window = trace.window(3, 10);
  EXPECT_EQ(window.horizon(), 2u);
  EXPECT_DOUBLE_EQ(window.slot(0)[0].at(0, 0), 3.0);
}

TEST(Demand, ValidateCatchesShapeAndSign) {
  const auto config = small_config();
  DemandTrace trace;
  trace.push_back(uniform_demand(config, 1.0));
  EXPECT_NO_THROW(trace.validate(config));

  DemandTrace negative;
  auto bad = uniform_demand(config, 1.0);
  bad[0].at(0, 0) = -1.0;
  negative.push_back(bad);
  EXPECT_THROW(negative.validate(config), InvalidArgument);

  DemandTrace wrong_shape;
  wrong_shape.push_back(SlotDemand{SbsDemand(2, 3)});  // one SBS instead of 2
  EXPECT_THROW(wrong_shape.validate(config), InvalidArgument);
}

// -------------------------------------------------------------- decisions ----

TEST(CacheState, SetCountAndInsertions) {
  const auto config = small_config();
  CacheState a(config), b(config);
  b.set(0, 0, true);
  b.set(0, 2, true);
  b.set(1, 1, true);
  EXPECT_EQ(b.count(0), 2u);
  EXPECT_EQ(b.count(1), 1u);
  EXPECT_EQ(b.insertions_from(a, 0), 2u);
  EXPECT_EQ(b.insertions_from(a, 1), 1u);
  // Removing items costs nothing: insertions count only (x - x_prev)^+.
  EXPECT_EQ(a.insertions_from(b, 0), 0u);
  EXPECT_TRUE(b.cached(0, 2));
  EXPECT_FALSE(b.cached(0, 1));
}

TEST(CacheState, EqualityAndBounds) {
  const auto config = small_config();
  CacheState a(config), b(config);
  EXPECT_EQ(a, b);
  b.set(1, 2, true);
  EXPECT_FALSE(a == b);
  EXPECT_THROW(a.set(5, 0, true), InvalidArgument);
  EXPECT_THROW(a.cached(0, 7), InvalidArgument);
}

TEST(LoadAllocation, AccessAndLoad) {
  const auto config = small_config();
  LoadAllocation y(config);
  y.at(0, 0, 1) = 0.5;
  y.at(0, 1, 1) = 1.0;
  const auto demand = uniform_demand(config, 2.0);
  // load = sum lambda * y = 2 * (0.5 + 1.0)
  EXPECT_DOUBLE_EQ(model::sbs_load(y, 0, demand[0]), 3.0);
  EXPECT_DOUBLE_EQ(model::sbs_load(y, 1, demand[1]), 0.0);
  EXPECT_THROW(y.at(0, 9, 0), InvalidArgument);
}

// ------------------------------------------------------------------ costs ----

TEST(Costs, BsOperatingCostMatchesHandComputation) {
  const auto config = small_config();
  const auto demand = uniform_demand(config, 1.0);
  LoadAllocation y(config);  // all zero: everything from the BS
  // Per SBS: (omega0 * 3 + omega1 * 3)^2 = (3 + 1.5)^2 = 20.25; two SBSs.
  EXPECT_DOUBLE_EQ(bs_operating_cost(config, demand, y), 40.5);
}

TEST(Costs, BsCostDecreasesWithOffload) {
  const auto config = small_config();
  const auto demand = uniform_demand(config, 1.0);
  LoadAllocation y(config);
  const double before = bs_operating_cost(config, demand, y);
  y.at(0, 0, 0) = 1.0;
  EXPECT_LT(bs_operating_cost(config, demand, y), before);
}

TEST(Costs, SbsOperatingCostMatchesHandComputation) {
  const auto config = small_config();
  const auto demand = uniform_demand(config, 1.0);
  LoadAllocation y(config);
  for (std::size_t k = 0; k < 3; ++k) {
    y.at(0, 0, k) = 1.0;  // class 0 of SBS 0 fully served locally
  }
  // SBS 0: (omega_sbs0 * 3)^2 = 0.09; SBS 1 idle.
  EXPECT_NEAR(sbs_operating_cost(config, demand, y), 0.09, 1e-12);
}

TEST(Costs, ReplacementCostUsesBeta) {
  const auto config = small_config();
  CacheState prev(config), now(config);
  now.set(0, 0, true);
  now.set(1, 1, true);
  now.set(1, 2, true);
  EXPECT_DOUBLE_EQ(replacement_cost(config, now, prev), 30.0);
  EXPECT_EQ(replacement_count(now, prev), 3u);
  // No charge for evictions.
  EXPECT_DOUBLE_EQ(replacement_cost(config, prev, now), 0.0);
}

TEST(Costs, ScheduleCostAccumulatesAcrossSlots) {
  const auto config = small_config();
  DemandTrace trace;
  trace.push_back(uniform_demand(config, 1.0));
  trace.push_back(uniform_demand(config, 1.0));

  Schedule schedule(2);
  for (auto& slot : schedule) {
    slot.cache = CacheState(config);
    slot.load = LoadAllocation(config);
  }
  schedule[0].cache.set(0, 0, true);   // one insertion at t=0
  schedule[1].cache.set(0, 0, true);   // kept: no new cost
  const CacheState initial(config);
  const auto breakdown = schedule_cost(config, trace, schedule, initial);
  EXPECT_DOUBLE_EQ(breakdown.replacement, 10.0);
  EXPECT_DOUBLE_EQ(breakdown.bs, 81.0);  // 2 slots * 40.5
  EXPECT_DOUBLE_EQ(breakdown.total(),
                   breakdown.bs + breakdown.sbs + breakdown.replacement);
}

TEST(Costs, BreakdownAccumulates) {
  CostBreakdown a{.bs = 1.0, .sbs = 2.0, .replacement = 3.0};
  const CostBreakdown b{.bs = 10.0, .sbs = 20.0, .replacement = 30.0};
  a += b;
  EXPECT_DOUBLE_EQ(a.total(), 66.0);
}

// ------------------------------------------------------------ feasibility ----

TEST(Feasibility, DetectsEachViolationKind) {
  const auto config = small_config();
  const auto demand = uniform_demand(config, 1.0);
  SlotDecision decision;
  decision.cache = CacheState(config);
  decision.load = LoadAllocation(config);
  EXPECT_TRUE(is_feasible(config, demand, decision));

  // (3): load on an uncached content.
  decision.load.at(0, 0, 0) = 0.5;
  EXPECT_FALSE(is_feasible(config, demand, decision));
  decision.cache.set(0, 0, true);
  EXPECT_TRUE(is_feasible(config, demand, decision));

  // (1): over capacity.
  decision.cache.set(0, 1, true);
  decision.cache.set(0, 2, true);
  EXPECT_FALSE(is_feasible(config, demand, decision));
  decision.cache.set(0, 2, false);

  // (11): y outside [0, 1].
  decision.load.at(0, 0, 0) = 1.5;
  EXPECT_FALSE(is_feasible(config, demand, decision));
  decision.load.at(0, 0, 0) = 0.5;

  // (2): bandwidth. Load = sum lambda y; push everything to 1.
  decision.cache.set(0, 1, true);
  for (std::size_t m = 0; m < 2; ++m) {
    decision.load.at(0, m, 0) = 1.0;
    decision.load.at(0, m, 1) = 1.0;
  }
  // 4 entries * lambda 1.0 = 4.0 <= B = 4: feasible boundary.
  EXPECT_TRUE(is_feasible(config, demand, decision));
  const auto heavier = uniform_demand(config, 1.5);
  EXPECT_FALSE(is_feasible(config, heavier, decision));
}

TEST(Feasibility, EnforceRepairsLoad) {
  const auto config = small_config();
  const auto demand = uniform_demand(config, 2.0);
  SlotDecision decision;
  decision.cache = CacheState(config);
  decision.load = LoadAllocation(config);
  decision.cache.set(0, 0, true);
  decision.load.at(0, 0, 0) = 1.4;   // above 1
  decision.load.at(0, 0, 1) = 0.9;   // not cached
  decision.load.at(0, 1, 0) = 1.0;
  enforce_feasibility(config, demand, decision);
  EXPECT_TRUE(is_feasible(config, demand, decision));
  EXPECT_DOUBLE_EQ(decision.load.at(0, 0, 1), 0.0);
  // Bandwidth: raw load would be 2*(1 + 1) = 4 <= 4, fine after clamping.
  EXPECT_LE(model::sbs_load(decision.load, 0, demand[0]), 4.0 + 1e-9);
}

TEST(Feasibility, EnforceScalesDownOverload) {
  const auto config = small_config();
  const auto demand = uniform_demand(config, 3.0);
  SlotDecision decision;
  decision.cache = CacheState(config);
  decision.load = LoadAllocation(config);
  decision.cache.set(0, 0, true);
  decision.cache.set(0, 1, true);
  for (std::size_t m = 0; m < 2; ++m)
    for (std::size_t k = 0; k < 2; ++k) decision.load.at(0, m, k) = 1.0;
  // Raw load: 3 * 4 = 12 > B = 4 -> scaled by 1/3.
  enforce_feasibility(config, demand, decision);
  EXPECT_NEAR(model::sbs_load(decision.load, 0, demand[0]), 4.0, 1e-9);
  EXPECT_NEAR(decision.load.at(0, 0, 0), 1.0 / 3.0, 1e-9);
}

TEST(Feasibility, EnforceRefusesCapacityViolation) {
  const auto config = small_config();
  const auto demand = uniform_demand(config, 1.0);
  SlotDecision decision;
  decision.cache = CacheState(config);
  decision.load = LoadAllocation(config);
  decision.cache.set(0, 0, true);
  decision.cache.set(0, 1, true);
  decision.cache.set(0, 2, true);  // capacity is 2
  EXPECT_THROW(enforce_feasibility(config, demand, decision),
               InvalidArgument);
}

// --------------------------------------------------------------- instance ----

TEST(Instance, ValidatesCoherence) {
  ProblemInstance instance;
  instance.config = small_config();
  DemandTrace trace;
  trace.push_back(uniform_demand(instance.config, 1.0));
  instance.demand = trace;
  instance.initial_cache = CacheState(instance.config);
  EXPECT_NO_THROW(instance.validate());
  EXPECT_EQ(instance.horizon(), 1u);

  instance.initial_cache.set(0, 0, true);
  instance.initial_cache.set(0, 1, true);
  instance.initial_cache.set(0, 2, true);  // over capacity
  EXPECT_THROW(instance.validate(), InvalidArgument);
}

}  // namespace
}  // namespace mdo::model
