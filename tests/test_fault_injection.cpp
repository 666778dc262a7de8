// Fault-injection harness and graceful-degradation tests: deterministic
// replay of every failure mode under a fixed seed, the RobustController
// fallback chain, and the end-to-end faulted simulation acceptance run.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/load_balancing.hpp"
#include "core/primal_dual.hpp"
#include "online/chc.hpp"
#include "online/rhc.hpp"
#include "online/robust_controller.hpp"
#include "runtime/supervisor.hpp"
#include "solver/lp.hpp"
#include "sim/fault_injector.hpp"
#include "sim/robustness_report.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo {
namespace {

model::ProblemInstance faulty_instance(std::size_t horizon,
                                       std::uint64_t seed = 5) {
  workload::PaperScenario scenario;
  scenario.seed = seed;
  scenario.num_contents = 8;
  scenario.classes_per_sbs = 4;
  scenario.horizon = horizon;
  scenario.cache_capacity = 3;
  scenario.bandwidth = 5.0;
  scenario.beta = 4.0;
  return scenario.build();
}

bool plans_equal(const std::vector<sim::SlotFaults>& a,
                 const std::vector<sim::SlotFaults>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].sbs_outage != b[t].sbs_outage ||
        a[t].predictor_blackout != b[t].predictor_blackout ||
        a[t].corrupt_demand != b[t].corrupt_demand ||
        a[t].demand_scale != b[t].demand_scale) {
      return false;
    }
  }
  return true;
}

/// Inner controller that always throws: the chain must absorb it.
class BombController final : public online::Controller {
 public:
  std::string name() const override { return "Bomb"; }
  void reset(const model::ProblemInstance&) override {}
  model::SlotDecision decide(const online::DecisionContext&) override {
    throw std::runtime_error("boom");
  }
};

/// Inner controller that returns NaN allocations.
class NanController final : public online::Controller {
 public:
  std::string name() const override { return "NaN"; }
  void reset(const model::ProblemInstance& instance) override {
    instance_ = &instance;
  }
  model::SlotDecision decide(const online::DecisionContext&) override {
    model::SlotDecision decision;
    decision.cache = model::CacheState(instance_->config);
    decision.load = model::LoadAllocation(instance_->config);
    decision.load.set(0, 0, 0, std::numeric_limits<double>::quiet_NaN());
    return decision;
  }

 private:
  const model::ProblemInstance* instance_ = nullptr;
};

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, PlanIsDeterministicUnderFixedSeed) {
  sim::FaultInjectionConfig config;
  config.seed = 123;
  config.outage_probability = 0.1;
  config.outage_duration = 3;
  config.blackout_probability = 0.2;
  config.corruption_probability = 0.15;
  config.spike_probability = 0.1;
  const sim::FaultInjector injector(config);
  const auto first = injector.plan(100, 2);
  const auto second = injector.plan(100, 2);
  EXPECT_TRUE(plans_equal(first, second));

  // A different seed must yield a different schedule.
  config.seed = 124;
  const auto other = sim::FaultInjector(config).plan(100, 2);
  EXPECT_FALSE(plans_equal(first, other));
}

TEST(FaultInjector, ExplicitWindowsAreHonoredAndClipped) {
  sim::FaultInjectionConfig config;
  config.outages.push_back({1, {2, 4}});
  config.predictor_blackouts.push_back({3, 100});  // beyond the horizon
  config.spikes.push_back({{0, 2}, 2.5});
  config.corrupted_slots = {4, 99};  // 99 is beyond the horizon
  const auto plan = sim::FaultInjector(config).plan(6, 2);

  ASSERT_EQ(plan.size(), 6u);
  for (std::size_t t = 0; t < plan.size(); ++t) {
    EXPECT_EQ(plan[t].sbs_outage[0], 0) << t;
    EXPECT_EQ(plan[t].sbs_outage[1] != 0, t >= 2 && t < 4) << t;
    EXPECT_EQ(plan[t].predictor_blackout, t >= 3) << t;
    EXPECT_EQ(plan[t].corrupt_demand, t == 4) << t;
    EXPECT_DOUBLE_EQ(plan[t].demand_scale, t < 2 ? 2.5 : 1.0) << t;
  }
  EXPECT_TRUE(plan[2].any_outage());
  EXPECT_TRUE(plan[2].any());
  EXPECT_FALSE(plan[5].any_outage());
}

TEST(FaultInjector, OutOfRangeExplicitOutageThrows) {
  sim::FaultInjectionConfig config;
  config.outages.push_back({5, {0, 1}});
  EXPECT_THROW(sim::FaultInjector(config).plan(4, 2), InvalidArgument);
}

TEST(FaultInjector, CorruptionReplayIsDeterministic) {
  const auto instance = faulty_instance(3);
  sim::FaultInjectionConfig config;
  config.seed = 77;
  const sim::FaultInjector injector(config);
  sim::SlotFaults faults;
  faults.sbs_outage.assign(1, 0);
  faults.corrupt_demand = true;

  const auto first = injector.observed_demand(instance.demand.slot(1), 1, faults);
  const auto second =
      injector.observed_demand(instance.demand.slot(1), 1, faults);
  ASSERT_EQ(first.size(), second.size());
  std::size_t corrupted = 0;
  for (std::size_t n = 0; n < first.size(); ++n) {
    const auto& a = first[n].data();
    const auto& b = second[n].data();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::isnan(a[i])) {
        EXPECT_TRUE(std::isnan(b[i]));
        ++corrupted;
      } else {
        EXPECT_EQ(a[i], b[i]);
        if (a[i] < 0.0) ++corrupted;
      }
    }
  }
  EXPECT_EQ(corrupted, first.size());  // exactly one bad rate per SBS
}

TEST(FaultInjector, DegradedConfigZeroesOutagedSbsOnly) {
  workload::PaperScenario scenario;
  scenario.num_sbs = 3;
  scenario.num_contents = 8;
  scenario.classes_per_sbs = 2;
  const auto instance = scenario.build();

  sim::SlotFaults faults;
  faults.sbs_outage = {0, 1, 0};
  const auto degraded =
      sim::FaultInjector::degraded_config(instance.config, faults);
  EXPECT_EQ(degraded.sbs[0].cache_capacity, instance.config.sbs[0].cache_capacity);
  EXPECT_EQ(degraded.sbs[1].cache_capacity, 0u);
  EXPECT_EQ(degraded.sbs[1].bandwidth, 0.0);
  EXPECT_EQ(degraded.sbs[2].bandwidth, instance.config.sbs[2].bandwidth);
}

TEST(FaultInjector, SpikeScalesObservedDemand) {
  const auto instance = faulty_instance(2);
  sim::SlotFaults faults;
  faults.sbs_outage.assign(1, 0);
  faults.demand_scale = 3.0;
  const sim::FaultInjector injector({});
  const auto observed =
      injector.observed_demand(instance.demand.slot(0), 0, faults);
  const auto& truth = instance.demand.slot(0);
  for (std::size_t n = 0; n < truth.size(); ++n) {
    for (std::size_t i = 0; i < truth[n].data().size(); ++i) {
      EXPECT_DOUBLE_EQ(observed[n].data()[i], 3.0 * truth[n].data()[i]);
    }
  }
}

// ---- RobustController fallback chain ---------------------------------------

TEST(RobustController, CorruptSlotZeroIsServedBsOnly) {
  const auto instance = faulty_instance(4);
  const workload::PerfectPredictor predictor(instance.demand);
  online::RhcController rhc(3);
  online::RobustController robust(rhc);
  robust.reset(instance);

  model::SlotDemand corrupt = instance.demand.slot(0);
  corrupt[0].at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  online::DecisionContext ctx;
  ctx.slot = 0;
  ctx.true_demand = &corrupt;
  ctx.predictor = &predictor;

  model::SlotDecision decision;
  EXPECT_NO_THROW(decision = robust.decide(ctx));
  EXPECT_LE(decision.cache.count(0), instance.config.sbs[0].cache_capacity);
  EXPECT_EQ(robust.level_counts()[2], 1u);  // bs_only: nothing to warm-reuse
  ASSERT_FALSE(robust.events().empty());
  EXPECT_EQ(robust.events()[0].kind, online::DegradationKind::kCorruptDemand);
  EXPECT_EQ(robust.events()[0].level, online::FallbackLevel::kBsOnly);
  EXPECT_EQ(robust.events()[0].slot, 0u);
}

TEST(RobustController, CorruptLaterSlotIsServedByWarmReuse) {
  const auto instance = faulty_instance(4);
  const workload::PerfectPredictor predictor(instance.demand);
  online::RhcController rhc(3);
  online::RobustController robust(rhc);
  robust.reset(instance);

  online::DecisionContext ctx;
  ctx.slot = 0;
  ctx.true_demand = &instance.demand.slot(0);
  ctx.predictor = &predictor;
  const model::SlotDecision clean = robust.decide(ctx);
  EXPECT_EQ(robust.level_counts()[0], 1u);

  model::SlotDemand corrupt = instance.demand.slot(1);
  corrupt[0].at(0, 0) = -2.0;
  ctx.slot = 1;
  ctx.true_demand = &corrupt;
  const model::SlotDecision reused = robust.decide(ctx);
  EXPECT_EQ(robust.level_counts()[1], 1u);  // warm reuse, not bs_only
  EXPECT_EQ(reused.cache, clean.cache);     // last executed cache carried over
  ASSERT_EQ(robust.events().size(), 1u);
  EXPECT_EQ(robust.events()[0].level, online::FallbackLevel::kWarmReuse);
  EXPECT_EQ(robust.events()[0].slot, 1u);
}

TEST(RobustController, BombControllerNeverEscapes) {
  const auto instance = faulty_instance(5);
  const workload::PerfectPredictor predictor(instance.demand);
  BombController bomb;
  online::RobustController robust(bomb);
  robust.reset(instance);

  for (std::size_t t = 0; t < 5; ++t) {
    online::DecisionContext ctx;
    ctx.slot = t;
    ctx.true_demand = &instance.demand.slot(t);
    ctx.predictor = &predictor;
    model::SlotDecision decision;
    EXPECT_NO_THROW(decision = robust.decide(ctx)) << t;
    EXPECT_LE(decision.cache.count(0), instance.config.sbs[0].cache_capacity);
  }
  // Slot 0 had nothing to reuse (bs_only); every later slot warm-reuses.
  EXPECT_EQ(robust.level_counts()[0], 0u);
  EXPECT_EQ(robust.level_counts()[1], 4u);
  EXPECT_EQ(robust.level_counts()[2], 1u);
  for (const auto& event : robust.events()) {
    EXPECT_EQ(event.kind, online::DegradationKind::kSolverFailure);
  }
}

TEST(RobustController, NonFiniteInnerDecisionIsCaught) {
  const auto instance = faulty_instance(3);
  const workload::PerfectPredictor predictor(instance.demand);
  NanController nan_controller;
  online::RobustController robust(nan_controller);
  robust.reset(instance);

  online::DecisionContext ctx;
  ctx.slot = 0;
  ctx.true_demand = &instance.demand.slot(0);
  ctx.predictor = &predictor;
  model::SlotDecision decision;
  EXPECT_NO_THROW(decision = robust.decide(ctx));
  for (const double y : decision.load.sbs_data(0)) {
    EXPECT_TRUE(std::isfinite(y));
  }
  ASSERT_FALSE(robust.events().empty());
  EXPECT_EQ(robust.events()[0].kind,
            online::DegradationKind::kNonFiniteDecision);
}

TEST(RobustController, OutageProjectionEvictsToDegradedCapacity) {
  const auto instance = faulty_instance(4);
  const workload::PerfectPredictor predictor(instance.demand);
  online::RhcController rhc(3);
  online::RobustController robust(rhc);
  robust.reset(instance);

  sim::SlotFaults faults;
  faults.sbs_outage.assign(1, 1);
  const auto degraded =
      sim::FaultInjector::degraded_config(instance.config, faults);
  online::DecisionContext ctx;
  ctx.slot = 0;
  ctx.true_demand = &instance.demand.slot(0);
  ctx.predictor = &predictor;
  ctx.effective_config = &degraded;

  const model::SlotDecision decision = robust.decide(ctx);
  EXPECT_EQ(decision.cache.count(0), 0u);  // outage => nothing cached
  for (const double y : decision.load.sbs_data(0)) EXPECT_EQ(y, 0.0);
}

/// Inner controller that records how executed decisions are fed back.
class SpyController final : public online::Controller {
 public:
  std::string name() const override { return "Spy"; }
  void reset(const model::ProblemInstance& instance) override {
    instance_ = &instance;
    observes = 0;
    resyncs = 0;
  }
  model::SlotDecision decide(const online::DecisionContext&) override {
    model::SlotDecision decision;
    decision.cache = model::CacheState(instance_->config);
    decision.load = model::LoadAllocation(instance_->config);
    return decision;
  }
  void observe(std::size_t, const model::SlotDecision&) override {
    ++observes;
  }
  void resync(std::size_t, const model::SlotDecision&) override { ++resyncs; }

  int observes = 0;
  int resyncs = 0;

 private:
  const model::ProblemInstance* instance_ = nullptr;
};

TEST(RobustController, ObserveRoutesToResyncOnlyOnSubstitutedSlots) {
  // Regression: the wrapper used to forward observe() unchanged, so a
  // trajectory-tracking inner controller (FHC/CHC) kept planning from a
  // phantom trajectory after a fallback substitution.
  const auto instance = faulty_instance(4);
  const workload::PerfectPredictor predictor(instance.demand);
  SpyController spy;
  online::RobustController robust(spy);
  robust.reset(instance);

  online::DecisionContext ctx;
  ctx.slot = 0;
  ctx.true_demand = &instance.demand.slot(0);
  ctx.predictor = &predictor;
  const auto clean = robust.decide(ctx);  // level 0: the spy's own decision
  robust.observe(0, clean);
  EXPECT_EQ(spy.observes, 1);
  EXPECT_EQ(spy.resyncs, 0);

  model::SlotDemand corrupt = instance.demand.slot(1);
  corrupt[0].at(0, 0) = -1.0;
  ctx.slot = 1;
  ctx.true_demand = &corrupt;
  const auto reused = robust.decide(ctx);  // warm reuse: substituted
  robust.observe(1, reused);
  EXPECT_EQ(spy.observes, 1);
  EXPECT_EQ(spy.resyncs, 1);

  ctx.slot = 2;
  ctx.true_demand = &instance.demand.slot(2);
  const auto again = robust.decide(ctx);  // clean again: plain observe
  robust.observe(2, again);
  EXPECT_EQ(spy.observes, 2);
  EXPECT_EQ(spy.resyncs, 1);
}

TEST(FaultedSimulation, RobustChcOutageRunStaysFeasible) {
  // End-to-end regression for the executed-state resync: Robust(CHC) under
  // an SBS outage substitutes empty caches for the outage window; the CHC
  // planners must replan from the executed state afterwards and the whole
  // run stays capacity-feasible for the degraded cell.
  const auto instance = faulty_instance(24);
  const workload::NoisyPredictor predictor(instance.demand, 0.1, 33);
  sim::FaultInjectionConfig fault_config;
  fault_config.outages.push_back({0, {5, 9}});
  fault_config.corrupted_slots = {12};
  const sim::FaultInjector injector(fault_config);
  sim::SimulatorOptions options;
  options.faults = &injector;
  options.record_schedule = true;
  const sim::Simulator simulator(instance, predictor, options);

  online::ChcController chc(4, 2);
  online::RobustController robust(chc);
  sim::SimulationResult result;
  ASSERT_NO_THROW(result = simulator.run(robust));
  ASSERT_EQ(result.schedule.size(), 24u);
  for (std::size_t t = 0; t < result.schedule.size(); ++t) {
    const auto& faults = result.fault_plan[t];
    const std::size_t capacity = faults.sbs_outage[0] != 0
                                     ? 0
                                     : instance.config.sbs[0].cache_capacity;
    EXPECT_LE(result.schedule[t].cache.count(0), capacity) << "slot " << t;
  }
  EXPECT_GT(robust.level_counts()[0], 0u);
  // The outage definitely triggered substitutions (eviction projections).
  bool saw_eviction = false;
  for (const auto& event : robust.events()) {
    saw_eviction |= event.kind == online::DegradationKind::kOutageEviction;
  }
  EXPECT_TRUE(saw_eviction);
}

// ---- SolveStatus hardening -------------------------------------------------

TEST(SolveStatus, LpRejectsNonFiniteInputWithoutThrowing) {
  auto lp = solver::LinearProgram::with_vars(2);
  lp.objective[0] = std::numeric_limits<double>::quiet_NaN();
  solver::LpSolution solution;
  EXPECT_NO_THROW(solution = solver::solve_lp(lp));
  EXPECT_EQ(solution.status, solver::LpStatus::kNonFiniteInput);
}

TEST(SolveStatus, LoadBalancingRejectsNonFiniteDemand) {
  const auto instance = faulty_instance(1);
  model::SbsDemand demand = instance.demand.slot(0)[0];
  demand.at(0, 0) = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> all(demand.num_contents());
  std::iota(all.begin(), all.end(), std::size_t{0});
  core::P2Workspace ws;
  EXPECT_NO_THROW(ws.bind_active(instance.config.sbs[0],
                                 model::SparseSbsDemand::from_dense(demand),
                                 all));
  core::LoadBalancingOutcome outcome;
  EXPECT_NO_THROW(outcome = core::solve_load_balancing(ws));
  EXPECT_EQ(outcome.status, solver::SolveStatus::kNonFiniteInput);
  EXPECT_EQ(ws.y().size(), demand.data().size());
  for (const double y : ws.y()) EXPECT_EQ(y, 0.0);  // safe fallback
}

TEST(SolveStatus, PrimalDualDegradesOnNonFiniteDemand) {
  const auto instance = faulty_instance(3);
  model::DemandTrace demand = instance.demand.window(0, 3);
  demand.slot(1)[0].at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &demand;
  problem.initial_cache = instance.initial_cache;

  core::HorizonSolution solution;
  EXPECT_NO_THROW(solution = core::PrimalDualSolver().solve(problem));
  EXPECT_EQ(solution.status, solver::SolveStatus::kNonFiniteInput);
  ASSERT_EQ(solution.schedule.size(), 3u);
  for (const auto& slot : solution.schedule) {
    EXPECT_EQ(slot.cache, problem.initial_cache);  // safe carry-over
  }
}

TEST(SolveStatus, CleanPrimalDualReportsConvergence) {
  const auto instance = faulty_instance(2);
  const model::DemandTrace demand = instance.demand.window(0, 2);
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &demand;
  problem.initial_cache = instance.initial_cache;
  const auto solution = core::PrimalDualSolver().solve(problem);
  EXPECT_TRUE(solution.status == solver::SolveStatus::kConverged ||
              solution.status == solver::SolveStatus::kIterationLimit);
  EXPECT_TRUE(std::isfinite(solution.upper_bound));
}

// ---- Faulted simulation ----------------------------------------------------

TEST(FaultedSimulation, CleanRunIsBitwiseIdenticalThroughWrapper) {
  const auto instance = faulty_instance(40);
  const workload::NoisyPredictor predictor(instance.demand, 0.1, 21);
  sim::SimulatorOptions options;
  options.record_schedule = true;
  const sim::Simulator simulator(instance, predictor, options);

  online::RhcController raw(5);
  const auto raw_result = simulator.run(raw);

  online::RhcController inner(5);
  online::RobustController robust(inner);
  const auto wrapped_result = simulator.run(robust);

  EXPECT_TRUE(robust.events().empty());
  EXPECT_EQ(robust.level_counts()[0], 40u);
  EXPECT_EQ(raw_result.total_cost(), wrapped_result.total_cost());
  ASSERT_EQ(raw_result.schedule.size(), wrapped_result.schedule.size());
  for (std::size_t t = 0; t < raw_result.schedule.size(); ++t) {
    EXPECT_EQ(raw_result.schedule[t].cache, wrapped_result.schedule[t].cache)
        << t;
    for (std::size_t n = 0; n < instance.config.num_sbs(); ++n) {
      EXPECT_EQ(raw_result.schedule[t].load.sbs_data(n),
                wrapped_result.schedule[t].load.sbs_data(n))
          << t;
    }
  }
}

TEST(FaultedSimulation, TwoHundredSlotRunMatchesInjectedSchedule) {
  const auto instance = faulty_instance(200);
  const workload::NoisyPredictor predictor(instance.demand, 0.1, 21);

  sim::FaultInjectionConfig fault_config;
  fault_config.seed = 11;
  fault_config.outage_probability = 0.02;
  fault_config.outage_duration = 2;
  fault_config.blackout_probability = 0.05;
  fault_config.corruption_probability = 0.05;
  fault_config.spike_probability = 0.03;
  fault_config.spike_factor = 3.0;
  fault_config.outages.push_back({0, {20, 25}});
  fault_config.predictor_blackouts.push_back({50, 55});
  fault_config.corrupted_slots = {100, 101};
  const sim::FaultInjector injector(fault_config);

  sim::SimulatorOptions options;
  options.faults = &injector;
  options.record_schedule = true;
  const sim::Simulator simulator(instance, predictor, options);

  online::RhcController rhc(5);
  online::RobustController robust(rhc);
  sim::SimulationResult result;
  ASSERT_NO_THROW(result = simulator.run(robust));
  ASSERT_EQ(result.slots.size(), 200u);
  ASSERT_EQ(result.schedule.size(), 200u);
  ASSERT_EQ(result.fault_plan.size(), 200u);

  // The injected schedule must have actually exercised every failure mode.
  std::size_t outage_slots = 0, blackout_slots = 0, corrupt_slots = 0,
              spike_slots = 0;
  for (const auto& faults : result.fault_plan) {
    if (faults.any_outage()) ++outage_slots;
    if (faults.predictor_blackout) ++blackout_slots;
    if (faults.corrupt_demand) ++corrupt_slots;
    if (faults.demand_scale != 1.0) ++spike_slots;
  }
  EXPECT_GE(outage_slots, 5u);
  EXPECT_GE(blackout_slots, 5u);
  EXPECT_GE(corrupt_slots, 2u);
  EXPECT_GE(spike_slots, 1u);

  // Every executed decision is capacity-feasible for the degraded cell, and
  // an outaged SBS serves nothing.
  for (std::size_t t = 0; t < 200; ++t) {
    const auto& faults = result.fault_plan[t];
    const auto& decision = result.schedule[t];
    for (std::size_t n = 0; n < instance.config.num_sbs(); ++n) {
      const std::size_t capacity =
          faults.sbs_outage[n] != 0 ? 0 : instance.config.sbs[n].cache_capacity;
      EXPECT_LE(decision.cache.count(n), capacity) << "slot " << t;
      const double load =
          model::sbs_load(decision.load, n, instance.demand.slot(t)[n]);
      if (faults.sbs_outage[n] != 0) {
        EXPECT_NEAR(load, 0.0, 1e-12) << "slot " << t;
      }
      for (const double y : decision.load.sbs_data(n)) {
        EXPECT_TRUE(std::isfinite(y)) << "slot " << t;
      }
    }
  }

  // Fallback counts must match the injected schedule exactly: a slot falls
  // back iff its observed demand is corrupt or the predictor is dark, and
  // only slot 0 can lack a warm-reuse source.
  std::array<std::size_t, 3> expected{};
  std::size_t expected_corrupt_events = 0, expected_blackout_events = 0;
  bool have_last = false;
  for (const auto& faults : result.fault_plan) {
    const bool degraded = faults.corrupt_demand || faults.predictor_blackout;
    if (!degraded) {
      ++expected[0];
    } else {
      ++expected[have_last ? 1 : 2];
      if (faults.corrupt_demand) {
        ++expected_corrupt_events;
      } else {
        ++expected_blackout_events;  // blackout alone hits the inner solve
      }
    }
    have_last = true;
  }
  EXPECT_EQ(robust.level_counts(), expected);

  const auto report = sim::build_robustness_report(result, robust);
  EXPECT_EQ(report.fallback_counts, expected);
  EXPECT_EQ(report.outage_slots, outage_slots);
  EXPECT_EQ(report.blackout_slots, blackout_slots);
  EXPECT_EQ(report.corrupt_slots, corrupt_slots);
  EXPECT_EQ(report.spike_slots, spike_slots);
  EXPECT_EQ(report.kind_counts[static_cast<std::size_t>(
                online::DegradationKind::kCorruptDemand)],
            expected_corrupt_events);
  EXPECT_EQ(report.kind_counts[static_cast<std::size_t>(
                online::DegradationKind::kPredictorMissing)],
            expected_blackout_events);
  EXPECT_FALSE(report.format().empty());

  // The whole faulted pipeline replays bit for bit under the same seeds.
  online::RhcController rhc_again(5);
  online::RobustController robust_again(rhc_again);
  const auto replay = simulator.run(robust_again);
  EXPECT_EQ(replay.total_cost(), result.total_cost());
  EXPECT_EQ(robust_again.level_counts(), robust.level_counts());
}

// ---- Deadline supervision determinism --------------------------------------

/// Solver options whose gap tolerance is unreachable, so every solve runs
/// until its budget (deadline or iteration cap) — deadline events then fire
/// on every slot, deterministically.
core::PrimalDualOptions stubborn_options() {
  core::PrimalDualOptions options;
  options.max_iterations = 6;
  options.epsilon = 1e-16;
  return options;
}

/// A token-ignoring inner controller that overruns any wall-clock budget:
/// it never polls ctx.deadline, so the wrapper's legacy discard must kick
/// in rather than the anytime-accept path.
class SlowController final : public online::Controller {
 public:
  std::string name() const override { return "Slow"; }
  void reset(const model::ProblemInstance& instance) override {
    instance_ = &instance;
  }
  model::SlotDecision decide(const online::DecisionContext&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    model::SlotDecision decision;
    decision.cache = model::CacheState(instance_->config);
    decision.load = model::LoadAllocation(instance_->config);
    return decision;
  }

 private:
  const model::ProblemInstance* instance_ = nullptr;
};

// The whole suite re-runs under MDO_THREADS=4 (tests/CMakeLists.txt), so
// the exact golden-event assertions below also prove the logical
// checks-budget is thread-count invariant: the token is polled at the
// serial point of each dual iteration, never inside the parallel fan-out.
// (Not every slot expires — warm-started solves can be exactly optimal
// after one iteration; which slots expire is part of the golden sequence.)
TEST(DeadlineEvents, ChecksBudgetFiresDeterministically) {
  const auto instance = faulty_instance(10);
  const workload::NoisyPredictor predictor(instance.demand, 0.1, 21);
  sim::SimulatorOptions options;
  options.decision_budget_checks = 1;

  const auto run_once = [&](runtime::SupervisionLog& log) {
    auto logged = options;
    logged.supervision = &log;
    const sim::Simulator simulator(instance, predictor, logged);
    online::RhcController rhc(4, stubborn_options());
    return simulator.run(rhc);
  };

  runtime::SupervisionLog log;
  const auto result = run_once(log);
  EXPECT_EQ(result.slots.size(), 10u);
  EXPECT_EQ(log.solve_failures, 0u);
  EXPECT_EQ(log.retries, 0u);
  const std::vector<std::size_t> expired_slots{2, 5, 6, 7};
  EXPECT_EQ(log.deadline_expirations, expired_slots.size());
  ASSERT_EQ(log.events.size(), expired_slots.size());
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    EXPECT_EQ(log.events[i].slot, expired_slots[i]);
    EXPECT_EQ(log.events[i].kind,
              runtime::SupervisionEventKind::kDeadlineExpired);
    EXPECT_EQ(log.events[i].attempt, 0u);
    EXPECT_EQ(log.events[i].status, solver::SolveStatus::kDeadlineExpired);
  }

  // Replay: a fresh run emits the identical sequence, bit for bit.
  runtime::SupervisionLog replay_log;
  const auto replay = run_once(replay_log);
  EXPECT_EQ(replay.total.bs, result.total.bs);
  EXPECT_EQ(replay.total.sbs, result.total.sbs);
  EXPECT_EQ(replay.total.replacement, result.total.replacement);
  ASSERT_EQ(replay_log.events.size(), log.events.size());
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    EXPECT_EQ(replay_log.events[i].slot, log.events[i].slot);
    EXPECT_EQ(replay_log.events[i].gap, log.events[i].gap);
  }
}

TEST(DeadlineEvents, GenerousChecksBudgetIsTransparent) {
  const auto instance = faulty_instance(8);
  const workload::NoisyPredictor predictor(instance.demand, 0.1, 21);

  sim::SimulatorOptions plain_options;
  plain_options.record_schedule = true;
  const sim::Simulator plain(instance, predictor, plain_options);
  online::RhcController a(4, stubborn_options());
  const auto unbudgeted = plain.run(a);

  // Budget beyond the iteration cap: the token never expires and the run
  // must be bit-identical to the unbudgeted one.
  auto budget_options = plain_options;
  budget_options.decision_budget_checks = 100;
  runtime::SupervisionLog log;
  budget_options.supervision = &log;
  const sim::Simulator budgeted_sim(instance, predictor, budget_options);
  online::RhcController b(4, stubborn_options());
  const auto budgeted = budgeted_sim.run(b);

  EXPECT_EQ(log.deadline_expirations, 0u);
  EXPECT_TRUE(log.events.empty());
  EXPECT_EQ(unbudgeted.total.bs, budgeted.total.bs);
  EXPECT_EQ(unbudgeted.total.sbs, budgeted.total.sbs);
  EXPECT_EQ(unbudgeted.total.replacement, budgeted.total.replacement);
  ASSERT_EQ(unbudgeted.schedule.size(), budgeted.schedule.size());
  for (std::size_t t = 0; t < unbudgeted.schedule.size(); ++t) {
    EXPECT_EQ(unbudgeted.schedule[t].cache, budgeted.schedule[t].cache) << t;
  }
}

TEST(RobustController, AnytimeIncumbentIsServedAtFullLevel) {
  const auto instance = faulty_instance(6);
  const workload::NoisyPredictor predictor(instance.demand, 0.1, 21);
  const sim::Simulator simulator(instance, predictor);

  online::RhcController inner(4, stubborn_options());
  online::RobustControllerOptions robust_options;
  robust_options.max_decide_checks = 1;
  online::RobustController robust(inner, robust_options);
  const auto result = simulator.run(robust);

  // A deadline-aware inner returns its anytime incumbent, which is served
  // at level 0 — degraded latency, not a degraded fallback level. The
  // golden expired-slot set is thread-count invariant (the suite re-runs
  // under MDO_THREADS=4).
  EXPECT_EQ(result.slots.size(), 6u);
  EXPECT_EQ(robust.level_counts()[0], 6u);
  EXPECT_EQ(robust.level_counts()[1], 0u);
  EXPECT_EQ(robust.level_counts()[2], 0u);
  const std::vector<std::size_t> expired_slots{2};
  ASSERT_EQ(robust.events().size(), expired_slots.size());
  for (std::size_t i = 0; i < robust.events().size(); ++i) {
    EXPECT_EQ(robust.events()[i].slot, expired_slots[i]);
    EXPECT_EQ(robust.events()[i].level, online::FallbackLevel::kFull);
    EXPECT_EQ(robust.events()[i].kind,
              online::DegradationKind::kDeadlineExceeded);
  }
}

TEST(RobustController, TokenIgnoringSlowInnerIsDiscarded) {
  const auto instance = faulty_instance(4);
  const workload::NoisyPredictor predictor(instance.demand, 0.1, 21);
  const sim::Simulator simulator(instance, predictor);

  SlowController inner;
  online::RobustControllerOptions robust_options;
  robust_options.max_decide_seconds = 1e-7;  // far below the 2ms sleep
  online::RobustController robust(inner, robust_options);
  const auto result = simulator.run(robust);

  // The inner never polls the token, so its late decision is discarded and
  // the slot served from the fallback chain (level 2 at slot 0 — nothing to
  // reuse — then level 1).
  EXPECT_EQ(result.slots.size(), 4u);
  EXPECT_EQ(robust.level_counts()[0], 0u);
  EXPECT_EQ(robust.level_counts()[1], 3u);
  EXPECT_EQ(robust.level_counts()[2], 1u);
  ASSERT_GE(robust.events().size(), 4u);
  for (const auto& event : robust.events()) {
    EXPECT_EQ(event.kind, online::DegradationKind::kDeadlineExceeded);
  }
}

}  // namespace
}  // namespace mdo
