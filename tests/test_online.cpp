// Tests for the online controllers (RHC / FHC / CHC / AFHC) and baselines.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "model/feasibility.hpp"
#include "online/baselines.hpp"
#include "online/chc.hpp"
#include "online/fhc.hpp"
#include "online/offline_controller.hpp"
#include "online/rhc.hpp"
#include "util/error.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo::online {
namespace {

model::ProblemInstance small_instance(std::uint64_t seed = 3,
                                      std::size_t horizon = 6) {
  workload::PaperScenario scenario;
  scenario.seed = seed;
  scenario.num_contents = 6;
  scenario.classes_per_sbs = 3;
  scenario.horizon = horizon;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 3.0;
  scenario.beta = 2.0;
  return scenario.build();
}

/// Runs a controller over the whole horizon with a perfect predictor and
/// returns the decisions.
std::vector<model::SlotDecision> roll_out(Controller& controller,
                                          const model::ProblemInstance& instance,
                                          const workload::Predictor& predictor) {
  controller.reset(instance);
  std::vector<model::SlotDecision> decisions;
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    DecisionContext ctx;
    ctx.slot = t;
    ctx.true_demand = &instance.demand.slot(t);
    ctx.predictor = &predictor;
    decisions.push_back(controller.decide(ctx));
  }
  return decisions;
}

// ---------------------------------------------------------------- offline ----

TEST(Offline, ReplaysPrecomputedSchedule) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  OfflineController controller;
  const auto decisions = roll_out(controller, instance, predictor);
  EXPECT_EQ(decisions.size(), instance.horizon());
  EXPECT_LE(controller.lower_bound(), controller.upper_bound() + 1e-9);
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    EXPECT_TRUE(model::is_feasible(instance.config, instance.demand.slot(t),
                                   decisions[t], 1e-5));
  }
}

TEST(Offline, DecideBeyondHorizonThrows) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  OfflineController controller;
  controller.reset(instance);
  DecisionContext ctx;
  ctx.slot = instance.horizon();
  ctx.predictor = &predictor;
  ctx.true_demand = &instance.demand.slot(0);
  EXPECT_THROW(controller.decide(ctx), InvalidArgument);
}

// -------------------------------------------------------------------- RHC ----

TEST(Rhc, ValidatesWindow) {
  EXPECT_THROW(RhcController{0}, InvalidArgument);
}

TEST(Rhc, RequiresResetBeforeDecide) {
  RhcController controller(3);
  DecisionContext ctx;
  EXPECT_THROW(controller.decide(ctx), InvalidArgument);
}

TEST(Rhc, NameEncodesWindow) {
  EXPECT_EQ(RhcController(7).name(), "RHC(w=7)");
}

TEST(Rhc, ProducesFeasibleDecisions) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  RhcController controller(3);
  const auto decisions = roll_out(controller, instance, predictor);
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    EXPECT_TRUE(model::is_feasible(instance.config, instance.demand.slot(t),
                                   decisions[t], 1e-5))
        << "slot " << t;
  }
}

TEST(Rhc, FullWindowPerfectPredictionNearOffline) {
  // With w = T and exact forecasts, RHC solves the offline problem at
  // every slot; its cost must land close to the offline schedule's.
  const auto instance = small_instance(5, /*horizon=*/4);
  const workload::PerfectPredictor predictor(instance.demand);

  core::PrimalDualOptions options;
  options.max_iterations = 50;
  OfflineController offline(options);
  const auto offline_decisions = roll_out(offline, instance, predictor);
  RhcController rhc(instance.horizon(), options);
  const auto rhc_decisions = roll_out(rhc, instance, predictor);

  auto total = [&](const std::vector<model::SlotDecision>& decisions) {
    model::Schedule schedule(decisions.begin(), decisions.end());
    return model::schedule_cost(instance.config, instance.demand, schedule,
                                instance.initial_cache)
        .total();
  };
  EXPECT_LE(total(rhc_decisions), total(offline_decisions) * 1.10 + 1e-6);
}

// -------------------------------------------------------------- FHC / CHC ----

TEST(Fhc, ValidatesParameters) {
  core::PrimalDualOptions options;
  EXPECT_THROW(FhcPlanner(0, 0, 1, options), InvalidArgument);
  EXPECT_THROW(FhcPlanner(0, 2, 3, options), InvalidArgument);  // r > w
  EXPECT_THROW(FhcPlanner(3, 4, 2, options), InvalidArgument);  // v >= r
}

TEST(Fhc, ActionsCoverEverySlot) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  FhcPlanner planner(1, 3, 2, {});
  planner.reset(instance);
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    const auto& action = planner.action(t, predictor);
    for (std::size_t n = 0; n < instance.config.num_sbs(); ++n) {
      EXPECT_LE(action.cache.count(n),
                instance.config.sbs[n].cache_capacity);
    }
  }
}

/// Wraps a predictor and records every (tau, t) query, so tests can prove
/// what information a planner actually consumed.
class RecordingPredictor final : public workload::Predictor {
 public:
  explicit RecordingPredictor(const workload::Predictor& inner)
      : inner_(&inner) {}

  model::SlotDemand predict(std::size_t tau, std::size_t t) const override {
    queries_.push_back({tau, t});
    return inner_->predict(tau, t);
  }
  std::size_t horizon() const override { return inner_->horizon(); }

  const std::vector<std::pair<std::size_t, std::size_t>>& queries() const {
    return queries_;
  }
  void clear() { queries_.clear(); }

 private:
  const workload::Predictor* inner_;
  mutable std::vector<std::pair<std::size_t, std::size_t>> queries_;
};

TEST(Fhc, PreHorizonPlansNeverQueryThePredictor) {
  // Planner with offset 1, r = 2: slot 0 belongs to the plan made at
  // tau = -1, which predates every observation. The old code clamped the
  // query time to 0, smuggling slot-0 information into a pre-horizon plan.
  const auto instance = small_instance();
  const workload::PerfectPredictor truth(instance.demand);
  RecordingPredictor recording(truth);
  FhcPlanner planner(1, 3, 2, {});
  planner.reset(instance);

  planner.action(0, recording);  // tau = -1: zero-demand window only
  EXPECT_TRUE(recording.queries().empty())
      << "pre-horizon plan consulted the predictor";

  recording.clear();
  planner.action(1, recording);  // tau = 1: genuine queries, all at time 1
  EXPECT_FALSE(recording.queries().empty());
  for (const auto& [tau, t] : recording.queries()) {
    EXPECT_EQ(tau, 1u);
    EXPECT_GE(t, 1u);
  }
}

TEST(Fhc, ResyncReplansFromExecutedState) {
  // Make replacements expensive so a planner never caches on its own, then
  // tell it a full cache was executed: keeping granted items is free and
  // serves demand, so the resynced planner must keep them. A planner that
  // ignores the resync stays empty.
  auto instance = small_instance();
  instance.config.sbs[0].replacement_beta = 1e6;
  const workload::PerfectPredictor predictor(instance.demand);

  FhcPlanner planner(0, 3, 1, {});
  planner.reset(instance);
  const auto& untouched = planner.action(0, predictor);
  EXPECT_EQ(untouched.cache.count(0), 0u) << "beta=1e6 should deter caching";

  model::CacheState executed(instance.config);
  const std::size_t capacity = instance.config.sbs[0].cache_capacity;
  for (std::size_t k = 0; k < capacity; ++k) executed.set(0, k, true);
  planner.resync(0, executed);
  const auto& resynced = planner.action(1, predictor);
  EXPECT_GT(resynced.cache.count(0), 0u)
      << "planner ignored the executed state handed to resync()";
}

TEST(Chc, ValidatesParameters) {
  EXPECT_THROW(ChcController(0, 1), InvalidArgument);
  EXPECT_THROW(ChcController(2, 3), InvalidArgument);
  EXPECT_THROW(ChcController(2, 2, {}, 0.0), InvalidArgument);
  EXPECT_THROW(ChcController(2, 2, {}, 1.0), InvalidArgument);
}

TEST(Chc, NamesDistinguishAfhc) {
  EXPECT_EQ(ChcController(4, 2).name(), "CHC(w=4,r=2)");
  EXPECT_EQ(ChcController::afhc(4)->name(), "AFHC(w=4)");
  EXPECT_EQ(ChcController::afhc(4)->commit(), 4u);
}

TEST(Chc, ProducesFeasibleDecisions) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  ChcController controller(3, 2);
  const auto decisions = roll_out(controller, instance, predictor);
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    // Cache respects capacity and the masked load respects coupling.
    for (std::size_t n = 0; n < instance.config.num_sbs(); ++n) {
      EXPECT_LE(decisions[t].cache.count(n),
                instance.config.sbs[n].cache_capacity);
      for (std::size_t m = 0; m < instance.config.sbs[n].num_classes(); ++m) {
        for (std::size_t k = 0; k < instance.config.num_contents; ++k) {
          if (!decisions[t].cache.cached(n, k)) {
            EXPECT_DOUBLE_EQ(decisions[t].load.at(n, m, k), 0.0);
          }
        }
      }
    }
  }
}

/// Asserts two decisions agree bit for bit: the caches and every load.
void expect_bitwise_equal(const model::SlotDecision& a,
                          const model::SlotDecision& b, std::size_t slot) {
  EXPECT_EQ(a.cache, b.cache) << "slot " << slot;
  ASSERT_EQ(a.load.num_sbs(), b.load.num_sbs());
  for (std::size_t n = 0; n < a.load.num_sbs(); ++n) {
    const linalg::Vec& x = a.load.sbs_data(n);
    const linalg::Vec& y = b.load.sbs_data(n);
    ASSERT_EQ(x.size(), y.size());
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(double)), 0)
        << "slot " << slot << ", SBS " << n;
  }
}

TEST(Chc, CommitOneEqualsRhcTrajectoryShape) {
  // RHC is the r = 1 planner, and CHC with r = 1 averages that single
  // planner: its caching decision is integral before rounding, so
  // averaging and rounding are the identity.
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  ChcController chc(3, 1);
  RhcController rhc(3);
  const auto chc_decisions = roll_out(chc, instance, predictor);
  const auto rhc_decisions = roll_out(rhc, instance, predictor);
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    expect_bitwise_equal(chc_decisions[t], rhc_decisions[t], t);
  }
}

TEST(Chc, CommitOneEqualsRhcBitwiseOnSbsWeightedPath) {
  // hat-omega > 0 sends P2 through the r step, and noisy forecasts move
  // the window's demand every slot: CHC(r = 1), FHC(r = 1) and RHC still
  // take the same decisions bit for bit.
  workload::PaperScenario scenario;
  scenario.seed = 11;
  scenario.num_contents = 6;
  scenario.classes_per_sbs = 3;
  scenario.horizon = 8;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 3.0;
  scenario.beta = 0.05;
  scenario.omega_sbs_factor = 0.3;
  const auto instance = scenario.build();
  ASSERT_GT(instance.config.sbs[0].classes[0].omega_sbs, 0.0);
  const workload::NoisyPredictor predictor(instance.demand, 0.3, 5, 0.1);
  ChcController chc(4, 1);
  FhcController fhc(4, 1, 0);
  RhcController rhc(4);
  const auto chc_decisions = roll_out(chc, instance, predictor);
  const auto fhc_decisions = roll_out(fhc, instance, predictor);
  const auto rhc_decisions = roll_out(rhc, instance, predictor);
  std::size_t cached = 0;
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    expect_bitwise_equal(chc_decisions[t], rhc_decisions[t], t);
    expect_bitwise_equal(fhc_decisions[t], rhc_decisions[t], t);
    for (std::size_t n = 0; n < instance.config.num_sbs(); ++n) {
      cached += rhc_decisions[t].cache.count(n);
    }
  }
  EXPECT_GT(cached, 0u) << "the instance should exercise caching";
}

TEST(FhcStandalone, ValidAndFeasible) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  FhcController controller(4, 2, 1);
  EXPECT_EQ(controller.name(), "FHC(w=4,r=2,v=1)");
  const auto decisions = roll_out(controller, instance, predictor);
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    for (std::size_t n = 0; n < instance.config.num_sbs(); ++n) {
      EXPECT_LE(decisions[t].cache.count(n),
                instance.config.sbs[n].cache_capacity);
    }
  }
}

TEST(FhcStandalone, MatchesChcSinglePlannerAverage) {
  // CHC with r = 1 and FHC with r = 1 follow the same single planner.
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  FhcController fhc(3, 1, 0);
  ChcController chc(3, 1);
  const auto fhc_decisions = roll_out(fhc, instance, predictor);
  const auto chc_decisions = roll_out(chc, instance, predictor);
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    EXPECT_EQ(fhc_decisions[t].cache, chc_decisions[t].cache);
  }
}

// ---------------------------------------------------------------- LRFU ----

TEST(Lrfu, CachesTopContentsByDemand) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  LrfuController controller;
  controller.reset(instance);
  DecisionContext ctx;
  ctx.slot = 0;
  ctx.true_demand = &instance.demand.slot(0);
  ctx.predictor = &predictor;
  const auto decision = controller.decide(ctx);

  const auto& demand = instance.demand.slot(0)[0];
  const std::size_t capacity = instance.config.sbs[0].cache_capacity;
  EXPECT_EQ(decision.cache.count(0), capacity);
  // Every cached item must have demand >= every uncached item.
  double min_cached = 1e18, max_uncached = -1.0;
  for (std::size_t k = 0; k < instance.config.num_contents; ++k) {
    const double volume = demand.content_total(k);
    if (decision.cache.cached(0, k)) min_cached = std::min(min_cached, volume);
    else max_uncached = std::max(max_uncached, volume);
  }
  EXPECT_GE(min_cached, max_uncached - 1e-9);
}

TEST(Lrfu, RequiresTrueDemand) {
  const auto instance = small_instance();
  LrfuController controller;
  controller.reset(instance);
  DecisionContext ctx;
  ctx.slot = 0;
  EXPECT_THROW(controller.decide(ctx), InvalidArgument);
}

// -------------------------------------------------------------- classics ----

TEST(Classics, RespectCapacityAndCoupling) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  LruController lru;
  LfuController lfu;
  FifoController fifo;
  for (Controller* controller :
       std::initializer_list<Controller*>{&lru, &lfu, &fifo}) {
    const auto decisions = roll_out(*controller, instance, predictor);
    for (std::size_t t = 0; t < decisions.size(); ++t) {
      EXPECT_TRUE(model::is_feasible(instance.config,
                                     instance.demand.slot(t), decisions[t],
                                     1e-5))
          << controller->name() << " slot " << t;
    }
  }
}

TEST(Classics, DeterministicAcrossRuns) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  LruController a(32, 5), b(32, 5);
  const auto da = roll_out(a, instance, predictor);
  const auto db = roll_out(b, instance, predictor);
  for (std::size_t t = 0; t < da.size(); ++t) {
    EXPECT_EQ(da[t].cache, db[t].cache);
  }
}

TEST(Classics, CachesFillUpUnderTraffic) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  LfuController controller(128, 5);
  const auto decisions = roll_out(controller, instance, predictor);
  // With 128 requests per slot the cache should be full from slot 0 on.
  EXPECT_EQ(decisions.back().cache.count(0),
            instance.config.sbs[0].cache_capacity);
}

TEST(Classics, NamesAreStable) {
  EXPECT_EQ(LruController().name(), "LRU");
  EXPECT_EQ(LfuController().name(), "LFU");
  EXPECT_EQ(FifoController().name(), "FIFO");
}

// ------------------------------------------------------------ static topC ----

TEST(StaticTopC, NeverReplacesAfterFirstSlot) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  StaticTopCController controller;
  const auto decisions = roll_out(controller, instance, predictor);
  for (std::size_t t = 1; t < decisions.size(); ++t) {
    EXPECT_EQ(decisions[t].cache, decisions[0].cache);
  }
  EXPECT_EQ(decisions[0].cache.count(0),
            instance.config.sbs[0].cache_capacity);
}

}  // namespace
}  // namespace mdo::online
