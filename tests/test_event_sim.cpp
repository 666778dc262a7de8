// Tests for the request-level discrete-event simulation layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "online/baselines.hpp"
#include "online/rhc.hpp"
#include "sim/event_sim.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo::sim {
namespace {

model::ProblemInstance small_instance(std::uint64_t seed = 3) {
  workload::PaperScenario scenario;
  scenario.seed = seed;
  scenario.num_contents = 8;
  scenario.classes_per_sbs = 3;
  scenario.horizon = 6;
  scenario.cache_capacity = 3;
  scenario.bandwidth = 4.0;
  scenario.beta = 2.0;
  return scenario.build();
}

/// Caches the first `capacity` contents and serves every cached request
/// entirely from the SBS (y = 1 on cached, 0 elsewhere) — or nothing at
/// all when `cache_nothing` is set.
class FixedCacheController final : public online::Controller {
 public:
  explicit FixedCacheController(bool cache_nothing)
      : cache_nothing_(cache_nothing) {}
  std::string name() const override { return "FixedCache"; }
  void reset(const model::ProblemInstance& instance) override {
    instance_ = &instance;
  }
  model::SlotDecision decide(const online::DecisionContext&) override {
    const auto& config = instance_->config;
    model::SlotDecision decision;
    decision.cache = model::CacheState(config);
    decision.load = model::LoadAllocation(config);
    if (cache_nothing_) return decision;
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      for (std::size_t k = 0; k < config.sbs[n].cache_capacity; ++k) {
        decision.cache.set(n, k, true);
        for (std::size_t m = 0; m < config.sbs[n].num_classes(); ++m) {
          decision.load.at(n, m, k) = 1.0;
        }
      }
    }
    return decision;
  }

 private:
  const model::ProblemInstance* instance_ = nullptr;
  bool cache_nothing_ = false;
};

// ---- DelayHistogram --------------------------------------------------------

TEST(DelayHistogram, MeanIsExactQuantilesAreBinApproximate) {
  DelayHistogram histogram;
  for (int i = 1; i <= 100; ++i) histogram.add(static_cast<double>(i) * 0.01);
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_NEAR(histogram.mean(), 0.505, 1e-12);  // exact, not binned
  // Log-spaced bins are ~2.7% wide relative: quantiles land within a few
  // percent of the nearest-rank sample.
  EXPECT_NEAR(histogram.quantile(0.50), 0.50, 0.50 * 0.05);
  EXPECT_NEAR(histogram.quantile(0.99), 0.99, 0.99 * 0.05);
  EXPECT_EQ(histogram.quantile(0.0), histogram.quantile(1e-9));
}

TEST(DelayHistogram, HandlesOutOfRangeAndEmpty) {
  DelayHistogram histogram;
  EXPECT_EQ(histogram.quantile(0.5), 0.0);
  EXPECT_EQ(histogram.mean(), 0.0);
  histogram.add(0.0);     // below the span: lowest bin
  histogram.add(1e9);     // above the span: clamped to the top bin
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_GT(histogram.quantile(1.0), 1e3);
}

TEST(DelayHistogram, SaveRestoreRoundTrips) {
  DelayHistogram histogram;
  for (int i = 0; i < 50; ++i) histogram.add(0.003 * (i + 1));
  util::BinaryWriter w;
  histogram.save(w);
  const auto bytes = w.take();
  util::BinaryReader r(bytes);
  DelayHistogram restored;
  restored.restore(r);
  EXPECT_TRUE(histogram == restored);
  EXPECT_TRUE(r.exhausted());
}

// ---- EventSimulator --------------------------------------------------------

TEST(EventSim, ValidatesOptions) {
  const auto instance = small_instance();
  EventSimOptions options;
  options.requests_per_rate_unit = 0.0;
  EXPECT_THROW(EventSimulator(instance.config, options), InvalidArgument);
  options = {};
  options.content_size_bytes = 0.0;
  EXPECT_THROW(EventSimulator(instance.config, options), InvalidArgument);
}

TEST(EventSim, FullyCachedSlotHasNoBackhaul) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  SimulatorOptions options;
  options.simulate_events = true;
  options.event_options.requests_per_rate_unit = 40.0;
  const Simulator simulator(instance, predictor, options);

  FixedCacheController all(/*cache_nothing=*/false);
  const auto hit_run = simulator.run(all);
  ASSERT_TRUE(hit_run.events.has_value());
  const EventMetrics& hits = *hit_run.events;
  EXPECT_GT(hits.requests, 0u);
  // Requests to the cached contents hit; the rest (uncached contents with
  // y = 0) miss. Every hit saves backhaul bytes one for one.
  EXPECT_GT(hits.sbs_hits, 0u);
  EXPECT_DOUBLE_EQ(
      hits.backhaul_bytes,
      static_cast<double>(hits.requests - hits.sbs_hits) *
          options.event_options.content_size_bytes);
  EXPECT_GT(hits.mean_delay(), 0.0);
  ASSERT_EQ(hits.slots.size(), instance.horizon());

  FixedCacheController nothing(/*cache_nothing=*/true);
  const auto miss_run = simulator.run(nothing);
  ASSERT_TRUE(miss_run.events.has_value());
  // No cache, no load: every request goes over the backhaul.
  EXPECT_EQ(miss_run.events->sbs_hits, 0u);
  EXPECT_DOUBLE_EQ(miss_run.events->backhaul_bytes,
                   static_cast<double>(miss_run.events->requests));
  EXPECT_EQ(miss_run.events->hit_ratio(), 0.0);
  // The no-cache empirical BS cost dominates the cached one.
  EXPECT_GT(miss_run.events->discrete_cost.bs, hits.discrete_cost.bs);
}

TEST(EventSim, DeterministicAcrossRunsAndThreadCounts) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  SimulatorOptions options;
  options.simulate_events = true;
  const Simulator simulator(instance, predictor, options);

  online::LrfuController controller;
  const auto first = simulator.run(controller);
  const auto second = simulator.run(controller);
  ASSERT_TRUE(first.events.has_value() && second.events.has_value());
  EXPECT_TRUE(*first.events == *second.events);

  // The event loop is serial by construction: forcing different pool sizes
  // must not change a single draw.
  util::ThreadPool::set_global_threads(1);
  const auto serial = simulator.run(controller);
  util::ThreadPool::set_global_threads(4);
  const auto parallel = simulator.run(controller);
  util::ThreadPool::set_global_threads(0);  // back to the configured default
  ASSERT_TRUE(serial.events.has_value() && parallel.events.has_value());
  EXPECT_TRUE(*serial.events == *parallel.events);
}

TEST(EventSim, SeedSelectsTheSampleSlotIndexSelectsTheStream) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  SimulatorOptions a;
  a.simulate_events = true;
  a.event_options.seed = 1;
  SimulatorOptions b = a;
  b.event_options.seed = 2;
  online::LrfuController controller;
  const auto run_a = Simulator(instance, predictor, a).run(controller);
  const auto run_b = Simulator(instance, predictor, b).run(controller);
  ASSERT_TRUE(run_a.events.has_value() && run_b.events.has_value());
  EXPECT_FALSE(*run_a.events == *run_b.events);
  // Sanity: same-seed totals agree with the per-slot series.
  std::size_t requests = 0;
  for (const auto& slot : run_a.events->slots) requests += slot.requests;
  EXPECT_EQ(requests, run_a.events->requests);
  EXPECT_EQ(run_a.events->delays.count(),
            run_a.events->requests);  // every request got a delay sample
}

TEST(EventSim, DiscreteCostConvergesToFluidCost) {
  const auto instance = small_instance(11);
  const workload::PerfectPredictor predictor(instance.demand);
  online::LrfuController controller;

  auto relative_gap = [&](double scale) {
    SimulatorOptions options;
    options.simulate_events = true;
    options.event_options.requests_per_rate_unit = scale;
    const Simulator simulator(instance, predictor, options);
    const auto result = simulator.run(controller);
    // h is decision-level: the discrete and fluid replacement terms are
    // identical by construction.
    EXPECT_NEAR(result.events->discrete_cost.replacement,
                result.total.replacement, 1e-9);
    const double fluid = result.total.bs + result.total.sbs;
    const double discrete =
        result.events->discrete_cost.bs + result.events->discrete_cost.sbs;
    return std::abs(discrete - fluid) / fluid;
  };

  const double coarse = relative_gap(2.0);
  const double fine = relative_gap(500.0);
  // The empirical per-class rates concentrate at O(1/sqrt(scale)): the gap
  // at scale 500 must be small outright and far below the scale-2 gap.
  EXPECT_LT(fine, 0.05);
  EXPECT_LT(fine, coarse * 0.5);
}

TEST(EventSim, CheckpointResumeReplaysEventsBitIdentical) {
  const auto instance = small_instance(5);
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = "/tmp/mdo_event_ckpt_test.ckpt";
  std::remove(path.c_str());

  SimulatorOptions uninterrupted;
  uninterrupted.simulate_events = true;
  online::RhcController reference_controller(3);
  const auto reference =
      Simulator(instance, predictor, uninterrupted).run(reference_controller);

  SimulatorOptions crash = uninterrupted;
  crash.checkpoint_path = path;
  crash.checkpoint_every = 2;
  crash.halt_after_slot = 3;  // dies after slot 3; last checkpoint at slot 1
  online::RhcController crashed_controller(3);
  Simulator(instance, predictor, crash).run(crashed_controller);

  SimulatorOptions resume = uninterrupted;
  resume.checkpoint_path = path;
  resume.checkpoint_every = 2;
  resume.resume = true;
  online::RhcController resumed_controller(3);
  const auto resumed =
      Simulator(instance, predictor, resume).run(resumed_controller);

  ASSERT_TRUE(reference.events.has_value() && resumed.events.has_value());
  EXPECT_TRUE(*reference.events == *resumed.events);
  EXPECT_DOUBLE_EQ(reference.total_cost(), resumed.total_cost());
  std::remove(path.c_str());
}

TEST(EventSim, CheckpointRejectsEventLayerMismatch) {
  const auto instance = small_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = "/tmp/mdo_event_ckpt_mismatch.ckpt";
  std::remove(path.c_str());

  SimulatorOptions with_events;
  with_events.simulate_events = true;
  with_events.checkpoint_path = path;
  with_events.checkpoint_every = 2;
  with_events.halt_after_slot = 3;
  online::RhcController writer(3);
  Simulator(instance, predictor, with_events).run(writer);

  // Resuming WITHOUT the event layer must not mis-read the frame: the
  // documented fallback is a cold start, whose result matches a clean run.
  SimulatorOptions without_events;
  without_events.checkpoint_path = path;
  without_events.checkpoint_every = instance.horizon() + 1;
  without_events.resume = true;
  online::RhcController resumed(3);
  const auto result = Simulator(instance, predictor, without_events).run(resumed);
  online::RhcController clean(3);
  const auto expected = Simulator(instance, predictor, {}).run(clean);
  EXPECT_DOUBLE_EQ(result.total_cost(), expected.total_cost());
  EXPECT_FALSE(result.events.has_value());
  std::remove(path.c_str());
}

TEST(EventSim, ExperimentHarnessSurfacesEventMetrics) {
  ExperimentConfig config;
  config.scenario.seed = 21;
  config.scenario.num_contents = 8;
  config.scenario.classes_per_sbs = 3;
  config.scenario.horizon = 4;
  config.scenario.cache_capacity = 3;
  config.scenario.bandwidth = 4.0;
  config.schemes = SchemeSelection{};
  config.schemes.offline = false;
  config.schemes.rhc = false;
  config.schemes.afhc = false;
  config.schemes.chc = false;
  config.schemes.lrfu = true;
  config.simulate_events = true;
  config.event_options.requests_per_rate_unit = 20.0;

  const auto outcomes = run_schemes(config);
  ASSERT_EQ(outcomes.size(), 1u);
  const SchemeOutcome& lrfu = outcomes.front();
  EXPECT_TRUE(lrfu.has_events);
  EXPECT_GT(lrfu.event_requests, 0u);
  EXPECT_GE(lrfu.event_hit_ratio, 0.0);
  EXPECT_LE(lrfu.event_hit_ratio, 1.0);
  EXPECT_GT(lrfu.event_discrete_cost, 0.0);
  EXPECT_GT(lrfu.event_p99_delay, 0.0);
  EXPECT_GE(lrfu.event_p99_delay, lrfu.event_p50_delay);

  config.simulate_events = false;
  const auto without = run_schemes(config);
  EXPECT_FALSE(without.front().has_events);
  // The event layer is observational: fluid costs are unchanged by it.
  EXPECT_DOUBLE_EQ(without.front().total_cost(), lrfu.total_cost());
}

}  // namespace
}  // namespace mdo::sim
