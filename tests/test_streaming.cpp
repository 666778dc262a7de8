// Tests for slot-at-a-time trace streaming and the streaming run driver.
#include <gtest/gtest.h>

#include <sstream>

#include "online/baselines.hpp"
#include "online/offline_controller.hpp"
#include "online/rhc.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming_run.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"
#include "workload/streaming.hpp"
#include "workload/trace_io.hpp"

namespace mdo::workload {
namespace {

model::NetworkConfig tiny_config() {
  model::NetworkConfig config;
  config.num_contents = 4;
  model::SbsConfig sbs;
  sbs.cache_capacity = 2;
  sbs.bandwidth = 5.0;
  sbs.replacement_beta = 1.0;
  sbs.classes = {model::MuClass{1.0, 0.0}, model::MuClass{0.3, 0.0}};
  config.sbs.push_back(sbs);
  config.sbs.push_back(sbs);
  return config;
}

TEST(StreamingTrace, MatchesBatchLoaderSlotForSlot) {
  const auto config = tiny_config();
  WorkloadOptions options;
  options.seed = 23;
  const auto trace = generate_sparse_demand(config, 9, options);
  std::stringstream buffer;
  save_trace_csv(buffer, trace);
  const std::string text = buffer.str();

  std::stringstream batch_in(text);
  const auto batch = load_sparse_trace_csv(batch_in, config);

  std::stringstream stream_in(text);
  StreamingTraceReader reader(stream_in, config);
  std::size_t t = 0;
  while (auto slot = reader.next()) {
    ASSERT_LT(t, batch.horizon());
    ASSERT_EQ(slot->size(), config.num_sbs());
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      EXPECT_TRUE((*slot)[n] == batch.slot(t)[n])
          << "slot " << t << " sbs " << n;
    }
    ++t;
  }
  EXPECT_EQ(t, batch.horizon());
  EXPECT_EQ(reader.slots_yielded(), batch.horizon());
  EXPECT_EQ(reader.skipped_records(), 0u);
  // The first nullopt is sticky.
  EXPECT_FALSE(reader.next().has_value());
}

TEST(StreamingTrace, YieldsGapSlotsAsZeros) {
  const auto config = tiny_config();
  std::stringstream buffer(
      "slot,sbs,class,content,rate\n"
      "0,0,0,0,1.5\n"
      "3,1,1,2,0.5\n");
  StreamingTraceReader reader(buffer, config);
  const auto slot0 = reader.next();
  ASSERT_TRUE(slot0.has_value());
  EXPECT_DOUBLE_EQ((*slot0)[0].at(0, 0), 1.5);
  for (std::size_t gap : {1u, 2u}) {
    const auto slot = reader.next();
    ASSERT_TRUE(slot.has_value()) << "gap slot " << gap;
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      EXPECT_EQ((*slot)[n].nnz(), 0u);
    }
  }
  const auto slot3 = reader.next();
  ASSERT_TRUE(slot3.has_value());
  EXPECT_DOUBLE_EQ((*slot3)[1].at(1, 2), 0.5);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.slots_yielded(), 4u);
}

TEST(StreamingTrace, RejectsOutOfOrderSlotsEvenWithBudget) {
  const auto config = tiny_config();
  const std::string text =
      "slot,sbs,class,content,rate\n"
      "1,0,0,0,1.0\n"
      "0,0,0,1,1.0\n";
  std::stringstream buffer(text);
  StreamingTraceOptions generous;
  generous.max_bad_records = 1000;
  StreamingTraceReader reader(buffer, config, generous);
  try {
    while (reader.next()) {
    }
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("non-decreasing"), std::string::npos);
  }
}

TEST(StreamingTrace, SkipBudgetSpansSlotsAndCatchesDuplicates) {
  const auto config = tiny_config();
  const std::string text =
      "slot,sbs,class,content,rate\n"
      "0,0,0,0,1.5\n"
      "0,0,0,0,2.0\n"   // duplicate within the slot
      "1,0,1,oops,1\n"  // malformed row in a later slot
      "1,1,1,2,0.5\n";
  {
    std::stringstream buffer(text);
    StreamingTraceOptions options;
    options.max_bad_records = 2;
    StreamingTraceReader reader(buffer, config, options);
    const auto slot0 = reader.next();
    ASSERT_TRUE(slot0.has_value());
    EXPECT_DOUBLE_EQ((*slot0)[0].at(0, 0), 1.5);  // not the 2.0 duplicate
    const auto slot1 = reader.next();
    ASSERT_TRUE(slot1.has_value());
    EXPECT_DOUBLE_EQ((*slot1)[1].at(1, 2), 0.5);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.skipped_records(), 2u);
  }
  {
    // Default budget 0: the duplicate throws immediately.
    std::stringstream buffer(text);
    StreamingTraceReader reader(buffer, config);
    EXPECT_THROW(
        {
          while (reader.next()) {
          }
        },
        InvalidArgument);
  }
}

TEST(StreamingTrace, FileLevelFailures) {
  const auto config = tiny_config();
  {
    std::stringstream empty;
    EXPECT_THROW(StreamingTraceReader(empty, config), InvalidArgument);
  }
  {
    std::stringstream bad_header("nope\n0,0,0,0,1.0\n");
    EXPECT_THROW(StreamingTraceReader(bad_header, config), InvalidArgument);
  }
  {
    std::stringstream no_rows("slot,sbs,class,content,rate\n");
    StreamingTraceReader reader(no_rows, config);
    EXPECT_THROW(reader.next(), InvalidArgument);
  }
  EXPECT_THROW(StreamingTraceReader("/nonexistent/dir/trace.csv", config),
               InvalidArgument);
}

TEST(StreamingTrace, MinRateTruncatesAtIngest) {
  const auto config = tiny_config();
  std::stringstream buffer(
      "slot,sbs,class,content,rate\n"
      "0,0,0,0,0.001\n"
      "0,0,0,1,1.0\n");
  StreamingTraceOptions options;
  options.min_rate = 0.01;
  StreamingTraceReader reader(buffer, config, options);
  const auto slot = reader.next();
  ASSERT_TRUE(slot.has_value());
  EXPECT_DOUBLE_EQ((*slot)[0].at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ((*slot)[0].at(0, 1), 1.0);
  EXPECT_EQ(reader.entries_yielded(), 1u);
}

}  // namespace
}  // namespace mdo::workload

namespace mdo::sim {
namespace {

workload::PaperScenario streaming_scenario() {
  workload::PaperScenario scenario;
  scenario.seed = 29;
  scenario.num_contents = 8;
  scenario.classes_per_sbs = 3;
  scenario.horizon = 12;
  scenario.cache_capacity = 3;
  scenario.bandwidth = 4.0;
  scenario.beta = 2.0;
  return scenario;
}

TEST(StreamingRun, MatchesMaterializedSimulatorBitForBit) {
  // The second input puts four SBSs on a ring, so both drivers must apply
  // the cooperative neighbor overlay to every slot.
  workload::PaperScenario ring = streaming_scenario();
  ring.num_sbs = 4;
  ring.neighbor_topology = workload::NeighborTopologyKind::kRing;
  for (const workload::PaperScenario& scenario : {streaming_scenario(), ring}) {
    const model::ProblemInstance instance = scenario.build_sparse();
    const bool cooperative = instance.config.has_neighbor_tier();
    std::stringstream buffer;
    workload::save_trace_csv(buffer, instance.sparse_demand);
    const std::string text = buffer.str();

    const std::size_t window = 4;
    for (const bool with_events : {false, true}) {
      // Reference: the materialized engine over the same trace.
      const workload::PerfectPredictor predictor(instance.sparse_demand);
      SimulatorOptions simulator_options;
      simulator_options.simulate_events = with_events;
      const Simulator simulator(instance, predictor, simulator_options);
      online::RhcController reference_controller(window);
      const auto reference = simulator.run(reference_controller);
      double reference_neigh_served = 0.0;
      for (const SlotRecord& slot : reference.slots) {
        reference_neigh_served += slot.neigh_served;
      }
      if (cooperative) {
        ASSERT_GT(reference_neigh_served, 0.0);
      }

      std::stringstream stream_in(text);
      workload::StreamingTraceReader reader(stream_in, instance.config);
      StreamingRunOptions streaming_options;
      streaming_options.lookahead = window;
      streaming_options.simulate_events = with_events;
      online::RhcController streamed_controller(window);
      const auto streamed = run_streaming(
          instance.config, reader, streamed_controller, streaming_options);

      EXPECT_EQ(streamed.slots, instance.horizon());
      EXPECT_DOUBLE_EQ(streamed.total.bs, reference.total.bs);
      EXPECT_DOUBLE_EQ(streamed.total.sbs, reference.total.sbs);
      EXPECT_DOUBLE_EQ(streamed.total.neigh, reference.total.neigh);
      EXPECT_DOUBLE_EQ(streamed.total.replacement,
                       reference.total.replacement);
      EXPECT_EQ(streamed.total_replacements, reference.total_replacements);
      EXPECT_DOUBLE_EQ(streamed.neigh_served, reference_neigh_served);
      EXPECT_DOUBLE_EQ(streamed.offload_ratio(), reference.offload_ratio());
      ASSERT_EQ(streamed.events.has_value(), with_events);
      if (with_events) {
        EXPECT_TRUE(*streamed.events == *reference.events);
      }
    }
  }
}

TEST(StreamingRun, MyopicControllerStreamsWithMinimalLookahead) {
  const auto scenario = streaming_scenario();
  const model::ProblemInstance instance = scenario.build_sparse();
  std::stringstream buffer;
  workload::save_trace_csv(buffer, instance.sparse_demand);

  std::stringstream stream_in(buffer.str());
  workload::StreamingTraceReader reader(stream_in, instance.config);
  StreamingRunOptions options;
  options.lookahead = 1;  // LRFU only reads the current slot
  online::LrfuController controller;
  const auto streamed = run_streaming(instance.config, reader, controller,
                                      options);

  const workload::PerfectPredictor predictor(instance.sparse_demand);
  online::LrfuController reference_controller;
  const auto reference =
      Simulator(instance, predictor).run(reference_controller);
  EXPECT_EQ(streamed.slots, instance.horizon());
  EXPECT_DOUBLE_EQ(streamed.total_cost(), reference.total_cost());
}

TEST(StreamingRun, WholeHorizonControllersFailLoudly) {
  const auto scenario = streaming_scenario();
  const model::ProblemInstance instance = scenario.build_sparse();
  std::stringstream buffer;
  workload::save_trace_csv(buffer, instance.sparse_demand);

  std::stringstream stream_in(buffer.str());
  workload::StreamingTraceReader reader(stream_in, instance.config);
  // The offline optimum needs the whole horizon at reset(): it sees the
  // empty-demand shell and must reject the run rather than return garbage.
  online::OfflineController controller;
  EXPECT_THROW(run_streaming(instance.config, reader, controller), Error);
}

}  // namespace
}  // namespace mdo::sim
