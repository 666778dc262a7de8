// Tests for the collaborative SBS-to-SBS caching tier (DESIGN.md §13):
// the degenerate-topology transparency contract (no topology -> bitwise
// the pre-refactor results, for every controller, at every thread and
// shard count), cooperative <= non-cooperative on every generator,
// rounding/repair feasibility under inter-SBS link caps, the
// zero-bandwidth edge case, and the shard wire's protocol-version check.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/primal_dual.hpp"
#include "model/costs.hpp"
#include "model/feasibility.hpp"
#include "online/baselines.hpp"
#include "online/chc.hpp"
#include "online/fhc.hpp"
#include "online/offline_controller.hpp"
#include "online/rhc.hpp"
#include "online/robust_controller.hpp"
#include "shard/coordinator.hpp"
#include "shard/wire.hpp"
#include "sim/simulator.hpp"
#include "tsan_skip.hpp"
#include "util/thread_pool.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo {
namespace {

workload::PaperScenario small_scenario(
    workload::NeighborTopologyKind kind, double inter_sbs_bandwidth,
    std::size_t num_sbs = 4) {
  workload::PaperScenario scenario;
  scenario.num_sbs = num_sbs;
  scenario.num_contents = 12;
  scenario.classes_per_sbs = 3;
  scenario.cache_capacity = 3;
  scenario.bandwidth = 6.0;
  scenario.beta = 20.0;
  scenario.horizon = 8;
  scenario.seed = 23;
  scenario.neighbor_topology = kind;
  scenario.inter_sbs_bandwidth = inter_sbs_bandwidth;
  scenario.omega_neigh_factor = 0.25;
  return scenario;
}

/// The full controller line-up (Offline / RHC / FHC / CHC / AFHC /
/// Robust(RHC) / LRFU) built fresh per run.
std::vector<std::string> controller_names() {
  return {"offline", "rhc", "fhc", "chc", "afhc", "robust", "lrfu"};
}

std::unique_ptr<online::Controller> make_controller(
    const std::string& which, const core::PrimalDualOptions& pd,
    std::unique_ptr<online::Controller>& inner_keepalive) {
  if (which == "offline") {
    return std::make_unique<online::OfflineController>(pd);
  }
  if (which == "rhc") return std::make_unique<online::RhcController>(3, pd);
  if (which == "fhc") {
    return std::make_unique<online::FhcController>(3, 2, 0, pd);
  }
  if (which == "chc") return std::make_unique<online::ChcController>(3, 2, pd);
  if (which == "afhc") return online::ChcController::afhc(3, pd);
  if (which == "robust") {
    inner_keepalive = std::make_unique<online::RhcController>(3, pd);
    return std::make_unique<online::RobustController>(*inner_keepalive);
  }
  return std::make_unique<online::LrfuController>();
}

/// One full simulation; returns the total cost (and optionally the
/// executed schedule through `result_out`).
sim::SimulationResult run_one(const model::ProblemInstance& instance,
                              const std::string& which, bool cooperative,
                              std::size_t threads, std::size_t shards,
                              bool record_schedule = false) {
  util::ThreadPool::set_global_threads(threads);
  core::PrimalDualOptions pd;
  pd.shard_count = shards;
  std::unique_ptr<online::Controller> inner;
  const auto controller = make_controller(which, pd, inner);
  const workload::NoisyPredictor predictor(instance.demand, 0.1, 99);
  sim::SimulatorOptions options;
  options.cooperative_routing = cooperative;
  options.record_schedule = record_schedule;
  const sim::Simulator simulator(instance, predictor, options);
  sim::SimulationResult result = simulator.run(*controller);
  util::ThreadPool::set_global_threads(1);
  return result;
}

// ---- degenerate-topology transparency -------------------------------------

TEST(Collab, EmptyTopologyBitwiseTransparentForEveryController) {
  const auto instance =
      small_scenario(workload::NeighborTopologyKind::kNone, 0.0).build();
  ASSERT_TRUE(instance.config.topology.empty());
  ASSERT_FALSE(instance.config.has_neighbor_tier());

  for (const std::string& which : controller_names()) {
    const sim::SimulationResult want = run_one(
        instance, which, /*cooperative=*/false, 1, shard::kShardsInProcess,
        /*record_schedule=*/true);
    // No topology -> no neighbor bank anywhere, zero neighbor cost.
    EXPECT_EQ(want.total.neigh, 0.0) << which;
    for (const auto& decision : want.schedule) {
      EXPECT_FALSE(decision.load.has_neighbor()) << which;
    }
    for (const bool cooperative : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t shards :
             {shard::kShardsInProcess, std::size_t{2}}) {
          const sim::SimulationResult got =
              run_one(instance, which, cooperative, threads, shards);
          EXPECT_EQ(got.total.total(), want.total.total())
              << which << " coop=" << cooperative << " threads=" << threads
              << " shards=" << shards;
          EXPECT_EQ(got.total.bs, want.total.bs) << which;
          EXPECT_EQ(got.total.neigh, 0.0) << which;
        }
      }
    }
  }
}

TEST(Collab, ZeroBandwidthLinksBehaveAsNoTopology) {
  // Links exist but none can carry traffic: has_neighbor_tier() is false,
  // the overlay never runs, and — because topology generation draws no RNG
  // for ring — the totals match the no-topology scenario bit for bit.
  const auto baseline =
      small_scenario(workload::NeighborTopologyKind::kNone, 0.0).build();
  const auto zero_bw =
      small_scenario(workload::NeighborTopologyKind::kRing, 0.0).build();
  ASSERT_FALSE(zero_bw.config.topology.empty());
  ASSERT_FALSE(zero_bw.config.has_neighbor_tier());

  for (const std::string& which : {std::string("rhc"), std::string("lrfu")}) {
    const auto want = run_one(baseline, which, true, 1,
                              shard::kShardsInProcess);
    const auto got = run_one(zero_bw, which, true, 1,
                             shard::kShardsInProcess, true);
    EXPECT_EQ(got.total.total(), want.total.total()) << which;
    EXPECT_EQ(got.total.neigh, 0.0) << which;
    for (const auto& decision : got.schedule) {
      EXPECT_FALSE(decision.load.has_neighbor()) << which;
    }
  }
}

// ---- cooperative <= non-cooperative ---------------------------------------

TEST(Collab, CooperativeNeverCostsMoreOnAnyGenerator) {
  for (const auto kind : {workload::NeighborTopologyKind::kRing,
                          workload::NeighborTopologyKind::kGrid,
                          workload::NeighborTopologyKind::kRandomGeometric}) {
    auto scenario = small_scenario(kind, 5.0);
    // Unit-square diameter < 1.5: the geometric graph is complete, so the
    // generator cannot come up empty for any seed.
    scenario.geo_radius = 1.5;
    const auto instance = scenario.build();
    ASSERT_TRUE(instance.config.has_neighbor_tier());
    for (const std::string& which :
         {std::string("rhc"), std::string("chc"), std::string("lrfu")}) {
      const auto coop = run_one(instance, which, true, 1,
                                shard::kShardsInProcess);
      const auto noncoop = run_one(instance, which, false, 1,
                                   shard::kShardsInProcess);
      EXPECT_LE(coop.total.total(), noncoop.total.total())
          << "kind=" << static_cast<int>(kind) << " " << which;
      EXPECT_EQ(noncoop.total.neigh, 0.0);
    }
  }
}

TEST(Collab, CooperativeRunBitIdenticalAcrossThreadsAndShards) {
  const auto instance =
      small_scenario(workload::NeighborTopologyKind::kRing, 5.0).build();
  const auto want =
      run_one(instance, "rhc", true, 1, shard::kShardsInProcess);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t shards :
         {shard::kShardsInProcess, std::size_t{2}}) {
      const auto got = run_one(instance, "rhc", true, threads, shards);
      EXPECT_EQ(got.total.total(), want.total.total())
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(got.total.neigh, want.total.neigh);
    }
  }
}

// ---- feasibility under link caps ------------------------------------------

TEST(Collab, ExecutedDecisionsRespectInterSbsLinkCaps) {
  // Tight links force the per-link budgets to bind; every executed
  // (rounded, repaired, overlaid) decision must still check out feasible —
  // including the designated-source link-budget constraints.
  const auto instance =
      small_scenario(workload::NeighborTopologyKind::kGrid, 0.5).build();
  ASSERT_TRUE(instance.config.has_neighbor_tier());
  const auto result = run_one(instance, "rhc", true, 1,
                              shard::kShardsInProcess, true);
  ASSERT_EQ(result.schedule.size(), instance.horizon());
  bool any_neighbor_traffic = false;
  for (std::size_t t = 0; t < result.schedule.size(); ++t) {
    const auto violations = model::check_feasibility(
        instance.config, instance.demand.slot(t), result.schedule[t], 1e-6);
    EXPECT_TRUE(violations.empty())
        << "slot " << t << ": " << violations.front().description;
    if (result.schedule[t].load.has_neighbor()) any_neighbor_traffic = true;
  }
  EXPECT_TRUE(any_neighbor_traffic);
}

// ---- solver neighbor coupling across the wire -----------------------------

TEST(Collab, NeighborPricedSolveBitIdenticalAcrossShards) {
  MDO_SKIP_IF_TSAN();
  // p1_neighbor_price > 0 ships per-SBS neighbor-reward blocks and
  // omega_neigh through the kBegin frame; the sharded solve must
  // still be bit-identical to the in-process one.
  const auto instance =
      small_scenario(workload::NeighborTopologyKind::kRing, 5.0).build();
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &instance.demand;
  problem.initial_cache = instance.initial_cache;

  core::PrimalDualOptions options;
  options.p1_neighbor_price = 0.05;
  options.shard_count = shard::kShardsInProcess;
  core::PrimalDualSolver in_process(options);
  const auto want = in_process.solve(problem);

  options.shard_count = 2;
  core::PrimalDualSolver sharded(options);
  const auto got = sharded.solve(problem);
  EXPECT_EQ(got.upper_bound, want.upper_bound);
  EXPECT_EQ(got.lower_bound, want.lower_bound);
  ASSERT_EQ(got.mu.size(), want.mu.size());
  for (std::size_t j = 0; j < got.mu.size(); ++j) {
    EXPECT_EQ(got.mu[j], want.mu[j]);
  }
}

TEST(Collab, NeighborPriceZeroMatchesUnpricedSolve) {
  // price = 0 must not tilt anything: bit-identical to the default solve.
  const auto instance =
      small_scenario(workload::NeighborTopologyKind::kRing, 5.0).build();
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &instance.demand;
  problem.initial_cache = instance.initial_cache;

  core::PrimalDualSolver plain{core::PrimalDualOptions{}};
  const auto want = plain.solve(problem);
  core::PrimalDualOptions priced;
  priced.p1_neighbor_price = 0.0;
  core::PrimalDualSolver zero(priced);
  const auto got = zero.solve(problem);
  EXPECT_EQ(got.upper_bound, want.upper_bound);
  EXPECT_EQ(got.lower_bound, want.lower_bound);
}

// ---- MDOSHRD6 wire framing -------------------------------------------------

std::vector<std::uint8_t> raw_frame(const std::vector<std::uint8_t>& payload) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_TRUE(shard::send_frame(fds[0], shard::MessageType::kBegin, payload));
  constexpr std::size_t kHeader = 8 + 4 + 8 + 8;
  std::vector<std::uint8_t> raw(kHeader + payload.size());
  std::size_t got = 0;
  while (got < raw.size()) {
    const ssize_t n = ::recv(fds[1], raw.data() + got, raw.size() - got, 0);
    EXPECT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  ::close(fds[1]);
  return raw;
}

bool frame_accepted(const std::vector<std::uint8_t>& raw) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_EQ(::send(fds[0], raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  ::close(fds[0]);
  shard::MessageType type;
  std::vector<std::uint8_t> payload;
  const bool ok = shard::recv_frame(fds[1], &type, &payload);
  ::close(fds[1]);
  return ok;
}

TEST(Collab, WireMagicCarriesProtocolVersionSix) {
  const std::vector<std::uint8_t> clean = raw_frame({1, 2, 3});
  ASSERT_GE(clean.size(), 8u);
  EXPECT_EQ(std::string(clean.begin(), clean.begin() + 8), "MDOSHRD6");
  EXPECT_TRUE(frame_accepted(clean));
}

TEST(Collab, WireRejectsOldProtocolVersionCleanly) {
  // Well-formed frames from "MDOSHRD5" (whose kBegin still carries mu
  // blocks) down to "MDOSHRD1" peers: same 7-byte prefix, older version
  // byte, checksum intact. Must be rejected as a version mismatch (clean
  // false -> SolveStatus::kWorkerFailure), not read as payload corruption —
  // and certainly not decoded.
  for (const char version : {'5', '4', '3', '2', '1'}) {
    std::vector<std::uint8_t> old = raw_frame({1, 2, 3});
    old[7] = static_cast<std::uint8_t>(version);
    EXPECT_FALSE(frame_accepted(old)) << "MDOSHRD" << version;
  }

  // A garbled magic prefix stays rejected too.
  std::vector<std::uint8_t> garbled = raw_frame({1, 2, 3});
  garbled[0] ^= 0x40;
  EXPECT_FALSE(frame_accepted(garbled));
}

}  // namespace
}  // namespace mdo
