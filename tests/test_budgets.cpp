// Deterministic budgets: quantities a performance change may only lower.
//
// Each ceiling below is written in the test with the state it was measured
// at. A change that lowers a quantity lowers its ceiling in the same change;
// raising one loosens the gate and needs its own declared reason.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/load_balancing.hpp"
#include "core/primal_dual.hpp"
#include "shard/coordinator.hpp"
#include "shard/wire.hpp"
#include "tsan_skip.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/zipf.hpp"

namespace mdo {
namespace {

/// Coordinator-side bytes (frame header + payload) of one message type.
std::uint64_t wire_bytes(shard::MessageType type) {
  const auto index = static_cast<std::size_t>(type);
  return shard::wire_stats().sent[index] + shard::wire_stats().received[index];
}

// A small sparse_n64 shape: N = 8, K = 2000 truncated to the Zipf head,
// RHC windows of w = 4 over 2 shard workers, each window planned from the
// previous plan's first cache.
TEST(Budgets, ShardWireBytesPerSolve) {
  MDO_SKIP_IF_TSAN();
  constexpr std::size_t kWindow = 4;
  constexpr std::size_t kSolves = 4;
  workload::PaperScenario scenario;
  scenario.num_sbs = 8;
  scenario.num_contents = 2000;
  scenario.classes_per_sbs = 2;
  scenario.horizon = kWindow + kSolves - 1;
  scenario.seed = 7;
  scenario.workload.min_rate = workload::zipf_mandelbrot_pmf(
      scenario.num_contents, scenario.workload.zipf_alpha,
      scenario.workload.zipf_q)[scenario.num_contents / 50];
  const auto instance = scenario.build_sparse();
  const workload::PerfectPredictor predictor(instance.sparse_demand);

  core::PrimalDualOptions options;
  options.shard_count = 2;
  core::PrimalDualSolver solver(options);
  model::SparseDemandTrace window;
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.sparse_demand = &window;
  problem.initial_cache = instance.initial_cache;
  shard::reset_wire_stats();
  for (std::size_t tau = 0; tau < kSolves; ++tau) {
    window = predictor.predict_window_sparse(tau, kWindow);
    const core::HorizonSolution solution = solver.solve(problem);
    ASSERT_NE(solution.status, solver::SolveStatus::kWorkerFailure)
        << "tau " << tau;
    problem.initial_cache = solution.schedule.front().cache;
  }
  const std::uint64_t begin =
      wire_bytes(shard::MessageType::kBegin) / kSolves;
  const std::uint64_t end_reply =
      wire_bytes(shard::MessageType::kEndReply) / kSolves;

  // Measured with the MDOSHRD6 protocol, whose kBegin carries no mu (each
  // worker derives its slice's marginal initialization). MDOSHRD5 sent
  // 122960 and 46116; MDOSHRD4, whose kBegin and kEndReply also carried P2
  // warm-start blobs, 231360 and 185864.
  constexpr std::uint64_t kBeginCeiling = 76916;
  constexpr std::uint64_t kEndReplyCeiling = 46116;
  EXPECT_LE(begin, kBeginCeiling);
  EXPECT_LE(end_reply, kEndReplyCeiling);
  RecordProperty("begin_bytes_per_solve", static_cast<int>(begin));
  RecordProperty("end_reply_bytes_per_solve", static_cast<int>(end_reply));
}

// The ShardWireBytesPerSolve shape (N = 8, K = 2000 truncated at Zipf rank
// 40, w = 4) over 12 RHC windows, solved in process on a 4-thread pool,
// each window planned from the previous plan's first cache. The count must
// also equal the 1-thread count: the pool never changes a solve's bits.
std::size_t sparse_shape_dual_iterations(std::size_t threads) {
  constexpr std::size_t kWindow = 4;
  constexpr std::size_t kSolves = 12;
  workload::PaperScenario scenario;
  scenario.num_sbs = 8;
  scenario.num_contents = 2000;
  scenario.classes_per_sbs = 2;
  scenario.horizon = kWindow + kSolves - 1;
  scenario.seed = 7;
  scenario.workload.min_rate = workload::zipf_mandelbrot_pmf(
      scenario.num_contents, scenario.workload.zipf_alpha,
      scenario.workload.zipf_q)[scenario.num_contents / 50];
  const auto instance = scenario.build_sparse();
  const workload::PerfectPredictor predictor(instance.sparse_demand);

  util::ThreadPool::set_global_threads(threads);
  core::PrimalDualOptions options;
  options.shard_count = shard::kShardsInProcess;
  core::PrimalDualSolver solver(options);
  model::SparseDemandTrace window;
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.sparse_demand = &window;
  problem.initial_cache = instance.initial_cache;
  std::size_t iterations = 0;
  for (std::size_t tau = 0; tau < kSolves; ++tau) {
    window = predictor.predict_window_sparse(tau, kWindow);
    const core::HorizonSolution solution = solver.solve(problem);
    EXPECT_NE(solution.status, solver::SolveStatus::kNonFiniteInput)
        << "tau " << tau;
    iterations += solution.iterations;
    problem.initial_cache = solution.schedule.front().cache;
  }
  util::ThreadPool::set_global_threads(1);
  return iterations;
}

TEST(Budgets, SparseShapeDualIterationsPerSolve) {
  const std::size_t iterations = sparse_shape_dual_iterations(4);
  EXPECT_EQ(iterations, sparse_shape_dual_iterations(1));

  // Measured at parent 2e5d1ad and unchanged since: 12 dual iterations,
  // one per solve (the first iteration already meets the epsilon gap).
  constexpr std::size_t kIterationCeiling = 12;
  EXPECT_LE(iterations, kIterationCeiling);
  RecordProperty("dual_iterations", static_cast<int>(iterations));
}

// perfbench's paper_ring shape at T = 12: 6 SBSs on a cooperative ring,
// K = 30, 30 classes per SBS, dense demand, RHC windows of w = 10 (clipped
// at the horizon) under the eta = 0.1 noisy forecast, each window planned
// from the previous plan's first cache. Dual iterations are what every
// paper_ring decision pays for (one P1 and one P2 pass per cell each).
TEST(Budgets, PaperRingDualIterationsPerSolve) {
  constexpr std::size_t kWindow = 10;
  constexpr std::size_t kSlots = 12;
  workload::PaperScenario scenario;
  scenario.num_sbs = 6;
  scenario.num_contents = 30;
  scenario.classes_per_sbs = 30;
  scenario.horizon = kSlots;
  scenario.seed = 7;
  scenario.neighbor_topology = workload::NeighborTopologyKind::kRing;
  scenario.inter_sbs_bandwidth = 5.0;
  const auto instance = scenario.build();
  // perfbench's noise seed at --seed 1, variant 0.
  const workload::NoisyPredictor predictor(instance.demand, 0.1, 2234);

  core::PrimalDualSolver solver(core::PrimalDualOptions{});
  model::SparseDemandTrace window;
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.sparse_demand = &window;
  problem.initial_cache = instance.initial_cache;
  std::size_t iterations = 0;
  for (std::size_t tau = 0; tau < kSlots; ++tau) {
    window = predictor.predict_window_sparse(tau, kWindow);
    const core::HorizonSolution solution = solver.solve(problem);
    ASSERT_NE(solution.status, solver::SolveStatus::kNonFiniteInput)
        << "tau " << tau;
    iterations += solution.iterations;
    problem.initial_cache = solution.schedule.front().cache;
  }

  // Measured at parent 4c9c4d8 (and unchanged by the idle certificate):
  // 189 dual iterations over the 12 solves, 15.75 per solve against the
  // 16-iteration cap at epsilon = 1e-4.
  constexpr std::size_t kIterationCeiling = 189;
  EXPECT_LE(iterations, kIterationCeiling);
  RecordProperty("dual_iterations", static_cast<int>(iterations));
}

// E6's 900-coordinate P2 cell (bench_solvers' P2Fixture at 30 classes x
// 30 contents) with omega_sbs = 0.05 on every class and the bandwidth row
// binding: the r step's bisection nests the theta step's, so this is the
// solve with the most stationary points per call.
TEST(Budgets, SbsWeightedBindingP2StationaryPoints) {
  constexpr std::size_t kClasses = 30;
  constexpr std::size_t kContents = 30;
  model::SbsConfig sbs;
  sbs.cache_capacity = kContents;
  sbs.bandwidth = static_cast<double>(kClasses) / 2.0;
  sbs.replacement_beta = 1.0;
  Rng rng(5);
  sbs.classes.resize(kClasses);
  for (auto& mu : sbs.classes) mu = {rng.uniform(0.0, 1.0), 0.05};
  model::SbsDemand dense(kClasses, kContents);
  for (auto& v : dense.data()) v = rng.uniform(0.0, 2.0 / kContents);
  std::vector<std::size_t> contents(kContents);
  std::iota(contents.begin(), contents.end(), std::size_t{0});
  core::P2Workspace ws;
  ws.bind_active(sbs, model::SparseSbsDemand::from_dense(dense), contents);
  const core::LoadBalancingOutcome outcome = core::solve_load_balancing(ws);
  ASSERT_EQ(outcome.status, solver::SolveStatus::kConverged);

  // Measured at the commit that made the r step the only P2 path for
  // omega_sbs > 0 (parent 220035f): 2112 stationary points.
  constexpr std::size_t kStationaryPointCeiling = 2112;
  EXPECT_LE(outcome.iterations, kStationaryPointCeiling);
  RecordProperty("stationary_points", static_cast<int>(outcome.iterations));
}

}  // namespace
}  // namespace mdo
